//! The metric catalogue and the result line every run ends with.
//!
//! Every workload reports every metric of the catalogue it was asked for,
//! so runs of different workloads stay comparable name by name. A layer a
//! workload never calls reports zero work (a count, share or rate of 0).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Deterministic given the seed: a CPU-speed change cannot move it.
    Modeled,
    /// Wall-clock or memory measurement of this machine.
    Measured,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Modeled => "modeled",
            Kind::Measured => "measured",
        }
    }
}

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "1/s"),
    ("ttft_p50_s", "s"),
    ("ttft_tail_s", "s"),
    ("tpot_p50_ms", "ms"),
    ("tpot_tail_ms", "ms"),
    ("goodput_tps", "tok/s"),
    ("slo_attainment", "share"),
    ("served_share", "share"),
    ("slo_rate_rps", "1/s"),
    ("weight_bytes_ratio", "ratio"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.inputs_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("serve.call_ms_p50", "ms"),
    ("trace.overhead_share", "share"),
    ("engine.step_us", "us"),
    ("engine.step_cache_hit_rate", "share"),
    ("scheduler.self_share", "share"),
    ("scheduler.queue_wait_share", "share"),
    ("scheduler.in_flight_mean", "req"),
    ("scheduler.peak_batch", "req"),
    ("scheduler.preemptions", "count"),
    ("policy.share", "share"),
    ("policy.select_calls", "count"),
    ("policy.victim_calls", "count"),
    ("policy.select_mcalls_per_s", "Mcall/s"),
    ("kvcache.prefix_hit_rate", "share"),
    ("kvcache.prefill_saved_share", "share"),
    ("kvcache.prefix_evictions", "count"),
    ("kvcache.pages_shared", "count"),
    ("kvcache.admit_mcalls_per_s", "Mcall/s"),
    ("fleet.route_share", "share"),
    ("fleet.self_share", "share"),
    ("fleet.route_calls", "count"),
    ("fleet.route_mcalls_per_s", "Mcall/s"),
    ("fleet.imbalance_ratio", "ratio"),
    ("fault.retries", "count"),
    ("fault.recomputed_tokens", "tok"),
    ("fault.shed", "count"),
    ("fault.availability", "share"),
    ("fault.rejected_oversized", "count"),
    ("fault.rejected_retries_exhausted", "count"),
    ("fault.rejected_brownout_shed", "count"),
    ("fault.rejected_capacity_lost", "count"),
    ("fault.rejected_policy_hold", "count"),
    ("transformer.self_share", "share"),
    ("zipgemm.share_of_forward", "share"),
    ("zipgemm.gflop_per_s", "GFLOP/s"),
    ("zipgemm.flops_per_forward", "flop"),
    ("zipgemm.bytes_per_forward", "bytes"),
    ("decompress.mtiles_per_s", "Mtile/s"),
    ("decompress.tiles_per_forward", "count"),
    ("compress.mweights_per_s", "Mweight/s"),
];

#[derive(Debug, Clone, Copy)]
struct Value {
    value: f64,
    kind: Kind,
    samples: usize,
}

/// What one run checked and measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or calls) whose output was checked.
    pub attempted: u64,
    /// Checked outputs that were wrong.
    pub failed: u64,
    /// Checks that failed, in words.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, Value>,
}

impl Outcome {
    /// Records a metric; `samples` is the count it was computed over.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue: a typo must not pass as a
    /// missing metric.
    pub fn set(&mut self, name: &'static str, value: f64, kind: Kind, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "{name} is not in the metric catalogue"
        );
        self.values.insert(
            name,
            Value {
                value,
                kind,
                samples,
            },
        );
    }

    /// Records `peak_rss_mb`: the process's peak resident memory so far
    /// (`VmHWM`). Workloads call it when their served work ends, before
    /// the benchmark's own output checks allocate.
    pub fn set_peak_rss(&mut self) {
        let kb = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            });
        match kb {
            Some(kb) => self.set("peak_rss_mb", kb / 1024.0, Kind::Measured, 1),
            None => self.problem("peak resident memory is unreadable".into()),
        }
    }

    /// Notes a failed check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// The human-readable table followed by the one-line JSON result for
    /// the catalogue `metrics`. A missing or non-finite metric is a failed
    /// check, never a silently dropped key.
    pub fn render(&mut self, workload: &str, metrics: &[(&'static str, &'static str)]) -> String {
        let mut table = String::new();
        let mut json = String::new();
        for &(name, unit) in metrics {
            let v = match self.values.get(name) {
                Some(v) if v.value.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("{name} is not finite: {}", v.value));
                    continue;
                }
                None => {
                    self.problems.push(format!("{name} was not measured"));
                    continue;
                }
            };
            let _ = writeln!(
                table,
                "{workload:<15} {name:<34} {:>16.6} {unit:<9} {:<8} n={}",
                v.value,
                v.kind.name(),
                v.samples
            );
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            );
        }
        for p in &self.problems {
            let _ = writeln!(table, "{workload:<15} CHECK FAILED: {p}");
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        let _ = write!(
            table,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_requested_metric_as_json() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25, Kind::Measured, 5);
        let out = o.render("w", &[("setup_s", "s")]);
        let last = out.lines().last().expect("a result line");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_missing_or_infinite_metric_fails_the_run() {
        let mut o = Outcome::default();
        o.set("setup_s", f64::INFINITY, Kind::Measured, 1);
        let out = o.render("w", &[("setup_s", "s"), ("req_per_s", "1/s")]);
        assert!(out.ends_with("\"metrics\": {}}"), "{out}");
        assert!(out.contains("\"correct\": false"));
        assert_eq!(o.problems.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not in the metric catalogue")]
    fn unknown_names_are_refused() {
        Outcome::default().set("nope", 1.0, Kind::Modeled, 1);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (list, key) in [(END_TO_END, "\"end_to_end\""), (PER_LAYER, "\"per_layer\"")] {
            let section = &json[json.find(key).expect("section present")..];
            for &(name, unit) in list {
                let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
                assert!(
                    section.contains(&entry),
                    "{name} ({unit}) missing from {key}"
                );
            }
        }
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
