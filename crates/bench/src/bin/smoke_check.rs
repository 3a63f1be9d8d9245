//! CI bench-smoke gate: compares *ratios* from a bench-run log against
//! `BENCH_baseline.json`, failing on > 25% regression.
//!
//! Shared runners are far too noisy to gate on absolute ns, but ratios of
//! benches measured in the same run (blocked vs naive ZipGEMM, TCA-TBE vs
//! baseline codecs) cancel the machine out, and the modeled TP-scaling
//! ratios (`FIG_TP_SCALING`, printed by the `fig_tp` bench) are
//! deterministic. Measured speedup ratios are gated one-sided — only a
//! drop past the tolerance fails (a faster kernel is not a regression,
//! and even same-container re-records drift ~10% in either direction);
//! the deterministic TP-scaling ratios are gated symmetrically, since any
//! drift there means the cost model itself changed. The simulator's own
//! scaling (`FIG_SIMSCALE`, printed by the fig_sched bench: req/s at 64k
//! requests over req/s at 4k, same run) is a measured ratio and gated
//! one-sided too. Usage:
//!
//! ```text
//! cargo bench -p zipserv-bench --bench fig11_kernels ... | tee bench.log
//! cargo run -p zipserv-bench --bin smoke_check -- bench.log BENCH_baseline.json
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

/// Relative drift allowed before a ratio counts as a regression.
const TOLERANCE: f64 = 0.25;

/// Parses `id    12345.6 ns/iter ...` bench lines into `id -> mean_ns`.
fn parse_bench_log(log: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in log.lines() {
        let mut parts = line.split_whitespace();
        let (Some(id), Some(mean), Some(unit)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if unit != "ns/iter" {
            continue;
        }
        if let Ok(v) = mean.parse::<f64>() {
            out.insert(id.to_string(), v);
        }
    }
    out
}

/// Parses a machine-readable `<PREFIX> k1=<x> k2=<y>` line (the
/// `FIG_TP_SCALING` line from the fig_tp bench, the `FIG_FAULT` line from
/// fig_fault, the `FIG_PIPELINE` line from fig_pipeline, the `FIG_FLEET`
/// line from fig_fleet, the `FIG_PREFIX` line from fig_prefix, the
/// `FIG_SIMSCALE` line from fig_sched) into its key/value pairs.
fn parse_kv_line(log: &str, prefix: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in log.lines() {
        let Some(rest) = line.strip_prefix(prefix) else {
            continue;
        };
        for kv in rest.split_whitespace() {
            if let Some((k, v)) = kv.split_once('=') {
                if let Ok(v) = v.parse::<f64>() {
                    out.insert(k.to_string(), v);
                }
            }
        }
    }
    out
}

/// Minimal extractor for the flat numeric fields this check needs from
/// `BENCH_baseline.json` (the vendored `serde` is a no-op stand-in, so the
/// baseline is parsed by key search; keys are unique in that file).
fn baseline_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let num_start = rest.find(|c: char| c.is_ascii_digit() || c == '-')?;
    let tail = &rest[num_start..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// `mean_ns` of one bench id in the baseline: the first number after the
/// id's key (the `mean_ns` field).
fn baseline_mean_ns(json: &str, id: &str) -> Option<f64> {
    baseline_number(json, id)
}

struct Check {
    name: &'static str,
    current: f64,
    baseline: f64,
    /// Measured speedups regress only downward (one-sided gate);
    /// deterministic model ratios must not move in either direction.
    symmetric: bool,
}

impl Check {
    fn drift(&self) -> f64 {
        let signed = self.current / self.baseline - 1.0;
        if self.symmetric {
            signed.abs()
        } else {
            (-signed).max(0.0)
        }
    }

    fn pass(&self) -> bool {
        self.baseline > 0.0 && self.drift() <= TOLERANCE
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(log_path), Some(baseline_path)) = (args.next(), args.next()) else {
        eprintln!("usage: smoke_check <bench.log> <BENCH_baseline.json>");
        return ExitCode::from(2);
    };
    let log = std::fs::read_to_string(&log_path).expect("bench log readable");
    let baseline = std::fs::read_to_string(&baseline_path).expect("baseline readable");
    let means = parse_bench_log(&log);
    let tp = parse_kv_line(&log, "FIG_TP_SCALING ");
    let fault = parse_kv_line(&log, "FIG_FAULT ");
    let pipeline = parse_kv_line(&log, "FIG_PIPELINE ");
    let fleet = parse_kv_line(&log, "FIG_FLEET ");
    let prefix = parse_kv_line(&log, "FIG_PREFIX ");
    let simscale = parse_kv_line(&log, "FIG_SIMSCALE ");

    let log_ratio =
        |num: &str, den: &str| -> Option<f64> { Some(means.get(num)? / means.get(den)?) };
    let base_ratio = |num: &str, den: &str| -> Option<f64> {
        Some(baseline_mean_ns(&baseline, num)? / baseline_mean_ns(&baseline, den)?)
    };

    // (name, current ratio, baseline ratio) — measured-in-the-same-run
    // kernel ratios first, then the deterministic TP-scaling model ratios.
    let ratio_pairs: [(&str, &str, &str); 5] = [
        (
            "blocked_vs_naive_fig11_slice",
            "fig11/zipgemm_real_512x4096xb32/naive_reference",
            "fig11/zipgemm_real_512x4096xb32/blocked",
        ),
        (
            "blocked_vs_naive_64x64",
            "fig12/zipgemm_naive_64x64xb32",
            "fig12/zipgemm_blocked_64x64xb32",
        ),
        (
            // The table-driven decoder's speedup over the lanewise
            // reference on one tile — the tentpole ratio that broke the
            // 232 ns decode floor. One-sided: only the LUT path getting
            // slower (relative to lanewise, same run) is a regression.
            "decode_ns_per_tile",
            "fig12/decode_tile_lanewise",
            "fig12/decode_tile_lut",
        ),
        (
            "tca_tbe_vs_huffman_decomp",
            "fig13/decode_262k_weights/huffman_dfloat11",
            "fig13/decode_262k_weights/tca_tbe",
        ),
        (
            "tca_tbe_vs_rans_decomp",
            "fig13/decode_262k_weights/rans_dietgpu",
            "fig13/decode_262k_weights/tca_tbe",
        ),
    ];

    let mut checks = Vec::new();
    let mut missing = Vec::new();
    for (name, num, den) in ratio_pairs {
        match (log_ratio(num, den), base_ratio(num, den)) {
            (Some(current), Some(baseline)) => checks.push(Check {
                name,
                current,
                baseline,
                symmetric: false,
            }),
            _ => missing.push(name),
        }
    }
    for (name, key, source) in [
        ("fig_tp_scaling_tp2", "tp2", &tp),
        ("fig_tp_scaling_tp4", "tp4", &tp),
        ("fig_fault_goodput_ratio", "goodput_ratio", &fault),
        ("fig_fault_availability", "availability", &fault),
        ("fig_pipeline_min_bubble_gain", "min_bubble_gain", &pipeline),
        (
            "fig_pipeline_bubble_gain_pp4_m8",
            "bubble_gain_pp4_m8",
            &pipeline,
        ),
        ("fig_pipeline_ttft_p99_gain", "ttft_p99_gain", &pipeline),
        ("fig_pipeline_tput_ratio", "tput_ratio", &pipeline),
        ("fig_fleet_p2c_ttft_gain", "p2c_ttft_gain", &fleet),
        ("fig_fleet_p2c_tput_ratio", "p2c_tput_ratio", &fleet),
        ("fig_fleet_imbalance_ratio", "imbalance_ratio", &fleet),
        (
            "fig_fleet_autoscale_tput_ratio",
            "autoscale_tput_ratio",
            &fleet,
        ),
        ("fig_prefix_flops_saved", "flops_saved", &prefix),
        ("fig_prefix_ttft_gain", "ttft_gain", &prefix),
    ] {
        match (source.get(key), baseline_number(&baseline, name)) {
            (Some(&current), Some(baseline)) => checks.push(Check {
                name,
                current,
                baseline,
                symmetric: true,
            }),
            _ => missing.push(name),
        }
    }

    // Simulator scaling is measured, so like the kernel speedups only a
    // drop (long traces getting relatively slower) regresses.
    let name = "fig_sched_simscale_rate_ratio";
    match (simscale.get("rate_ratio"), baseline_number(&baseline, name)) {
        (Some(&current), Some(baseline)) => checks.push(Check {
            name,
            current,
            baseline,
            symmetric: false,
        }),
        _ => missing.push(name),
    }

    if !missing.is_empty() {
        eprintln!(
            "smoke_check: missing data for {missing:?} (bench not run or baseline entry absent)"
        );
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    println!(
        "{:<32} {:>9} {:>9} {:>7}  verdict",
        "ratio", "current", "baseline", "drift"
    );
    for c in &checks {
        let verdict = if c.pass() { "ok" } else { "REGRESSION" };
        failed |= !c.pass();
        println!(
            "{:<32} {:>9.3} {:>9.3} {:>6.1}%  {verdict}",
            c.name,
            c.current,
            c.baseline,
            100.0 * c.drift()
        );
    }
    if failed {
        eprintln!(
            "smoke_check: ratio drifted more than {:.0}% from baseline",
            100.0 * TOLERANCE
        );
        return ExitCode::FAILURE;
    }
    println!(
        "smoke_check: all {} ratios within {:.0}%",
        checks.len(),
        100.0 * TOLERANCE
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_lines_and_scaling() {
        let log = "a/b/c        123.4 ns/iter   55.0 Melem/s\nnot a bench line\n\
                   FIG_TP_SCALING tp2=1.5 tp4=2.0\nFIG_FAULT goodput_ratio=0.8123 availability=0.9511\n\
                   FIG_PIPELINE min_bubble_gain=1.67 ttft_p99_gain=5.28 tput_ratio=0.99\n\
                   FIG_FLEET p2c_ttft_gain=1.29 autoscale_tput_ratio=2.91\n\
                   FIG_PREFIX flops_saved=0.68 ttft_gain=32.26\n\
                   FIG_SIMSCALE rate_ratio=1.0412 req_per_s_4k=196000 req_per_s_64k=189000\n";
        let means = parse_bench_log(log);
        assert_eq!(means.get("a/b/c"), Some(&123.4));
        assert_eq!(means.len(), 1);
        let tp = parse_kv_line(log, "FIG_TP_SCALING ");
        assert_eq!(tp.get("tp2"), Some(&1.5));
        assert_eq!(tp.get("tp4"), Some(&2.0));
        let fault = parse_kv_line(log, "FIG_FAULT ");
        assert_eq!(fault.get("goodput_ratio"), Some(&0.8123));
        assert_eq!(fault.get("availability"), Some(&0.9511));
        let pipeline = parse_kv_line(log, "FIG_PIPELINE ");
        assert_eq!(pipeline.get("min_bubble_gain"), Some(&1.67));
        assert_eq!(pipeline.get("tput_ratio"), Some(&0.99));
        let fleet = parse_kv_line(log, "FIG_FLEET ");
        assert_eq!(fleet.get("p2c_ttft_gain"), Some(&1.29));
        assert_eq!(fleet.get("autoscale_tput_ratio"), Some(&2.91));
        let prefix = parse_kv_line(log, "FIG_PREFIX ");
        assert_eq!(prefix.get("flops_saved"), Some(&0.68));
        assert_eq!(prefix.get("ttft_gain"), Some(&32.26));
        let simscale = parse_kv_line(log, "FIG_SIMSCALE ");
        assert_eq!(simscale.get("rate_ratio"), Some(&1.0412));
        assert_eq!(simscale.get("req_per_s_64k"), Some(&189000.0));
    }

    #[test]
    fn extracts_baseline_numbers() {
        let json = r#"{ "benches": { "x/y": { "mean_ns": 1500.5, "melem_per_s": 2.0 } },
                        "derived": { "some_ratio": 1.88 } }"#;
        assert_eq!(baseline_number(json, "x/y"), Some(1500.5));
        assert_eq!(baseline_number(json, "some_ratio"), Some(1.88));
        assert_eq!(baseline_number(json, "absent"), None);
    }

    #[test]
    fn tolerance_band() {
        // Symmetric (deterministic model ratios): both directions gate.
        let ok = Check {
            name: "r",
            current: 1.2,
            baseline: 1.0,
            symmetric: true,
        };
        assert!(ok.pass());
        let bad = Check {
            name: "r",
            current: 1.3,
            baseline: 1.0,
            symmetric: true,
        };
        assert!(!bad.pass());
        // One-sided (measured speedups): only a drop regresses.
        let faster = Check {
            name: "r",
            current: 2.0,
            baseline: 1.0,
            symmetric: false,
        };
        assert!(faster.pass());
        let slower = Check {
            name: "r",
            current: 0.7,
            baseline: 1.0,
            symmetric: false,
        };
        assert!(!slower.pass());
        let dip = Check {
            name: "r",
            current: 0.8,
            baseline: 1.0,
            symmetric: false,
        };
        assert!(dip.pass());
    }
}
