//! Scheduling-policy suite: bit-compatibility of the trait-based loop with
//! a straight-line FCFS oracle, and scenario-level wins for the QoS-aware
//! policies (priority bursts, SLO deadlines, preemption accounting).

use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use zipserv::prelude::*;
use zipserv::serve::scheduler::{
    poisson_arrivals as poisson, run_policy, Completion, StepCacheStats,
};

fn zip_engine() -> ServingEngine {
    ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .build()
}

/// The FCFS continuous-batching loop the scheduler started as, written
/// straight through on the engine's public cost model: admit from the head
/// of the arrival-sorted queue while the batch cap and the whole-lifetime
/// KV demand allow (an idle engine jumps to the next arrival), charge each
/// admission its prefill, run one decode step for the whole batch, priced
/// once per `(batch, context bucket)`, and retire finished requests.
///
/// # Panics
///
/// Panics on a request that cannot fit the deployment alone.
fn fcfs_oracle(
    engine: &ServingEngine,
    max_batch: usize,
    mut trace: Vec<Request>,
) -> ScheduleReport {
    struct Running {
        req: Request,
        admitted_s: f64,
        generated: u64,
        first_token_s: Option<f64>,
    }
    trace.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite"));
    let capacity = engine.kv_capacity_tokens();
    let mut queue: VecDeque<Request> = trace.into();
    let mut running: Vec<Running> = Vec::new();
    let mut completions = Vec::new();
    let (mut now, mut peak_batch, mut output_tokens) = (0.0f64, 0usize, 0u64);
    let mut step_ms: HashMap<(u64, u64), f64> = HashMap::new();
    let mut steps = 0u64;
    while !queue.is_empty() || !running.is_empty() {
        while let Some(next) = queue.front() {
            if next.arrival_s > now && running.is_empty() {
                now = next.arrival_s;
            }
            let demand = running
                .iter()
                .map(|f| f.req.prompt_len + f.req.output_len)
                .sum::<u64>()
                + next.prompt_len
                + next.output_len;
            if next.arrival_s > now || running.len() >= max_batch || demand > capacity {
                break;
            }
            let req = queue.pop_front().expect("checked front");
            now += engine.prefill_ms(1, req.prompt_len) / 1e3;
            running.push(Running {
                req,
                admitted_s: now,
                generated: 0,
                first_token_s: None,
            });
        }
        assert!(!running.is_empty(), "oracle traces fit the deployment");
        peak_batch = peak_batch.max(running.len());

        let batch = running.len() as u64;
        let mean_context = running
            .iter()
            .map(|f| f.req.prompt_len + f.generated)
            .sum::<u64>()
            / batch;
        let bucket = (mean_context / 256).max(1) * 256;
        let ms = *step_ms
            .entry((batch, bucket))
            .or_insert_with(|| engine.decode_step(batch, bucket).total_ms());
        now += ms / 1e3;
        output_tokens += batch;
        steps += 1;

        for f in running.iter_mut() {
            f.generated += 1;
            f.first_token_s.get_or_insert(now);
        }
        running.retain(|f| {
            if f.generated < f.req.output_len {
                return true;
            }
            let first_token = f.first_token_s.expect("decoded at least once");
            let ttft_s = first_token - f.req.arrival_s;
            completions.push(Completion {
                id: f.req.id,
                priority: f.req.priority,
                queue_s: f.admitted_s - f.req.arrival_s,
                latency_s: now - f.req.arrival_s,
                ttft_s,
                preemptions: 0,
                slo_met: f.req.slo.map(|slo| {
                    let decode_budget = slo.tpot_s * f.req.output_len.saturating_sub(1) as f64;
                    ttft_s <= slo.ttft_s && now - first_token <= decode_budget
                }),
                output_len: f.req.output_len,
                retries: 0,
            });
            false
        });
    }
    ScheduleReport {
        completions,
        duration_s: now,
        throughput_tps: if now > 0.0 {
            output_tokens as f64 / now
        } else {
            0.0
        },
        peak_batch,
        comm_s: 0.0,
        preemptions: 0,
        rejected: Vec::new(),
        rejections: Vec::new(),
        robustness: RobustnessStats::default(),
        // Each distinct step shape is priced once; every other step hits.
        step_cache: StepCacheStats {
            hits: steps - step_ms.len() as u64,
            misses: step_ms.len() as u64,
        },
        prefix: PrefixStats::default(),
        policy: Fcfs.name().to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Fcfs` under the generic `SchedulePolicy` loop (called directly and
    /// through the builder) reproduces the straight-line FCFS oracle
    /// *exactly*: the same completions in the same order, the same
    /// duration, throughput, peak batch and step-cache counters, on random
    /// Poisson arrival streams.
    #[test]
    fn fcfs_is_bit_compatible_with_legacy_batcher(
        rate10 in 5u64..120,
        count in 5usize..48,
        prompt in 32u64..1024,
        output in 8u64..256,
        seed in 1u64..1_000_000,
    ) {
        let engine = zip_engine();
        let arrivals = poisson(rate10 as f64 / 10.0, count, prompt, output, seed);
        let oracle = fcfs_oracle(&engine, 64, arrivals.clone());
        let via_trait = run_policy(&engine, &Fcfs, 64, arrivals.clone());
        let via_builder = engine.serve_online(arrivals);
        prop_assert_eq!(&via_trait, &oracle);
        prop_assert_eq!(&via_builder, &oracle);
    }
}

/// A fixed Poisson trace, the fast smoke of the proptest above: `Fcfs`
/// called directly and through the builder reproduces the oracle.
#[test]
fn fcfs_matches_oracle_on_a_smoke_trace() {
    let engine = zip_engine();
    let arrivals = poisson(6.0, 30, 512, 64, 13);
    let oracle = fcfs_oracle(&engine, 64, arrivals.clone());
    assert_eq!(run_policy(&engine, &Fcfs, 64, arrivals.clone()), oracle);
    assert_eq!(engine.serve_online(arrivals), oracle);
}

/// Equal arrival times with out-of-order ids: the scheduler keeps the
/// stable submission order on ties (the sort is stable and `Fcfs` picks
/// the queue head), as the oracle does.
#[test]
fn fcfs_matches_oracle_on_tied_arrivals() {
    let engine = zip_engine();
    let arrivals = vec![
        Request::new(5, 1.0, 256, 16),
        Request::new(2, 1.0, 128, 32),
        Request::new(9, 0.5, 64, 8),
        Request::new(1, 1.0, 512, 24),
    ];
    let oracle = fcfs_oracle(&engine, 64, arrivals.clone());
    assert_eq!(run_policy(&engine, &Fcfs, 64, arrivals.clone()), oracle);
    assert_eq!(engine.serve_online(arrivals), oracle);
}

/// Background load at KV-pressure, then a burst of interactive requests
/// mid-run: the QoS-aware policies must cut the high class's p99 TTFT
/// versus FCFS without giving up more than 5% total throughput. The
/// background jobs are long-output (1024 tokens) so the run is KV-bound:
/// FCFS head-of-line blocks the short burst behind a standard request that
/// cannot fit, while Priority/SJF slot the burst into the free headroom.
#[test]
fn qos_policies_beat_fcfs_on_high_priority_burst() {
    let mut arrivals: Vec<Request> = poisson(8.0, 60, 1024, 1024, 11)
        .into_iter()
        .map(|r| r.with_priority(PriorityClass::Standard))
        .collect();
    // Eight interactive chat requests land together mid-run, once the KV
    // cache is saturated by the background wave.
    for i in 0..8u64 {
        arrivals.push(
            Request::new(1000 + i, 30.0 + 0.01 * i as f64, 128, 32)
                .with_priority(PriorityClass::Interactive)
                .with_slo(Slo::new(2.0, 0.1)),
        );
    }

    let engine = zip_engine();
    let fcfs = run_policy(&engine, &Fcfs, 64, arrivals.clone());
    let fcfs_p99 = fcfs
        .class_ttft_percentile(PriorityClass::Interactive, 0.99)
        .expect("burst completed");

    for policy in [
        Box::new(Priority::default()) as Box<dyn SchedulePolicy>,
        Box::new(PreemptiveSjf::default()),
    ] {
        let report = run_policy(&engine, policy.as_ref(), 64, arrivals.clone());
        assert_eq!(
            report.completions.len(),
            arrivals.len(),
            "{}: all requests complete",
            policy.name()
        );
        let p99 = report
            .class_ttft_percentile(PriorityClass::Interactive, 0.99)
            .expect("burst completed");
        assert!(
            p99 < fcfs_p99,
            "{}: interactive p99 TTFT {p99:.2}s vs FCFS {fcfs_p99:.2}s",
            policy.name()
        );
        assert!(
            report.throughput_tps >= 0.95 * fcfs.throughput_tps,
            "{}: throughput {:.1} vs FCFS {:.1}",
            policy.name(),
            report.throughput_tps,
            fcfs.throughput_tps
        );
    }
}

/// EDF admits by deadline: on the saturated (smaller-KV) vLLM deployment,
/// tightly-deadlined requests attain their SLO strictly more often than
/// under FCFS.
#[test]
fn slo_edf_improves_slo_attainment_under_load() {
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 100, 37);
    let engine = ServingEngine::builder().kind(EngineKind::Vllm).build();
    let fcfs = run_policy(&engine, &Fcfs, 64, arrivals.clone());
    let edf = run_policy(&engine, &SloEdf::default(), 64, arrivals);
    let (af, ae) = (
        fcfs.slo_attainment().expect("SLO-carrying requests"),
        edf.slo_attainment().expect("SLO-carrying requests"),
    );
    assert!(ae > af, "EDF attainment {ae:.3} vs FCFS {af:.3}");
}

/// Preemption bookkeeping: when PreemptiveSjf evicts, the report counts it,
/// the victim completes anyway, and nobody exceeds the preemption cap. The
/// paper mix at 12 req/s saturates the vLLM deployment's KV cache, so
/// short interactive jobs must evict long batch jobs to get in.
#[test]
fn preemption_is_accounted_and_bounded() {
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 100, 37);
    let engine = ServingEngine::builder().kind(EngineKind::Vllm).build();
    let report = run_policy(&engine, &PreemptiveSjf::default(), 64, arrivals.clone());
    assert_eq!(report.completions.len(), arrivals.len());
    assert!(report.preemptions > 0, "scenario must trigger preemption");
    let per_request: u64 = report
        .completions
        .iter()
        .map(|c| c.preemptions as u64)
        .sum();
    assert_eq!(per_request, report.preemptions, "per-request sums to total");
    assert!(report
        .completions
        .iter()
        .all(|c| c.preemptions <= zipserv::serve::scheduler::MAX_PREEMPTIONS));
    // Page-out recovery completes everything too, paying PCIe transfers
    // instead of recompute prefills.
    let paged = run_policy(
        &engine,
        &PreemptiveSjf {
            mode: PreemptionMode::PageOut,
        },
        64,
        arrivals.clone(),
    );
    assert_eq!(paged.completions.len(), arrivals.len());
    assert!(paged.preemptions > 0);
}

/// The empty run: no arrivals means `None` percentiles, not a panic — the
/// regression the Option migration exists for.
#[test]
fn empty_trace_reports_none_everywhere() {
    let engine = zip_engine();
    let report = engine.serve_online(Vec::new());
    assert!(report.completions.is_empty());
    assert_eq!(report.latency_percentile(0.5), None);
    assert_eq!(report.ttft_percentile(0.99), None);
    assert_eq!(report.mean_queue_s(), None);
    assert_eq!(report.slo_attainment(), None);
    assert!(report.per_class().is_empty());
    assert_eq!(report.throughput_tps, 0.0);
}

/// Per-class stats partition the run: counts sum to the total and the
/// interactive class is at least as fast as batch under Priority.
#[test]
fn class_stats_partition_the_run() {
    let arrivals = ArrivalMix::paper_mix().generate(10.0, 90, 51);
    let engine = ServingEngine::builder().policy(Priority::default()).build();
    let report = engine.serve_online(arrivals);
    let stats = report.per_class();
    let total: usize = stats.iter().map(|s| s.count).sum();
    assert_eq!(total, report.completions.len());
    let by = |c: PriorityClass| stats.iter().find(|s| s.class == c).expect("class present");
    assert!(
        by(PriorityClass::Interactive).p99_ttft_s <= by(PriorityClass::Batch).p99_ttft_s,
        "interactive {} vs batch {}",
        by(PriorityClass::Interactive).p99_ttft_s,
        by(PriorityClass::Batch).p99_ttft_s
    );
}
