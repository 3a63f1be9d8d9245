//! Chaos suite for the fault-injection harness: empty-plan bit-compat,
//! exactly-once delivery under seeded rank failures, retry/backoff edge
//! cases (cap exhaustion, fault mid-prefill vs mid-decode, repair while
//! victims are still queued), SLO-aware brownout, and the time accounting
//! for link degradation, KV stalls and corrupted decode frames.

use std::collections::{BTreeSet, HashMap};

use zipserv::gpu::device::Gpu;
use zipserv::kernels::shapes::LlmModel;
use zipserv::prelude::*;
use zipserv::serve::scheduler::{run_policy, run_policy_faulted, to_ns};

fn builder(kind: EngineKind) -> EngineBuilder {
    ServingEngine::builder()
        .kind(kind)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::tensor_parallel(Gpu::L40s, 2))
}

fn all_policies() -> Vec<Box<dyn SchedulePolicy>> {
    vec![
        Box::new(Fcfs),
        Box::new(Priority::default()),
        Box::new(SloEdf::default()),
        Box::new(PreemptiveSjf::default()),
        Box::new(PreemptiveSjf {
            mode: PreemptionMode::PageOut,
        }),
    ]
}

/// Runs one request alone to find out how long it takes clean — the chaos
/// tests time their faults relative to this.
fn clean_solo(engine: &ServingEngine, req: Request) -> (f64, f64) {
    let report = run_policy(engine, &Fcfs, 64, vec![req]);
    let c = report.completions.first().expect("solo request completes");
    (c.ttft_s + req.arrival_s, report.duration_s)
}

/// The acceptance pin: an *empty* fault plan is bit-invisible. For every
/// policy, on both a single-GPU and a TP deployment, over the same mixed
/// traffic the three pinned suites use, `run_policy` (no plan),
/// `run_policy_faulted` with the default plan, and `serve_online` on an
/// engine that explicitly attached an empty plan produce bit-identical
/// reports with all-zero robustness books.
#[test]
fn empty_plan_is_bit_identical_for_every_policy() {
    let mix = ArrivalMix::paper_mix().generate(12.0, 100, 37);
    let clusters = [
        GpuCluster::single(Gpu::Rtx4090),
        GpuCluster::tensor_parallel(Gpu::L40s, 2),
    ];
    for cluster in clusters {
        for kind in [EngineKind::ZipServ, EngineKind::Vllm] {
            let engine = ServingEngine::builder()
                .kind(kind)
                .model(LlmModel::Llama31_8b)
                .cluster(cluster)
                .fault_plan(FaultPlan::default())
                .build();
            for policy in all_policies() {
                let bare = run_policy(&engine, policy.as_ref(), 64, mix.clone());
                let faulted = run_policy_faulted(
                    &engine,
                    policy.as_ref(),
                    64,
                    mix.clone(),
                    &FaultPlan::default(),
                    &RetryPolicy::default(),
                );
                assert_eq!(bare, faulted, "{kind:?}/{}", policy.name());
                assert_eq!(bare.robustness, RobustnessStats::default());
                assert!(bare.rejections.is_empty());
                assert_eq!(bare.availability(), 1.0);
                for c in &bare.completions {
                    assert_eq!(c.retries, 0, "clean completions never retried");
                }
            }
            // The builder-attached empty plan goes through the same path.
            let via_engine = engine.serve_online(mix.clone());
            let direct = run_policy(&engine, engine.policy(), engine.max_batch(), mix.clone());
            assert_eq!(via_engine, direct, "{kind:?}: attached empty plan");
        }
    }
}

/// Exactly-once delivery under chaos: across a sweep of seeded plans,
/// every request either completes exactly once or carries exactly one
/// typed rejection — never both, never neither, never twice.
#[test]
fn seeded_faults_resolve_every_request_exactly_once() {
    let engine = builder(EngineKind::ZipServ).build();
    let ranks = engine.cluster().total_ranks();
    for seed in 1..=20u64 {
        let arrivals = ArrivalMix::paper_mix().generate(10.0, 60, seed);
        let all_ids: BTreeSet<u64> = arrivals.iter().map(|r| r.id).collect();
        let plan = FaultPlan::seeded(seed, 8.0, ranks);
        let report =
            run_policy_faulted(&engine, &Fcfs, 64, arrivals, &plan, &RetryPolicy::default());
        let completed: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
        let completed_set: BTreeSet<u64> = completed.iter().copied().collect();
        assert_eq!(
            completed.len(),
            completed_set.len(),
            "seed {seed}: a request completed twice"
        );
        let rejected_set: BTreeSet<u64> = report.rejected.iter().copied().collect();
        assert_eq!(
            report.rejected.len(),
            rejected_set.len(),
            "seed {seed}: a request rejected twice"
        );
        assert!(
            completed_set.is_disjoint(&rejected_set),
            "seed {seed}: completed AND rejected"
        );
        let resolved: BTreeSet<u64> = completed_set.union(&rejected_set).copied().collect();
        assert_eq!(resolved, all_ids, "seed {seed}: some request vanished");
        // The books match the plan.
        assert_eq!(report.robustness.faults_injected as usize, plan.len());
        assert_eq!(
            report.robustness.rank_failures, 1,
            "seeded plans fail one rank"
        );
        assert!(report.availability() > 0.0 && report.availability() <= 1.0);
        assert!(report.goodput_tps() <= report.throughput_tps + 1e-9);
    }
}

/// Determinism: the same plan over the same arrivals yields a
/// bit-identical report, run after run.
#[test]
fn faulted_runs_are_deterministic() {
    let engine = builder(EngineKind::ZipServ).build();
    let arrivals = ArrivalMix::paper_mix().generate(10.0, 80, 11);
    let plan = FaultPlan::seeded(7, 8.0, engine.cluster().total_ranks());
    let retry = RetryPolicy::default();
    let a = run_policy_faulted(
        &engine,
        &SloEdf::default(),
        64,
        arrivals.clone(),
        &plan,
        &retry,
    );
    let b = run_policy_faulted(&engine, &SloEdf::default(), 64, arrivals, &plan, &retry);
    assert_eq!(a, b);
}

/// Retry-cap exhaustion: a request victimized by more rank failures than
/// the `RetryPolicy` allows is rejected with `RetriesExhausted`, and the
/// books count exactly the retries that were granted.
#[test]
fn retry_cap_exhaustion_yields_typed_rejection() {
    let engine = builder(EngineKind::ZipServ).build();
    let req = Request::new(0, 0.0, 512, 2_000);
    let (_, clean_duration) = clean_solo(&engine, req);
    // Two failure waves while the request runs; one retry allowed.
    let plan = FaultPlan::new()
        .rank_fail(0.2 * clean_duration, 0)
        .rank_repair(0.3 * clean_duration, 0)
        .rank_fail(0.6 * clean_duration, 0)
        .rank_repair(0.7 * clean_duration, 0);
    let retry = RetryPolicy {
        max_retries: 1,
        ..RetryPolicy::default()
    };
    let report = run_policy_faulted(&engine, &Fcfs, 64, vec![req], &plan, &retry);
    assert!(
        report.completions.is_empty(),
        "second wave must exhaust the cap"
    );
    assert_eq!(report.rejected_for(RejectReason::RetriesExhausted), vec![0]);
    assert_eq!(
        report.robustness.retries, 1,
        "one retry granted before the cap"
    );
    assert_eq!(report.robustness.rank_failures, 2);
    // The retry recomputed the prompt (plus any generated tokens).
    assert!(report.robustness.recomputed_tokens >= 512);
    // With a generous cap the same chaos is survivable.
    let lenient = run_policy_faulted(
        &engine,
        &Fcfs,
        64,
        vec![req],
        &plan,
        &RetryPolicy::default(),
    );
    assert_eq!(
        lenient.completions.len(),
        1,
        "default cap survives two waves"
    );
    assert_eq!(lenient.completions[0].retries, 2);
    assert!(lenient.rejections.is_empty());
}

/// A fault that lands mid-prefill (before the first token) victimizes the
/// request with nothing generated: the recompute covers exactly the
/// prompt, and the request still completes with one recorded retry.
#[test]
fn fault_mid_prefill_recomputes_the_prompt() {
    let engine = builder(EngineKind::ZipServ).build();
    let req = Request::new(0, 0.0, 4096, 64);
    let (clean_ttft, _) = clean_solo(&engine, req);
    let prefill_s = engine.prefill_ms(1, 4096) / 1e3;
    assert!(prefill_s < clean_ttft, "prefill is part of TTFT");
    // Strike halfway through the prefill charge; repair soon after.
    let plan = FaultPlan::new()
        .rank_fail(0.5 * prefill_s, 1)
        .rank_repair(prefill_s + 0.01, 1);
    let report = run_policy_faulted(
        &engine,
        &Fcfs,
        64,
        vec![req],
        &plan,
        &RetryPolicy::default(),
    );
    assert_eq!(report.completions.len(), 1);
    let c = &report.completions[0];
    assert_eq!(c.retries, 1);
    // Faults apply at scheduler round boundaries, so a strike during the
    // prefill charge lands right after it — the victim has exactly one
    // decode step behind it, and the recompute is prompt + 1.
    assert_eq!(
        report.robustness.recomputed_tokens, 4097,
        "a prefill-time strike recomputes the prompt plus the single step \
         the round completed"
    );
    assert!(c.latency_s > clean_ttft, "the retry cost real time");
}

/// A fault that lands mid-decode recomputes prompt *plus* the tokens
/// already generated — strictly more work than the mid-prefill case — and
/// the victim's completion keeps its full output length.
#[test]
fn fault_mid_decode_recomputes_prompt_plus_generated() {
    let engine = builder(EngineKind::ZipServ).build();
    let req = Request::new(0, 0.0, 4096, 512);
    let (clean_ttft, clean_duration) = clean_solo(&engine, req);
    // Strike well into the decode phase.
    let fail_at = clean_ttft + 0.5 * (clean_duration - clean_ttft);
    let plan = FaultPlan::new()
        .rank_fail(fail_at, 0)
        .rank_repair(fail_at + 0.05, 0);
    let report = run_policy_faulted(
        &engine,
        &Fcfs,
        64,
        vec![req],
        &plan,
        &RetryPolicy::default(),
    );
    assert_eq!(report.completions.len(), 1);
    let c = &report.completions[0];
    assert_eq!(c.retries, 1);
    assert_eq!(c.output_len, 512, "completion keeps its full output");
    assert!(
        report.robustness.recomputed_tokens > 4096,
        "mid-decode recompute covers prompt + {} generated tokens, got {}",
        512,
        report.robustness.recomputed_tokens
    );
    assert!(
        report.duration_s > clean_duration,
        "the fault cost real time"
    );
}

/// Repair while victims are still queued: the recovery window opens at the
/// failure, the victims wait out their backoff, and the window closes when
/// the last one is re-admitted — recorded as one recovery whose
/// time-to-recover is the backoff (the idle engine re-admits the victim the
/// moment it ends), plus downtime covering the dead interval.
#[test]
fn repair_while_victims_queued_closes_the_recovery_window() {
    let engine = builder(EngineKind::ZipServ).build();
    let req = Request::new(0, 0.0, 1024, 800);
    let (_, clean_duration) = clean_solo(&engine, req);
    let fail_at = 0.3 * clean_duration;
    let repair_at = 0.6 * clean_duration;
    let retry = RetryPolicy {
        max_retries: 3,
        base_backoff_s: repair_at - fail_at + 0.1, // backoff outlasts the outage
        multiplier: 2.0,
    };
    let plan = FaultPlan::new()
        .rank_fail(fail_at, 0)
        .rank_repair(repair_at, 0);
    let report = run_policy_faulted(&engine, &Fcfs, 64, vec![req], &plan, &retry);
    assert_eq!(report.completions.len(), 1);
    assert_eq!(report.robustness.recoveries, 1, "one recovery window");
    let ttr = report
        .robustness
        .mean_time_to_recover_s()
        .expect("recovered");
    assert!(
        (ttr - retry.base_backoff_s).abs() < 1e-9,
        "victim re-admits when its {:.2}s backoff ends, ttr {ttr:.2}s",
        retry.base_backoff_s
    );
    // Fault events apply at the next scheduler round boundary, so measured
    // downtime can trail the nominal outage by up to one decode step.
    assert!(
        (report.robustness.downtime_s - (repair_at - fail_at)).abs() < 0.5,
        "downtime {:.2}s must track the outage {:.2}s",
        report.robustness.downtime_s,
        repair_at - fail_at
    );
    assert!(report.availability() < 1.0);
    assert!(report.availability() > 0.0);
}

/// Longer backoff means later re-admission: the same outage with a 10×
/// backoff completes strictly later.
#[test]
fn backoff_delays_readmission() {
    let engine = builder(EngineKind::ZipServ).build();
    let req = Request::new(0, 0.0, 1024, 400);
    let (_, clean_duration) = clean_solo(&engine, req);
    let plan = FaultPlan::new()
        .rank_fail(0.4 * clean_duration, 0)
        .rank_repair(0.45 * clean_duration, 0);
    let quick = RetryPolicy {
        base_backoff_s: 0.01,
        ..RetryPolicy::default()
    };
    let slow = RetryPolicy {
        base_backoff_s: 1.5,
        ..RetryPolicy::default()
    };
    let rq = run_policy_faulted(&engine, &Fcfs, 64, vec![req], &plan, &quick);
    let rs = run_policy_faulted(&engine, &Fcfs, 64, vec![req], &plan, &slow);
    assert_eq!(rq.completions.len(), 1);
    assert_eq!(rs.completions.len(), 1);
    assert!(
        rs.completions[0].latency_s > rq.completions[0].latency_s + 1.0,
        "1.5s backoff vs 0.01s: {:.3}s vs {:.3}s",
        rs.completions[0].latency_s,
        rq.completions[0].latency_s
    );
}

/// SLO-aware brownout: while a rank is down, *fresh* best-effort (Batch)
/// arrivals are shed with a typed rejection; interactive and standard
/// traffic — and fault victims of any class — keep their service.
#[test]
fn brownout_sheds_only_fresh_batch_traffic() {
    let engine = builder(EngineKind::ZipServ).build();
    let arrivals = ArrivalMix::paper_mix().generate(20.0, 120, 5);
    let class_of: HashMap<u64, PriorityClass> =
        arrivals.iter().map(|r| (r.id, r.priority)).collect();
    // A long outage in the middle of the trace. FCFS admits in arrival
    // order regardless of class, so Batch candidates do get *selected*
    // while degraded — which is exactly when the brownout must shed them.
    // (A strict-priority policy never picks Batch while urgent work is
    // pending, so it sheds nothing; that is policy behavior, not a gap.)
    let plan = FaultPlan::new().rank_fail(1.0, 0).rank_repair(4.0, 0);
    let report = run_policy_faulted(&engine, &Fcfs, 64, arrivals, &plan, &RetryPolicy::default());
    let shed = report.rejected_for(RejectReason::BrownoutShed);
    assert!(
        !shed.is_empty(),
        "a 3s outage under 20 req/s must shed something"
    );
    for id in &shed {
        assert_eq!(
            class_of[id],
            PriorityClass::Batch,
            "id {id}: only best-effort traffic may be shed"
        );
    }
    assert_eq!(report.robustness.shed as usize, shed.len());
    // Every non-Batch request was served.
    for (id, class) in &class_of {
        if *class != PriorityClass::Batch {
            assert!(
                report.completions.iter().any(|c| c.id == *id),
                "non-batch id {id} must complete"
            );
        }
    }
}

/// Link degradation stretches the communication share of every decode step
/// in its window: the run slows down, `comm_s` grows, and the books count
/// the window — while completions are untouched (no KV was lost).
#[test]
fn link_degradation_slows_but_loses_nothing() {
    let engine = builder(EngineKind::ZipServ).build();
    let arrivals = poisson_arrivals(8.0, 40, 512, 128, 3);
    let clean = run_policy(&engine, &Fcfs, 64, arrivals.clone());
    assert!(clean.comm_s > 0.0, "TP deployment pays communication");
    let degraded = |window_s: f64| {
        let plan = FaultPlan::new().link_degrade(0.0, 4.0, window_s);
        run_policy_faulted(
            &engine,
            &Fcfs,
            64,
            arrivals.clone(),
            &plan,
            &RetryPolicy::default(),
        )
    };
    let report = degraded(clean.duration_s * 2.0);
    // A window longer than the nanosecond clock's range lasts the run too.
    assert_eq!(degraded(1e12), report);
    assert_eq!(report.completions.len(), clean.completions.len());
    assert!(report.rejections.is_empty());
    assert_eq!(report.robustness.link_degrades, 1);
    assert!(
        report.comm_s > clean.comm_s * 2.0,
        "4x link factor must show in comm: {:.4}s vs clean {:.4}s",
        report.comm_s,
        clean.comm_s
    );
    assert!(report.duration_s > clean.duration_s);
    assert_eq!(report.robustness.rank_failures, 0);
    assert_eq!(report.availability(), 1.0, "slow is not down");
}

/// KV stalls and corrupted decode frames charge wall-clock time into the
/// robustness books: the stall verbatim, the corruption as one PCIe
/// re-fetch of a compressed layer frame per corrupted frame.
#[test]
fn stalls_and_corrupt_frames_charge_time() {
    let engine = builder(EngineKind::ZipServ).build();
    let arrivals = poisson_arrivals(8.0, 30, 512, 64, 17);
    let clean = run_policy(&engine, &Fcfs, 64, arrivals.clone());

    // Stall after the last arrival: with the remaining work fixed, the
    // stall cannot be amortized away by larger batches forming behind it
    // and must extend the run by its full length.
    let last_arrival = arrivals.last().expect("non-empty").arrival_s;
    assert!(clean.duration_s > last_arrival);
    let stall = FaultPlan::new().kv_stall(last_arrival + 0.01, 0.75);
    let rs = run_policy_faulted(
        &engine,
        &Fcfs,
        64,
        arrivals.clone(),
        &stall,
        &RetryPolicy::default(),
    );
    assert_eq!(rs.completions.len(), clean.completions.len());
    assert_eq!(rs.robustness.stall_s, 0.75);
    assert!(
        rs.duration_s >= clean.duration_s + 0.75 - 1e-6,
        "the stall must lengthen the run: {:.3}s vs {:.3}s",
        rs.duration_s,
        clean.duration_s
    );

    let refetch = engine.frame_refetch_s();
    assert!(refetch > 0.0, "a compressed frame takes time to re-fetch");
    let corrupt = FaultPlan::new().corrupt_frame(0.1, 3);
    let rc = run_policy_faulted(
        &engine,
        &Fcfs,
        64,
        arrivals,
        &corrupt,
        &RetryPolicy::default(),
    );
    assert_eq!(rc.completions.len(), clean.completions.len());
    assert_eq!(rc.robustness.frame_corruptions, 3);
    // The charge enters the scheduler's nanosecond clock once, rounded.
    assert_eq!(
        rc.robustness.refetch_s,
        to_ns(3.0 * refetch) as f64 / 1e9,
        "re-fetch time is frames x one frame's PCIe transfer"
    );
    assert!(rc.duration_s > clean.duration_s);
}

/// The engine builder carries the plan: `serve_online` on an engine with
/// an attached plan equals the explicit `run_policy_faulted` call with the
/// same arguments and the default retry policy.
#[test]
fn builder_attached_plan_reaches_serve_online() {
    let plan = FaultPlan::new().rank_fail(0.5, 0).rank_repair(1.5, 0);
    let engine = builder(EngineKind::ZipServ)
        .policy(SloEdf::default())
        .max_batch(48)
        .fault_plan(plan.clone())
        .build();
    assert_eq!(engine.fault_plan(), &plan);
    let arrivals = ArrivalMix::paper_mix().generate(10.0, 50, 29);
    let via_engine = engine.serve_online(arrivals.clone());
    let direct = run_policy_faulted(
        &engine,
        engine.policy(),
        48,
        arrivals,
        &plan,
        &RetryPolicy::default(),
    );
    assert_eq!(via_engine, direct);
    assert!(via_engine.robustness.rank_failures > 0, "the plan ran");
}

/// Goodput under faults: rejected victims' tokens are excluded, so
/// goodput is at most throughput, and a faulted run's goodput trails the
/// clean run's on the same trace.
#[test]
fn goodput_under_faults_trails_clean_goodput() {
    let engine = builder(EngineKind::ZipServ).build();
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 80, 41);
    let clean = run_policy(&engine, &Fcfs, 64, arrivals.clone());
    assert!(
        (clean.goodput_tps() - clean.throughput_tps).abs() < 1e-9,
        "clean runs complete everything, so goodput == throughput"
    );
    let plan = FaultPlan::new().rank_fail(1.0, 0).rank_repair(3.0, 0);
    let faulted = run_policy_faulted(&engine, &Fcfs, 64, arrivals, &plan, &RetryPolicy::default());
    assert!(faulted.goodput_tps() <= faulted.throughput_tps + 1e-9);
    assert!(
        faulted.goodput_tps() < clean.goodput_tps(),
        "faults must cost goodput: {:.1} vs clean {:.1}",
        faulted.goodput_tps(),
        clean.goodput_tps()
    );
}

/// A rank failure landing while residents are still streaming prefill
/// chunks (pp = 2, chunked prefill on by default): the dead rank's shard
/// is invalidated, the mid-chunk victim re-queues with nothing generated,
/// re-reserves pages on the surviving layout after the repair, and
/// re-streams its prompt to completion with one recorded retry.
#[test]
fn rank_failure_mid_chunk_recovers_under_chunked_prefill() {
    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2))
        .build();
    assert!(
        engine.chunked_prefill(),
        "pp >= 2 must default to chunked prefill"
    );
    let req = Request::new(0, 0.0, 4096, 64);
    let (clean_ttft, clean_duration) = clean_solo(&engine, req);
    let prefill_s = engine.prefill_ms(1, 4096) / 1e3;
    assert!(prefill_s < clean_ttft, "prefill is part of TTFT");
    // Strike halfway through the streamed prefill; repair soon after.
    let plan = FaultPlan::new()
        .rank_fail(0.5 * prefill_s, 1)
        .rank_repair(prefill_s + 0.01, 1);
    let report = run_policy_faulted(
        &engine,
        &Fcfs,
        64,
        vec![req],
        &plan,
        &RetryPolicy::default(),
    );
    assert_eq!(report.completions.len(), 1);
    let c = &report.completions[0];
    assert_eq!(c.retries, 1);
    assert_eq!(c.output_len, 64, "completion keeps its full output");
    assert!(
        report.robustness.recomputed_tokens >= 4096,
        "the recompute covers at least the prompt, got {}",
        report.robustness.recomputed_tokens
    );
    assert!(
        report.duration_s > clean_duration,
        "the retry cost real time"
    );
}

/// The exactly-once and determinism guarantees survive the streaming
/// scheduler: on a pipelined deployment with chunked prefill and live
/// shard-aware admission, seeded chaos plans still resolve every request
/// exactly once, and the same plan over the same trace is bit-identical
/// run after run.
#[test]
fn chunked_pipeline_chaos_resolves_every_request_exactly_once() {
    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2))
        .build();
    assert!(engine.chunked_prefill());
    let ranks = engine.cluster().total_ranks();
    for seed in 1..=8u64 {
        let arrivals = ArrivalMix::paper_mix().generate(10.0, 60, seed);
        let all_ids: BTreeSet<u64> = arrivals.iter().map(|r| r.id).collect();
        let plan = FaultPlan::seeded(seed, 8.0, ranks);
        let retry = RetryPolicy::default();
        let report = run_policy_faulted(&engine, &Fcfs, 64, arrivals.clone(), &plan, &retry);
        let completed_set: BTreeSet<u64> = report.completions.iter().map(|c| c.id).collect();
        assert_eq!(
            completed_set.len(),
            report.completions.len(),
            "seed {seed}: a request completed twice"
        );
        let rejected_set: BTreeSet<u64> = report.rejected.iter().copied().collect();
        assert!(
            completed_set.is_disjoint(&rejected_set),
            "seed {seed}: completed AND rejected"
        );
        let resolved: BTreeSet<u64> = completed_set.union(&rejected_set).copied().collect();
        assert_eq!(resolved, all_ids, "seed {seed}: some request vanished");
        let again = run_policy_faulted(&engine, &Fcfs, 64, arrivals, &plan, &retry);
        assert_eq!(
            report, again,
            "seed {seed}: chunked chaos run not deterministic"
        );
    }
}

/// Prefix-cache pin across a `RankFail`/`RankRepair` cycle. Every rank
/// holds a slice of every cached prefix, as it does of every resident, so
/// a rank failure loses the whole cache: the scheduler clears the registry
/// and keeps its counters. The forks live at the failure go with it, so
/// their later releases are no-ops; after the repair the prefix misses
/// once before it hits again, and once every fork is released only the
/// prefix's own pages are held.
#[test]
fn prefix_forks_survive_rank_fail_repair_without_leaking_pages() {
    use zipserv::serve::kvcache::PAGE_TOKENS;

    let engine = builder(EngineKind::ZipServ).prefix_caching(true).build();
    let mut reg = PrefixRegistry::new(engine.kv_shards(), PrefixVictim::ColdPrefix);
    let prefix_pages = 256 / PAGE_TOKENS;

    // Miss materializes the 256-token prefix; two follow-ups fork it CoW.
    let hash = 0xfeed_f00d;
    assert_eq!(reg.admit(1, hash, 256, 512), 0);
    assert_eq!(reg.admit(2, hash, 256, 512), 256);
    assert_eq!(reg.admit(3, hash, 256, 512), 256);
    assert_eq!(reg.stats().pages_shared, 2 * prefix_pages);
    assert_eq!(reg.pages(), prefix_pages, "forks share the prefix's pages");

    // A rank dies with both forks live: the cache is cleared.
    reg.clear();
    assert_eq!(reg.pages(), 0, "the cache holds nothing after the failure");
    let stats = reg.stats();
    reg.release(2);
    reg.release(3);
    reg.release(3);
    assert_eq!(reg.pages(), 0, "a lost fork's release frees nothing twice");
    assert_eq!(reg.stats(), stats, "a lost fork's release is a no-op");

    // After the repair the prefix misses once, then hits again.
    assert_eq!(reg.admit(4, hash, 256, 512), 0);
    assert_eq!(reg.admit(5, hash, 256, 512), 256);
    reg.release(4);
    reg.release(5);
    assert_eq!(reg.pages(), prefix_pages, "only the prefix's own pages");

    // End to end: A caches the prefix and finishes; rank 0 fails and is
    // repaired while the engine idles; B misses the lost prefix and caches
    // it again, and C, long after, hits.
    let req = |id: u64, at: f64| Request::new(id, at, 512, 8).with_shared_prefix(hash, 256);
    let a_done = run_policy(&engine, &Fcfs, 64, vec![req(0, 0.0)]).duration_s;
    let plan = FaultPlan::new()
        .rank_fail(a_done + 0.1, 0)
        .rank_repair(a_done + 0.2, 0);
    let trace = vec![req(0, 0.0), req(1, a_done + 0.3), req(2, a_done + 10.0)];
    let report = run_policy_faulted(&engine, &Fcfs, 64, trace, &plan, &RetryPolicy::default());
    assert_eq!(report.completions.len(), 3);
    let p = report.prefix;
    assert_eq!(
        (p.lookups, p.hits, p.misses),
        (3, 1, 2),
        "A and B miss, C hits"
    );
}

/// End-to-end chaos: prefix caching on, multi-tenant traffic, one rank
/// failure repaired mid-run. Every request resolves exactly once for
/// every policy, the registry's books balance, and the run is
/// deterministic — rerunning the same plan is bit-identical.
#[test]
fn multi_tenant_chaos_with_prefix_caching_resolves_every_request() {
    let engine = builder(EngineKind::ZipServ).prefix_caching(true).build();
    let arrivals = ArrivalMix::multi_tenant_mix().generate(8.0, 80, 7);
    let all_ids: BTreeSet<u64> = arrivals.iter().map(|r| r.id).collect();
    let clean = run_policy(&engine, &Fcfs, 64, arrivals.clone());
    let plan = FaultPlan::new()
        .rank_fail(0.3 * clean.duration_s, 0)
        .rank_repair(0.6 * clean.duration_s, 0);
    let retry = RetryPolicy::default();
    for policy in all_policies() {
        let report = run_policy_faulted(
            &engine,
            policy.as_ref(),
            64,
            arrivals.clone(),
            &plan,
            &retry,
        );
        let completed: BTreeSet<u64> = report.completions.iter().map(|c| c.id).collect();
        assert_eq!(
            completed.len(),
            report.completions.len(),
            "{}: a request completed twice",
            policy.name()
        );
        let rejected: BTreeSet<u64> = report.rejected.iter().copied().collect();
        assert!(
            completed.is_disjoint(&rejected),
            "{}: completed AND rejected",
            policy.name()
        );
        let resolved: BTreeSet<u64> = completed.union(&rejected).copied().collect();
        assert_eq!(
            resolved,
            all_ids,
            "{}: some request vanished",
            policy.name()
        );
        let s = report.prefix;
        assert_eq!(
            s.lookups,
            s.hits + s.misses,
            "{}: registry books drifted under faults",
            policy.name()
        );
        assert!(
            s.hits > 0,
            "{}: chaos run never hit the cache",
            policy.name()
        );
        let again = run_policy_faulted(
            &engine,
            policy.as_ref(),
            64,
            arrivals.clone(),
            &plan,
            &retry,
        );
        assert_eq!(
            report,
            again,
            "{}: faulted cached run not deterministic",
            policy.name()
        );
    }
}
