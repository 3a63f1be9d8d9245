//! Tensor/pipeline-parallel serving: per-rank KV partitioning, pipeline
//! bubble accounting, scheduler-visible communication cost, and the
//! scheduler accounting regressions (split page-out charging, victim
//! resume priority) that ride along.

use std::collections::HashSet;

use zipserv::gpu::device::Gpu;
use zipserv::kernels::shapes::LlmModel;
use zipserv::prelude::*;
use zipserv::serve::scheduler::run_policy;

fn builder(kind: EngineKind) -> EngineBuilder {
    ServingEngine::builder()
        .kind(kind)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
}

/// The same deployment split into two pipeline stages of one RTX 4090.
fn two_stages(kind: EngineKind) -> EngineBuilder {
    builder(kind).cluster(GpuCluster::pipeline_parallel(Gpu::Rtx4090, 1, 2))
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

/// The acceptance pin: a 1 × 1 `tp × pp` grid is the single-GPU
/// deployment, bit for bit — every shipped policy produces a bit-identical
/// `ScheduleReport` to the plain single-GPU engine, on both an easy trace
/// and a preemption-heavy one.
#[test]
fn tp1_pp1_axes_are_bit_identical_for_every_policy() {
    let mix = ArrivalMix::paper_mix().generate(12.0, 100, 37);
    for kind in [EngineKind::ZipServ, EngineKind::Vllm] {
        let implicit = builder(kind).build();
        let explicit = builder(kind)
            .cluster(GpuCluster::pipeline_parallel(Gpu::Rtx4090, 1, 1))
            .micro_batches(1)
            .build();
        assert_eq!(implicit.kv_capacity_tokens(), explicit.kv_capacity_tokens());
        for policy in all_policies() {
            let a = run_policy(&implicit, policy.as_ref(), 64, mix.clone());
            let b = run_policy(&explicit, policy.as_ref(), 64, mix.clone());
            assert_eq!(a, b, "{kind:?}/{}", policy.name());
            assert_eq!(a.comm_s, 0.0, "single GPU pays no communication");
        }
    }
}

/// The three §6.5 deployments serve online end to end, and on the
/// multi-GPU ones the all-reduce cost the engine computes actually lands
/// in the per-step time the scheduler charges (`ScheduleReport::comm_s`).
#[test]
fn paper_deployments_charge_allreduce_in_scheduler_steps() {
    let deployments = [
        (LlmModel::Llama31_8b, GpuCluster::single(Gpu::Rtx4090)),
        (
            LlmModel::Mistral24b,
            GpuCluster::tensor_parallel(Gpu::L40s, 2),
        ),
        (
            LlmModel::Llama31_70b,
            GpuCluster::tensor_parallel(Gpu::L40s, 4),
        ),
    ];
    for (model, cluster) in deployments {
        let engine = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(model)
            .cluster(cluster)
            .build();
        let step = engine.decode_step(32, 1024);
        let report = engine.serve_online(poisson_arrivals(4.0, 30, 512, 64, 9));
        assert_eq!(report.completions.len(), 30, "{model}");
        if cluster.tp() > 1 {
            assert!(step.allreduce_ms > 0.0, "{model}: step shows all-reduce");
            assert!(report.comm_s > 0.0, "{model}: scheduler charged comm");
            assert!(
                report.comm_s < report.duration_s,
                "{model}: comm is a fraction of the run"
            );
        } else {
            assert_eq!(step.allreduce_ms, 0.0, "{model}");
            assert_eq!(report.comm_s, 0.0, "{model}");
        }
    }
}

/// Pipeline parallelism behaves like the real thing: prefill gets faster
/// (micro-batches hide the stage split), decode pays the bubble and the
/// activation hops, and both show up in the step breakdown.
#[test]
fn pipeline_stages_speed_prefill_and_charge_decode_bubble() {
    let pp1 = builder(EngineKind::ZipServ).build();
    let pp2 = two_stages(EngineKind::ZipServ).build();
    assert_eq!(pp2.cluster().pp(), 2);
    assert_eq!(pp2.micro_batches(), 4, "default 2 × pp");

    // Prefill: pipelined micro-batches beat the serial single stage.
    let serial = pp1.prefill_ms(8, 1024);
    let pipelined = pp2.prefill_ms(8, 1024);
    assert!(
        pipelined < serial,
        "prefill {pipelined} ms should beat serial {serial} ms"
    );

    // Decode: per-step latency *worsens* (weight re-reads per micro-batch
    // plus fill/drain bubble plus hops) — PP buys capacity, not decode
    // latency.
    let s1 = pp1.decode_step(32, 1024);
    let s2 = pp2.decode_step(32, 1024);
    assert_eq!(s1.p2p_ms, 0.0);
    assert!(s2.p2p_ms > 0.0, "stage hops are visible");
    assert!(s2.total_ms() > s1.total_ms(), "decode pays the bubble");
    assert!(s2.comm_ms() >= s2.p2p_ms);

    // More micro-batches shrink the bubble — monotone for dense engines
    // (no fixed per-pass cost to re-pay)...
    let dense4 = two_stages(EngineKind::Vllm).build();
    let dense16 = two_stages(EngineKind::Vllm).micro_batches(16).build();
    assert!(dense16.prefill_ms(8, 1024) < dense4.prefill_ms(8, 1024));
    // ...but compressed engines re-expand each stage's weights once per
    // micro-batch (the scratch buffer is recycled between sweeps), so
    // micro-batching ZipServ prefill 4× deeper buys less than it does
    // for vLLM.
    let deep = two_stages(EngineKind::ZipServ).micro_batches(16).build();
    assert_eq!(deep.micro_batches(), 16);
    let zip_gain = pipelined / deep.prefill_ms(8, 1024);
    let dense_gain = dense4.prefill_ms(8, 1024) / dense16.prefill_ms(8, 1024);
    assert!(
        zip_gain < dense_gain,
        "re-decompression must damp ZipServ's micro-batching gain \
         (zip {zip_gain:.3}x vs dense {dense_gain:.3}x)"
    );
}

/// Per-rank KV partitioning: the deployment exposes one page budget per
/// rank of the `tp × pp` grid, the usable capacity is the *minimum* across
/// ranks, and an uneven GQA head split makes the fat rank the bottleneck.
#[test]
fn kv_is_partitioned_per_rank_and_bottlenecked_by_the_fattest() {
    use zipserv::serve::kvcache::PAGE_TOKENS;

    // 4×L40S TP: 4 symmetric ranks (8 KV heads / 4 = 2 each).
    let tp4 = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_70b)
        .cluster(GpuCluster::tensor_parallel(Gpu::L40s, 4))
        .build();
    let shards = tp4.kv_shards();
    assert_eq!(shards.ranks(), 4);
    for r in 1..4 {
        assert_eq!(
            shards.rank_pages(r),
            shards.rank_pages(0),
            "even head split: symmetric ranks"
        );
    }
    assert_eq!(shards.capacity_tokens(), tp4.kv_capacity_tokens());

    // TP=3 splits 8 KV heads as 3/3/2: the 3-head ranks hold more bytes
    // per token, so they run out of pages first and set the capacity.
    let tp3 = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::tensor_parallel(Gpu::Rtx4090, 3))
        .build();
    let shards = tp3.kv_shards();
    assert_eq!(shards.ranks(), 3);
    assert!(
        shards.rank_pages(0) < shards.rank_pages(2),
        "fat rank has fewer token slots"
    );
    assert_eq!(
        shards.capacity_tokens(),
        shards.rank_pages(0) * PAGE_TOKENS,
        "deployment capacity is the bottleneck rank's"
    );

    // A TP×PP grid partitions by stage too: 4×2 = 8 ranks, and the
    // per-stage layer slice halves each rank's per-token footprint.
    let grid = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_70b)
        .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2))
        .build();
    assert_eq!(grid.kv_shards().ranks(), 8);
    assert!(
        grid.kv_capacity_tokens() > tp4.kv_capacity_tokens(),
        "halving resident layers (and weights) per rank grows token capacity"
    );
}

/// Regression (split page-out accounting): the victim's PCIe page-out is
/// charged when it is evicted — delaying the preempting candidate's own
/// admission — and the page-in when it resumes, instead of a lumped
/// `2 × swap` at resume that let the candidate start for free.
#[test]
fn pageout_is_charged_at_both_ends() {
    let engine = ServingEngine::builder().kind(EngineKind::Vllm).build();
    let capacity = engine.kv_capacity_tokens();
    // One long request whose lifetime demand sits 8 tokens under capacity;
    // a 1-token job cannot fit beside it and must preempt.
    let long_prompt = capacity - 520;
    let arrivals = vec![
        Request::new(1, 0.0, long_prompt, 512),
        Request::new(2, 0.001, 64, 1),
    ];
    let policy = PreemptiveSjf {
        mode: PreemptionMode::PageOut,
    };
    let report = run_policy(&engine, &policy, 64, arrivals);
    assert_eq!(report.preemptions, 1, "scenario preempts exactly once");
    let victim = report
        .completions
        .iter()
        .find(|c| c.id == 1)
        .expect("victim");
    let short = report
        .completions
        .iter()
        .find(|c| c.id == 2)
        .expect("short");
    assert_eq!(victim.preemptions, 1);

    // The short job was admitted only after paying the victim's page-out:
    // its TTFT covers the victim's prefill, ONE swap of the victim's KV
    // footprint (the eviction-side half), and its own prefill + first step
    // — but not two swaps, which is what the lumped-at-resume form would
    // morph into if someone moved the whole round trip back to eviction.
    let swap_s = engine.kv_swap_s(long_prompt);
    let victim_prefill_s = engine.prefill_ms(1, long_prompt) / 1e3;
    let short_prefill_s = engine.prefill_ms(1, 64) / 1e3;
    let floor = victim_prefill_s + short_prefill_s + swap_s - 0.001;
    assert!(
        short.ttft_s > floor,
        "short TTFT {:.3}s must cover the {:.3}s eviction-side page-out (floor {:.3}s)",
        short.ttft_s,
        swap_s,
        floor
    );
    assert!(
        short.ttft_s < floor + swap_s,
        "short TTFT {:.3}s must charge page-out once, not the full round trip",
        short.ttft_s
    );
    // And the victim still pays the page-in on resume, after the short job.
    assert!(victim.latency_s > short.latency_s + swap_s);
}

/// Regression (victim resume priority): a preempted interactive request
/// re-enters the batch ahead of batch-tier work that arrived after it,
/// instead of starving behind an endless stream of fresh short jobs (the
/// old arrival-order requeue let every later short arrival beat the
/// victim under SJF).
#[test]
fn preempted_victim_resumes_before_fresh_arrivals() {
    let engine = ServingEngine::builder().kind(EngineKind::Vllm).build();
    // The victim: an interactive job that saturating batch traffic evicts
    // almost immediately (it is the only running request with more
    // remaining output than a fresh short job).
    let mut arrivals =
        vec![Request::new(0, 0.0, 1024, 70).with_priority(PriorityClass::Interactive)];
    // 600 short batch jobs land at once — enough to keep the KV cache
    // saturated for the whole run. Under arrival-order requeue, SJF
    // prefers every fresh 64-token job over the evicted victim (remaining
    // 69), so the victim would re-enter only after the entire stream
    // drains and complete dead last. With resume priority it re-enters at
    // the first capacity window, hits the preemption cap, pins, and
    // finishes in the first third of the run.
    for i in 0..600u64 {
        arrivals.push(Request::new(1 + i, 0.2, 1024, 64).with_priority(PriorityClass::Batch));
    }
    let report = run_policy(&engine, &PreemptiveSjf::default(), 200, arrivals);
    assert_eq!(report.completions.len(), 601);
    assert!(report.preemptions >= 1, "the stream must evict the victim");
    let victim = report
        .completions
        .iter()
        .find(|c| c.id == 0)
        .expect("victim");
    assert!(victim.preemptions >= 1, "id 0 must be the preempted one");
    assert!(
        victim.latency_s < report.duration_s / 2.0,
        "preempted interactive victim completed at {:.1}s of a {:.1}s run — \
         starving behind later batch arrivals",
        victim.latency_s,
        report.duration_s
    );
    // It concretely beats later batch arrivals: at least half the batch
    // completions land after the victim.
    let after = report
        .completions
        .iter()
        .filter(|c| c.latency_s + 0.2 > victim.latency_s && c.id != 0)
        .count();
    assert!(
        after > 300,
        "only {after} batch jobs completed after the victim"
    );
}

/// Regression (micro-batch step-cache key): under pipeline micro-batching
/// every distinct batch size used to be a fresh step-cache miss, even
/// though batches that quantize to the same `(ceil(batch/m), m)` shape
/// cost identical steps — the tp4_pp2 deployment re-priced the engine
/// model nearly every decode step and ran ~11× the tp4 simulator cost.
/// Keyed on `ServingEngine::step_cache_key`, the cache stays hot: misses
/// are bounded by distinct (shape, context-bucket) pairs, not steps.
#[test]
fn tp4_pp2_step_cache_stays_hot() {
    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_70b)
        .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2))
        .build();
    let arrivals = poisson_arrivals(3.0, 60, 512, 256, 41);
    let report = run_policy(&engine, &Fcfs, 64, arrivals);
    assert_eq!(report.completions.len(), 60);
    let sc = report.step_cache;
    let steps = sc.hits + sc.misses;
    assert!(
        steps > 200,
        "trace too short to exercise the cache: {steps}"
    );
    assert!(
        sc.hit_rate() > 0.9,
        "pipelined step cache defeated again: {} hits / {} misses",
        sc.hits,
        sc.misses
    );
}

/// Acceptance pin for the step-cache fix, counted rather than timed
/// (simulator wall time is the `fig_tp` bench's `online_40reqs` group).
/// Keyed on the micro-batch shape, the tp4_pp2 scheduler prices each
/// `(ceil(b / m), m)` shape at most once per context bucket; keyed on the
/// raw batch, every batch size was a fresh miss and the run cost ~11× tp4.
/// Pipelining may add decode rounds (chunked prefill interleaves with
/// decode), but not many.
#[test]
fn tp4_pp2_step_cache_misses_stay_within_micro_batch_shapes() {
    let tp4 = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_70b)
        .cluster(GpuCluster::tensor_parallel(Gpu::L40s, 4))
        .build();
    let tp4_pp2 = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_70b)
        .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2))
        .build();
    let (prompt, output) = (512, 64);
    let arrivals = poisson_arrivals(3.0, 40, prompt, output, 41);
    let base = run_policy(&tp4, &Fcfs, 64, arrivals.clone());
    let piped = run_policy(&tp4_pp2, &Fcfs, 64, arrivals);
    assert_eq!(base.completions.len(), 40);
    assert_eq!(piped.completions.len(), 40);

    let m = u64::from(tp4_pp2.micro_batches());
    let shapes: HashSet<(u64, u64)> = (1..=piped.peak_batch as u64)
        .map(|b| (b.div_ceil(m.min(b)), m.min(b)))
        .collect();
    // Steps are priced at the residents' mean context rounded down to a
    // 256-token bucket (at least 256); contexts span prompt..prompt+output.
    let bucket = |context: u64| (context / 256).max(1);
    let buckets = bucket(prompt + output - 1) - bucket(prompt) + 1;
    let bound = shapes.len() as u64 * buckets;
    let sc = piped.step_cache;
    assert!(
        sc.misses <= bound,
        "tp4_pp2 priced {} step shapes, more than its {bound} micro-batch shapes × buckets",
        sc.misses
    );
    let (rounds, base_rounds) = (
        sc.hits + sc.misses,
        base.step_cache.hits + base.step_cache.misses,
    );
    assert!(
        rounds as f64 <= 1.5 * base_rounds as f64,
        "tp4_pp2 ran {rounds} decode rounds against tp4's {base_rounds}"
    );
}
