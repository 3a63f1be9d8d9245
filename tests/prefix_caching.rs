//! Prefix-caching pins: with caching disabled (or enabled but fed a
//! prefix-less stream) the scheduler and fleet outputs are bit-identical
//! to the legacy path — FNV digests across policies and deployments —
//! and with caching enabled on the multi-tenant mix the registry
//! actually saves work. Trace record/replay round-trips by property.

use proptest::prelude::*;
use zipserv::prelude::*;
use zipserv::serve::scheduler::{run_policy, ScheduleReport};

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn digest(r: &ScheduleReport) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    fnv(&mut h, &r.duration_s.to_bits().to_le_bytes());
    fnv(&mut h, &r.throughput_tps.to_bits().to_le_bytes());
    fnv(&mut h, &r.comm_s.to_bits().to_le_bytes());
    fnv(&mut h, &(r.peak_batch as u64).to_le_bytes());
    fnv(&mut h, &r.preemptions.to_le_bytes());
    for c in &r.completions {
        fnv(&mut h, &c.id.to_le_bytes());
        fnv(&mut h, &c.queue_s.to_bits().to_le_bytes());
        fnv(&mut h, &c.latency_s.to_bits().to_le_bytes());
        fnv(&mut h, &c.ttft_s.to_bits().to_le_bytes());
        fnv(&mut h, &(c.preemptions as u64).to_le_bytes());
    }
    h
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

fn deployments() -> Vec<(&'static str, GpuCluster)> {
    vec![
        ("tp1_rtx4090", GpuCluster::single(Gpu::Rtx4090)),
        ("pp2_l40s", GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2)),
    ]
}

fn engine(cluster: GpuCluster, caching: bool) -> ServingEngine {
    ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(cluster)
        .policy(Priority::default())
        .max_batch(16)
        .prefix_caching(caching)
        .build()
}

/// `prefix_caching(false)` — and the builder default, which never calls
/// the knob at all — produce bit-identical reports for every policy on
/// both a single-GPU and a pipelined deployment.
#[test]
fn caching_off_is_bit_identical_for_every_policy_and_deployment() {
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 80, 37);
    for (name, cluster) in deployments() {
        let default_build = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(cluster)
            .policy(Priority::default())
            .max_batch(16)
            .build();
        let explicit_off = engine(cluster, false);
        for p in all_policies() {
            let base = run_policy(&default_build, p.as_ref(), 16, arrivals.clone());
            let off = run_policy(&explicit_off, p.as_ref(), 16, arrivals.clone());
            assert_eq!(
                digest(&base),
                digest(&off),
                "caching off perturbed {} under {}",
                name,
                p.name()
            );
            assert_eq!(base, off);
            assert_eq!(off.prefix, PrefixStats::default());
        }
    }
}

/// An engine with caching *enabled* but fed the legacy prefix-less
/// paper mix is still bit-identical: the registry exists but every
/// lookup short-circuits on `prefix_len == 0`, so the admission charge
/// and report digest match the caching-off run exactly.
#[test]
fn caching_on_is_inert_for_prefix_less_streams() {
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 80, 37);
    for (name, cluster) in deployments() {
        let off = engine(cluster, false);
        let on = engine(cluster, true);
        for p in all_policies() {
            let base = run_policy(&off, p.as_ref(), 16, arrivals.clone());
            let cached = run_policy(&on, p.as_ref(), 16, arrivals.clone());
            assert_eq!(
                digest(&base),
                digest(&cached),
                "inert registry perturbed {} under {}",
                name,
                p.name()
            );
            assert_eq!(base, cached);
            assert_eq!(cached.prefix, PrefixStats::default());
        }
    }
}

/// The fleet layer inherits the pin: a session-affinity fleet over
/// caching-off replicas matches one over default-built replicas field
/// for field, and aggregates zero prefix stats.
#[test]
fn fleet_report_is_bit_identical_with_caching_off() {
    let arrivals = ArrivalMix::multi_tenant_mix().generate(7.0, 160, 53);
    let run = |caching: bool| {
        FleetRouter::new(SessionAffinity::default())
            .with_replicas(&engine(GpuCluster::single(Gpu::Rtx4090), caching), 3)
            .run(arrivals.clone())
    };
    let off = run(false);
    let default_build = FleetRouter::new(SessionAffinity::default())
        .with_replicas(
            &ServingEngine::builder()
                .kind(EngineKind::ZipServ)
                .model(LlmModel::Llama31_8b)
                .cluster(GpuCluster::single(Gpu::Rtx4090))
                .policy(Priority::default())
                .max_batch(16)
                .build(),
            3,
        )
        .run(arrivals.clone());
    assert_eq!(off, default_build);
    assert_eq!(off.prefix(), PrefixStats::default());
    for r in &off.per_replica {
        assert_eq!(r.prefix, PrefixStats::default());
    }
}

/// Caching on over the multi-tenant mix: every request still resolves
/// exactly once, the registry reports a real hit rate, and the skipped
/// prefill shows up as a strictly better interactive TTFT tail.
#[test]
fn multi_tenant_caching_saves_prefill_and_completes_everything() {
    let arrivals = ArrivalMix::multi_tenant_mix().generate(7.0, 160, 53);
    let prompt_tokens: u64 = arrivals.iter().map(|r| r.prompt_len).sum();
    let off = engine(GpuCluster::single(Gpu::Rtx4090), false).serve_online(arrivals.clone());
    let on = engine(GpuCluster::single(Gpu::Rtx4090), true).serve_online(arrivals.clone());

    for r in [&off, &on] {
        assert_eq!(r.completions.len() + r.rejections.len(), arrivals.len());
    }
    assert_eq!(off.prefix, PrefixStats::default());

    let s = on.prefix;
    assert_eq!(s.lookups, s.hits + s.misses, "lookup accounting drifted");
    assert!(s.hits > 0, "multi-tenant mix produced no cache hits");
    assert!(
        s.tokens_saved > 0 && s.tokens_saved < prompt_tokens,
        "tokens_saved {} out of range (stream has {})",
        s.tokens_saved,
        prompt_tokens
    );
    assert!(s.hit_rate() > 0.5, "hit rate {} too low", s.hit_rate());
    assert!(s.pages_shared > 0, "hits forked no shared pages");

    let p99 = |r: &ScheduleReport| {
        let mut t: Vec<f64> = r
            .completions
            .iter()
            .filter(|c| c.priority == PriorityClass::Interactive)
            .map(|c| c.ttft_s)
            .collect();
        t.sort_by(f64::total_cmp);
        t[(t.len() * 99) / 100]
    };
    assert!(
        p99(&on) < p99(&off),
        "caching did not improve interactive p99 TTFT ({} vs {})",
        p99(&on),
        p99(&off)
    );
}

/// A caching fleet's prefix counters are its replicas' counters summed,
/// field by field, shared pages included.
#[test]
fn fleet_prefix_counters_sum_the_replicas() {
    let arrivals = ArrivalMix::multi_tenant_mix().generate(7.0, 160, 53);
    let report = FleetRouter::new(SessionAffinity::default())
        .with_replicas(&engine(GpuCluster::single(Gpu::Rtx4090), true), 3)
        .run(arrivals);
    let sum = |field: fn(&PrefixStats) -> u64| -> u64 {
        report.per_replica.iter().map(|r| field(&r.prefix)).sum()
    };
    let fleet = report.prefix();
    assert_eq!(fleet.lookups, sum(|s| s.lookups));
    assert_eq!(fleet.hits, sum(|s| s.hits));
    assert_eq!(fleet.misses, sum(|s| s.misses));
    assert_eq!(fleet.evictions, sum(|s| s.evictions));
    assert_eq!(fleet.tokens_saved, sum(|s| s.tokens_saved));
    assert_eq!(fleet.pages_shared, sum(|s| s.pages_shared));
    assert!(fleet.pages_shared > 0, "no replica forked a cached prefix");
}

/// Determinism of the cached path itself: same engine, same stream,
/// same report — registry state is rebuilt from scratch per run.
#[test]
fn cached_runs_are_deterministic() {
    let arrivals = ArrivalMix::multi_tenant_mix().generate(7.0, 120, 11);
    let e = engine(GpuCluster::single(Gpu::Rtx4090), true);
    let a = e.serve_online(arrivals.clone());
    let b = e.serve_online(arrivals);
    assert_eq!(digest(&a), digest(&b));
    assert_eq!(a.prefix, b.prefix);
}

fn class_strategy() -> impl Strategy<Value = PriorityClass> {
    (0usize..PriorityClass::ALL.len()).prop_map(|i| PriorityClass::ALL[i])
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        (any::<u64>(), 0.0f64..1e7, 1u64..100_000, 1u64..100_000),
        (class_strategy(), any::<bool>(), 1e-3f64..1e4, 1e-6f64..1e2),
        (any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (id, t, prompt, output),
                (class, has_slo, ttft, tpot),
                (has_tenant, tenant, hash, len),
            )| {
                let mut r = Request::new(id, t, prompt, output).with_priority(class);
                if has_slo {
                    r = r.with_slo(Slo::new(ttft, tpot));
                }
                if has_tenant {
                    r = r.with_tenant(tenant);
                }
                if hash != 0 {
                    r = r.with_shared_prefix(hash, len);
                }
                r
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Trace::record` → `Trace::replay` is lossless for any request
    /// stream: ids, times (f64 shortest-round-trip), QoS, tenancy, and
    /// shared-prefix declarations all survive the text format.
    #[test]
    fn trace_round_trips_any_request_stream(
        reqs in proptest::collection::vec(request_strategy(), 0..40)
    ) {
        let text = Trace::record(&reqs);
        let back = Trace::replay(&text).expect("recorded trace replays");
        prop_assert_eq!(back, reqs);
    }
}
