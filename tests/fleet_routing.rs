//! Fleet-routing pins: determinism, single-replica bit-compatibility,
//! route-first serving equal to the lockstep fleet, fault-aware traffic
//! shifting, autoscaling, per-class prefill modes, and the PR's acceptance
//! criterion (power-of-two-choices beats round-robin on interactive p99
//! TTFT at ≥ 95% of its throughput).

use zipserv::prelude::*;
use zipserv::serve::fleet::ReplicaSnapshot;
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

fn replica_engine() -> ServingEngine {
    ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .policy(Priority::default())
        .max_batch(16)
        .build()
}

/// The fleet layer is deterministic end to end: the same seed, replica
/// set, and (seeded) route policy produce the same `FleetReport`, field
/// for field — including the stochastic power-of-two sampler.
#[test]
fn same_seed_reproduces_the_same_fleet_report() {
    let engine = replica_engine();
    let run = || {
        FleetRouter::new(PowerOfTwoChoices::new(3))
            .with_replicas(&engine, 4)
            .run(ArrivalMix::paper_mix().generate(24.0, 120, 9))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "fleet run is not deterministic");
    assert_eq!(a.completed(), 120);
}

/// A single-replica fleet with no admission control and no autoscaling
/// is bit-compatible with the bare `run_policy` scheduler: same FNV
/// digest over the full report, and full structural equality.
#[test]
fn single_replica_fleet_matches_run_policy_bit_for_bit() {
    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2))
        .policy(Priority::default())
        .build();
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 80, 37);

    let fleet = FleetRouter::new(RoundRobin::default())
        .with_replica(engine.clone())
        .run(arrivals.clone());
    let bare = run_policy(&engine, engine.policy(), engine.max_batch(), arrivals);

    assert_eq!(fleet.per_replica.len(), 1);
    assert_eq!(
        digest(&fleet.per_replica[0]),
        digest(&bare),
        "single-replica fleet digest drifted from run_policy"
    );
    assert_eq!(fleet.per_replica[0], bare);
    assert!(fleet.rejections.is_empty());
    assert!(fleet.autoscale_events.is_empty());
}

/// Delegates routing to a load-blind policy but keeps the default
/// `reads_load`, so the router runs it in lockstep.
#[derive(Debug)]
struct Lockstep<P>(P);

impl<P: RoutePolicy> RoutePolicy for Lockstep<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        self.0.route(req, replicas)
    }
}

/// A load-blind policy's fleet routes the trace first and serves the
/// shares in parallel; its report equals the lockstep fleet's, field for
/// field, with and without faults on replica 0 and prefix caching.
#[test]
fn route_first_fleet_matches_the_lockstep_fleet() {
    let arrivals = ArrivalMix::multi_tenant_mix().generate(6.0, 240, 61);
    let horizon = arrivals.last().map_or(0.0, |r| r.arrival_s);
    for caching in [false, true] {
        let build = |plan: FaultPlan| {
            ServingEngine::builder()
                .cluster(GpuCluster::tensor_parallel(Gpu::L40s, 2))
                .policy(Priority::default())
                .max_batch(16)
                .chunked_prefill(caching)
                .prefix_caching(caching)
                .fault_plan(plan)
                .build()
        };
        let clean = build(FaultPlan::new());
        let faulted = build(
            FaultPlan::seeded(19, horizon, 2)
                .link_degrade(0.3 * horizon, 2.5, 0.15 * horizon)
                .kv_stall(0.5 * horizon, 0.02 * horizon),
        );
        for first in [&clean, &faulted] {
            for replicas in [1, 3, 4] {
                let run = |policy: Box<dyn RoutePolicy>| {
                    FleetRouter::new_boxed(policy)
                        .with_replica(first.clone())
                        .with_replicas(&clean, replicas - 1)
                        .run(arrivals.clone())
                };
                let pairs: [(Box<dyn RoutePolicy>, Box<dyn RoutePolicy>); 2] = [
                    (
                        Box::new(RoundRobin::default()),
                        Box::new(Lockstep(RoundRobin::default())),
                    ),
                    (
                        Box::new(SessionAffinity::default()),
                        Box::new(Lockstep(SessionAffinity::default())),
                    ),
                ];
                let is_faulted = std::ptr::eq(first, &faulted);
                for (blind, wrapped) in pairs {
                    assert!(!blind.reads_load() && wrapped.reads_load());
                    let name = blind.name();
                    let (routed_first, lockstep) = (run(blind), run(wrapped));
                    assert_eq!(
                        routed_first, lockstep,
                        "{name}, {replicas} replicas, caching {caching}, faulted {is_faulted}"
                    );
                    assert_eq!(
                        routed_first.completed() + routed_first.rejected(),
                        arrivals.len()
                    );
                    let replica_0 = &routed_first.per_replica[0];
                    assert_eq!(replica_0.robustness.faults_injected > 0, is_faulted);
                    assert_eq!(routed_first.prefix().hits > 0, caching);
                }
            }
        }
    }
}

/// When one replica's rank dies mid-trace, its live pressure reads 1.0
/// and `LeastKvPressure` shifts every later arrival to the survivors;
/// fleet availability dips below 1 while the survivors stay clean.
#[test]
fn rank_failure_shifts_traffic_to_survivors() {
    let healthy = replica_engine();
    let faulted = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .policy(Priority::default())
        .max_batch(16)
        .fault_plan(FaultPlan::new().rank_fail(3.0, 0))
        .build();
    let arrivals = ArrivalMix::paper_mix().generate(20.0, 120, 13);
    let arrival_time: std::collections::HashMap<u64, f64> =
        arrivals.iter().map(|r| (r.id, r.arrival_s)).collect();

    let report = FleetRouter::new(LeastKvPressure)
        .with_replica(faulted)
        .with_replicas(&healthy, 2)
        .run(arrivals);

    // Every request the dead replica saw — served or victimized by the
    // failure — arrived before the rank died: nothing was routed to a
    // replica whose live pressure read 1.0.
    let faulted_ids = report.per_replica[0]
        .completions
        .iter()
        .map(|c| c.id)
        .chain(report.per_replica[0].rejections.iter().map(|r| r.id));
    let mut saw_any = false;
    for id in faulted_ids {
        saw_any = true;
        let at = arrival_time[&id];
        assert!(
            at <= 3.0,
            "request {id} (arrived {at:.3}s) routed to the dead replica after its rank failed"
        );
    }
    assert!(
        saw_any,
        "faulted replica received nothing before the failure"
    );
    // The survivors absorbed the post-failure traffic.
    let shifted = report.per_replica[1..]
        .iter()
        .flat_map(|r| &r.completions)
        .filter(|c| arrival_time[&c.id] > 3.0)
        .count();
    assert!(shifted > 0, "no post-failure traffic reached the survivors");
    assert!(
        report.per_replica[0].availability() < 1.0,
        "faulted replica reports full availability"
    );
    for r in &report.per_replica[1..] {
        assert!((r.availability() - 1.0).abs() < 1e-12);
    }
}

/// A burst scales the fleet up from one replica; the quiet tail drains
/// it back down — a full up/down round trip with no lost requests.
#[test]
fn autoscale_round_trips_up_and_down() {
    let engine = replica_engine();
    let mut arrivals = ArrivalMix::paper_mix().generate(60.0, 150, 7);
    let burst_end = arrivals.last().map(|r| r.arrival_s).unwrap_or(0.0);
    // Sparse interactive tail, long after the burst backlog has drained
    // (the burst leaves tens of seconds of queued work behind it).
    for i in 0..12u64 {
        arrivals.push(
            Request::new(10_000 + i, burst_end + 40.0 + i as f64 * 2.0, 256, 64)
                .with_priority(PriorityClass::Interactive),
        );
    }
    let total = arrivals.len();

    let report = FleetRouter::new(LeastKvPressure)
        .with_replica(engine)
        .autoscale(Autoscale {
            min_replicas: 1,
            max_replicas: 4,
            scale_up_in_flight: 6.0,
            scale_down_in_flight: 1.0,
            cooldown_s: 0.5,
        })
        .run(arrivals);

    let ups: Vec<&AutoscaleEvent> = report
        .autoscale_events
        .iter()
        .filter(|e| e.direction == zipserv::serve::fleet::ScaleDirection::Up)
        .collect();
    let downs: Vec<&AutoscaleEvent> = report
        .autoscale_events
        .iter()
        .filter(|e| e.direction == zipserv::serve::fleet::ScaleDirection::Down)
        .collect();
    assert!(!ups.is_empty(), "burst never scaled the fleet up");
    assert!(!downs.is_empty(), "quiet tail never drained a replica");
    let first_up = ups[0].at_s;
    assert!(
        downs.iter().any(|d| d.at_s > first_up),
        "no scale-down after the scale-up: not a round trip"
    );
    assert!(report.per_replica.len() > 1, "no replica was ever spawned");
    assert!(report.per_replica.len() <= 4, "fleet exceeded max_replicas");
    assert_eq!(report.completed(), total, "autoscaling lost requests");
}

/// The PR's acceptance criterion: on the paper mix at 4 replicas under
/// sustained near-saturation load, power-of-two-choices beats
/// round-robin on interactive p99 TTFT while keeping at least 95% of its
/// throughput. (At light load the policies converge — RR's blind
/// interleaving is already near-optimal when queues never form.)
#[test]
fn p2c_beats_round_robin_on_interactive_p99_ttft() {
    let engine = replica_engine();
    let arrivals = ArrivalMix::paper_mix().generate(7.0, 320, 53);
    let race = |router: FleetRouter| router.with_replicas(&engine, 4).run(arrivals.clone());
    let rr = race(FleetRouter::new(RoundRobin::default()));
    let p2c = race(FleetRouter::new(PowerOfTwoChoices::default()));
    assert_eq!(rr.completed(), 320);
    assert_eq!(p2c.completed(), 320);

    let p99 = |r: &FleetReport| {
        r.class_ttft_percentile(PriorityClass::Interactive, 0.99)
            .expect("interactive completions")
    };
    assert!(
        p99(&p2c) < p99(&rr),
        "p2c did not beat round-robin on interactive p99 TTFT: {:.4}s vs {:.4}s",
        p99(&p2c),
        p99(&rr)
    );
    let tput_ratio = p2c.throughput_tps() / rr.throughput_tps();
    assert!(
        tput_ratio >= 0.95,
        "p2c gave up more than 5% throughput: ratio {tput_ratio:.4}"
    );
}
