//! Fleet-scale serving: a router driving one arrival stream across N replicas.
//!
//! A [`FleetRouter`] owns N replicas — each its own [`ServingEngine`] (and
//! therefore its own `SchedulePolicy`, KV books and optional `FaultPlan`)
//! — and partitions a shared arrival trace across them with a pluggable
//! [`RoutePolicy`]. The fleet runs on one clock: each replica is a
//! resumable [`SchedulerState`], and before every arrival each replica's
//! scheduler steps to the arrival time. Routing therefore reads the
//! replicas' *live* state ([`ReplicaSnapshot`]): requests in flight, and
//! per-rank KV pressure from the books each replica's admission keeps.
//! The arrival is then pushed to the chosen replica, and at the end each
//! replica's [`ScheduleReport`] is merged into a [`FleetReport`]. A
//! replica's report is exactly the one it would produce serving its share
//! of the trace on its own.
//!
//! Three fleet-level behaviours are opt-in (all default off, which makes a
//! single-replica fleet bit-compatible with the bare `run_policy`
//! scheduler):
//!
//! * **admission control** ([`FleetRouter::shed_when_saturated`]) — when
//!   every active replica's peak rank pressure is at or above the
//!   threshold the arrival is shed as [`RejectReason::BrownoutShed`];
//!   requests too large for every replica's KV capacity are rejected as
//!   [`RejectReason::Oversized`] before they pollute any replica trace;
//! * **autoscaling** ([`FleetRouter::autoscale`]) — scale-up spawns a cold
//!   replica: a fresh scheduler over the first replica's engine (a new
//!   replica costs O(1)); scale-down marks the highest-index active
//!   replica as draining: it finishes its assigned work but receives no
//!   new traffic;
//! * **1F1B admission** ([`FleetRouter::try_with_replica`]) — replicas
//!   configured for `PipelineKind::OneFOneB` are refused with
//!   [`FleetError::ActivationCeiling`] when `pp` in-flight micro-batches
//!   would overflow the stage activation budget
//!   (`MemoryPlan::admits_pipeline_kind`).

use crate::engine::ServingEngine;
use crate::fault::{FaultKind, RejectReason, Rejection};
use crate::kvcache::PrefixStats;
use crate::metrics;
use crate::parallel::PipelineKind;
use crate::policy::PriorityClass;
use crate::scheduler::{Completion, Request, ScheduleReport, SchedulerState, UniformStream};

/// Worst-case per-request prompt length (tokens) assumed by the router's
/// 1F1B activation-ceiling admission check — the paper mix's Batch class.
pub const FLEET_PROMPT_TOKENS: u64 = 2048;

/// Errors returned by [`FleetRouter::try_with_replica`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// The replica is configured for 1F1B interleaving but keeping `pp`
    /// micro-batches in flight per stage would overflow the stage
    /// activation budget (the plan's KV headroom).
    ActivationCeiling {
        /// Activation bytes 1F1B must hold resident per stage.
        ceiling_bytes: u64,
        /// Activation budget the stage can actually spare.
        budget_bytes: u64,
    },
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::ActivationCeiling {
                ceiling_bytes,
                budget_bytes,
            } => write!(
                f,
                "1F1B activation ceiling {ceiling_bytes} B exceeds stage budget {budget_bytes} B"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Point-in-time view of one replica, handed to [`RoutePolicy::route`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSnapshot {
    /// Requests the replica holds at the routing time: queued, running,
    /// and routed but not yet pulled into its queue.
    pub in_flight: usize,
    /// Live per-rank KV occupancy in `[0, 1]` from the replica's own
    /// admission books ([`SchedulerState::kv_pressure`]): its streaming
    /// shards under chunked prefill, its residents' reserved tokens over
    /// capacity otherwise. Ranks dead under the replica's `FaultPlan` at
    /// the routing time read `1.0`.
    pub pressure: Vec<f64>,
    /// Draining replicas finish assigned work but accept no new traffic.
    pub draining: bool,
}

impl ReplicaSnapshot {
    /// Highest per-rank pressure — the rank that will stall first.
    pub fn peak_pressure(&self) -> f64 {
        self.pressure.iter().fold(0.0, |a, &b| a.max(b))
    }
}

/// A per-arrival replica-selection policy.
///
/// `route` returns an index into `replicas`; the router clamps an
/// out-of-range or draining pick to the least-loaded active replica, so
/// policies may ignore the draining flag if they wish (the in-tree ones
/// don't).
pub trait RoutePolicy: core::fmt::Debug {
    /// Stable policy name used in reports and figures.
    fn name(&self) -> &'static str;
    /// Pick a replica index for `req` given per-replica snapshots.
    fn route(&mut self, req: &Request, replicas: &[ReplicaSnapshot]) -> usize;
}

/// Indices of the replicas taking traffic: the non-draining ones, or every
/// replica when all are draining.
fn active_indices(replicas: &[ReplicaSnapshot]) -> impl Iterator<Item = usize> + Clone + '_ {
    let all = replicas.iter().all(|r| r.draining);
    (0..replicas.len()).filter(move |&i| all || !replicas[i].draining)
}

/// Cycle through active replicas in index order, ignoring load entirely.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoutePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _req: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        if replicas.is_empty() {
            return 0;
        }
        let n = replicas.len();
        for step in 0..n {
            let idx = (self.next + step) % n;
            if !replicas[idx].draining {
                self.next = idx + 1;
                return idx;
            }
        }
        self.next %= n;
        let idx = self.next;
        self.next += 1;
        idx
    }
}

/// Send each arrival to the replica whose most-loaded KV rank has the
/// lowest live pressure, read off the replicas' own admission books. It
/// sees admitted KV only: a queue waiting behind a full batch adds no
/// pressure.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastKvPressure;

impl RoutePolicy for LeastKvPressure {
    fn name(&self) -> &'static str {
        "least-kv-pressure"
    }

    fn route(&mut self, _req: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let mut best = 0usize;
        let mut best_p = f64::INFINITY;
        for idx in active_indices(replicas) {
            let p = replicas[idx].peak_pressure();
            if p < best_p {
                best_p = p;
                best = idx;
            }
        }
        best
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sticky per-tenant hashing: requests from the same tenant always land
/// on the same active replica, preserving session locality (KV reuse,
/// prefix caches) at the cost of balance. Requests carrying a real
/// [`Request::tenant`] id are keyed on it — the pairing that makes
/// prefix caching compound with routing, since a tenant's shared-prefix
/// pages stay hot on one replica — while tenant-less legacy traffic
/// falls back to folding the request id modulo `tenants`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionAffinity {
    /// Number of distinct tenants the id space of *tenant-less* requests
    /// is folded into (the fallback key).
    pub tenants: u64,
}

impl Default for SessionAffinity {
    fn default() -> Self {
        SessionAffinity { tenants: 16 }
    }
}

impl RoutePolicy for SessionAffinity {
    fn name(&self) -> &'static str {
        "session-affinity"
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let active = active_indices(replicas);
        let n = active.clone().count();
        if n == 0 {
            return 0;
        }
        let tenant = req.tenant.unwrap_or(req.id % self.tenants.max(1));
        let slot = splitmix64(tenant) as usize % n;
        active.clone().nth(slot).unwrap_or(0)
    }
}

/// Sample two distinct active replicas uniformly at random (deterministic
/// xorshift stream) and send the arrival to the shorter queue — the
/// classic "power of two choices" load balancer. Queue depth (live
/// in-flight requests, which is what the batch-slot cap admits by) is
/// compared first; KV pressure breaks ties.
pub struct PowerOfTwoChoices {
    rng: UniformStream,
}

impl PowerOfTwoChoices {
    /// A deterministic sampler; the same seed reproduces the same routing.
    pub fn new(seed: u64) -> Self {
        PowerOfTwoChoices {
            rng: UniformStream::new(seed),
        }
    }
}

impl Default for PowerOfTwoChoices {
    fn default() -> Self {
        PowerOfTwoChoices::new(17)
    }
}

impl core::fmt::Debug for PowerOfTwoChoices {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PowerOfTwoChoices").finish_non_exhaustive()
    }
}

impl RoutePolicy for PowerOfTwoChoices {
    fn name(&self) -> &'static str {
        "power-of-two"
    }

    fn route(&mut self, _req: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let active = active_indices(replicas);
        let n = active.clone().count();
        let nth = |k: usize| active.clone().nth(k).unwrap_or(0);
        match n {
            0 => return 0,
            1 => return nth(0),
            _ => {}
        }
        let a = ((self.rng.next() * n as f64) as usize).min(n - 1);
        let mut b = ((self.rng.next() * n as f64) as usize).min(n - 1);
        if b == a {
            b = (a + 1) % n;
        }
        let (ia, ib) = (nth(a), nth(b));
        let (qa, qb) = (replicas[ia].in_flight, replicas[ib].in_flight);
        if qa < qb {
            ia
        } else if qb < qa {
            ib
        } else if replicas[ia].peak_pressure() <= replicas[ib].peak_pressure() {
            ia
        } else {
            ib
        }
    }
}

/// Autoscaling thresholds, on the router's mean in-flight depth per
/// active replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Autoscale {
    /// Never drain below this many active replicas.
    pub min_replicas: usize,
    /// Never spawn above this many active replicas.
    pub max_replicas: usize,
    /// Mean in-flight per active replica above which one replica is added.
    pub scale_up_in_flight: f64,
    /// Mean in-flight per active replica below which one replica drains.
    pub scale_down_in_flight: f64,
    /// Minimum wall-clock seconds between scaling actions.
    pub cooldown_s: f64,
}

impl Default for Autoscale {
    fn default() -> Self {
        Autoscale {
            min_replicas: 1,
            max_replicas: 8,
            scale_up_in_flight: 12.0,
            scale_down_in_flight: 2.0,
            cooldown_s: 5.0,
        }
    }
}

/// Direction of one autoscaling action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    /// A cold replica was spawned from the pristine-clone path.
    Up,
    /// One replica was marked draining.
    Down,
}

/// One autoscaling action taken while routing the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleEvent {
    /// Trace time (seconds) at which the action fired.
    pub at_s: f64,
    /// Whether a replica was added or drained.
    pub direction: ScaleDirection,
    /// Active (non-draining) replica count *after* the action.
    pub active_replicas: usize,
}

/// One replica while the fleet runs: its scheduler, plus the ranks its
/// `FaultPlan` has killed by the routing time. An idle scheduler applies
/// due faults only at its next arrival, so routing reads the plan itself.
#[derive(Debug)]
struct Replica<'a> {
    engine: &'a ServingEngine,
    state: SchedulerState<'a>,
    /// Ranks dead under the plan at the last routing time.
    dead: Vec<bool>,
    /// Next plan event `dead` has not applied.
    fault_cursor: usize,
    draining: bool,
}

impl<'a> Replica<'a> {
    fn new(engine: &'a ServingEngine) -> Self {
        Replica {
            engine,
            state: SchedulerState::new(
                engine,
                engine.policy(),
                engine.max_batch(),
                engine.fault_plan(),
                engine.retry_policy(),
            ),
            dead: vec![false; engine.cluster().total_ranks()],
            fault_cursor: 0,
            draining: false,
        }
    }

    /// Refreshes `snap` with the replica's live state at routing time
    /// `now`: in-flight depth, per-rank KV pressure from its own books,
    /// and `1.0` for every rank dead under its plan.
    fn snapshot_into(&mut self, snap: &mut ReplicaSnapshot, now: f64) {
        let events = self.engine.fault_plan().events();
        let ranks = self.dead.len();
        while let Some(ev) = events.get(self.fault_cursor) {
            if ev.at_s > now {
                break;
            }
            match ev.kind {
                FaultKind::RankFail { rank } => self.dead[rank % ranks] = true,
                FaultKind::RankRepair { rank } => self.dead[rank % ranks] = false,
                _ => {}
            }
            self.fault_cursor += 1;
        }
        snap.in_flight = self.state.in_flight();
        snap.pressure.clear();
        let state = &self.state;
        snap.pressure
            .extend(self.dead.iter().enumerate().map(|(rank, &dead)| {
                if dead {
                    1.0
                } else {
                    state.kv_pressure(rank)
                }
            }));
        snap.draining = self.draining;
    }
}

/// Routes a shared arrival stream across N replica engines.
///
/// Build with [`FleetRouter::new`], add replicas with
/// [`FleetRouter::with_replica`] / [`FleetRouter::with_replicas`], opt
/// into shedding and autoscaling, then consume the router with
/// [`FleetRouter::run`].
#[derive(Debug)]
pub struct FleetRouter {
    engines: Vec<ServingEngine>,
    policy: Box<dyn RoutePolicy>,
    shed_at: Option<f64>,
    autoscale: Option<Autoscale>,
    next_scale_s: f64,
}

impl FleetRouter {
    /// A router with no replicas yet, using `policy` for placement.
    pub fn new(policy: impl RoutePolicy + 'static) -> Self {
        Self::new_boxed(Box::new(policy))
    }

    /// Boxed-policy variant of [`FleetRouter::new`].
    pub fn new_boxed(policy: Box<dyn RoutePolicy>) -> Self {
        FleetRouter {
            engines: Vec::new(),
            policy,
            shed_at: None,
            autoscale: None,
            next_scale_s: 0.0,
        }
    }

    /// Add a replica, refusing configurations the fleet cannot admit.
    ///
    /// A replica configured for `PipelineKind::OneFOneB` must fit `pp`
    /// in-flight micro-batches of activations per stage; the check assumes
    /// [`FLEET_PROMPT_TOKENS`]-token prompts at the engine's batch cap
    /// split across its micro-batches.
    pub fn try_with_replica(mut self, engine: ServingEngine) -> Result<Self, FleetError> {
        let pp = engine.cluster().pp();
        if engine.pipeline_kind() == PipelineKind::OneFOneB && pp > 1 {
            let micro = u64::from(engine.micro_batches().max(1));
            let tokens_per_micro =
                (engine.max_batch() as u64 * FLEET_PROMPT_TOKENS).div_ceil(micro);
            let plan = engine.memory_plan();
            if !plan.admits_pipeline_kind(
                engine.model(),
                PipelineKind::OneFOneB,
                pp,
                tokens_per_micro,
            ) {
                return Err(FleetError::ActivationCeiling {
                    ceiling_bytes: crate::memory::MemoryPlan::activation_ceiling_bytes(
                        engine.model(),
                        PipelineKind::OneFOneB,
                        pp,
                        tokens_per_micro,
                    ),
                    budget_bytes: plan.kv_bytes,
                });
            }
        }
        self.engines.push(engine);
        Ok(self)
    }

    /// Add a replica; panics if the fleet refuses it (see
    /// [`FleetRouter::try_with_replica`]).
    pub fn with_replica(self, engine: ServingEngine) -> Self {
        match self.try_with_replica(engine) {
            Ok(router) => router,
            Err(e) => panic!("fleet refused replica: {e}"),
        }
    }

    /// Add `n` identical replicas cloned from `engine` (the pristine-clone
    /// path: clones share the step memo and KV proto).
    pub fn with_replicas(mut self, engine: &ServingEngine, n: usize) -> Self {
        for _ in 0..n {
            self = self.with_replica(engine.clone());
        }
        self
    }

    /// Enable fleet-level admission control: shed arrivals as
    /// [`RejectReason::BrownoutShed`] when every active replica's peak
    /// rank pressure is `>= threshold`, and pre-reject requests larger
    /// than every replica's KV capacity as [`RejectReason::Oversized`].
    pub fn shed_when_saturated(mut self, threshold: f64) -> Self {
        self.shed_at = Some(threshold);
        self
    }

    /// Enable queue-depth autoscaling between `cfg.min_replicas` and
    /// `cfg.max_replicas`.
    pub fn autoscale(mut self, cfg: Autoscale) -> Self {
        self.autoscale = Some(cfg);
        self
    }

    /// Replicas currently attached.
    pub fn replica_count(&self) -> usize {
        self.engines.len()
    }

    /// Scale on the mean in-flight depth of the active replicas. A spawned
    /// replica runs `proto`, the first replica's engine.
    fn autoscale_tick<'a>(
        &mut self,
        now: f64,
        replicas: &mut Vec<Replica<'a>>,
        proto: Option<&'a ServingEngine>,
        events: &mut Vec<AutoscaleEvent>,
    ) {
        let Some(cfg) = self.autoscale else { return };
        if now < self.next_scale_s {
            return;
        }
        let active: Vec<usize> = (0..replicas.len())
            .filter(|&i| !replicas[i].draining)
            .collect();
        if active.is_empty() {
            return;
        }
        let mean = active
            .iter()
            .map(|&i| replicas[i].state.in_flight())
            .sum::<usize>() as f64
            / active.len() as f64;
        if mean > cfg.scale_up_in_flight && active.len() < cfg.max_replicas {
            if let Some(proto) = proto {
                let mut spawned = Replica::new(proto);
                spawned.state.step_until(now);
                replicas.push(spawned);
                events.push(AutoscaleEvent {
                    at_s: now,
                    direction: ScaleDirection::Up,
                    active_replicas: active.len() + 1,
                });
                self.next_scale_s = now + cfg.cooldown_s;
            }
        } else if mean < cfg.scale_down_in_flight && active.len() > cfg.min_replicas {
            if let Some(&last) = active.last() {
                replicas[last].draining = true;
                events.push(AutoscaleEvent {
                    at_s: now,
                    direction: ScaleDirection::Down,
                    active_replicas: active.len() - 1,
                });
                self.next_scale_s = now + cfg.cooldown_s;
            }
        }
    }

    /// Route the trace on one clock, then merge the replicas' reports.
    ///
    /// Arrivals are routed in arrival order (a stable sort). Before each
    /// arrival every replica's scheduler steps to the arrival time, so
    /// routing, shedding and autoscaling read live state: each replica's
    /// in-flight depth (queued, running, and routed but not yet pulled)
    /// and its own KV books. The arrival is then pushed to the chosen
    /// replica. A replica's report is exactly what it would report serving
    /// its share of the trace on its own.
    pub fn run(mut self, mut arrivals: Vec<Request>) -> FleetReport {
        // A stable sort allocates scratch for the whole trace even when,
        // as usual, it is sorted already.
        if !arrivals.is_sorted_by(|a, b| a.arrival_s <= b.arrival_s) {
            arrivals.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite"));
        }
        let route_policy = self.policy.name().to_string();
        let engines = std::mem::take(&mut self.engines);
        let mut replicas: Vec<Replica<'_>> = engines.iter().map(Replica::new).collect();
        let mut snapshots: Vec<ReplicaSnapshot> = Vec::new();
        let mut rejections = Vec::new();
        let mut autoscale_events = Vec::new();
        for req in arrivals {
            let now = req.arrival_s;
            for r in &mut replicas {
                r.state.step_until(now);
            }
            self.autoscale_tick(now, &mut replicas, engines.first(), &mut autoscale_events);
            if replicas.is_empty() {
                rejections.push(Rejection {
                    id: req.id,
                    reason: RejectReason::CapacityLost,
                });
                continue;
            }
            snapshots.resize_with(replicas.len(), || ReplicaSnapshot {
                in_flight: 0,
                pressure: Vec::new(),
                draining: false,
            });
            for (r, snap) in replicas.iter_mut().zip(&mut snapshots) {
                r.snapshot_into(snap, now);
            }
            if let Some(threshold) = self.shed_at {
                let active = || replicas.iter().zip(&snapshots).filter(|(r, _)| !r.draining);
                if !active()
                    .any(|(r, _)| req.prompt_len + req.output_len <= r.engine.kv_capacity_tokens())
                {
                    rejections.push(Rejection {
                        id: req.id,
                        reason: RejectReason::Oversized,
                    });
                    continue;
                }
                if !active().any(|(_, snap)| snap.peak_pressure() < threshold) {
                    rejections.push(Rejection {
                        id: req.id,
                        reason: RejectReason::BrownoutShed,
                    });
                    continue;
                }
            }
            let mut idx = self.policy.route(&req, &snapshots);
            if idx >= replicas.len() || replicas[idx].draining {
                idx = least_loaded(&snapshots);
            }
            replicas[idx].state.push(req);
        }
        let per_replica: Vec<ScheduleReport> =
            replicas.into_iter().map(|r| r.state.finish()).collect();
        FleetReport {
            per_replica,
            rejections,
            autoscale_events,
            route_policy,
        }
    }
}

/// The active replica with the fewest requests in flight; when everything
/// is draining, the least-loaded overall, which keeps the trace flowing
/// rather than dropping it on the floor.
fn least_loaded(replicas: &[ReplicaSnapshot]) -> usize {
    let least = |draining_too: bool| {
        (0..replicas.len())
            .filter(|&i| draining_too || !replicas[i].draining)
            .min_by_key(|&i| replicas[i].in_flight)
    };
    least(false).or_else(|| least(true)).unwrap_or(0)
}

/// Merged outcome of a fleet run: per-replica reports plus fleet-level
/// rejections and autoscaling history.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One [`ScheduleReport`] per replica, in replica-index order
    /// (including replicas spawned by autoscaling).
    pub per_replica: Vec<ScheduleReport>,
    /// Arrivals the *router* rejected (shed / oversized / no capacity);
    /// per-replica rejections live in each [`ScheduleReport`].
    pub rejections: Vec<Rejection>,
    /// Scaling actions in trace order.
    pub autoscale_events: Vec<AutoscaleEvent>,
    /// Name of the [`RoutePolicy`] that produced this report.
    pub route_policy: String,
}

impl FleetReport {
    /// All completions across the fleet, replica-major.
    pub fn completions(&self) -> impl Iterator<Item = &Completion> + '_ {
        self.per_replica.iter().flat_map(|r| r.completions.iter())
    }

    /// Number of requests that completed somewhere in the fleet.
    pub fn completed(&self) -> usize {
        self.per_replica.iter().map(|r| r.completions.len()).sum()
    }

    /// Fleet-wide prefix-cache counters: every replica's
    /// [`ScheduleReport::prefix`] stats merged (all-zero when prefix
    /// caching is off everywhere).
    pub fn prefix(&self) -> PrefixStats {
        let mut total = PrefixStats::default();
        for r in &self.per_replica {
            total.merge(&r.prefix);
        }
        total
    }

    /// Total rejections: router-level plus every replica's own.
    pub fn rejected(&self) -> usize {
        self.rejections.len()
            + self
                .per_replica
                .iter()
                .map(|r| r.rejections.len())
                .sum::<usize>()
    }

    /// Wall-clock duration of the slowest replica.
    pub fn duration_s(&self) -> f64 {
        self.per_replica
            .iter()
            .fold(0.0, |a, r| a.max(r.duration_s))
    }

    /// Fleet output-token throughput: tokens generated anywhere divided by
    /// the slowest replica's duration.
    pub fn throughput_tps(&self) -> f64 {
        let dur = self.duration_s();
        if dur <= 0.0 {
            return 0.0;
        }
        let tokens: u64 = self.completions().map(|c| c.output_len).sum();
        tokens as f64 / dur
    }

    /// Global TTFT percentile over the merged completion samples.
    pub fn ttft_percentile(&self, q: f64) -> Option<f64> {
        metrics::percentile(self.completions().map(|c| c.ttft_s), q)
    }

    /// Global end-to-end latency percentile over the merged samples.
    pub fn latency_percentile(&self, q: f64) -> Option<f64> {
        metrics::percentile(self.completions().map(|c| c.latency_s), q)
    }

    /// Global TTFT percentile restricted to one traffic class.
    pub fn class_ttft_percentile(&self, class: PriorityClass, q: f64) -> Option<f64> {
        metrics::percentile(
            self.completions()
                .filter(|c| c.priority == class)
                .map(|c| c.ttft_s),
            q,
        )
    }

    /// Fleet-wide SLO attainment over every judged completion.
    pub fn slo_attainment(&self) -> Option<f64> {
        metrics::slo_attainment(self.completions())
    }

    /// Max-over-mean per-replica output-token load; `1.0` is perfectly
    /// balanced, larger means hot spots.
    pub fn imbalance_ratio(&self) -> f64 {
        let loads: Vec<f64> = self
            .per_replica
            .iter()
            .map(|r| r.completions.iter().map(|c| c.output_len).sum::<u64>() as f64)
            .collect();
        if loads.is_empty() {
            return 1.0;
        }
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        loads.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean
    }

    /// Duration-weighted mean of per-replica availability (fraction of
    /// each replica's run not spent in fault brownout).
    pub fn availability(&self) -> f64 {
        let total: f64 = self.per_replica.iter().map(|r| r.duration_s).sum();
        if total <= 0.0 {
            return 1.0;
        }
        self.per_replica
            .iter()
            .map(|r| r.availability() * r.duration_s)
            .sum::<f64>()
            / total
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cluster::GpuCluster;
    use crate::engine::{EngineKind, ServingEngine};
    use crate::policy::Priority;
    use crate::workload::ArrivalMix;
    use zipserv_gpu_sim::device::Gpu;
    use zipserv_kernels::shapes::LlmModel;

    fn snap(pressure: f64, in_flight: usize, draining: bool) -> ReplicaSnapshot {
        ReplicaSnapshot {
            in_flight,
            pressure: vec![pressure],
            draining,
        }
    }

    fn test_engine() -> ServingEngine {
        ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::single(Gpu::Rtx4090))
            .policy(Priority::default())
            .max_batch(16)
            .build()
    }

    #[test]
    fn round_robin_cycles_and_skips_draining() {
        let mut rr = RoundRobin::default();
        let req = Request::new(0, 0.0, 8, 8);
        let snaps = vec![snap(0.0, 0, false), snap(0.0, 0, true), snap(0.0, 0, false)];
        assert_eq!(rr.route(&req, &snaps), 0);
        assert_eq!(rr.route(&req, &snaps), 2); // skips draining replica 1
        assert_eq!(rr.route(&req, &snaps), 0);
    }

    #[test]
    fn least_kv_pressure_picks_emptiest_rank() {
        let mut lp = LeastKvPressure;
        let req = Request::new(0, 0.0, 8, 8);
        let snaps = vec![
            snap(0.7, 1, false),
            snap(0.2, 9, false),
            snap(0.4, 0, false),
        ];
        assert_eq!(lp.route(&req, &snaps), 1);
    }

    #[test]
    fn session_affinity_is_sticky_per_tenant() {
        let mut sa = SessionAffinity { tenants: 4 };
        let snaps = vec![snap(0.0, 0, false); 3];
        // Same tenant (id ≡ 1 mod 4) always lands on the same replica.
        let first = sa.route(&Request::new(1, 0.0, 8, 8), &snaps);
        for id in [5u64, 9, 13, 101] {
            assert_eq!(sa.route(&Request::new(id, 0.0, 8, 8), &snaps), first);
        }
    }

    #[test]
    fn session_affinity_keys_on_the_real_tenant_id() {
        let mut sa = SessionAffinity { tenants: 4 };
        let snaps = vec![snap(0.0, 0, false); 3];
        // Tagged requests stick by tenant regardless of their ids...
        let first = sa.route(&Request::new(0, 0.0, 8, 8).with_tenant(42), &snaps);
        for id in [3u64, 7, 20, 55] {
            assert_eq!(
                sa.route(&Request::new(id, 0.0, 8, 8).with_tenant(42), &snaps),
                first,
                "tenant 42 moved replicas at id {id}"
            );
        }
        // ...and the tag overrides the modulo fold: an id that folds to
        // the same bucket as a tagged sibling can still route elsewhere.
        let tenants: Vec<usize> = (0..16)
            .map(|t| sa.route(&Request::new(0, 0.0, 8, 8).with_tenant(t), &snaps))
            .collect();
        assert!(
            tenants.iter().any(|&r| r != tenants[0]),
            "all 16 tenants landed on one replica"
        );
    }

    #[test]
    fn power_of_two_prefers_lower_pressure() {
        let mut p2c = PowerOfTwoChoices::new(7);
        let req = Request::new(0, 0.0, 8, 8);
        // One hot replica among cold ones: p2c must never pick the hot one
        // when its sample includes a cold alternative (it always does with
        // two distinct candidates out of two cold + one hot... sample may
        // be two colds; either way the hot replica is only picked if both
        // candidates are hot, which cannot happen here).
        let snaps = vec![
            snap(0.9, 50, false),
            snap(0.1, 1, false),
            snap(0.1, 1, false),
        ];
        for _ in 0..64 {
            let idx = p2c.route(&req, &snaps);
            assert_ne!(idx, 0, "picked the saturated replica");
        }
    }

    #[test]
    fn activation_ceiling_refuses_one_f_one_b_replica() {
        let engine = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::pipeline_parallel(Gpu::Rtx4090, 1, 8))
            .policy(Priority::default())
            .micro_batches(1)
            .pipeline_kind(PipelineKind::OneFOneB)
            .max_batch(256)
            .build();
        let err = FleetRouter::new(RoundRobin::default())
            .try_with_replica(engine)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, FleetError::ActivationCeiling { .. }));

        // The same deployment under GPipe holds one micro-batch in flight
        // and is admitted.
        let gpipe = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::pipeline_parallel(Gpu::Rtx4090, 1, 8))
            .policy(Priority::default())
            .micro_batches(1)
            .max_batch(256)
            .build();
        let fleet = FleetRouter::new(RoundRobin::default()).with_replica(gpipe);
        assert_eq!(fleet.replica_count(), 1);
    }

    #[test]
    fn shed_rejects_only_when_enabled_and_saturated() {
        let engine = test_engine();
        let arrivals = ArrivalMix::paper_mix().generate(30.0, 60, 11);

        // Threshold 0.0: no replica reads below it, so every arrival sheds.
        let shed = FleetRouter::new(RoundRobin::default())
            .with_replicas(&engine, 2)
            .shed_when_saturated(0.0)
            .run(arrivals.clone());
        assert!(
            shed.rejections
                .iter()
                .all(|r| r.reason == RejectReason::BrownoutShed),
            "all router rejections typed as brownout shed"
        );
        assert!(!shed.rejections.is_empty());

        // No admission control: the router itself never rejects.
        let open = FleetRouter::new(RoundRobin::default())
            .with_replicas(&engine, 2)
            .run(arrivals);
        assert!(open.rejections.is_empty());
    }

    #[test]
    fn oversized_requests_rejected_at_the_router() {
        let engine = test_engine();
        let cap = engine.kv_capacity_tokens();
        let arrivals = vec![Request::new(0, 0.0, cap + 1, 1)];
        let report = FleetRouter::new(RoundRobin::default())
            .with_replicas(&engine, 2)
            .shed_when_saturated(0.99)
            .run(arrivals);
        assert_eq!(report.rejections.len(), 1);
        assert_eq!(report.rejections[0].reason, RejectReason::Oversized);
        assert_eq!(report.completed(), 0);
    }

    #[test]
    fn fleet_report_merges_percentiles_and_balance() {
        let engine = test_engine();
        let arrivals = ArrivalMix::paper_mix().generate(24.0, 96, 5);
        let report = FleetRouter::new(LeastKvPressure)
            .with_replicas(&engine, 4)
            .run(arrivals);
        assert_eq!(report.completed(), 96);
        assert_eq!(report.per_replica.len(), 4);
        assert!(report.throughput_tps() > 0.0);
        let p50 = report.ttft_percentile(0.50).unwrap();
        let p99 = report.ttft_percentile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(report.latency_percentile(0.99).unwrap() >= p99);
        assert!(report.imbalance_ratio() >= 1.0);
        assert!((report.availability() - 1.0).abs() < 1e-12);
        assert_eq!(report.route_policy, "least-kv-pressure");
    }
}
