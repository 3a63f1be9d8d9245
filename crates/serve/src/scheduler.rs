//! Online serving: a continuous-batching scheduler over the engine models.
//!
//! §6.5 benchmarks static batches; production serving (vLLM's actual mode)
//! admits requests as they arrive, joins them to the running decode batch,
//! and evicts them on completion. This module simulates that loop in
//! discrete decode-step time, with KV-capacity admission control — which is
//! exactly where ZipServ's freed weight memory turns into admission
//! headroom and lower queueing delay.
//!
//! The loop is a resumable [`SchedulerState`], so a fleet can step many
//! replicas on one clock; [`run_policy_faulted`] runs it over a whole trace.
//!
//! Admission order and preemption are delegated to a pluggable
//! [`SchedulePolicy`](crate::policy::SchedulePolicy); see [`crate::policy`]
//! for the four in-tree policies and
//! [`ServingEngine::builder`](crate::engine::ServingEngine::builder) for the
//! fluent way to wire one up.

use crate::engine::ServingEngine;
use crate::fault::{
    FaultEvent, FaultKind, FaultPlan, FaultState, RejectReason, Rejection, RetryPolicy,
};
use crate::kvcache::{KvShards, PrefixRegistry, PrefixStats};
use crate::metrics::{percentile, ClassStats, RobustnessStats};
use crate::policy::{
    Fcfs, PreemptionMode, PriorityClass, QueuedRequest, RunningRequest, SchedulePolicy, Slo,
};
use std::collections::{HashMap, HashSet, VecDeque};

pub use crate::policy::MAX_PREEMPTIONS;

/// One serving request.
///
/// Construct with [`Request::new`] and layer on QoS with the builder-style
/// [`Request::with_priority`] / [`Request::with_slo`]; the defaults
/// ([`PriorityClass::Standard`], no SLO) reproduce pre-policy behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Request id.
    pub id: u64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Prompt tokens.
    pub prompt_len: u64,
    /// Output tokens to generate.
    pub output_len: u64,
    /// Priority tier (default [`PriorityClass::Standard`]).
    pub priority: PriorityClass,
    /// Optional latency SLO this request is judged against.
    pub slo: Option<Slo>,
    /// Tenant identity (`None` for legacy tenant-less traffic). Fleet
    /// routers with session affinity key on this; the modulo-of-id fold
    /// remains only as their fallback.
    pub tenant: Option<u64>,
    /// Hash of the shared prompt prefix this request declares (0 = no
    /// shared prefix). Requests with equal hashes share their first
    /// `prefix_len` prompt tokens bit-for-bit.
    pub prefix_hash: u64,
    /// Length in tokens of the shared prefix (0 = no shared prefix;
    /// always `<= prompt_len`).
    pub prefix_len: u64,
}

impl Request {
    /// Creates a request with default QoS (standard priority, no SLO).
    pub fn new(id: u64, arrival_s: f64, prompt_len: u64, output_len: u64) -> Self {
        Request {
            id,
            arrival_s,
            prompt_len,
            output_len,
            priority: PriorityClass::Standard,
            slo: None,
            tenant: None,
            prefix_hash: 0,
            prefix_len: 0,
        }
    }

    /// Sets the priority tier (builder style).
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a latency SLO (builder style).
    pub fn with_slo(mut self, slo: Slo) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Tags the request with a tenant identity (builder style).
    pub fn with_tenant(mut self, tenant: u64) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Declares that the first `len` prompt tokens are shared under
    /// `hash` (builder style). `len` is clamped to the prompt length.
    pub fn with_shared_prefix(mut self, hash: u64, len: u64) -> Self {
        self.prefix_hash = hash;
        self.prefix_len = len.min(self.prompt_len);
        self
    }
}

/// Per-request completion record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Priority tier the request ran under.
    pub priority: PriorityClass,
    /// Time spent queued before first admission (s).
    pub queue_s: f64,
    /// End-to-end latency from arrival to last token (s).
    pub latency_s: f64,
    /// Time from arrival to the first generated token (s).
    pub ttft_s: f64,
    /// How many times the request was preempted.
    pub preemptions: u32,
    /// Whether the request's SLO was met (`None` if it carried no SLO).
    pub slo_met: Option<bool>,
    /// Output tokens the request generated (its `output_len`) — what
    /// [`ScheduleReport::goodput_tps`] counts.
    pub output_len: u64,
    /// Fault-driven re-queues the request survived (0 on clean runs).
    pub retries: u32,
}

/// Aggregate results of one simulated serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// All completions.
    pub completions: Vec<Completion>,
    /// Simulated wall-clock duration (s).
    pub duration_s: f64,
    /// Output tokens per second over the run.
    pub throughput_tps: f64,
    /// Peak concurrent batch size observed.
    pub peak_batch: usize,
    /// Decode-side communication time charged across the run (s): the
    /// tensor-parallel all-reduce plus pipeline activation-hop share of
    /// every decode step the scheduler billed. Zero on single-GPU
    /// deployments; the legacy [`ContinuousBatcher::run_reference`] shim
    /// predates comm accounting and always reports zero.
    pub comm_s: f64,
    /// Total preemptions across the run.
    pub preemptions: u64,
    /// Ids of requests rejected instead of served, in rejection order
    /// (derived from [`ScheduleReport::rejections`]; kept for
    /// compatibility with pre-fault callers).
    pub rejected: Vec<u64>,
    /// Typed rejections with reasons: oversized requests, fault victims
    /// past the retry cap, brownout sheds, lost capacity, policy holds.
    pub rejections: Vec<Rejection>,
    /// Robustness accounting under fault injection. All-zero (the
    /// `Default`) on clean runs, preserving bit-compatible reports when
    /// the [`FaultPlan`] is empty.
    pub robustness: RobustnessStats,
    /// Step-cache observability: how often the scheduler re-priced a
    /// decode step versus reusing a cached one. Purely diagnostic — the
    /// cached values are exact, so hit rate never changes a report's
    /// timing fields.
    pub step_cache: StepCacheStats,
    /// Prefix-cache counters: hit rate, prefill tokens saved, CoW pages
    /// shared, evictions. All-zero (the `Default`) whenever the engine
    /// runs without prefix caching, preserving bit-compatible reports.
    pub prefix: PrefixStats,
    /// Name of the policy that produced this report.
    pub policy: String,
}

/// Hit/miss counters for the scheduler's per-`(shape, context-bucket)`
/// decode-step cache.
///
/// Misses are bounded by the number of *distinct step shapes* a run
/// visits, not the number of decode steps: on pipeline-parallel engines
/// the cache keys on [`ServingEngine::step_cache_key`]'s micro-batch
/// shape, so batch sizes that quantize to the same shape share an entry.
/// A low [`StepCacheStats::hit_rate`] on a long run means the engine
/// model is being re-run per step — the regression this accounting
/// exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepCacheStats {
    /// Decode steps priced from a cached entry, fast-forwarded rounds
    /// included.
    pub hits: u64,
    /// Decode steps that ran the engine's step model.
    pub misses: u64,
}

impl StepCacheStats {
    /// Fraction of decode steps served from cache (1.0 for an empty run).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

impl ScheduleReport {
    /// End-to-end latency percentile (`q` in `[0, 1]`), or `None` when the
    /// run produced no completions.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn latency_percentile(&self, q: f64) -> Option<f64> {
        percentile(self.completions.iter().map(|c| c.latency_s), q)
    }

    /// Time-to-first-token percentile (`q` in `[0, 1]`), or `None` when the
    /// run produced no completions.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn ttft_percentile(&self, q: f64) -> Option<f64> {
        percentile(self.completions.iter().map(|c| c.ttft_s), q)
    }

    /// Latency percentile restricted to one priority class, or `None` when
    /// that class has no completions.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn class_latency_percentile(&self, class: PriorityClass, q: f64) -> Option<f64> {
        percentile(
            self.completions
                .iter()
                .filter(|c| c.priority == class)
                .map(|c| c.latency_s),
            q,
        )
    }

    /// TTFT percentile restricted to one priority class, or `None` when
    /// that class has no completions.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn class_ttft_percentile(&self, class: PriorityClass, q: f64) -> Option<f64> {
        percentile(
            self.completions
                .iter()
                .filter(|c| c.priority == class)
                .map(|c| c.ttft_s),
            q,
        )
    }

    /// Mean queueing delay before first admission, or `None` when the run
    /// produced no completions.
    pub fn mean_queue_s(&self) -> Option<f64> {
        if self.completions.is_empty() {
            return None;
        }
        Some(
            self.completions.iter().map(|c| c.queue_s).sum::<f64>() / self.completions.len() as f64,
        )
    }

    /// Fraction of SLO-carrying completions that met their SLO, or `None`
    /// when no completion carried an SLO.
    pub fn slo_attainment(&self) -> Option<f64> {
        crate::metrics::slo_attainment(&self.completions)
    }

    /// Per-class summary for one priority tier, or `None` when that class
    /// has no completions.
    pub fn class_stats(&self, class: PriorityClass) -> Option<ClassStats> {
        ClassStats::from_completions(
            class,
            self.completions.iter().filter(|c| c.priority == class),
        )
    }

    /// Summaries for every priority class that completed at least one
    /// request, least to most urgent.
    pub fn per_class(&self) -> Vec<ClassStats> {
        PriorityClass::ALL
            .iter()
            .filter_map(|&class| self.class_stats(class))
            .collect()
    }

    /// Fraction of the run during which every rank was alive: `1 −
    /// downtime / duration`. Exactly 1.0 on clean runs (and on an empty
    /// run, where no time passed to be unavailable in).
    pub fn availability(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 1.0;
        }
        (1.0 - self.robustness.downtime_s / self.duration_s).clamp(0.0, 1.0)
    }

    /// Output tokens per second counting only *completed* requests —
    /// under faults this excludes tokens generated by victims that were
    /// later rejected, so `goodput_tps <= throughput_tps` and the gap is
    /// the work faults wasted. Equal to `throughput_tps` on clean runs
    /// without rejections.
    pub fn goodput_tps(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        self.completions.iter().map(|c| c.output_len).sum::<u64>() as f64 / self.duration_s
    }

    /// Ids rejected for one specific reason, in rejection order.
    pub fn rejected_for(&self, reason: RejectReason) -> Vec<u64> {
        self.rejections
            .iter()
            .filter(|r| r.reason == reason)
            .map(|r| r.id)
            .collect()
    }
}

/// Deterministic xorshift64 uniform stream on `(0, 1)`, shared by every
/// arrival generator so their documented equivalence cannot drift.
pub(crate) struct UniformStream(u64);

impl UniformStream {
    pub(crate) fn new(seed: u64) -> Self {
        UniformStream(seed | 1)
    }

    pub(crate) fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 11) as f64 / (1u64 << 53) as f64).max(1e-12)
    }
}

/// Deterministic Poisson-process arrival generator (xorshift-based, no
/// external RNG needed). Every request gets default QoS; use
/// [`crate::workload::ArrivalMix`] for mixed-priority/SLO traffic.
pub fn poisson_arrivals(
    rate_per_s: f64,
    count: usize,
    prompt_len: u64,
    output_len: u64,
    seed: u64,
) -> Vec<Request> {
    assert!(rate_per_s > 0.0, "rate must be positive");
    let mut uniform = UniformStream::new(seed);
    let mut t = 0.0;
    (0..count)
        .map(|id| {
            t += -uniform.next().ln() / rate_per_s; // exponential inter-arrival
            Request::new(id as u64, t, prompt_len, output_len)
        })
        .collect()
}

/// Builds the final report shared by the generic and reference loops.
#[allow(clippy::too_many_arguments)]
fn finish_report(
    policy: &str,
    now: f64,
    output_tokens: u64,
    peak_batch: usize,
    comm_s: f64,
    preemptions: u64,
    rejections: Vec<Rejection>,
    robustness: RobustnessStats,
    step_cache: StepCacheStats,
    prefix: PrefixStats,
    completions: Vec<Completion>,
) -> ScheduleReport {
    ScheduleReport {
        duration_s: now,
        throughput_tps: if now > 0.0 {
            output_tokens as f64 / now
        } else {
            0.0
        },
        peak_batch,
        comm_s,
        preemptions,
        rejected: rejections.iter().map(|r| r.id).collect(),
        rejections,
        robustness,
        step_cache,
        prefix,
        policy: policy.to_string(),
        completions,
    }
}

/// Turns a finished in-flight record into a completion at time `now`.
fn complete(f: &RunningRequest, now: f64) -> Completion {
    // A finished request always produced at least one token; fall back to
    // the final step time rather than aborting the run if a custom policy
    // ever violates that invariant.
    let first_token = f.first_token_s.unwrap_or(now);
    let ttft_s = first_token - f.req.arrival_s;
    Completion {
        id: f.req.id,
        priority: f.req.priority,
        queue_s: f.first_admitted_s - f.req.arrival_s,
        latency_s: now - f.req.arrival_s,
        ttft_s,
        preemptions: f.preemptions,
        slo_met: f.req.slo.map(|slo| {
            let decode_budget = slo.tpot_s * f.req.output_len.saturating_sub(1) as f64;
            ttft_s <= slo.ttft_s && (now - first_token) <= decode_budget
        }),
        output_len: f.req.output_len,
        retries: f.retries,
    }
}

/// Runs an arrival trace to completion under an arbitrary policy.
///
/// This is the policy-generic continuous-batching loop:
///
/// 1. **Admission** — while capacity and the batch cap allow, the policy
///    picks the next arrived request; a pick that does not fit may evict
///    policy-chosen victims (each request at most [`MAX_PREEMPTIONS`]
///    times). Fresh admissions pay their prefill; re-admissions pay a
///    recompute prefill over `prompt + generated` tokens, or — under
///    [`PreemptionMode::PageOut`](crate::policy::PreemptionMode) — the
///    PCIe page-in half of the swap (the page-out half was charged when
///    the victim was evicted).
/// 2. **Decode** — one step for the whole batch, costed by the engine's
///    analytic model (cached per `(batch, context-bucket)`).
/// 3. **Retire** — finished requests leave the batch and record latency,
///    TTFT, queueing delay, preemption count and SLO verdict.
///
/// A request whose KV demand exceeds the deployment's capacity even as the
/// sole occupant is reported in [`ScheduleReport::rejected`] rather than
/// looping forever.
///
/// Under [`Fcfs`] this loop is bit-compatible with the legacy
/// [`ContinuousBatcher::run_reference`] on arrival-sorted traces (verified
/// by proptest in the `schedule_policies` suite).
pub fn run_policy(
    engine: &ServingEngine,
    policy: &dyn SchedulePolicy,
    max_batch: usize,
    arrivals: Vec<Request>,
) -> ScheduleReport {
    run_policy_faulted(
        engine,
        policy,
        max_batch,
        arrivals,
        &FaultPlan::default(),
        &RetryPolicy::default(),
    )
}

/// Everything streaming admission tracks while the scheduler loop runs
/// (chunked-prefill mode only — `None` on the legacy path): the live
/// per-rank KV shards that gate admission page-by-page, plus the
/// per-request prefill chunk cost.
#[derive(Debug)]
struct StreamBooks {
    /// One paged allocator per rank of the `tp × pp` grid. Admission
    /// reserves a request's whole-lifetime KV (`prompt + output`) on every
    /// alive rank up front, so one exhausted fat rank stalls intake
    /// mid-run even when the aggregate capacity would fit.
    shards: KvShards,
    /// Per-resident cost of one prefill chunk, in seconds (whole prefill
    /// cost at admission time — including any degraded-compute slowdown —
    /// divided by `n_chunks`). Entries live exactly as long as the
    /// reservation.
    chunk_cost: HashMap<u64, f64>,
    /// Chunks a fresh prefill is split into: one per pipeline stage.
    n_chunks: u32,
}

impl StreamBooks {
    /// Tries to reserve `cand`'s whole-lifetime KV on every alive rank.
    /// The append is atomic across ranks; on refusal (some rank is out of
    /// pages) the registration is rolled back so nothing leaks.
    fn try_reserve(&mut self, cand: &QueuedRequest) -> bool {
        let id = cand.req.id;
        self.shards.register(id);
        match self
            .shards
            .append(id, cand.req.prompt_len + cand.req.output_len)
        {
            Ok(()) => true,
            Err(_) => {
                let _ = self.shards.release(id);
                false
            }
        }
    }

    /// Hands back a resident's reservation (completion, preemption,
    /// fault victimization) and drops its chunk bookkeeping.
    fn unreserve(&mut self, id: u64) {
        let _ = self.shards.release(id);
        self.chunk_cost.remove(&id);
    }
}

/// Everything the fault machinery mutates while the scheduler loop runs —
/// threaded as one bundle so the event applicator and the admission loop
/// see the same books.
#[derive(Debug)]
struct FaultBooks {
    state: FaultState,
    rob: RobustnessStats,
    /// Ids victimized by a failure and not yet re-served or rejected.
    victims_outstanding: HashSet<u64>,
    /// When the oldest still-open recovery window opened.
    recover_started: Option<f64>,
}

impl FaultBooks {
    /// A victim id got re-served or rejected; when the last one resolves,
    /// the time-to-recover window closes.
    fn resolve_victim(&mut self, id: u64, now: f64) {
        if self.victims_outstanding.remove(&id) && self.victims_outstanding.is_empty() {
            if let Some(t0) = self.recover_started.take() {
                self.rob.time_to_recover_s += now - t0;
                self.rob.recoveries += 1;
            }
        }
    }
}

/// Where a paused [`SchedulerState`] picks up again.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Top of a scheduler round: apply due faults, then admit.
    Round,
    /// Top of one admission pass: idle jump, arrival pull, policy pick.
    Admit,
    /// The engine is idle and the policy holds admission: the pass waits
    /// for whatever ends the hold first.
    Hold,
    /// Part-way through a decode fast-forward.
    FastForward(FastForward),
}

/// A decode fast-forward in progress: the repeated step's cached cost, how
/// many more rounds it may skip, and how many it has skipped so far (they
/// are credited to the residents when the skip ends).
#[derive(Debug, Clone, Copy)]
struct FastForward {
    rounds_left: u64,
    skipped: u64,
    /// Residents, all decoding.
    batch: u64,
    /// A full batch admits nothing, so no arrival ends the skip.
    batch_full: bool,
    ms: f64,
    comm_ms: f64,
}

/// How one admission pass ended.
enum Pass {
    /// Run another pass.
    Again,
    /// Admission is over for this round.
    Over,
    /// The pass needs an arrival not pushed yet; resume at this phase.
    Pause(Phase),
}

/// The continuous-batching scheduler as a resumable state machine.
///
/// Feed it requests with [`SchedulerState::push`], in arrival order, and
/// read its report from [`SchedulerState::finish`]. In between,
/// [`SchedulerState::step_until`]`(t)` runs the loop as far as it can go
/// on the promise that no later push arrives before `t`. The state pauses
/// only where the loop reads arrivals — the admission pull, the idle jump
/// to the next arrival, the hold's wake-up and the decode fast-forward's
/// bound — when the answer depends on a push still to come, and resumes
/// exactly there. A paused fast-forward continues without re-running a
/// round. So the report never depends on how the arrivals were fed:
/// pushing a whole trace and finishing ([`run_policy_faulted`]) and
/// stepping to each arrival before pushing it (the lockstep fleet of
/// [`crate::fleet::FleetRouter`]) give bit-identical reports.
///
/// See [`run_policy_faulted`] for what one round does.
#[derive(Debug)]
pub struct SchedulerState<'a> {
    engine: &'a ServingEngine,
    policy: &'a dyn SchedulePolicy,
    max_batch: usize,
    events: &'a [FaultEvent],
    retry: &'a RetryPolicy,
    /// An empty fault plan: every fault branch is skipped.
    clean: bool,
    capacity: u64,
    next_event: usize,
    books: FaultBooks,
    /// Chunked-prefill mode (default at pp ≥ 2, or forced via
    /// `EngineBuilder::chunked_prefill`): fresh prefills stream through
    /// the pipeline in per-stage chunks between decode steps, and
    /// admission is gated by the *live* per-rank KV shards instead of the
    /// scalar capacity alone. `None` pins the legacy whole-prefill
    /// arithmetic bit-for-bit.
    stream: Option<StreamBooks>,
    /// Prefix caching (opt-in via `EngineBuilder::prefix_caching`): the
    /// registry interns shared-prefix hashes on its own overlay shards and
    /// forks them copy-on-write on hit, so admission charges prefill for
    /// the unshared suffix only. `None` — the default — touches no legacy
    /// code path, keeping caching-off runs bit-identical.
    registry: Option<PrefixRegistry>,
    /// Pushed requests not pulled into `pending` yet, in arrival order.
    arrivals: VecDeque<Request>,
    /// Ids of every pushed request, for the debug-build exactly-once check.
    #[cfg(debug_assertions)]
    pushed: Vec<u64>,
    /// No push still to come arrives before this time; `INFINITY` once the
    /// run is finishing and no push will come at all.
    horizon: f64,
    /// Arrived requests waiting for admission, in arrival order.
    pending: Vec<QueuedRequest>,
    running: Vec<RunningRequest>,
    completions: Vec<Completion>,
    rejections: Vec<Rejection>,
    now: f64,
    peak_batch: usize,
    output_tokens: u64,
    preemptions: u64,
    comm_s: f64,
    /// Step times cached per (step-shape key, context bucket): (total ms,
    /// comm ms). The key is `engine.step_cache_key(batch)` — the raw batch
    /// on single-stage engines, the micro-batch shape on pipelined ones,
    /// where distinct batches collapse onto identical step costs (keying
    /// on the raw batch defeated the cache there: every batch size was a
    /// fresh miss pricing a shape already priced). The cached pair is
    /// fault-independent — degradation scales it *after* the lookup — so
    /// the key needs no fault epoch.
    step_cache: HashMap<(u64, u64), (f64, f64)>,
    cache_stats: StepCacheStats,
    /// Last clock reading, for the debug-build monotonicity check.
    #[cfg(debug_assertions)]
    last_now: f64,
    phase: Phase,
}

impl<'a> SchedulerState<'a> {
    /// An idle scheduler at time 0 with nothing pushed yet.
    pub fn new(
        engine: &'a ServingEngine,
        policy: &'a dyn SchedulePolicy,
        max_batch: usize,
        plan: &'a FaultPlan,
        retry: &'a RetryPolicy,
    ) -> Self {
        let stream = engine.chunked_prefill().then(|| StreamBooks {
            shards: engine.kv_shards(),
            chunk_cost: HashMap::new(),
            n_chunks: engine.cluster().pp().max(1),
        });
        let registry = engine
            .prefix_caching()
            .then(|| PrefixRegistry::new(engine.kv_shards(), policy.prefix_victim()));
        SchedulerState {
            engine,
            policy,
            max_batch,
            events: plan.events(),
            retry,
            clean: plan.is_empty(),
            capacity: engine.kv_capacity_tokens(),
            next_event: 0,
            books: FaultBooks {
                state: FaultState::new(engine.cluster().total_ranks()),
                rob: RobustnessStats::default(),
                victims_outstanding: HashSet::new(),
                recover_started: None,
            },
            stream,
            registry,
            arrivals: VecDeque::new(),
            #[cfg(debug_assertions)]
            pushed: Vec::new(),
            horizon: f64::NEG_INFINITY,
            pending: Vec::new(),
            running: Vec::new(),
            completions: Vec::new(),
            rejections: Vec::new(),
            now: 0.0,
            peak_batch: 0,
            output_tokens: 0,
            preemptions: 0,
            comm_s: 0.0,
            step_cache: HashMap::new(),
            cache_stats: StepCacheStats::default(),
            #[cfg(debug_assertions)]
            last_now: 0.0,
            phase: Phase::Round,
        }
    }

    /// Hands the scheduler its next arrival.
    ///
    /// # Panics
    ///
    /// Panics unless pushes come in arrival order, none earlier than the
    /// last [`SchedulerState::step_until`] time, with finite times.
    pub fn push(&mut self, req: Request) {
        let earliest = self
            .arrivals
            .back()
            .map_or(self.horizon, |r| r.arrival_s.max(self.horizon));
        assert!(
            req.arrival_s >= earliest && req.arrival_s.is_finite(),
            "push out of arrival order: {} after {earliest}",
            req.arrival_s
        );
        #[cfg(debug_assertions)]
        self.pushed.push(req.id);
        self.arrivals.push_back(req);
    }

    /// Runs the loop as far as it can go on the promise that no later push
    /// arrives before `t`. The clock may end past `t` (a prefill or stall
    /// spans it) or before it (the engine idles, or waits for arrivals
    /// that may come at `t`).
    pub fn step_until(&mut self, t: f64) {
        self.horizon = self.horizon.max(t);
        self.advance();
    }

    /// Runs every pushed request to completion (or a typed rejection) and
    /// returns the run's report.
    pub fn finish(mut self) -> ScheduleReport {
        self.horizon = f64::INFINITY;
        self.advance();

        #[cfg(debug_assertions)]
        {
            let mut resolved: Vec<u64> = self
                .completions
                .iter()
                .map(|c| c.id)
                .chain(self.rejections.iter().map(|r| r.id))
                .collect();
            resolved.sort_unstable();
            self.pushed.sort_unstable();
            assert_eq!(resolved, self.pushed, "every arrival resolves exactly once");
        }

        let mut rob = self.books.rob;
        if !self.clean {
            // Close the books: a run can end while degraded or with a
            // recovery window still open (every victim rejected late in
            // the run).
            if !self.books.state.dead.is_empty() {
                rob.downtime_s += self.now - self.books.state.degraded_since;
            }
            if let Some(t0) = self.books.recover_started.take() {
                rob.time_to_recover_s += self.now - t0;
                rob.recoveries += 1;
            }
        }
        finish_report(
            self.policy.name(),
            self.now,
            self.output_tokens,
            self.peak_batch,
            self.comm_s,
            self.preemptions,
            self.rejections,
            rob,
            self.cache_stats,
            self.registry.map(|r| r.stats()).unwrap_or_default(),
            self.completions,
        )
    }

    /// Requests the scheduler holds: queued, running, and pushed but not
    /// yet pulled into the queue.
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.running.len() + self.arrivals.len()
    }

    /// Live KV occupancy of `rank` in `[0, 1]`, read off the books
    /// admission keeps: the streaming shards' page occupancy under chunked
    /// prefill (an invalidated rank reads `1.0`), and otherwise the
    /// residents' whole-lifetime token reservations over the deployment's
    /// capacity, the same for every rank.
    pub fn kv_pressure(&self, rank: usize) -> f64 {
        match &self.stream {
            Some(s) => s.shards.rank_pressure(rank),
            None if self.capacity == 0 => 1.0,
            None => {
                let reserved: u64 = self
                    .running
                    .iter()
                    .map(|f| f.req.prompt_len + f.req.output_len)
                    .sum();
                reserved as f64 / self.capacity as f64
            }
        }
    }

    /// Runs the loop from where it paused until it pauses again or ends.
    fn advance(&mut self) {
        loop {
            self.phase = match self.phase {
                Phase::Round => {
                    // Idle with nothing pushed: done, or waiting for a push.
                    if self.pending.is_empty()
                        && self.running.is_empty()
                        && self.arrivals.is_empty()
                    {
                        return;
                    }
                    self.faults_due();
                    self.assert_clock_monotone();
                    Phase::Admit
                }
                Phase::Admit | Phase::Hold => {
                    let mut hold = matches!(self.phase, Phase::Hold);
                    loop {
                        let pass = if std::mem::take(&mut hold) {
                            self.hold()
                        } else {
                            self.admit_pass()
                        };
                        match pass {
                            Pass::Again => {}
                            Pass::Over => break,
                            Pass::Pause(at) => {
                                self.phase = at;
                                return;
                            }
                        }
                    }
                    self.decode_round().map_or(Phase::Round, Phase::FastForward)
                }
                Phase::FastForward(ff) => match self.fast_forward(ff) {
                    Some(rest) => {
                        self.phase = Phase::FastForward(rest);
                        return;
                    }
                    None => Phase::Round,
                },
            };
        }
    }

    fn assert_clock_monotone(&mut self) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.now >= self.last_now,
                "clock ran backwards: {} -> {}",
                self.last_now,
                self.now
            );
            self.last_now = self.now;
        }
    }

    /// One pass of the admission loop: while capacity and the batch cap
    /// allow, the policy picks the next arrived request; a pick that does
    /// not fit may evict policy-chosen victims.
    fn admit_pass(&mut self) -> Pass {
        if self.pending.is_empty() {
            match self.arrivals.front() {
                None if self.horizon == f64::INFINITY => return Pass::Over,
                // Whether anything else arrives matters only to an idle
                // engine, which would jump to it, or once the clock has
                // reached the horizon, when it may have arrived by now.
                None if !self.running.is_empty() && self.now < self.horizon => return Pass::Over,
                None => return Pass::Pause(Phase::Admit),
                Some(next) if self.running.is_empty() && next.arrival_s > self.now => {
                    // Idle: jump to the next arrival.
                    self.now = next.arrival_s;
                    self.faults_due();
                }
                Some(_) => {}
            }
        }
        // Every queued request arrived before any unpulled one, so
        // appending keeps `pending` in arrival order.
        while let Some(next) = self.arrivals.front() {
            if next.arrival_s > self.now {
                break;
            }
            self.pending.push(QueuedRequest::fresh(*next));
            self.arrivals.pop_front();
        }
        if self.arrivals.is_empty() && self.now >= self.horizon {
            // A push still to come may have arrived by now.
            return Pass::Pause(Phase::Admit);
        }
        if self.pending.is_empty() || self.running.len() >= self.max_batch {
            return Pass::Over;
        }
        // Streaming admission is paced: at most one prefilling resident
        // per chunk slot. Without the cap the loop admits the whole queue
        // the moment it arrives (admission itself costs no time under
        // chunked prefill), and the eagerly-reserved KV of low-priority
        // residents blocks late interactive arrivals — the exact tail
        // chunked prefill is meant to cut. Held admissions stay in
        // `pending`, where the policy keeps reordering them as chunks
        // drain.
        if self.stream.is_some()
            && self.running.iter().filter(|f| f.is_prefilling()).count()
                >= self.engine.micro_batches().max(1) as usize
        {
            return Pass::Over;
        }
        // Backoff gating: fault victims waiting out their backoff are
        // invisible to the policy until `not_before_s`. While every queued
        // request is eligible (always, on the clean path, where every
        // `not_before_s` is 0) the view is the plain arrived queue.
        let picked = if self.clean || self.pending.iter().all(|p| p.not_before_s <= self.now) {
            self.policy.select(&self.pending, &self.running, self.now)
        } else {
            let eligible: Vec<usize> = (0..self.pending.len())
                .filter(|&i| self.pending[i].not_before_s <= self.now)
                .collect();
            let view: Vec<QueuedRequest> = eligible.iter().map(|&i| self.pending[i]).collect();
            self.policy
                .select(&view, &self.running, self.now)
                .map(|vi| {
                    assert!(vi < view.len(), "policy selected an unarrived request");
                    eligible[vi]
                })
        };
        let Some(pick) = picked else {
            return if self.running.is_empty() {
                self.hold()
            } else {
                Pass::Over
            };
        };
        assert!(
            pick < self.pending.len(),
            "policy selected an unarrived request"
        );
        let cand = self.pending[pick];

        // A request whose lifetime KV demand exceeds capacity can never
        // run: reject it up front, before it evicts innocent victims.
        // Judged against *full* capacity — a degraded deployment may
        // recover, so the verdict must not depend on the fault state.
        if cand.req.prompt_len + cand.req.output_len > self.capacity {
            self.rejections.push(Rejection {
                id: cand.req.id,
                reason: RejectReason::Oversized,
            });
            self.pending.remove(pick);
            if !self.clean {
                self.books.resolve_victim(cand.req.id, self.now);
            }
            return Pass::Again;
        }

        // SLO-aware brownout: while a rank is down, fresh best-effort
        // (Batch-class) arrivals are shed so the degraded capacity serves
        // SLO-carrying traffic; fault victims keep their retry path
        // regardless of class.
        if !self.clean
            && !self.books.state.dead.is_empty()
            && cand.retries == 0
            && cand.req.priority == PriorityClass::Batch
        {
            self.rejections.push(Rejection {
                id: cand.req.id,
                reason: RejectReason::BrownoutShed,
            });
            self.books.rob.shed += 1;
            self.pending.remove(pick);
            return Pass::Again;
        }

        // Capacity re-planned around dead ranks (integer scaling; full
        // capacity — the same u64 — while every rank is alive).
        let cap_now = if self.clean || self.books.state.dead.is_empty() {
            self.capacity
        } else {
            self.books.state.scaled_capacity(self.capacity)
        };

        // Preempt victims until the candidate fits or the policy (or the
        // per-request cap, as a backstop for custom policies that name a
        // pinned victim) refuses. Each eviction re-inserts the victim into
        // `pending` by arrival, so the candidate's index is tracked through
        // the insertions rather than re-located.
        let mut cand_idx = pick;
        let mut evictions_left = self.running.len();
        let mut reserved = false;
        while !self.fits(&cand, cap_now, &mut reserved) && evictions_left > 0 {
            let Some(vi) = self.policy.victim(&cand, &self.running, self.now) else {
                break;
            };
            if self.running[vi].preemptions >= MAX_PREEMPTIONS {
                break;
            }
            let victim = self.running.remove(vi);
            if let Some(s) = self.stream.as_mut() {
                s.unreserve(victim.req.id);
            }
            self.preemptions += 1;
            // Page-out preemption pays the host-bound PCIe transfer at
            // eviction time — the victim's pages must land in host memory
            // before the candidate can take them, delaying the whole engine
            // *now*. The matching page-in is charged when the victim
            // resumes. (The pre-split accounting lumped both transfers at
            // resume, understating the eviction-side stall; pinned by
            // `pageout_is_charged_at_both_ends`.)
            if self.policy.preemption_mode() == PreemptionMode::PageOut {
                self.now += self.engine.kv_swap_s(victim.kv_tokens());
            }
            let back = QueuedRequest {
                req: victim.req,
                resume_generated: victim.generated,
                preemptions: victim.preemptions + 1,
                first_admitted_s: Some(victim.first_admitted_s),
                first_token_s: victim.first_token_s,
                retries: victim.retries,
                not_before_s: 0.0,
            };
            let pos = self
                .pending
                .partition_point(|p| p.req.arrival_s <= back.req.arrival_s);
            self.pending.insert(pos, back);
            if pos <= cand_idx {
                cand_idx += 1;
            }
            evictions_left -= 1;
        }

        if !self.fits(&cand, cap_now, &mut reserved) {
            return self.refuse(cand, cand_idx, reserved);
        }
        self.admit(cand_idx, cand);
        Pass::Again
    }

    /// Whether `cand` fits the batch: the scalar whole-lifetime KV demand
    /// against `cap_now`, then — in streaming mode — real pages on every
    /// alive rank. The page reservation is sticky: once taken it is kept
    /// across further checks, and released only if the candidate
    /// ultimately fails to admit.
    fn fits(&mut self, cand: &QueuedRequest, cap_now: u64, reserved: &mut bool) -> bool {
        let demand = self
            .running
            .iter()
            .map(|f| f.req.prompt_len + f.req.output_len)
            .sum::<u64>()
            + cand.req.prompt_len
            + cand.req.output_len;
        if demand > cap_now {
            false
        } else if let Some(s) = self.stream.as_mut() {
            if !*reserved {
                *reserved = s.try_reserve(cand);
            }
            *reserved
        } else {
            true
        }
    }

    /// The policy's pick does not fit even after preemption.
    fn refuse(&mut self, cand: QueuedRequest, cand_idx: usize, reserved: bool) -> Pass {
        // A stranded reservation (scalar gate failed after the shards
        // accepted) must be handed back before the hold.
        if reserved {
            if let Some(s) = self.stream.as_mut() {
                s.unreserve(cand.req.id);
            }
        }
        if self.stream.is_some() && self.clean && self.running.is_empty() {
            // A lone non-oversized candidate always fits empty shards on a
            // clean deployment (the scalar capacity is the min over
            // per-rank shard capacities), so this is unreachable — but a
            // silent hold here would spin forever, so shed with a typed
            // rejection instead.
            debug_assert!(false, "lone candidate refused by empty shards");
            self.reject(cand.req.id, RejectReason::CapacityLost);
            self.pending.remove(cand_idx);
            return Pass::Again;
        }
        if !self.clean && self.running.is_empty() {
            // Degraded capacity cannot hold even a lone candidate that fits
            // the healthy deployment. Wait for the next fault event (a
            // repair restores capacity); with none left, the capacity is
            // gone for good — typed rejection, not an infinite stall.
            if let Some(ev) = self.events.get(self.next_event) {
                self.now = self.now.max(ev.at_s);
                self.faults_due();
            } else {
                self.reject(cand.req.id, RejectReason::CapacityLost);
                self.pending.remove(cand_idx);
                self.books.resolve_victim(cand.req.id, self.now);
            }
            return Pass::Again;
        }
        // The candidate fits an empty batch (oversized requests were
        // rejected above), so this hold always ends as completions or
        // further preemptions free KV.
        Pass::Over
    }

    /// Rejects a queued request, releasing its prefix-cache pin.
    fn reject(&mut self, id: u64, reason: RejectReason) {
        self.rejections.push(Rejection { id, reason });
        if let Some(reg) = self.registry.as_mut() {
            reg.release(id);
        }
    }

    /// Admits `pending[cand_idx]`: fresh requests pay prefill; resumed
    /// requests pay the policy's preferred KV recovery. Fault victims
    /// *always* recompute — the failed rank's shard is gone, so there is
    /// nothing to page back in.
    fn admit(&mut self, cand_idx: usize, cand: QueuedRequest) {
        debug_assert_eq!(self.pending[cand_idx], cand, "candidate index tracked");
        let q = self.pending.remove(cand_idx);
        if !self.clean {
            self.books.resolve_victim(q.req.id, self.now);
        }
        // Prefix-cache lookup: a fresh prefill that declares a shared
        // prefix may fork the cached copy and prefill only the suffix.
        // Fault-retry recomputes stay full-price — the dead rank's KV
        // (cached prefixes included) is gone.
        let mut prefix_saved = 0u64;
        if let Some(reg) = self.registry.as_mut() {
            if q.resume_generated == 0 && (self.clean || q.retries == 0) {
                prefix_saved = reg.admit(
                    q.req.id,
                    q.req.prefix_hash,
                    q.req.prefix_len,
                    q.req.prompt_len,
                );
            }
        }
        let engine = self.engine;
        let mut cost = if !self.clean && q.retries > 0 {
            self.books.rob.recomputed_tokens += q.kv_tokens_on_admit();
            engine.prefill_ms(1, q.kv_tokens_on_admit()) / 1e3
        } else if q.resume_generated == 0 {
            engine.prefill_ms(1, q.req.prompt_len.saturating_sub(prefix_saved).max(1)) / 1e3
        } else {
            match self.policy.preemption_mode() {
                PreemptionMode::Recompute => engine.prefill_ms(1, q.kv_tokens_on_admit()) / 1e3,
                // Page-in only: the outbound transfer was charged when this
                // request was evicted.
                PreemptionMode::PageOut => engine.kv_swap_s(q.kv_tokens_on_admit()),
            }
        };
        if !self.clean && !self.books.state.dead.is_empty() {
            cost *= self.books.state.compute_slowdown();
        }
        // Streaming mode defers a *fresh* prefill: instead of charging the
        // whole cost serially at admission, the request enters the batch
        // still prefilling and pays `cost / n_chunks` per chunk as chunks
        // ride the pipeline's micro-batch slots between decode steps.
        // Resumes (page-in, recompute) stay serial — they rebuild KV, they
        // don't stream the prompt through the stages. Classes opted out via
        // `EngineBuilder::whole_prefill_for` also stay serial: their
        // prompts take the legacy admission charge while the rest of the
        // traffic keeps chunking.
        let mut chunks_left = 0u32;
        match self.stream.as_mut() {
            Some(s) if q.resume_generated == 0 && !engine.whole_prefill_for(q.req.priority) => {
                chunks_left = s.n_chunks;
                s.chunk_cost.insert(q.req.id, cost / f64::from(s.n_chunks));
            }
            _ => self.now += cost,
        }
        self.running.push(RunningRequest {
            req: q.req,
            admitted_s: self.now,
            generated: q.resume_generated,
            preemptions: q.preemptions,
            first_admitted_s: q.first_admitted_s.unwrap_or(self.now),
            first_token_s: q.first_token_s,
            retries: q.retries,
            prefill_chunks_left: chunks_left,
        });
    }

    /// The engine is idle and the policy holds admission (or every
    /// eligible request is waiting out a backoff): jump to whatever ends
    /// the hold first — the next arrival, the earliest backoff expiry, or
    /// the next fault event (a repair can end a brownout).
    fn hold(&mut self) -> Pass {
        let mut wake = self.arrivals.front().map(|r| r.arrival_s);
        if !self.clean {
            let backoff = self
                .pending
                .iter()
                .map(|p| p.not_before_s)
                .filter(|&t| t > self.now)
                .fold(f64::INFINITY, f64::min);
            if backoff.is_finite() {
                wake = Some(wake.map_or(backoff, |w| w.min(backoff)));
            }
            if let Some(ev) = self.events.get(self.next_event) {
                wake = Some(wake.map_or(ev.at_s, |w| w.min(ev.at_s)));
            }
        }
        // With nothing pushed ahead, a push still to come (at or after the
        // horizon) may end the hold first.
        if self.horizon < f64::INFINITY
            && self.arrivals.is_empty()
            && !wake.is_some_and(|t| t <= self.horizon)
        {
            return Pass::Pause(Phase::Hold);
        }
        if let Some(t) = wake {
            self.now = self.now.max(t);
            self.faults_due();
            return Pass::Again;
        }
        // Nothing will ever wake the engine again: the policy held
        // admission with no future arrival, backoff or fault left. Shed the
        // queue with a typed rejection instead of panicking or spinning
        // forever.
        for q in std::mem::take(&mut self.pending) {
            self.reject(q.req.id, RejectReason::PolicyHold);
            if !self.clean {
                self.books.resolve_victim(q.req.id, self.now);
            }
        }
        Pass::Over
    }

    /// The rest of a round after admission: prefill chunks, one decode
    /// step and retirement. Returns the fast-forward the round opens, if
    /// any.
    fn decode_round(&mut self) -> Option<FastForward> {
        self.peak_batch = self.peak_batch.max(self.running.len());
        if self.running.is_empty() {
            return None;
        }

        // Chunked prefill: between decode steps, up to `micro_batches`
        // prefill chunks ride the pipeline's micro-batch slots, most urgent
        // resident first (priority class, then earliest arrival). Chunk
        // granularity is the TTFT win — an interactive prompt's chunks
        // overtake a long batch prompt mid-prefill instead of queueing
        // behind its whole prefill.
        if let Some(s) = self.stream.as_ref() {
            for _ in 0..self.engine.micro_batches().max(1) {
                let Some(next) = self
                    .running
                    .iter_mut()
                    .filter(|f| f.is_prefilling())
                    .max_by(|a, b| {
                        a.req
                            .priority
                            .rank()
                            .cmp(&b.req.priority.rank())
                            .then_with(|| {
                                b.req
                                    .arrival_s
                                    .partial_cmp(&a.req.arrival_s)
                                    .expect("finite")
                            })
                            .then_with(|| b.req.id.cmp(&a.req.id))
                    })
                else {
                    break;
                };
                next.prefill_chunks_left -= 1;
                self.now += *s
                    .chunk_cost
                    .get(&next.req.id)
                    .expect("streaming resident has a chunk cost");
            }
        }

        // One decode step for the batch's decode-ready subset (residents
        // still mid-prefill occupy KV but don't decode yet; on the legacy
        // path every resident has zero chunks left, so the filter is the
        // identity and the arithmetic below is bit-for-bit the old loop).
        let batch = self.running.iter().filter(|f| !f.is_prefilling()).count() as u64;
        if batch == 0 {
            // Whole batch still prefilling: chunks advanced time above, so
            // the loop makes progress without a decode step.
            return None;
        }
        let mean_context: u64 = self
            .running
            .iter()
            .filter(|f| !f.is_prefilling())
            .map(|f| f.req.prompt_len + f.generated)
            .sum::<u64>()
            / batch;
        let bucket = (mean_context / 256).max(1) * 256;
        let key = (self.engine.step_cache_key(batch), bucket);
        let (ms, comm_ms) = match self.step_cache.get(&key) {
            Some(&priced) => {
                self.cache_stats.hits += 1;
                priced
            }
            None => {
                self.cache_stats.misses += 1;
                let priced = self.engine.step_cost_priced(key, batch, bucket);
                self.step_cache.insert(key, priced);
                priced
            }
        };
        let fault_clean = self.clean || self.books.state.is_clean();
        if fault_clean {
            self.now += ms / 1e3;
            self.comm_s += comm_ms / 1e3;
        } else {
            // Survivors absorb the dead ranks' compute; the communication
            // share stretches by the degraded-link factor (same model as
            // `parallel::allreduce_us_degraded`).
            let state = &self.books.state;
            let slow = if state.dead.is_empty() {
                1.0
            } else {
                state.compute_slowdown()
            };
            let eff_ms = (ms - comm_ms) * slow + comm_ms * state.link_factor;
            self.now += eff_ms / 1e3;
            self.comm_s += comm_ms * state.link_factor / 1e3;
        }
        self.output_tokens += batch;

        // Advance and retire (decode-ready residents only; identity filter
        // on the legacy path).
        let now = self.now;
        for f in self.running.iter_mut().filter(|f| !f.is_prefilling()) {
            f.generated += 1;
            if f.first_token_s.is_none() {
                f.first_token_s = Some(now);
            }
        }
        let (stream, registry, completions) =
            (&mut self.stream, &mut self.registry, &mut self.completions);
        self.running.retain(|f| {
            if !f.is_prefilling() && f.generated >= f.req.output_len {
                if let Some(s) = stream.as_mut() {
                    s.unreserve(f.req.id);
                }
                if let Some(reg) = registry.as_mut() {
                    reg.release(f.req.id);
                }
                completions.push(complete(f, now));
                false
            } else {
                true
            }
        });

        // Decode fast-forward. While the batch is unchanged (nobody
        // finished or is prefilling) and the fault state is clean, the next
        // round only repeats this decode step, priced from the same cache
        // entry, as long as it admits nothing and finds no fault event due.
        // Such rounds are skipped, bounded by the first completion (that
        // round runs in full) and by the last round whose mean context,
        // rising one per round, stays in this bucket. A full batch admits
        // nothing, whatever has arrived.
        let batch_full = self.running.len() >= self.max_batch;
        if self.running.len() as u64 != batch
            || self.running.iter().any(RunningRequest::is_prefilling)
            || !fault_clean
            || !(batch_full || self.pending.is_empty())
        {
            return None;
        }
        let to_first_completion = self
            .running
            .iter()
            .map(RunningRequest::remaining_output)
            .min()
            .unwrap_or(0);
        let rounds_left = to_first_completion
            .saturating_sub(1)
            .min(bucket + 255 - mean_context);
        (rounds_left > 0).then_some(FastForward {
            rounds_left,
            skipped: 0,
            batch,
            batch_full,
            ms,
            comm_ms,
        })
    }

    /// Skips rounds that would only repeat the last decode step: adds the
    /// cached step cost to the clock and the comm total one round at a
    /// time (the same float additions in the same order), stopping at an
    /// arrival or fault event, then credits each resident with the skipped
    /// tokens. Skipped rounds call no policy method and count as step-cache
    /// hits. Returns the rest of the skip when it pauses at the horizon;
    /// nothing reads the residents' token counts before it resumes, so the
    /// credit waits until the skip ends.
    fn fast_forward(&mut self, mut ff: FastForward) -> Option<FastForward> {
        // With nothing pushed ahead, a push still to come may arrive at the
        // horizon.
        let arrival_at = match self.arrivals.front() {
            _ if ff.batch_full => f64::INFINITY,
            Some(next) => next.arrival_s,
            None => self.horizon,
        };
        let event_at = self
            .events
            .get(self.next_event)
            .map_or(f64::INFINITY, |e| e.at_s);
        let (mut now, mut comm_s, mut rounds) = (self.now, self.comm_s, 0u64);
        while rounds < ff.rounds_left && arrival_at > now && event_at > now {
            now += ff.ms / 1e3;
            comm_s += ff.comm_ms / 1e3;
            rounds += 1;
        }
        (self.now, self.comm_s) = (now, comm_s);
        self.assert_clock_monotone();
        ff.rounds_left -= rounds;
        ff.skipped += rounds;
        let at_horizon = !ff.batch_full && self.arrivals.is_empty() && self.horizon < f64::INFINITY;
        if ff.rounds_left > 0 && event_at > self.now && at_horizon {
            return Some(ff);
        }
        for f in self.running.iter_mut() {
            f.generated += ff.skipped;
        }
        self.output_tokens += ff.skipped * ff.batch;
        self.cache_stats.hits += ff.skipped;
        None
    }

    /// Applies every fault event due at or before `now` (plus link-window
    /// expiry), mutating time, the pending/running queues and the
    /// robustness books. Called at the top of each scheduler round and
    /// after every time jump, so no event is skipped over.
    fn faults_due(&mut self) {
        if self.clean {
            return;
        }
        let books = &mut self.books;
        // Link windows expire by time, not by a plan event.
        if books.state.link_factor != 1.0 && self.now >= books.state.link_until {
            books.state.link_factor = 1.0;
        }
        while let Some(&ev) = self.events.get(self.next_event) {
            if ev.at_s > self.now {
                break;
            }
            self.next_event += 1;
            books.rob.faults_injected += 1;
            match ev.kind {
                FaultKind::RankFail { rank } => {
                    let rank = rank % books.state.total_ranks;
                    if !books.state.dead.insert(rank) {
                        continue; // already dead
                    }
                    if books.state.dead.len() == 1 {
                        books.state.degraded_since = self.now;
                    }
                    books.rob.rank_failures += 1;
                    if let Some(s) = self.stream.as_mut() {
                        s.shards.invalidate_rank(rank);
                    }
                    if let Some(reg) = self.registry.as_mut() {
                        reg.invalidate_rank(rank);
                    }
                    // KV shards mirror every sequence across all ranks, so
                    // one dead rank invalidates the whole batch's KV: every
                    // running request is victimized for recompute-prefill
                    // (bounded by the retry cap), never silently continued
                    // on garbage.
                    for victim in self.running.drain(..) {
                        if let Some(s) = self.stream.as_mut() {
                            s.unreserve(victim.req.id);
                        }
                        let retries = victim.retries + 1;
                        if retries > self.retry.max_retries {
                            self.rejections.push(Rejection {
                                id: victim.req.id,
                                reason: RejectReason::RetriesExhausted,
                            });
                            if let Some(reg) = self.registry.as_mut() {
                                reg.release(victim.req.id);
                            }
                            books.resolve_victim(victim.req.id, self.now);
                            continue;
                        }
                        books.rob.retries += 1;
                        books.victims_outstanding.insert(victim.req.id);
                        let back = QueuedRequest {
                            req: victim.req,
                            resume_generated: victim.generated,
                            preemptions: victim.preemptions,
                            first_admitted_s: Some(victim.first_admitted_s),
                            first_token_s: victim.first_token_s,
                            retries,
                            not_before_s: self.now + self.retry.delay_s(retries),
                        };
                        let pos = self
                            .pending
                            .partition_point(|p| p.req.arrival_s <= back.req.arrival_s);
                        self.pending.insert(pos, back);
                    }
                    if !books.victims_outstanding.is_empty() && books.recover_started.is_none() {
                        books.recover_started = Some(self.now);
                    }
                }
                FaultKind::RankRepair { rank } => {
                    let rank = rank % books.state.total_ranks;
                    if let Some(s) = self.stream.as_mut() {
                        s.shards.repair_rank(rank);
                    }
                    if let Some(reg) = self.registry.as_mut() {
                        reg.repair_rank(rank);
                    }
                    if books.state.dead.remove(&rank) && books.state.dead.is_empty() {
                        books.rob.downtime_s += self.now - books.state.degraded_since;
                    }
                }
                FaultKind::LinkDegrade { factor, duration_s } => {
                    books.state.link_factor = factor.max(1.0);
                    books.state.link_until = self.now + duration_s;
                    books.rob.link_degrades += 1;
                }
                FaultKind::KvStall { stall_s } => {
                    self.now += stall_s;
                    books.rob.stall_s += stall_s;
                }
                FaultKind::CorruptFrame { frames } => {
                    // The entropy codecs' checksums surface corruption as a
                    // typed error before garbage reaches the ZipGEMM path;
                    // the recovery cost is one PCIe re-fetch per frame.
                    let penalty = frames as f64 * self.engine.frame_refetch_s();
                    self.now += penalty;
                    books.rob.frame_corruptions += frames as u64;
                    books.rob.refetch_s += penalty;
                }
            }
        }
    }
}

/// [`run_policy`] with deterministic fault injection and recovery.
///
/// Pushes the whole trace into a [`SchedulerState`] and finishes it. Each
/// round of the loop:
///
/// 1. **Faults** — plan events due by now apply (see below).
/// 2. **Admission** — while capacity and the batch cap allow, the policy
///    picks the next arrived request; a pick that does not fit may evict
///    policy-chosen victims (each request at most [`MAX_PREEMPTIONS`]
///    times). Fresh admissions pay their prefill; re-admissions pay a
///    recompute prefill over `prompt + generated` tokens, or — under
///    [`PreemptionMode::PageOut`] — the PCIe page-in half of the swap
///    (the page-out half was charged when the victim was evicted).
/// 3. **Decode** — prefill chunks (chunked mode), then one step for the
///    decode-ready batch, costed by the engine's analytic model (cached
///    per `(step shape, context-bucket)`).
/// 4. **Retire** — finished requests leave the batch and record latency,
///    TTFT, queueing delay, preemption count and SLO verdict.
///
/// The loop's cost is linear in the trace, and close to nothing for a
/// decode round that only repeats the one before it:
///
/// * **Arrival cursor** — the sorted trace is read through a cursor, and
///   the queue holds only requests that have arrived (plus preemption and
///   fault victims, which re-enter by arrival time). Each admission pass
///   pulls every arrival with `arrival_s <= now`; the idle jump, the
///   hold's wake-up time and the policy-hold shed read the cursor. Every
///   unpulled arrival is later than every queued request, so the queue a
///   policy sees is exactly the arrived prefix of a whole-trace queue,
///   and an admission costs O(queue) instead of O(trace).
/// * **Decode fast-forward** — after a round retires, the rounds that
///   would do nothing but repeat its decode step run in a tight loop that
///   adds the cached step cost to the clock and the comm total, one round
///   at a time (the same float additions in the same order), then credits
///   each resident with the skipped tokens. A round qualifies when no
///   resident is prefilling, admission is a no-op (nothing has arrived,
///   or the batch is at `max_batch`), the fault state is clean with no
///   event due, and the context bucket is unchanged — the integer mean
///   context rises by exactly one per round. The loop stops one round
///   before the first resident finishes, so that round runs in full.
///   Skipped rounds call no policy method and count as step-cache hits.
///
/// A request whose KV demand exceeds the deployment's capacity even as the
/// sole occupant is rejected as [`RejectReason::Oversized`] rather than
/// looping forever.
///
/// The clean-path guarantee: with an empty [`FaultPlan`] this function
/// executes *exactly* the arithmetic of the pre-fault loop — every fault
/// branch is behind a `plan.is_empty()` check, capacity scaling is
/// integer, and the robustness books stay at their all-zero default — so
/// reports are bit-identical (pinned by the `fault_recovery` suite across
/// every in-tree policy).
///
/// With a non-empty plan, events apply between scheduler rounds:
///
/// * **[`FaultKind::RankFail`]** — the dead rank's KV shard is lost, so
///   the whole running batch is victimized. Each victim re-queues for
///   recompute-prefill with an exponential backoff
///   ([`RetryPolicy::delay_s`]); past [`RetryPolicy::max_retries`] it is
///   rejected as [`RejectReason::RetriesExhausted`]. Capacity and step
///   time are re-planned around the survivors, and fresh best-effort
///   ([`PriorityClass::Batch`]) arrivals are shed
///   ([`RejectReason::BrownoutShed`]) until repair.
/// * **[`FaultKind::RankRepair`]** — capacity returns; victims still
///   queued simply resume through the normal admission path.
/// * **[`FaultKind::LinkDegrade`]** — the communication share of each
///   decode step is multiplied by the factor until the window expires.
/// * **[`FaultKind::KvStall`]** / **[`FaultKind::CorruptFrame`]** — the
///   engine stalls for the transfer / per-frame PCIe re-fetch time.
///
/// Every request resolves exactly once: it either completes or appears in
/// [`ScheduleReport::rejections`] with a typed reason. Debug builds
/// assert this at the end of every run, and assert throughout that the
/// clock never runs backwards.
pub fn run_policy_faulted(
    engine: &ServingEngine,
    policy: &dyn SchedulePolicy,
    max_batch: usize,
    mut arrivals: Vec<Request>,
    plan: &FaultPlan,
    retry: &RetryPolicy,
) -> ScheduleReport {
    arrivals.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite"));
    let mut state = SchedulerState::new(engine, policy, max_batch, plan, retry);
    // Push the sorted trace in one move.
    #[cfg(debug_assertions)]
    state.pushed.extend(arrivals.iter().map(|r| r.id));
    state.arrivals = arrivals.into();
    state.finish()
}

/// A request in flight (legacy reference loop only).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: Request,
    admitted_s: f64,
    generated: u64,
    first_token_s: Option<f64>,
}

/// The original FCFS continuous-batching simulator, kept as a thin shim.
///
/// Prefer the builder path: `ServingEngine::builder().policy(Fcfs).build()`
/// then [`ServingEngine::serve_online`](crate::engine::ServingEngine::serve_online)
/// — it accepts any [`SchedulePolicy`] and carries the batch cap with the
/// engine. [`ContinuousBatcher::run`] delegates there with [`Fcfs`], so
/// downstream code keeps compiling unchanged.
#[derive(Debug)]
pub struct ContinuousBatcher<'a> {
    engine: &'a ServingEngine,
    /// Hard cap on concurrent sequences (scheduler config).
    pub max_batch: usize,
}

impl<'a> ContinuousBatcher<'a> {
    /// Creates a batcher over an engine deployment.
    ///
    /// Superseded by [`ServingEngine::builder`](crate::engine::ServingEngine::builder),
    /// which folds the batcher's configuration into the engine itself.
    pub fn new(engine: &'a ServingEngine) -> Self {
        ContinuousBatcher {
            engine,
            max_batch: 64,
        }
    }

    /// Runs the arrival trace to completion under FCFS.
    ///
    /// Delegates to the policy-generic [`run_policy`] loop with [`Fcfs`];
    /// bit-compatibility with the pre-trait implementation is pinned by
    /// [`ContinuousBatcher::run_reference`] and the `schedule_policies`
    /// proptest suite.
    pub fn run(&self, arrivals: Vec<Request>) -> ScheduleReport {
        run_policy(self.engine, &Fcfs, self.max_batch, arrivals)
    }

    /// The frozen pre-trait FCFS loop, kept verbatim as the regression
    /// oracle for [`run_policy`]'s bit-compatibility proptest. Not for new
    /// code — use [`ContinuousBatcher::run`] or the builder path.
    pub fn run_reference(&self, mut arrivals: Vec<Request>) -> ScheduleReport {
        arrivals.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite"));
        let capacity = self.engine.kv_capacity_tokens();
        let mut queue: VecDeque<Request> = arrivals.iter().copied().collect();
        let mut running: Vec<InFlight> = Vec::new();
        let mut completions = Vec::new();
        let mut now = 0.0f64;
        let mut peak_batch = 0usize;
        let mut output_tokens = 0u64;

        // Cache step times: keyed by (batch, context bucket). The raw-batch
        // key is part of the frozen arithmetic; on the single-stage engines
        // this oracle is compared on, it coincides with
        // `ServingEngine::step_cache_key`, so the hit/miss counters stay
        // bit-compatible with the generic loop's.
        let mut step_cache: HashMap<(u64, u64), f64> = HashMap::new();
        let mut cache_stats = StepCacheStats::default();

        while !queue.is_empty() || !running.is_empty() {
            // Admit while capacity and the batch cap allow.
            while let Some(next) = queue.front() {
                if next.arrival_s > now && running.is_empty() {
                    // Idle: jump to the next arrival.
                    now = next.arrival_s;
                }
                if next.arrival_s > now || running.len() >= self.max_batch {
                    break;
                }
                let demand: u64 = running
                    .iter()
                    .map(|f| f.req.prompt_len + f.req.output_len)
                    .sum::<u64>()
                    + next.prompt_len
                    + next.output_len;
                if demand > capacity {
                    break;
                }
                let req = queue.pop_front().expect("checked front");
                now += self.engine.prefill_ms(1, req.prompt_len) / 1e3;
                running.push(InFlight {
                    req,
                    admitted_s: now,
                    generated: 0,
                    first_token_s: None,
                });
            }
            peak_batch = peak_batch.max(running.len());
            if running.is_empty() {
                continue;
            }

            // One decode step for the whole batch.
            let batch = running.len() as u64;
            let mean_context: u64 = running
                .iter()
                .map(|f| f.req.prompt_len + f.generated)
                .sum::<u64>()
                / batch;
            let bucket = (mean_context / 256).max(1) * 256;
            if step_cache.contains_key(&(batch, bucket)) {
                cache_stats.hits += 1;
            } else {
                cache_stats.misses += 1;
            }
            let ms = *step_cache
                .entry((batch, bucket))
                .or_insert_with(|| self.engine.decode_step(batch, bucket).total_ms());
            now += ms / 1e3;
            output_tokens += batch;

            // Advance and retire.
            for f in running.iter_mut() {
                f.generated += 1;
                if f.first_token_s.is_none() {
                    f.first_token_s = Some(now);
                }
            }
            running.retain(|f| {
                if f.generated >= f.req.output_len {
                    let view = RunningRequest {
                        req: f.req,
                        admitted_s: f.admitted_s,
                        generated: f.generated,
                        preemptions: 0,
                        first_admitted_s: f.admitted_s,
                        first_token_s: f.first_token_s,
                        retries: 0,
                        prefill_chunks_left: 0,
                    };
                    completions.push(complete(&view, now));
                    false
                } else {
                    true
                }
            });
        }

        finish_report(
            Fcfs.name(),
            now,
            output_tokens,
            peak_batch,
            0.0,
            0,
            Vec::new(),
            RobustnessStats::default(),
            cache_stats,
            PrefixStats::default(),
            completions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::GpuCluster;
    use crate::engine::EngineKind;
    use crate::policy::{PreemptiveSjf, Priority, SloEdf};
    use zipserv_gpu_sim::device::Gpu;
    use zipserv_kernels::shapes::LlmModel;

    fn engine(kind: EngineKind) -> ServingEngine {
        ServingEngine::new(kind, LlmModel::Llama31_8b, GpuCluster::single(Gpu::Rtx4090))
    }

    #[test]
    fn arrivals_are_sorted_and_rate_scaled() {
        let a = poisson_arrivals(2.0, 200, 128, 64, 9);
        assert_eq!(a.len(), 200);
        for w in a.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
        }
        // Mean inter-arrival ~ 1/rate.
        let span = a.last().expect("non-empty").arrival_s;
        assert!((span / 200.0 - 0.5).abs() < 0.15, "span {span}");
    }

    #[test]
    fn all_requests_complete() {
        let zip = engine(EngineKind::ZipServ);
        let batcher = ContinuousBatcher::new(&zip);
        let report = batcher.run(poisson_arrivals(4.0, 40, 128, 32, 3));
        assert_eq!(report.completions.len(), 40);
        assert!(report.peak_batch >= 2, "batching should occur");
        assert!(report.throughput_tps > 0.0);
        assert_eq!(report.policy, "fcfs");
        assert_eq!(report.preemptions, 0);
        assert!(report.rejected.is_empty());
    }

    #[test]
    fn percentiles_are_ordered() {
        let zip = engine(EngineKind::ZipServ);
        let report = ContinuousBatcher::new(&zip).run(poisson_arrivals(6.0, 60, 128, 32, 5));
        let p50 = report.latency_percentile(0.5).expect("has completions");
        let p95 = report.latency_percentile(0.95).expect("has completions");
        assert!(p50 <= p95);
        assert!(p50 > 0.0);
        let t50 = report.ttft_percentile(0.5).expect("has completions");
        assert!(t50 <= p50, "first token no later than last");
    }

    #[test]
    fn empty_report_yields_none_not_panic() {
        let report = finish_report(
            "fcfs",
            0.0,
            0,
            0,
            0.0,
            0,
            Vec::new(),
            RobustnessStats::default(),
            StepCacheStats::default(),
            PrefixStats::default(),
            Vec::new(),
        );
        assert_eq!(report.latency_percentile(0.99), None);
        assert_eq!(report.ttft_percentile(0.5), None);
        assert_eq!(report.mean_queue_s(), None);
        assert_eq!(report.slo_attainment(), None);
        assert_eq!(
            report.class_latency_percentile(PriorityClass::Batch, 0.5),
            None
        );
        assert!(report.per_class().is_empty());
        // Degenerate-duration guards for the robustness views.
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.goodput_tps(), 0.0);
        assert!(report.rejected_for(RejectReason::Oversized).is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile in [0,1]")]
    fn out_of_range_percentile_still_panics() {
        let zip = engine(EngineKind::ZipServ);
        let report = ContinuousBatcher::new(&zip).run(poisson_arrivals(4.0, 5, 64, 8, 3));
        let _ = report.latency_percentile(1.5);
    }

    #[test]
    fn zipserv_sustains_load_better_than_vllm() {
        // At a load that stresses KV capacity, the compressed engine admits
        // more concurrent sequences and queues less.
        let arrivals = poisson_arrivals(8.0, 60, 1024, 256, 11);
        let zip = engine(EngineKind::ZipServ);
        let vllm = engine(EngineKind::Vllm);
        let rz = ContinuousBatcher::new(&zip).run(arrivals.clone());
        let rv = ContinuousBatcher::new(&vllm).run(arrivals);
        assert!(
            rz.throughput_tps > rv.throughput_tps,
            "{} vs {}",
            rz.throughput_tps,
            rv.throughput_tps
        );
        assert!(
            rz.latency_percentile(0.95).expect("completions")
                < rv.latency_percentile(0.95).expect("completions")
        );
    }

    #[test]
    fn light_load_has_no_queueing() {
        let zip = engine(EngineKind::ZipServ);
        let report = ContinuousBatcher::new(&zip).run(poisson_arrivals(0.05, 5, 64, 16, 2));
        let q = report.mean_queue_s().expect("completions");
        assert!(q < 0.2, "queue {q}");
    }

    #[test]
    fn run_matches_reference_on_a_smoke_trace() {
        // The full randomized bit-compat check lives in the
        // `schedule_policies` integration suite; this is the fast smoke.
        let zip = engine(EngineKind::ZipServ);
        let batcher = ContinuousBatcher::new(&zip);
        let arrivals = poisson_arrivals(6.0, 30, 512, 64, 13);
        assert_eq!(
            batcher.run(arrivals.clone()),
            batcher.run_reference(arrivals)
        );
    }

    #[test]
    fn run_matches_reference_on_tied_arrivals() {
        // Equal arrival times with out-of-order ids: both loops must keep
        // the stable submission order (legacy sorts stably; Fcfs picks the
        // queue head), so reports match even on ties.
        let zip = engine(EngineKind::ZipServ);
        let batcher = ContinuousBatcher::new(&zip);
        let arrivals = vec![
            Request::new(5, 1.0, 256, 16),
            Request::new(2, 1.0, 128, 32),
            Request::new(9, 0.5, 64, 8),
            Request::new(1, 1.0, 512, 24),
        ];
        assert_eq!(
            batcher.run(arrivals.clone()),
            batcher.run_reference(arrivals)
        );
    }

    #[test]
    fn oversized_request_is_rejected_not_looped() {
        let zip = engine(EngineKind::ZipServ);
        let capacity = zip.kv_capacity_tokens();
        let mut arrivals = poisson_arrivals(4.0, 5, 64, 8, 3);
        arrivals.push(Request::new(99, 0.5, capacity + 1, 1));
        let report = run_policy(&zip, &Fcfs, 64, arrivals);
        assert_eq!(report.rejected, vec![99]);
        assert_eq!(report.completions.len(), 5);
    }

    #[test]
    fn oversized_request_never_evicts_victims() {
        // Under a preemptive policy, a request that can never fit must be
        // rejected up front instead of draining the running batch first.
        let zip = engine(EngineKind::ZipServ);
        let capacity = zip.kv_capacity_tokens();
        let mut arrivals = poisson_arrivals(4.0, 8, 512, 256, 7);
        // output_len 1 makes it the shortest job, so SJF selects it eagerly.
        arrivals.push(Request::new(99, 0.5, capacity + 1, 1));
        let report = run_policy(&zip, &PreemptiveSjf::default(), 64, arrivals);
        assert_eq!(report.rejected, vec![99]);
        assert_eq!(report.completions.len(), 8);
        assert_eq!(report.preemptions, 0, "no victims for a hopeless candidate");
    }

    /// A policy that never admits anything.
    #[derive(Debug, Clone)]
    struct HoldAll;

    impl SchedulePolicy for HoldAll {
        fn name(&self) -> &'static str {
            "hold-all"
        }

        fn select(&self, _: &[QueuedRequest], _: &[RunningRequest], _: f64) -> Option<usize> {
            None
        }

        fn clone_box(&self) -> Box<dyn SchedulePolicy> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn policy_hold_sheds_every_request_once_in_arrival_order() {
        // The idle engine wakes at every arrival, finds the policy still
        // holding, and once nothing is left to wake it sheds the queue.
        let zip = engine(EngineKind::ZipServ);
        let arrivals = poisson_arrivals(0.5, 12, 128, 16, 5);
        let last_arrival = arrivals.last().expect("non-empty").arrival_s;
        let expected: Vec<Rejection> = arrivals
            .iter()
            .map(|r| Rejection {
                id: r.id,
                reason: RejectReason::PolicyHold,
            })
            .collect();
        let reversed: Vec<Request> = arrivals.iter().rev().copied().collect();
        let clean = run_policy(&zip, &HoldAll, 8, reversed.clone());
        assert!(clean.completions.is_empty());
        assert_eq!(clean.rejections, expected);
        assert_eq!(clean.duration_s, last_arrival);

        // A fault event mid-trace is one more wake-up, not a resolution.
        let plan = FaultPlan::new().kv_stall(0.5 * last_arrival, 0.25);
        let faulted =
            run_policy_faulted(&zip, &HoldAll, 8, reversed, &plan, &RetryPolicy::default());
        assert!(faulted.completions.is_empty());
        assert_eq!(faulted.rejections, expected);
        assert_eq!(faulted.robustness.faults_injected, 1);
    }

    #[test]
    fn all_policies_complete_every_request() {
        let zip = engine(EngineKind::ZipServ);
        let arrivals: Vec<Request> = poisson_arrivals(8.0, 40, 512, 64, 21)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let class = PriorityClass::ALL[i % 3];
                r.with_priority(class).with_slo(Slo::new(4.0, 0.25))
            })
            .collect();
        let policies: Vec<Box<dyn SchedulePolicy>> = vec![
            Box::new(Fcfs),
            Box::new(Priority::default()),
            Box::new(SloEdf::default()),
            Box::new(PreemptiveSjf::default()),
            Box::new(PreemptiveSjf {
                mode: PreemptionMode::PageOut,
            }),
        ];
        for p in &policies {
            let report = run_policy(&zip, p.as_ref(), 64, arrivals.clone());
            assert_eq!(report.completions.len(), 40, "{}", p.name());
            assert!(report.rejected.is_empty(), "{}", p.name());
            assert!(report.slo_attainment().is_some(), "{}", p.name());
            // Every completion accounts its preemptions within the cap + 1
            // final admission.
            for c in &report.completions {
                assert!(c.preemptions <= MAX_PREEMPTIONS, "{}", p.name());
                assert!(c.ttft_s > 0.0 && c.ttft_s <= c.latency_s, "{}", p.name());
            }
        }
    }

    /// Holds a lone request while the engine is idle, until a second one
    /// arrives.
    #[derive(Debug, Clone)]
    struct PairUp;

    impl SchedulePolicy for PairUp {
        fn name(&self) -> &'static str {
            "pair-up"
        }

        fn select(
            &self,
            queued: &[QueuedRequest],
            running: &[RunningRequest],
            _: f64,
        ) -> Option<usize> {
            (queued.len() >= 2 || !queued.is_empty() && !running.is_empty()).then_some(0)
        }

        fn clone_box(&self) -> Box<dyn SchedulePolicy> {
            Box::new(self.clone())
        }
    }

    /// Feeds `trace` the way a lockstep fleet does: before each group of
    /// `group` arrivals the state steps to a point between arrivals, then
    /// (twice) to the group's first arrival, and only then gets the pushes.
    fn lockstep(
        engine: &ServingEngine,
        policy: &dyn SchedulePolicy,
        plan: &FaultPlan,
        trace: &[Request],
        group: usize,
    ) -> ScheduleReport {
        let retry = RetryPolicy::default();
        let mut state = SchedulerState::new(engine, policy, 8, plan, &retry);
        let mut prev = 0.0;
        for chunk in trace.chunks(group) {
            let t = chunk[0].arrival_s;
            state.step_until(0.5 * (prev + t));
            state.step_until(t);
            state.step_until(t);
            for &req in chunk {
                state.push(req);
            }
            prev = chunk[chunk.len() - 1].arrival_s;
        }
        state.finish()
    }

    #[test]
    fn report_does_not_depend_on_how_arrivals_are_fed() {
        use crate::workload::ArrivalMix;
        let policies: Vec<Box<dyn SchedulePolicy>> = vec![
            Box::new(Fcfs),
            Box::new(Priority::default()),
            Box::new(SloEdf::default()),
            Box::new(PreemptiveSjf::default()),
            Box::new(PreemptiveSjf {
                mode: PreemptionMode::PageOut,
            }),
            Box::new(HoldAll),
            Box::new(PairUp),
        ];
        let deployments = [
            ServingEngine::builder().cluster(GpuCluster::single(Gpu::Rtx4090)),
            ServingEngine::builder()
                .cluster(GpuCluster::single(Gpu::Rtx4090))
                .chunked_prefill(true)
                .prefix_caching(true),
            ServingEngine::builder().cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2)),
        ];
        let loads = [
            ArrivalMix::paper_mix().generate(12.0, 60, 43),
            ArrivalMix::multi_tenant_mix().generate(2.0, 60, 47),
        ];
        for builder in deployments {
            let engine = builder.max_batch(8).build();
            for trace in &loads {
                let horizon = trace[trace.len() - 1].arrival_s;
                let ranks = engine.cluster().total_ranks();
                let faulted = FaultPlan::seeded(19, horizon, ranks)
                    .link_degrade(0.3 * horizon, 2.5, 0.15 * horizon)
                    .kv_stall(0.5 * horizon, 0.02 * horizon);
                for plan in [FaultPlan::default(), faulted] {
                    for policy in &policies {
                        let retry = RetryPolicy::default();
                        let whole = format!(
                            "{:?}",
                            run_policy_faulted(
                                &engine,
                                policy.as_ref(),
                                8,
                                trace.clone(),
                                &plan,
                                &retry
                            )
                        );
                        for group in [1, 3] {
                            let fed = lockstep(&engine, policy.as_ref(), &plan, trace, group);
                            assert_eq!(
                                format!("{fed:?}"),
                                whole,
                                "{} fed in groups of {group}",
                                policy.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "push out of arrival order")]
    fn push_before_the_stepped_time_panics() {
        let zip = engine(EngineKind::ZipServ);
        let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
        let mut state = SchedulerState::new(&zip, &Fcfs, 8, &plan, &retry);
        state.step_until(2.0);
        state.push(Request::new(0, 1.0, 64, 8));
    }

    /// Admits in arrival order and always names request 0 as the victim.
    #[derive(Debug, Clone)]
    struct PinnedVictim;

    impl SchedulePolicy for PinnedVictim {
        fn name(&self) -> &'static str {
            "pinned-victim"
        }

        fn select(&self, queued: &[QueuedRequest], _: &[RunningRequest], _: f64) -> Option<usize> {
            (!queued.is_empty()).then_some(0)
        }

        fn victim(&self, _: &QueuedRequest, running: &[RunningRequest], _: f64) -> Option<usize> {
            running.iter().position(|f| f.req.id == 0)
        }

        fn clone_box(&self) -> Box<dyn SchedulePolicy> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn preemption_cap_stops_a_policy_that_keeps_naming_one_victim() {
        // Request 0 and any challenger cannot share the KV, so every
        // challenger evicts request 0 until it reaches the cap; the next
        // challenger then waits for request 0 to finish.
        let zip = engine(EngineKind::ZipServ);
        let half = zip.kv_capacity_tokens() / 2;
        let challengers = u64::from(MAX_PREEMPTIONS) + 2;
        let mut arrivals = vec![Request::new(0, 0.0, half, 64)];
        arrivals.extend((1..=challengers).map(|id| Request::new(id, 0.001, half, 8)));
        let report = run_policy(&zip, &PinnedVictim, 64, arrivals);

        assert_eq!(report.completions.len() as u64, challengers + 1);
        let done = |id: u64| {
            *report
                .completions
                .iter()
                .find(|c| c.id == id)
                .expect("completed")
        };
        let pinned = done(0);
        assert_eq!(pinned.preemptions, MAX_PREEMPTIONS);
        assert_eq!(report.preemptions, u64::from(MAX_PREEMPTIONS));
        // The first challenger past the cap is admitted only once request 0
        // has finished.
        let held = done(u64::from(MAX_PREEMPTIONS) + 1);
        assert!(
            0.001 + held.queue_s >= pinned.latency_s,
            "challenger admitted at {} before request 0 finished at {}",
            0.001 + held.queue_s,
            pinned.latency_s
        );
    }
}
