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
//! [`SchedulePolicy`]; see [`crate::policy`]
//! for the four in-tree policies and
//! [`ServingEngine::builder`](crate::engine::ServingEngine::builder) for the
//! fluent way to wire one up.

use crate::engine::ServingEngine;
use crate::fault::{FaultKind, FaultPlan, FaultState, RejectReason, Rejection, RetryPolicy};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::kvcache::{pages_for, PrefixRegistry, PrefixStats, PAGE_TOKENS};
use crate::metrics::{percentile, ClassStats, RobustnessStats};
use crate::policy::{
    PreemptionMode, PriorityClass, QueuedRequest, RunningRequest, SchedulePolicy, Slo,
};
use std::collections::VecDeque;

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
    /// deployments.
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
    /// `Default`) when the [`FaultPlan`] is empty.
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

/// Seconds to whole nanoseconds, rounded to nearest: the one rounding by
/// which a time or a price in seconds enters the scheduler's integer
/// clock. Arrivals, fault times, retry delays and engine prices all pass
/// through it, so equal inputs land on equal nanoseconds. Inputs beyond
/// the clock's range of about ±292 years saturate, and NaN reads as 0;
/// the scheduler refuses non-finite arrivals.
pub fn to_ns(seconds: f64) -> i64 {
    (seconds * 1e9).round() as i64
}

/// Nanoseconds back to seconds, for report fields and the `now` handed to
/// policies.
fn to_s(ns: i64) -> f64 {
    ns as f64 / 1e9
}

/// A nanosecond price scaled by a float factor (compute slowdown, link
/// factor), rounded back to whole nanoseconds before it reaches the clock.
fn scale(ns: i64, factor: f64) -> i64 {
    (ns as f64 * factor).round() as i64
}

/// KV pages a request reserves from admission to completion: its prompt
/// plus every output token.
fn lifetime_pages(req: &Request) -> u64 {
    pages_for(req.prompt_len + req.output_len)
}

/// Turns a finished in-flight record into a completion at time `now` (ns).
/// Each report field is one nanosecond difference converted to seconds.
fn complete(f: &RunningRequest, now: i64) -> Completion {
    let arrival = to_ns(f.req.arrival_s);
    // A finished request always produced at least one token; fall back to
    // the final step time rather than aborting the run if a custom policy
    // ever violates that invariant.
    let first_token = f.first_token_ns.unwrap_or(now);
    let ttft_s = to_s(first_token - arrival);
    Completion {
        id: f.req.id,
        priority: f.req.priority,
        queue_s: to_s(f.first_admitted_ns - arrival),
        latency_s: to_s(now - arrival),
        ttft_s,
        preemptions: f.preemptions,
        slo_met: f.req.slo.map(|slo| {
            let decode_budget = slo.tpot_s * f.req.output_len.saturating_sub(1) as f64;
            ttft_s <= slo.ttft_s && to_s(now - first_token) <= decode_budget
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
/// Under [`Fcfs`](crate::policy::Fcfs) the loop is plain FCFS continuous
/// batching; the `schedule_policies` suite holds it, by proptest, to a
/// straight-line FCFS oracle built on the engine's public cost model.
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

/// Everything the fault machinery mutates while the scheduler loop runs —
/// threaded as one bundle so the event applicator and the admission loop
/// see the same books.
#[derive(Debug)]
struct FaultBooks {
    state: FaultState,
    /// The counters; its seconds fields are filled from the nanosecond
    /// totals below when the run finishes.
    rob: RobustnessStats,
    stall_ns: i64,
    refetch_ns: i64,
    downtime_ns: i64,
    recover_ns: i64,
    /// Ids victimized by a failure and not yet re-served or rejected.
    victims_outstanding: FxHashSet<u64>,
    /// When the oldest still-open recovery window opened (ns).
    recover_started: Option<i64>,
}

impl FaultBooks {
    /// A victim id got re-served or rejected; when the last one resolves,
    /// the time-to-recover window closes. Every admission calls this, and
    /// while no victim is outstanding (always, on a clean run) it returns
    /// without hashing the id.
    fn resolve_victim(&mut self, id: u64, now: i64) {
        if self.victims_outstanding.is_empty() {
            return;
        }
        if self.victims_outstanding.remove(&id) && self.victims_outstanding.is_empty() {
            if let Some(t0) = self.recover_started.take() {
                self.recover_ns += now - t0;
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
/// only where an admission pass reads arrivals — the admission pull, the
/// idle jump to the next arrival and the hold's wake-up — when the answer
/// depends on a push still to come, and resumes exactly there. A decode
/// fast-forward never pauses: with nothing pushed ahead it stops at the
/// first round boundary at or after the horizon, and the rounds after it
/// run in full and skip again. On the integer clock they add exactly what
/// one longer skip would have. So the report never depends on how the
/// arrivals were fed:
/// pushing a whole trace and finishing ([`run_policy_faulted`]), stepping
/// to every fleet arrival and pushing only this replica's (the lockstep
/// fleet of [`crate::fleet::FleetRouter`]) and stepping to each of its own
/// arrivals before pushing it (the fleet's route-first workers) give
/// bit-identical reports.
///
/// Simulated time is kept as signed 64-bit nanoseconds: the clock, the
/// horizon, arrivals, fault times, backoffs, cached prices and the
/// robustness totals. Seconds enter through [`to_ns`] and leave once, as
/// report fields and as the `now` handed to policies.
///
/// See [`run_policy_faulted`] for what one round does.
#[derive(Debug)]
pub struct SchedulerState<'a> {
    engine: &'a ServingEngine,
    policy: &'a dyn SchedulePolicy,
    max_batch: usize,
    /// The fault plan's events, their times in ns.
    events: Vec<(i64, FaultKind)>,
    retry: RetryPolicy,
    /// The deployment's KV capacity in tokens.
    capacity: u64,
    /// Each rank's KV admission budget in pages, for
    /// [`SchedulerState::kv_pressure`]: its page budget scaled by the
    /// capacity over the bottleneck rank's raw capacity. That is the page
    /// budget itself on paged engines; non-paged ones admit only to their
    /// fragmentation-reduced capacity.
    rank_budgets: Vec<u64>,
    /// KV pages the residents reserve, each for its whole lifetime
    /// (`prompt + output`), the same count on every rank: admission keeps
    /// it within the capacity in pages.
    reserved_pages: u64,
    next_event: usize,
    books: FaultBooks,
    /// Chunks a fresh prefill is split into under chunked prefill (default
    /// at pp ≥ 2, or forced via `EngineBuilder::chunked_prefill`): one per
    /// pipeline stage, streamed between decode steps. 0 charges each
    /// prefill whole at admission.
    prefill_chunks: u32,
    /// Prefix caching (opt-in via `EngineBuilder::prefix_caching`): the
    /// registry interns shared-prefix hashes on its own page budget and
    /// forks them copy-on-write on hit, so admission charges prefill for
    /// the unshared suffix only. `None` — the default — touches no legacy
    /// code path, keeping caching-off runs bit-identical.
    registry: Option<PrefixRegistry>,
    /// Pushed requests not pulled into `pending` yet, in arrival order.
    arrivals: VecDeque<Request>,
    /// The arrival time of `arrivals`' front in ns, converted once when it
    /// becomes the front; `i64::MAX` while `arrivals` is empty.
    next_arrival: i64,
    /// Ids of every pushed request, for the debug-build exactly-once check.
    #[cfg(debug_assertions)]
    pushed: Vec<u64>,
    /// No push still to come arrives before this time (ns); `i64::MAX`
    /// once the run is finishing and no push will come at all.
    horizon: i64,
    /// Arrived requests waiting for admission, in arrival order.
    pending: Vec<QueuedRequest>,
    running: Vec<RunningRequest>,
    /// Indices into `running` of the residents the current round retires.
    retired: Vec<usize>,
    completions: Vec<Completion>,
    rejections: Vec<Rejection>,
    /// The clock, in ns.
    now: i64,
    peak_batch: usize,
    output_tokens: u64,
    preemptions: u64,
    comm_ns: i64,
    /// Step times cached per (step-shape key, context bucket): (total ns,
    /// comm ns). The key is `engine.step_cache_key(batch)` — the raw batch
    /// on single-stage engines, the micro-batch shape on pipelined ones,
    /// where distinct batches collapse onto identical step costs (keying
    /// on the raw batch defeated the cache there: every batch size was a
    /// fresh miss pricing a shape already priced). The cached pair is
    /// fault-independent — degradation scales it *after* the lookup — so
    /// the key needs no fault epoch.
    step_cache: FxHashMap<(u64, u64), (i64, i64)>,
    cache_stats: StepCacheStats,
    /// Last clock reading, for the debug-build monotonicity check.
    #[cfg(debug_assertions)]
    last_now: i64,
    phase: Phase,
}

impl<'a> SchedulerState<'a> {
    /// An idle scheduler at time 0 with nothing pushed yet.
    pub fn new(
        engine: &'a ServingEngine,
        policy: &'a dyn SchedulePolicy,
        max_batch: usize,
        plan: &'a FaultPlan,
        retry: &RetryPolicy,
    ) -> Self {
        let shards = engine.kv_shards();
        let capacity = engine.kv_capacity_tokens();
        let raw = shards.capacity_tokens();
        let rank_budgets = (0..shards.ranks())
            .map(|r| {
                (shards.rank_pages(r) * capacity)
                    .checked_div(raw)
                    .unwrap_or(0)
            })
            .collect();
        let registry = engine
            .prefix_caching()
            .then(|| PrefixRegistry::new(shards, policy.prefix_victim()));
        SchedulerState {
            engine,
            policy,
            max_batch,
            events: plan
                .events()
                .iter()
                .map(|e| (to_ns(e.at_s), e.kind))
                .collect(),
            retry: *retry,
            capacity,
            rank_budgets,
            reserved_pages: 0,
            next_event: 0,
            books: FaultBooks {
                state: FaultState::new(engine.cluster().total_ranks()),
                rob: RobustnessStats::default(),
                stall_ns: 0,
                refetch_ns: 0,
                downtime_ns: 0,
                recover_ns: 0,
                victims_outstanding: FxHashSet::default(),
                recover_started: None,
            },
            prefill_chunks: if engine.chunked_prefill() {
                engine.cluster().pp().max(1)
            } else {
                0
            },
            registry,
            arrivals: VecDeque::new(),
            next_arrival: i64::MAX,
            #[cfg(debug_assertions)]
            pushed: Vec::new(),
            horizon: i64::MIN,
            pending: Vec::new(),
            running: Vec::new(),
            retired: Vec::new(),
            completions: Vec::new(),
            rejections: Vec::new(),
            now: 0,
            peak_batch: 0,
            output_tokens: 0,
            preemptions: 0,
            comm_ns: 0,
            step_cache: FxHashMap::default(),
            cache_stats: StepCacheStats::default(),
            #[cfg(debug_assertions)]
            last_now: 0,
            phase: Phase::Round,
        }
    }

    /// Hands the scheduler its next arrival. The arrival time is in
    /// seconds and enters the clock rounded to ns by [`to_ns`], the
    /// rounding [`SchedulerState::step_until`] applies too, so a push at a
    /// time just stepped to is in order.
    ///
    /// # Panics
    ///
    /// Panics unless pushes come in arrival order, none earlier than the
    /// last [`SchedulerState::step_until`] time (both compared in ns),
    /// with finite times.
    pub fn push(&mut self, req: Request) {
        let at = to_ns(req.arrival_s);
        let earliest = self
            .arrivals
            .back()
            .map_or(self.horizon, |r| to_ns(r.arrival_s).max(self.horizon));
        assert!(
            at >= earliest && req.arrival_s.is_finite(),
            "push out of arrival order: {} s after {earliest} ns",
            req.arrival_s
        );
        #[cfg(debug_assertions)]
        self.pushed.push(req.id);
        if self.arrivals.is_empty() {
            self.next_arrival = at;
        }
        self.arrivals.push_back(req);
    }

    /// Runs the loop as far as it can go on the promise that no later push
    /// arrives before `t` seconds, which [`to_ns`] rounds to the clock's
    /// nanoseconds. The clock may end past `t` (a prefill, stall or decode
    /// step spans it) or before it (the engine idles, or waits for
    /// arrivals that may come at `t`).
    pub fn step_until(&mut self, t: f64) {
        self.horizon = self.horizon.max(to_ns(t));
        self.advance();
    }

    /// Runs every pushed request to completion (or a typed rejection) and
    /// returns the run's report.
    pub fn finish(mut self) -> ScheduleReport {
        self.horizon = i64::MAX;
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
            assert_eq!(self.reserved_pages, 0, "a finished run still reserves KV");
        }
        if cfg!(debug_assertions) {
            if let Some(reg) = &self.registry {
                reg.assert_no_forks();
            }
        }

        // Close the books: a run can end while degraded or with a recovery
        // window still open (every victim rejected late in the run).
        let books = &self.books;
        let mut rob = books.rob;
        let mut downtime_ns = books.downtime_ns;
        if !books.state.dead.is_empty() {
            downtime_ns += self.now - books.state.degraded_since;
        }
        let mut recover_ns = books.recover_ns;
        if let Some(t0) = books.recover_started {
            recover_ns += self.now - t0;
            rob.recoveries += 1;
        }
        rob.stall_s = to_s(books.stall_ns);
        rob.refetch_s = to_s(books.refetch_ns);
        rob.downtime_s = to_s(downtime_ns);
        rob.time_to_recover_s = to_s(recover_ns);
        let duration_s = to_s(self.now);
        ScheduleReport {
            duration_s,
            throughput_tps: if self.now > 0 {
                self.output_tokens as f64 / duration_s
            } else {
                0.0
            },
            peak_batch: self.peak_batch,
            comm_s: to_s(self.comm_ns),
            preemptions: self.preemptions,
            rejected: self.rejections.iter().map(|r| r.id).collect(),
            rejections: self.rejections,
            robustness: rob,
            step_cache: self.cache_stats,
            prefix: self.registry.map(|r| r.stats()).unwrap_or_default(),
            policy: self.policy.name().to_string(),
            completions: self.completions,
        }
    }

    /// Makes room for `n` more completions, so that a caller who knows how
    /// many requests it will push can size the buffer on its own thread.
    pub(crate) fn reserve_completions(&mut self, n: usize) {
        self.completions.reserve(n);
    }

    /// Requests the scheduler holds: queued, running, and pushed but not
    /// yet pulled into the queue.
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.running.len() + self.arrivals.len()
    }

    /// Live KV occupancy of `rank` in `[0, 1]`, read off the books
    /// admission keeps: the pages the residents reserve over the rank's
    /// admission budget (every rank holds a slice of every resident), so a
    /// full replica reads about 1 whatever its engine. A dead or
    /// zero-budget rank reads `1.0`: it admits nothing, so a router
    /// reading pressure steers away from it.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn kv_pressure(&self, rank: usize) -> f64 {
        let budget = self.rank_budgets[rank];
        if budget == 0 || self.books.state.dead.contains(&rank) {
            1.0
        } else {
            self.reserved_pages as f64 / budget as f64
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
                    self.decode_round();
                    self.assert_kv_books();
                    Phase::Round
                }
            };
        }
    }

    /// Debug builds: the reservations add up to the residents' lifetime
    /// pages and fit the capacity admission reads now.
    fn assert_kv_books(&self) {
        #[cfg(debug_assertions)]
        {
            let held: u64 = self.running.iter().map(|f| lifetime_pages(&f.req)).sum();
            assert_eq!(self.reserved_pages, held, "KV reservations drifted");
            assert!(
                self.reserved_pages <= self.capacity_pages_now(),
                "{} KV pages reserved over a capacity of {}",
                self.reserved_pages,
                self.capacity_pages_now()
            );
        }
    }

    /// Pages admission may fill now: the capacity in tokens, re-planned
    /// around dead ranks (integer scaling: the same `u64` while every rank
    /// is alive), in whole pages.
    fn capacity_pages_now(&self) -> u64 {
        self.books.state.scaled_capacity(self.capacity) / PAGE_TOKENS
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
            if self.arrivals.is_empty() {
                // Whether anything else arrives matters only to an idle
                // engine, which would jump to it, or once the clock has
                // reached the horizon, when it may have arrived by now.
                return if self.horizon == i64::MAX
                    || !self.running.is_empty() && self.now < self.horizon
                {
                    Pass::Over
                } else {
                    Pass::Pause(Phase::Admit)
                };
            }
            if self.running.is_empty() && self.next_arrival > self.now {
                // Idle: jump to the next arrival.
                self.now = self.next_arrival;
                self.faults_due();
            }
        }
        // Every queued request arrived before any unpulled one, so
        // appending keeps `pending` in arrival order.
        while self.next_arrival <= self.now {
            let Some(req) = self.arrivals.pop_front() else {
                break;
            };
            self.pending.push(QueuedRequest::fresh(req));
            self.next_arrival = self
                .arrivals
                .front()
                .map_or(i64::MAX, |r| to_ns(r.arrival_s));
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
        if self.prefill_chunks > 0
            && self.running.iter().filter(|f| f.is_prefilling()).count()
                >= self.engine.micro_batches().max(1) as usize
        {
            return Pass::Over;
        }
        // Backoff gating: fault victims waiting out their backoff are
        // invisible to the policy until `not_before_ns`. While every queued
        // request is eligible (always while no victim is outstanding: only
        // a victim's `not_before_ns` is nonzero) the view is the plain
        // arrived queue.
        let now_s = to_s(self.now);
        let picked = if self.books.victims_outstanding.is_empty()
            || self.pending.iter().all(|p| p.not_before_ns <= self.now)
        {
            self.policy.select(&self.pending, &self.running, now_s)
        } else {
            let eligible: Vec<usize> = (0..self.pending.len())
                .filter(|&i| self.pending[i].not_before_ns <= self.now)
                .collect();
            let view: Vec<QueuedRequest> = eligible.iter().map(|&i| self.pending[i]).collect();
            self.policy.select(&view, &self.running, now_s).map(|vi| {
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
        let need = lifetime_pages(&cand.req);

        // A request whose lifetime KV demand exceeds capacity can never
        // run: reject it up front, before it evicts innocent victims.
        // Judged against *full* capacity — a degraded deployment may
        // recover, so the verdict must not depend on the fault state.
        if need > self.capacity / PAGE_TOKENS {
            self.reject(cand.req.id, RejectReason::Oversized);
            self.pending.remove(pick);
            self.books.resolve_victim(cand.req.id, self.now);
            return Pass::Again;
        }

        // SLO-aware brownout: while a rank is down, fresh best-effort
        // (Batch-class) arrivals are shed so the degraded capacity serves
        // SLO-carrying traffic; fault victims keep their retry path
        // regardless of class.
        if !self.books.state.dead.is_empty()
            && cand.retries == 0
            && cand.req.priority == PriorityClass::Batch
        {
            self.reject(cand.req.id, RejectReason::BrownoutShed);
            self.books.rob.shed += 1;
            self.pending.remove(pick);
            return Pass::Again;
        }

        let cap_now = self.capacity_pages_now();

        // Preempt victims until the candidate fits or the policy (or the
        // per-request cap, as a backstop for custom policies that name a
        // pinned victim) refuses. Each eviction re-inserts the victim into
        // `pending` by arrival, so the candidate's index is tracked through
        // the insertions rather than re-located.
        let mut cand_idx = pick;
        let mut evictions_left = self.running.len();
        while self.reserved_pages + need > cap_now && evictions_left > 0 {
            let Some(vi) = self.policy.victim(&cand, &self.running, to_s(self.now)) else {
                break;
            };
            if self.running[vi].preemptions >= MAX_PREEMPTIONS {
                break;
            }
            let victim = self.running.remove(vi);
            self.reserved_pages -= lifetime_pages(&victim.req);
            self.preemptions += 1;
            // Page-out preemption pays the host-bound PCIe transfer at
            // eviction time — the victim's pages must land in host memory
            // before the candidate can take them, delaying the whole engine
            // *now*. The matching page-in is charged when the victim
            // resumes. (The pre-split accounting lumped both transfers at
            // resume, understating the eviction-side stall; pinned by
            // `pageout_is_charged_at_both_ends`.)
            if self.policy.preemption_mode() == PreemptionMode::PageOut {
                self.now += to_ns(self.engine.kv_swap_s(victim.kv_tokens()));
            }
            let back = QueuedRequest {
                req: victim.req,
                resume_generated: victim.generated,
                preemptions: victim.preemptions + 1,
                first_admitted_ns: Some(victim.first_admitted_ns),
                first_token_ns: victim.first_token_ns,
                retries: victim.retries,
                not_before_ns: 0,
            };
            let pos = self.requeue(back);
            if pos <= cand_idx {
                cand_idx += 1;
            }
            evictions_left -= 1;
        }

        if self.reserved_pages + need > cap_now {
            return self.refuse(cand, cand_idx);
        }
        self.admit(cand_idx, cand);
        Pass::Again
    }

    /// The policy's pick does not fit even after preemption.
    fn refuse(&mut self, cand: QueuedRequest, cand_idx: usize) -> Pass {
        if self.running.is_empty() {
            // With every rank alive a lone non-oversized candidate always
            // fits: the oversized check read the same capacity. So only
            // degraded capacity refuses one. Wait for the next fault event
            // (a repair restores capacity); with none left, the capacity is
            // gone for good — typed rejection, not an infinite stall.
            debug_assert!(
                !self.books.state.dead.is_empty(),
                "lone candidate refused with every rank alive"
            );
            if let Some(&(at, _)) = self.events.get(self.next_event) {
                self.now = self.now.max(at);
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

    /// Re-inserts a preemption or fault victim into `pending` by arrival,
    /// after every request that arrived in the same nanosecond or before,
    /// and returns its index.
    fn requeue(&mut self, back: QueuedRequest) -> usize {
        let at = to_ns(back.req.arrival_s);
        let pos = self
            .pending
            .partition_point(|p| to_ns(p.req.arrival_s) <= at);
        self.pending.insert(pos, back);
        pos
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
        self.books.resolve_victim(q.req.id, self.now);
        self.reserved_pages += lifetime_pages(&q.req);
        // Prefix-cache lookup: a fresh prefill that declares a shared
        // prefix may fork the cached copy and prefill only the suffix.
        // Fault-retry recomputes stay full-price — the dead rank's KV
        // (cached prefixes included) is gone.
        let mut prefix_saved = 0u64;
        if let Some(reg) = self.registry.as_mut() {
            if q.resume_generated == 0 && q.retries == 0 {
                prefix_saved = reg.admit(
                    q.req.id,
                    q.req.prefix_hash,
                    q.req.prefix_len,
                    q.req.prompt_len,
                );
            }
        }
        let engine = self.engine;
        let prefill = |tokens: u64| to_ns(engine.prefill_ms(1, tokens) / 1e3);
        let mut cost = if q.retries > 0 {
            self.books.rob.recomputed_tokens += q.kv_tokens_on_admit();
            prefill(q.kv_tokens_on_admit())
        } else if q.resume_generated == 0 {
            prefill(q.req.prompt_len.saturating_sub(prefix_saved).max(1))
        } else {
            match self.policy.preemption_mode() {
                PreemptionMode::Recompute => prefill(q.kv_tokens_on_admit()),
                // Page-in only: the outbound transfer was charged when this
                // request was evicted.
                PreemptionMode::PageOut => to_ns(engine.kv_swap_s(q.kv_tokens_on_admit())),
            }
        };
        if !self.books.state.dead.is_empty() {
            cost = scale(cost, self.books.state.compute_slowdown());
        }
        // Streaming mode defers a *fresh* prefill: instead of charging the
        // whole cost serially at admission, the request enters the batch
        // still prefilling and pays its cost chunk by chunk as chunks ride
        // the pipeline's micro-batch slots between decode steps. Resumes
        // (page-in, recompute) stay serial — they rebuild KV, they don't
        // stream the prompt through the stages.
        let (chunks_left, prefill_ns) = if self.prefill_chunks > 0 && q.resume_generated == 0 {
            (self.prefill_chunks, cost)
        } else {
            self.now += cost;
            (0, 0)
        };
        self.running.push(RunningRequest {
            req: q.req,
            admitted_ns: self.now,
            generated: q.resume_generated,
            preemptions: q.preemptions,
            first_admitted_ns: q.first_admitted_ns.unwrap_or(self.now),
            first_token_ns: q.first_token_ns,
            retries: q.retries,
            prefill_chunks_left: chunks_left,
            prefill_ns,
        });
    }

    /// The engine is idle and the policy holds admission (or every
    /// eligible request is waiting out a backoff): jump to whatever ends
    /// the hold first — the next arrival, the earliest backoff expiry, or
    /// the next fault event (a repair can end a brownout).
    fn hold(&mut self) -> Pass {
        let arrival = (!self.arrivals.is_empty()).then_some(self.next_arrival);
        let backoff = self
            .pending
            .iter()
            .map(|p| p.not_before_ns)
            .filter(|&t| t > self.now)
            .min();
        let event = self.events.get(self.next_event).map(|&(at, _)| at);
        let wake = [arrival, backoff, event].into_iter().flatten().min();
        // With nothing pushed ahead, a push still to come (at or after the
        // horizon) may end the hold first.
        if self.horizon < i64::MAX
            && self.arrivals.is_empty()
            && wake.is_none_or(|t| t > self.horizon)
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
            self.books.resolve_victim(q.req.id, self.now);
        }
        Pass::Over
    }

    /// The rest of a round after admission: prefill chunks, one decode
    /// step and retirement, then the fast-forward the round opens, if any.
    fn decode_round(&mut self) {
        self.peak_batch = self.peak_batch.max(self.running.len());
        if self.running.is_empty() {
            return;
        }

        // Chunked prefill: between decode steps, up to `micro_batches`
        // prefill chunks ride the pipeline's micro-batch slots, most urgent
        // resident first (priority class, then earliest arrival). Chunk
        // granularity is the TTFT win — an interactive prompt's chunks
        // overtake a long batch prompt mid-prefill instead of queueing
        // behind its whole prefill.
        if self.prefill_chunks > 0 {
            let chunks = i64::from(self.prefill_chunks);
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
                // Equal shares, the remainder on the last chunk: the chunks
                // sum to the whole prefill exactly.
                let share = next.prefill_ns / chunks;
                self.now += if next.prefill_chunks_left == 0 {
                    share + next.prefill_ns % chunks
                } else {
                    share
                };
            }
        }

        // One decode step for the batch's decode-ready subset (residents
        // still mid-prefill occupy KV but don't decode yet; without chunked
        // prefill every resident decodes). One pass counts them and sums
        // their context.
        let (batch, context) = self
            .running
            .iter()
            .filter(|f| !f.is_prefilling())
            .fold((0u64, 0u64), |(n, sum), f| {
                (n + 1, sum + f.req.prompt_len + f.generated)
            });
        if batch == 0 {
            // Whole batch still prefilling: chunks advanced time above, so
            // the loop makes progress without a decode step.
            return;
        }
        let mean_context = context / batch;
        let bucket = (mean_context / 256).max(1) * 256;
        let key = (self.engine.step_cache_key(batch), bucket);
        let (step, comm) = match self.step_cache.get(&key) {
            Some(&priced) => {
                self.cache_stats.hits += 1;
                priced
            }
            None => {
                self.cache_stats.misses += 1;
                let (ms, comm_ms) = self.engine.step_cost_priced(key, batch, bucket);
                let priced = (to_ns(ms / 1e3), to_ns(comm_ms / 1e3));
                self.step_cache.insert(key, priced);
                priced
            }
        };
        let fault_clean = self.books.state.is_clean();
        if fault_clean {
            self.now += step;
            self.comm_ns += comm;
        } else {
            // Survivors absorb the dead ranks' compute; the communication
            // share stretches by the degraded-link factor.
            let state = &self.books.state;
            let slow = if state.dead.is_empty() {
                1.0
            } else {
                state.compute_slowdown()
            };
            let link_comm = scale(comm, state.link_factor);
            self.now += scale(step - comm, slow) + link_comm;
            self.comm_ns += link_comm;
        }
        self.output_tokens += batch;

        // Advance and retire in one pass, in batch order: each decode-ready
        // resident gains a token (stamping its first), and a finished one
        // returns its pages and prefix fork and records its completion. The
        // pass also notes what the fast-forward reads: whether anyone is
        // still prefilling, and the fewest tokens any remaining resident
        // has left. The finished residents leave the batch afterwards,
        // highest index first, one memmove each.
        let now = self.now;
        let (mut prefilling, mut to_first_completion) = (false, u64::MAX);
        self.retired.clear();
        for (i, f) in self.running.iter_mut().enumerate() {
            if f.is_prefilling() {
                prefilling = true;
                continue;
            }
            f.generated += 1;
            if f.first_token_ns.is_none() {
                f.first_token_ns = Some(now);
            }
            let left = f.remaining_output();
            if left > 0 {
                to_first_completion = to_first_completion.min(left);
                continue;
            }
            self.reserved_pages -= lifetime_pages(&f.req);
            if let Some(reg) = self.registry.as_mut() {
                reg.release(f.req.id);
            }
            self.completions.push(complete(f, now));
            self.retired.push(i);
        }
        for &i in self.retired.iter().rev() {
            self.running.remove(i);
        }

        // Decode fast-forward. While the batch is unchanged (nobody
        // finished or is prefilling) and the fault state is clean, the next
        // round only repeats this decode step, priced from the same cache
        // entry, as long as it admits nothing and finds no fault event due.
        // Such rounds are skipped, bounded by the first completion (that
        // round runs in full) and by the last round whose mean context,
        // rising one per round, stays in this bucket. A full batch admits
        // nothing, whatever has arrived.
        let batch_full = self.running.len() >= self.max_batch;
        if !self.retired.is_empty()
            || prefilling
            || !fault_clean
            || !(batch_full || self.pending.is_empty())
        {
            return;
        }
        let rounds_left = to_first_completion
            .saturating_sub(1)
            .min(bucket + 255 - mean_context);
        self.fast_forward(rounds_left, batch, batch_full, step, comm);
    }

    /// Skips up to `rounds_left` rounds that would only repeat the decode
    /// step of `step` ns (`comm` of it communication) for all `batch`
    /// residents, in one multiplication: the rounds skipped are the whole
    /// steps that start before the next arrival (the horizon, with nothing
    /// pushed ahead; none, for a full batch) or fault event, so the clock
    /// stops at the first round boundary at or after it. Each resident is
    /// credited the skipped tokens. Skipped rounds call no policy method
    /// and count as step-cache hits. A skip cut at the horizon leaves the
    /// rest to the rounds after it: the next round runs in full and opens
    /// a fast-forward of its own.
    fn fast_forward(
        &mut self,
        rounds_left: u64,
        batch: u64,
        batch_full: bool,
        step: i64,
        comm: i64,
    ) {
        let arrival_at = if batch_full {
            i64::MAX
        } else if self.arrivals.is_empty() {
            self.horizon
        } else {
            self.next_arrival
        };
        let event_at = self
            .events
            .get(self.next_event)
            .map_or(i64::MAX, |&(at, _)| at);
        let bound = arrival_at.min(event_at);
        let rounds = if step == 0 {
            rounds_left
        } else if bound <= self.now {
            0
        } else {
            rounds_left.min(bound.abs_diff(self.now).div_ceil(step.unsigned_abs()))
        };
        self.now += rounds as i64 * step;
        self.comm_ns += rounds as i64 * comm;
        self.assert_clock_monotone();
        for f in self.running.iter_mut() {
            f.generated += rounds;
        }
        self.output_tokens += rounds * batch;
        self.cache_stats.hits += rounds;
    }

    /// Applies every fault event due at or before `now` (plus link-window
    /// expiry), mutating time, the pending/running queues and the
    /// robustness books. Called at the top of each scheduler round and
    /// after every time jump, so no event is skipped over.
    fn faults_due(&mut self) {
        // Link windows expire by time, not by a plan event.
        let state = &mut self.books.state;
        if state.link_factor != 1.0 && self.now >= state.link_until {
            state.link_factor = 1.0;
        }
        while let Some(&(at, kind)) = self.events.get(self.next_event) {
            if at > self.now {
                break;
            }
            self.next_event += 1;
            let books = &mut self.books;
            books.rob.faults_injected += 1;
            match kind {
                FaultKind::RankFail { rank } => self.rank_fail(rank),
                FaultKind::RankRepair { rank } => {
                    let rank = rank % books.state.total_ranks;
                    if books.state.dead.remove(&rank) && books.state.dead.is_empty() {
                        books.downtime_ns += self.now - books.state.degraded_since;
                    }
                }
                FaultKind::LinkDegrade { factor, duration_s } => {
                    books.state.link_factor = factor;
                    // A window past the clock's range never ends.
                    books.state.link_until = self.now.saturating_add(to_ns(duration_s));
                    books.rob.link_degrades += 1;
                }
                FaultKind::KvStall { stall_s } => {
                    let stall = to_ns(stall_s);
                    self.now += stall;
                    books.stall_ns += stall;
                }
                FaultKind::CorruptFrame { frames } => {
                    // The entropy codecs' checksums surface corruption as a
                    // typed error before garbage reaches the ZipGEMM path;
                    // the recovery cost is one PCIe re-fetch per frame.
                    let penalty = to_ns(f64::from(frames) * self.engine.frame_refetch_s());
                    self.now += penalty;
                    books.rob.frame_corruptions += u64::from(frames);
                    books.refetch_ns += penalty;
                }
            }
        }
    }

    /// Applies a [`FaultKind::RankFail`]. Every rank holds a slice of every
    /// sequence's KV, cached prefixes included, so one dead rank loses the
    /// whole batch's KV and the whole prefix cache: every running request
    /// is victimized for recompute-prefill (bounded by the retry cap),
    /// never silently continued on garbage, and the registry is cleared.
    fn rank_fail(&mut self, rank: usize) {
        let books = &mut self.books;
        let rank = rank % books.state.total_ranks;
        if !books.state.dead.insert(rank) {
            return; // already dead
        }
        if books.state.dead.len() == 1 {
            books.state.degraded_since = self.now;
        }
        books.rob.rank_failures += 1;
        if let Some(reg) = self.registry.as_mut() {
            reg.clear();
        }
        self.reserved_pages = 0;
        for victim in std::mem::take(&mut self.running) {
            let retries = victim.retries + 1;
            if retries > self.retry.max_retries {
                self.reject(victim.req.id, RejectReason::RetriesExhausted);
                self.books.resolve_victim(victim.req.id, self.now);
                continue;
            }
            self.books.rob.retries += 1;
            self.books.victims_outstanding.insert(victim.req.id);
            self.requeue(QueuedRequest {
                req: victim.req,
                resume_generated: victim.generated,
                preemptions: victim.preemptions,
                first_admitted_ns: Some(victim.first_admitted_ns),
                first_token_ns: victim.first_token_ns,
                retries,
                not_before_ns: self.now.saturating_add(to_ns(self.retry.delay_s(retries))),
            });
        }
        let books = &mut self.books;
        if !books.victims_outstanding.is_empty() && books.recover_started.is_none() {
            books.recover_started = Some(self.now);
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
///   would do nothing but repeat its decode step are skipped in one
///   multiplication on the integer clock: `rounds × step` ns are added to
///   the clock and `rounds × comm` to the comm total, and each resident is
///   credited the skipped tokens. A round qualifies when no resident is
///   prefilling, admission is a no-op (nothing has arrived, or the batch
///   is at `max_batch`), the fault state is clean with no event due, and
///   the context bucket is unchanged — the integer mean context rises by
///   exactly one per round. So the skip takes the rounds left before the
///   first resident finishes (that round runs in full) or the bucket
///   changes, capped by `ceil((bound − now) / step)`, where the bound is
///   the next arrival or fault event: the clock stops at the first round
///   boundary at or after it. Skipped rounds call no policy method and
///   count as step-cache hits.
///
/// A request whose KV demand exceeds the deployment's capacity even as the
/// sole occupant is rejected as [`RejectReason::Oversized`] rather than
/// looping forever.
///
/// Clean and faulted runs share one path. An empty [`FaultPlan`] leaves
/// every fault book at its identity: no dead rank (full capacity, the same
/// `u64`, and no compute slowdown), link factor 1 (a decode step is priced
/// unscaled while the fault state is clean), no victims (every queued
/// request is eligible, so the policy sees the plain queue) and no events.
/// Each fault branch then reduces to the fault-free arithmetic, and the
/// robustness books stay at their all-zero default (pinned by the
/// `fault_recovery` suite across every in-tree policy).
///
/// With a non-empty plan, events apply between scheduler rounds:
///
/// * **[`FaultKind::RankFail`]** — the dead rank's slice of every
///   sequence's KV is lost, so the whole running batch is victimized and
///   the prefix cache is cleared (its counters kept). Each victim re-queues
///   for recompute-prefill with an exponential backoff
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
/// clock never runs backwards. They also check the KV books: after every
/// round the reserved pages are the residents' lifetime pages and fit the
/// current capacity; at the end none are reserved, and the prefix cache
/// holds no fork.
///
/// Time runs on the scheduler's integer nanosecond clock: arrival times,
/// fault times and retry delays enter through [`to_ns`], and the report's
/// seconds are nanosecond totals converted once.
///
/// # Panics
///
/// Panics if an arrival time is not finite, as [`SchedulerState::push`]
/// does: the trace moves into the scheduler without pushes.
pub fn run_policy_faulted(
    engine: &ServingEngine,
    policy: &dyn SchedulePolicy,
    max_batch: usize,
    mut arrivals: Vec<Request>,
    plan: &FaultPlan,
    retry: &RetryPolicy,
) -> ScheduleReport {
    assert!(
        arrivals.iter().all(|r| r.arrival_s.is_finite()),
        "arrival times must be finite"
    );
    // A stable sort allocates scratch for the whole trace even when, as
    // usual, it is sorted already.
    if !arrivals.is_sorted_by(|a, b| a.arrival_s <= b.arrival_s) {
        arrivals.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite"));
    }
    let mut state = SchedulerState::new(engine, policy, max_batch, plan, retry);
    // Push the sorted trace in one move.
    #[cfg(debug_assertions)]
    state.pushed.extend(arrivals.iter().map(|r| r.id));
    state.next_arrival = arrivals.first().map_or(i64::MAX, |r| to_ns(r.arrival_s));
    state.arrivals = arrivals.into();
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::GpuCluster;
    use crate::engine::EngineKind;
    use crate::policy::{Fcfs, PreemptiveSjf, Priority, SloEdf};
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
        let report = run_policy(&zip, &Fcfs, 64, poisson_arrivals(4.0, 40, 128, 32, 3));
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
        let report = run_policy(&zip, &Fcfs, 64, poisson_arrivals(6.0, 60, 128, 32, 5));
        let p50 = report.latency_percentile(0.5).expect("has completions");
        let p95 = report.latency_percentile(0.95).expect("has completions");
        assert!(p50 <= p95);
        assert!(p50 > 0.0);
        let t50 = report.ttft_percentile(0.5).expect("has completions");
        assert!(t50 <= p50, "first token no later than last");
    }

    #[test]
    fn empty_report_yields_none_not_panic() {
        let report = run_policy(&engine(EngineKind::ZipServ), &Fcfs, 64, Vec::new());
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
        let report = run_policy(&zip, &Fcfs, 64, poisson_arrivals(4.0, 5, 64, 8, 3));
        let _ = report.latency_percentile(1.5);
    }

    #[test]
    fn zipserv_sustains_load_better_than_vllm() {
        // At a load that stresses KV capacity, the compressed engine admits
        // more concurrent sequences and queues less.
        let arrivals = poisson_arrivals(8.0, 60, 1024, 256, 11);
        let zip = engine(EngineKind::ZipServ);
        let vllm = engine(EngineKind::Vllm);
        let rz = run_policy(&zip, &Fcfs, 64, arrivals.clone());
        let rv = run_policy(&vllm, &Fcfs, 64, arrivals);
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
        let report = run_policy(&zip, &Fcfs, 64, poisson_arrivals(0.05, 5, 64, 16, 2));
        let q = report.mean_queue_s().expect("completions");
        assert!(q < 0.2, "queue {q}");
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
        // The run ends at the last arrival, on the nanosecond clock.
        assert_eq!(clean.duration_s, to_s(to_ns(last_arrival)));

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
    /// `group` arrivals the state steps to `between` evenly spaced points
    /// after the previous group's last arrival, then (twice) to the group's
    /// first arrival, and only then gets the pushes. Each step can cut a
    /// decode fast-forward short.
    fn lockstep(
        engine: &ServingEngine,
        policy: &dyn SchedulePolicy,
        plan: &FaultPlan,
        trace: &[Request],
        group: usize,
        between: u32,
    ) -> ScheduleReport {
        let retry = RetryPolicy::default();
        let mut state = SchedulerState::new(engine, policy, 8, plan, &retry);
        let mut prev = 0.0;
        for chunk in trace.chunks(group) {
            let t = chunk[0].arrival_s;
            for j in 1..=between {
                state.step_until(prev + (t - prev) * f64::from(j) / f64::from(between + 1));
            }
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
                        for (group, between) in [(1, 1), (3, 1), (1, 7)] {
                            let fed =
                                lockstep(&engine, policy.as_ref(), &plan, trace, group, between);
                            assert_eq!(
                                format!("{fed:?}"),
                                whole,
                                "{} fed in groups of {group}, {between} steps apart",
                                policy.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The whole prefill of `prompt` tokens and one decode step of
    /// `batch` at `context` tokens on `engine`, in ns, as the scheduler
    /// prices them.
    fn prices(engine: &ServingEngine, prompt: u64, batch: u64, context: u64) -> (i64, i64) {
        let bucket = (context / 256).max(1) * 256;
        (
            to_ns(engine.prefill_ms(1, prompt) / 1e3),
            to_ns(engine.decode_step(batch, bucket).total_ms() / 1e3),
        )
    }

    #[test]
    fn a_lone_request_costs_its_prefill_and_one_step_per_token() {
        // 300 + 100 tokens stay in the 256-token bucket, so every round
        // repeats one step: one full round, a 98-round fast-forward, and
        // the round that finishes it.
        let zip = engine(EngineKind::ZipServ);
        let (prefill, step) = prices(&zip, 300, 1, 300);
        let report = run_policy(&zip, &Fcfs, 64, vec![Request::new(0, 1.25, 300, 100)]);
        let done = report.completions[0];
        assert_eq!(done.latency_s, to_s(prefill + 100 * step));
        assert_eq!(done.ttft_s, to_s(prefill + step));
        assert_eq!(report.duration_s, to_s(to_ns(1.25) + prefill + 100 * step));
        assert_eq!(
            report.step_cache,
            StepCacheStats {
                hits: 99,
                misses: 1
            }
        );
    }

    #[test]
    fn an_arrival_mid_skip_waits_for_the_next_round_boundary() {
        // A decodes alone from 0 s; its rounds end at `prefill + k·step`.
        // B lands half-way through round 11 and is admitted when it ends;
        // landing exactly on the end of round 10, it is admitted there.
        let zip = engine(EngineKind::ZipServ);
        let (prefill, step) = prices(&zip, 300, 1, 300);
        let (prefill_b, step_2) = prices(&zip, 300, 2, 305);
        let round_end = |k: i64| prefill + k * step;
        for (b_at, admitted_at) in [
            (round_end(10) + step / 2, round_end(11)),
            (round_end(10), round_end(10)),
        ] {
            let a = Request::new(0, 0.0, 300, 200);
            let b = Request::new(1, to_s(b_at), 300, 8);
            let report = run_policy(&zip, &Fcfs, 64, vec![a, b]);
            let b_done = report.completions.iter().find(|c| c.id == 1).expect("B");
            assert_eq!(b_done.ttft_s, to_s(admitted_at + prefill_b + step_2 - b_at));
        }
    }

    #[test]
    fn a_stall_mid_skip_is_charged_at_the_next_round_boundary() {
        // A 0.25 s KV stall lands half-way through A's round 11: the
        // fast-forward stops when that round ends, and the stall is
        // charged there.
        let zip = engine(EngineKind::ZipServ);
        let (prefill, step) = prices(&zip, 300, 1, 300);
        let stall_at = prefill + 10 * step + step / 2;
        let plan = FaultPlan::new().kv_stall(to_s(stall_at), 0.25);
        let retry = RetryPolicy::default();
        let mut state = SchedulerState::new(&zip, &Fcfs, 64, &plan, &retry);
        state.push(Request::new(0, 0.0, 300, 200));
        state.step_until(to_s(stall_at));
        assert_eq!(state.now, prefill + 11 * step + to_ns(0.25));
        assert_eq!(state.running[0].generated, 11);
        let report = state.finish();
        assert_eq!(report.robustness.stall_s, 0.25);
        assert_eq!(
            report.completions[0].latency_s,
            to_s(prefill + 200 * step + to_ns(0.25))
        );
    }

    #[test]
    fn prefill_chunks_sum_to_the_whole_prefill() {
        // Two chunks of an odd number of ns: the second carries the
        // remainder, so a lone request's TTFT is its whole prefill plus
        // its first decode step, to the nanosecond.
        for micro_batches in [1, 2] {
            let engine = pipelined(micro_batches);
            let prompt = (300..400)
                .find(|&p| prices(&engine, p, 1, p).0 % 2 == 1)
                .expect("an odd prefill among 100 prompt lengths");
            let (prefill, step) = prices(&engine, prompt, 1, prompt);
            let report = run_policy(&engine, &Fcfs, 64, vec![Request::new(0, 0.0, prompt, 8)]);
            assert_eq!(report.completions[0].ttft_s, to_s(prefill + step));
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

    #[test]
    fn pressure_tracks_reservations_and_faults() {
        // PP3 gives the stages unequal weights and layers (embedding plus
        // 11 layers, 11, 10 plus the LM head), so one resident's pages
        // weigh differently on each rank. The values are exactly what a
        // least-KV-pressure router reads.
        let engine = ServingEngine::builder()
            .cluster(GpuCluster::pipeline_parallel(Gpu::Rtx4090, 1, 3))
            .build();
        let shards = engine.kv_shards();
        let plan = FaultPlan::new().rank_fail(5.0, 0).rank_repair(6.0, 0);
        let retry = RetryPolicy::default();
        let mut state = SchedulerState::new(&engine, &Fcfs, 64, &plan, &retry);
        let pressure = |s: &SchedulerState| [0, 1, 2].map(|r| s.kv_pressure(r));
        let held = |r: usize| pages_for(1000 + 4000) as f64 / shards.rank_pages(r) as f64;
        assert_eq!(pressure(&state), [0.0; 3]);
        state.push(Request::new(0, 0.0, 1000, 4000));
        state.step_until(1.0);
        assert_eq!(pressure(&state), [held(0), held(1), held(2)]);
        assert!(held(2) < held(0), "the last stage has the most pages");
        // The fault victim is re-admitted while rank 0 is down: the dead
        // rank repels routing, the survivors read the reservation.
        state.step_until(5.5);
        assert_eq!(pressure(&state), [1.0, held(1), held(2)]);
        state.step_until(6.5);
        assert_eq!(pressure(&state), [held(0), held(1), held(2)]);
        // Completion hands the pages back.
        state.step_until(1000.0);
        assert_eq!(pressure(&state), [0.0; 3]);
        assert_eq!(state.finish().completions.len(), 1);
    }

    #[test]
    fn pressure_reads_the_admission_budget_on_every_engine() {
        // 64 requests of 2048 + 2048 tokens (256 pages each) arrive at once
        // on the default RTX 4090 deployment and fill the batch. Non-paged
        // engines admit only to 0.6 of their raw pages, so their pressure
        // is read over that budget: a full replica reads about 1 on every
        // engine.
        for (kind, residents, budget) in [
            (EngineKind::Transformers, 6, 1662),
            (EngineKind::DFloat11, 10, 2739),
            (EngineKind::ZipServ, 17, 4451),
        ] {
            let engine = ServingEngine::builder().kind(kind).build();
            let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
            let mut state = SchedulerState::new(&engine, &Fcfs, 64, &plan, &retry);
            for id in 0..64 {
                state.push(Request::new(id, 0.0, 2048, 2048));
            }
            state.step_until(20.0);
            assert_eq!(state.running.len(), residents, "{kind}");
            let expected = (residents as u64 * 256) as f64 / budget as f64;
            assert_eq!(state.kv_pressure(0), expected, "{kind}");
        }
    }

    #[test]
    fn a_dead_rank_leaves_admission_whole_pages_only() {
        // TP2 RTX 4090 under Transformers holds 126,700 KV tokens. With
        // rank 1 dead, admission may fill 63,350: 3,959 whole pages
        // (3,959.375). Beside a 3,958-page resident, one more page fits and
        // two wait for the resident to finish.
        let engine = ServingEngine::builder()
            .kind(EngineKind::Transformers)
            .cluster(GpuCluster::pipeline_parallel(Gpu::Rtx4090, 2, 1))
            .build();
        assert_eq!(engine.kv_capacity_tokens(), 126_700);
        let plan = FaultPlan::new().rank_fail(0.0, 1);
        let resident = Request::new(0, 0.0, 3958 * PAGE_TOKENS - 2000, 2000);
        let waits = |tokens: u64| {
            let second = Request::new(1, 0.0, tokens - 1, 1);
            let retry = RetryPolicy::default();
            let report =
                run_policy_faulted(&engine, &Fcfs, 64, vec![resident, second], &plan, &retry);
            let done = |id: u64| {
                *report
                    .completions
                    .iter()
                    .find(|c| c.id == id)
                    .expect("completed")
            };
            done(1).queue_s >= done(0).latency_s
        };
        assert!(!waits(PAGE_TOKENS), "a 1-page request fits beside it");
        assert!(waits(2 * PAGE_TOKENS), "a 2-page request waits");
    }

    #[test]
    fn a_resident_reserves_the_pages_of_its_whole_lifetime() {
        // Prompt and output share the request's last page: 17 + 15 tokens
        // fill two pages like 16 + 16, and 17 + 16 spill into a third.
        let engine = ServingEngine::builder().build();
        let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
        let pressure = |prompt: u64, output: u64| {
            let mut state = SchedulerState::new(&engine, &Fcfs, 64, &plan, &retry);
            state.push(Request::new(0, 0.0, prompt, output));
            state.step_until(0.001);
            assert_eq!(state.running.len(), 1, "{prompt} + {output} is resident");
            (state.kv_pressure(0), state.rank_budgets[0] as f64)
        };
        let (two, budget) = pressure(16, 16);
        assert_eq!(two, 2.0 / budget);
        assert_eq!(pressure(17, 15).0, two);
        assert_eq!(pressure(17, 16).0, 3.0 / budget);
    }

    /// A two-stage L40S pipeline with `micro_batches` chunk slots per
    /// round; chunked prefill is on by default at `pp >= 2`, streaming each
    /// fresh prefill as two chunks.
    fn pipelined(micro_batches: u32) -> ServingEngine {
        ServingEngine::builder()
            .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2))
            .micro_batches(micro_batches)
            .build()
    }

    /// One millisecond on the scheduler's clock.
    const MS: i64 = 1_000_000;

    /// A resident of [`pipelined`] admitted on arrival with nothing
    /// generated yet, `chunks` of its prefill's two 1 ms chunks short of
    /// decoding.
    fn resident(req: Request, chunks: u32) -> RunningRequest {
        RunningRequest {
            req,
            admitted_ns: to_ns(req.arrival_s),
            generated: 0,
            preemptions: 0,
            first_admitted_ns: to_ns(req.arrival_s),
            first_token_ns: None,
            retries: 0,
            prefill_chunks_left: chunks,
            prefill_ns: 2 * MS,
        }
    }

    #[test]
    fn prefill_chunks_go_to_the_most_urgent_resident_first() {
        // One chunk slot per round, five residents one chunk short of
        // decoding: the order in which they leave prefill is the chunk
        // order. Higher class first, then earlier arrival, then lower id;
        // neither batch position nor id alone gives that order.
        let engine = pipelined(1);
        let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
        let mut state = SchedulerState::new(&engine, &Fcfs, 64, &plan, &retry);
        let residents = [
            (1, PriorityClass::Batch, 0.0),
            (5, PriorityClass::Standard, 1.0),
            (2, PriorityClass::Standard, 1.0),
            (7, PriorityClass::Standard, 0.5),
            (9, PriorityClass::Interactive, 3.0),
        ];
        state.running = residents
            .iter()
            .map(|&(id, class, at)| resident(Request::new(id, at, 64, 64).with_priority(class), 1))
            .collect();
        let mut order = Vec::new();
        for _ in 0..residents.len() {
            state.decode_round();
            // The resident whose chunk ran decodes its first token at once.
            order.extend(
                state
                    .running
                    .iter()
                    .filter(|f| f.generated == 1)
                    .map(|f| f.req.id),
            );
        }
        assert_eq!(order, [9, 7, 2, 5, 1]);
    }

    #[test]
    fn a_round_decodes_only_its_decode_ready_residents() {
        // A, one token from done, decodes beside B, which is still
        // prefilling. The round runs B's chunk, then prices one decode step
        // for A alone at A's context bucket (600 tokens: bucket 512), and
        // retires A. B left mid-prefill opens no fast-forward.
        let engine = pipelined(1);
        let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
        let mut state = SchedulerState::new(&engine, &Fcfs, 64, &plan, &retry);
        state.running = vec![
            resident(Request::new(0, 0.0, 600, 1), 0),
            resident(Request::new(1, 0.0, 4000, 8), 2),
        ];
        state.reserved_pages = pages_for(600 + 1) + pages_for(4000 + 8);
        state.decode_round();
        let step = to_ns(engine.decode_step(1, 512).total_ms() / 1e3);
        assert_eq!(state.now, MS + step);
        assert_eq!(state.output_tokens, 1);
        assert_eq!(state.completions.len(), 1);
        assert_eq!(state.completions[0].ttft_s, to_s(MS + step));
        assert_eq!(state.running.len(), 1);
        assert_eq!(state.running[0].prefill_chunks_left, 1);
        assert_eq!(state.reserved_pages, pages_for(4000 + 8));
    }

    #[test]
    fn chunked_admission_keeps_at_most_micro_batches_residents_prefilling() {
        // Two chunk slots per round. Of five requests arriving together,
        // the first round admits two: a third would make three residents
        // prefilling at once. Both of the round's chunks go to request 0,
        // which decodes its first token; request 1 still has both of its
        // chunks, so the next round admits one more, and so on.
        let engine = pipelined(2);
        let (plan, retry) = (FaultPlan::default(), RetryPolicy::default());
        let mut state = SchedulerState::new(&engine, &Fcfs, 64, &plan, &retry);
        for id in 0..5 {
            state.push(Request::new(id, 0.0, 512, 64));
        }
        let mut rounds = Vec::new();
        for _ in 0..3 {
            // A horizon a nanosecond past the clock runs exactly one round.
            state.step_until(to_s(state.now + 1));
            rounds.push(
                state
                    .running
                    .iter()
                    .map(|f| (f.req.id, f.prefill_chunks_left, f.generated))
                    .collect::<Vec<_>>(),
            );
        }
        // (id, chunks left, tokens generated) per resident, round by round.
        assert_eq!(
            rounds,
            [
                vec![(0, 0, 1), (1, 2, 0)],
                vec![(0, 0, 2), (1, 0, 1), (2, 2, 0)],
                vec![(0, 0, 3), (1, 0, 2), (2, 0, 1), (3, 2, 0)],
            ]
        );
        assert_eq!(state.finish().completions.len(), 5);
    }

    #[test]
    fn repaired_rank_reads_the_residents_pages_like_its_peers() {
        // Eight long requests arrive while rank 1 is down and are still
        // decoding after its repair: every rank, the repaired one too,
        // holds a slice of each resident's KV.
        let engine = ServingEngine::builder()
            .cluster(GpuCluster::tensor_parallel(Gpu::L40s, 2))
            .chunked_prefill(true)
            .build();
        let plan = FaultPlan::new().rank_fail(1.0, 1).rank_repair(2.0, 1);
        let retry = RetryPolicy::default();
        let mut state = SchedulerState::new(&engine, &Fcfs, 64, &plan, &retry);
        for id in 0..8 {
            state.push(Request::new(id, 1.0 + 0.01 * id as f64, 2048, 4096));
        }
        state.step_until(1.5);
        assert_eq!(state.kv_pressure(1), 1.0, "a dead rank repels routing");
        assert!(state.kv_pressure(0) > 0.0);
        for t in [2.5, 3.0] {
            state.step_until(t);
            let (p0, p1) = (state.kv_pressure(0), state.kv_pressure(1));
            assert!(p0 > 0.0, "residents hold pages at {t} s");
            assert_eq!(p1, p0, "repaired rank at {t} s");
            let held = state.running.len() as u64 * pages_for(2048 + 4096);
            assert_eq!(p0, held as f64 / engine.kv_shards().rank_pages(0) as f64);
        }
        assert_eq!(state.finish().completions.len(), 8);
    }

    #[test]
    fn fault_retry_recomputes_its_whole_prompt_without_a_prefix_lookup() {
        // A fault victim's recompute pays its whole prompt: the dead rank's
        // KV, cached prefixes included, is gone, so the retry must not look
        // its prefix up again.
        let engine = ServingEngine::builder()
            .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2))
            .micro_batches(1)
            .chunked_prefill(true)
            .prefix_caching(true)
            .build();
        let a = Request::new(0, 0.0, 1024, 8).with_shared_prefix(7, 512);
        // B arrives once A has finished, and hits the prefix A cached.
        let b_at = run_policy(&engine, &Fcfs, 64, vec![a]).duration_s + 1.0;
        let b = Request::new(1, b_at, 1024, 8).with_shared_prefix(7, 512);
        // Rank 1 fails while B is mid-prefill.
        let plan = FaultPlan::new()
            .rank_fail(b_at + 1e-6, 1)
            .rank_repair(b_at + 0.5, 1);
        let retry = RetryPolicy::default();
        let report = run_policy_faulted(&engine, &Fcfs, 64, vec![a, b], &plan, &retry);

        let retried = report.completions.iter().find(|c| c.id == 1);
        assert_eq!(retried.map(|c| c.retries), Some(1));
        assert_eq!(report.robustness.recomputed_tokens, 1024);
        let p = report.prefix;
        assert_eq!(
            (p.lookups, p.hits, p.misses, p.tokens_saved),
            (2, 1, 1, 512),
            "A misses, B hits once, B's retry does not look up"
        );
    }
}
