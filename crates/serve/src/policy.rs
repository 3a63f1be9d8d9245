//! Pluggable scheduling policies for the continuous-batching loop.
//!
//! The ROADMAP calls out "scheduler admits FCFS only; add priority/SLO-aware
//! policies and preemption". This module makes the policy a swappable axis of
//! the experiment instead of a constant baked into the simulator loop: the
//! [`SchedulePolicy`] trait decides admission order and preemption victims,
//! and the loop in [`crate::scheduler`] stays policy-agnostic.
//!
//! Four policies ship in-tree:
//!
//! * [`Fcfs`] — first-come-first-served, matching a straight-line FCFS
//!   oracle bit for bit;
//! * [`Priority`] — strict priority tiers with starvation aging;
//! * [`SloEdf`] — earliest-deadline-first against per-request TTFT SLOs;
//! * [`PreemptiveSjf`] — shortest-remaining-output-first with KV-cache-aware
//!   preemption (recompute or page out the victim's KV pages).

use crate::kvcache::PrefixVictim;
use crate::scheduler::Request;

/// A request may be preempted at most this many times; past the cap it is
/// pinned in the batch so victim churn cannot starve it indefinitely. The
/// in-tree preemptive policies never name a pinned victim; the scheduler
/// loop additionally refuses one as a backstop for custom policies.
pub const MAX_PREEMPTIONS: u32 = 4;

/// Request priority tier, ordered from least to most urgent.
///
/// Tiers are *strict* under the [`Priority`] policy: an `Interactive` request
/// is always admitted before a `Standard` one (modulo starvation aging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PriorityClass {
    /// Throughput-oriented background work (offline summarization, evals).
    Batch,
    /// The default tier for ordinary traffic.
    #[default]
    Standard,
    /// Latency-critical traffic (chat, agents): jumps every queue.
    Interactive,
}

impl PriorityClass {
    /// All tiers, least to most urgent.
    pub const ALL: [PriorityClass; 3] = [
        PriorityClass::Batch,
        PriorityClass::Standard,
        PriorityClass::Interactive,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Batch => "batch",
            PriorityClass::Standard => "standard",
            PriorityClass::Interactive => "interactive",
        }
    }

    /// Numeric rank (0 = least urgent). Used by aging arithmetic.
    pub fn rank(self) -> u8 {
        match self {
            PriorityClass::Batch => 0,
            PriorityClass::Standard => 1,
            PriorityClass::Interactive => 2,
        }
    }
}

impl core::fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A per-request latency service-level objective.
///
/// A completion meets its SLO when time-to-first-token stays under `ttft_s`
/// *and* the decode phase averages at most `tpot_s` per subsequent token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Time-to-first-token budget in seconds (queueing + prefill + first step).
    pub ttft_s: f64,
    /// Time-per-output-token budget in seconds for tokens after the first.
    pub tpot_s: f64,
}

impl Slo {
    /// Creates an SLO.
    ///
    /// # Panics
    ///
    /// Panics if either budget is not strictly positive.
    pub fn new(ttft_s: f64, tpot_s: f64) -> Self {
        assert!(ttft_s > 0.0 && tpot_s > 0.0, "SLO budgets must be positive");
        Slo { ttft_s, tpot_s }
    }

    /// The absolute first-token deadline for a request arriving at
    /// `arrival_s` — what [`SloEdf`] sorts by.
    pub fn deadline_s(&self, arrival_s: f64) -> f64 {
        arrival_s + self.ttft_s
    }
}

/// How a preempted request's KV pages are recovered on re-admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptionMode {
    /// Drop the victim's KV pages and re-run prefill over
    /// `prompt + generated` tokens when it is re-admitted (vLLM's
    /// recompute preemption). Costs compute, no host traffic.
    #[default]
    Recompute,
    /// Page the victim's KV out to host memory and back over PCIe
    /// (swap preemption). Costs two transfers of the KV footprint.
    PageOut,
}

/// A request waiting for admission (or re-admission after preemption).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// The request itself.
    pub req: Request,
    /// Tokens already generated before a preemption (0 for fresh requests).
    pub resume_generated: u64,
    /// How many times this request has been preempted so far.
    pub preemptions: u32,
    /// When the request was first admitted, if ever (survives
    /// preemption), on the scheduler's nanosecond clock.
    pub first_admitted_ns: Option<i64>,
    /// When the request produced its first token, if ever, in ns.
    pub first_token_ns: Option<i64>,
    /// Fault-driven re-queues so far (0 for fresh requests and plain
    /// preemption victims). Bounded by
    /// [`RetryPolicy::max_retries`](crate::fault::RetryPolicy).
    pub retries: u32,
    /// Earliest time the request may be re-admitted, in ns (retry
    /// backoff; 0 for anything but a fault victim, so fresh requests are
    /// always immediately eligible).
    pub not_before_ns: i64,
}

impl QueuedRequest {
    /// Wraps a fresh arrival.
    pub fn fresh(req: Request) -> Self {
        QueuedRequest {
            req,
            resume_generated: 0,
            preemptions: 0,
            first_admitted_ns: None,
            first_token_ns: None,
            retries: 0,
            not_before_ns: 0,
        }
    }

    /// Output tokens still to generate.
    pub fn remaining_output(&self) -> u64 {
        self.req.output_len.saturating_sub(self.resume_generated)
    }

    /// KV tokens this request will hold immediately after (re-)admission.
    pub fn kv_tokens_on_admit(&self) -> u64 {
        self.req.prompt_len + self.resume_generated
    }
}

/// A request currently in the decode batch, as seen by policies. Its
/// times are on the scheduler's integer clock, in nanoseconds (see
/// [`to_ns`](crate::scheduler::to_ns)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningRequest {
    /// The request itself.
    pub req: Request,
    /// When this (re-)admission happened, in ns.
    pub admitted_ns: i64,
    /// Output tokens generated so far (across preemptions).
    pub generated: u64,
    /// How many times this request has been preempted so far.
    pub preemptions: u32,
    /// When the request was first admitted, in ns.
    pub first_admitted_ns: i64,
    /// When the request produced its first token, if it has, in ns.
    pub first_token_ns: Option<i64>,
    /// Fault-driven re-queues this request has survived so far.
    pub retries: u32,
    /// Per-stage prefill chunks still to run before this request joins the
    /// decode batch. Always 0 under the legacy whole-prefill admission;
    /// under chunked prefill (`pp ≥ 2` streaming admission) a freshly
    /// admitted request enters at `pp` chunks and counts down as the
    /// scheduler advances chunks between decode steps — policies can
    /// distinguish mid-prefill residents ([`RunningRequest::is_prefilling`])
    /// from decode-ready ones when picking victims.
    pub prefill_chunks_left: u32,
    /// The fresh prefill's whole cost in ns (degraded-compute slowdown
    /// included), set at admission. Each chunk charges an equal share of
    /// it and the last chunk the remainder too, so the chunks sum to it
    /// exactly. 0 under whole-prefill admission.
    pub prefill_ns: i64,
}

impl RunningRequest {
    /// Output tokens still to generate.
    pub fn remaining_output(&self) -> u64 {
        self.req.output_len.saturating_sub(self.generated)
    }

    /// KV tokens currently held (prompt + generated context).
    pub fn kv_tokens(&self) -> u64 {
        self.req.prompt_len + self.generated
    }

    /// Whether this resident is still streaming prefill chunks (chunked
    /// prefill only; always `false` under legacy whole-prefill admission).
    pub fn is_prefilling(&self) -> bool {
        self.prefill_chunks_left > 0
    }
}

/// An admission/preemption policy for the continuous-batching loop.
///
/// The loop hands the policy the *arrived* queue (every entry's
/// `req.arrival_s <= now`) and the running batch; the policy answers two
/// questions: who is admitted next, and who (if anyone) is evicted to make
/// room. All methods take `&self` — policies are stateless between calls and
/// derive any aging/deadline state from the views and `now`, which keeps
/// them trivially shareable and replayable.
pub trait SchedulePolicy: core::fmt::Debug + Send + Sync {
    /// Short machine-readable name, used in reports and figures.
    fn name(&self) -> &'static str;

    /// Index into `queued` of the next request to admit, or `None` to hold
    /// admission this round. Every entry of `queued` has already arrived,
    /// and the slice is ordered by arrival time (stable: ties keep
    /// submission order, preempted requests re-enter by original arrival).
    fn select(
        &self,
        queued: &[QueuedRequest],
        running: &[RunningRequest],
        now: f64,
    ) -> Option<usize>;

    /// Index into `running` of a victim to preempt so `candidate` can fit,
    /// or `None` to refuse preemption (the default).
    fn victim(
        &self,
        candidate: &QueuedRequest,
        running: &[RunningRequest],
        now: f64,
    ) -> Option<usize> {
        let _ = (candidate, running, now);
        None
    }

    /// How this policy recovers a preempted request's KV pages.
    fn preemption_mode(&self) -> PreemptionMode {
        PreemptionMode::Recompute
    }

    /// Which cached prefix the
    /// [`PrefixRegistry`](crate::kvcache::PrefixRegistry) evicts under
    /// pressure — the scheduling policy's answer to "which victim" for
    /// page reclamation. The conservative default never disturbs prefixes
    /// pinned by live forks; work-conserving policies (SJF) may prefer
    /// reclaiming any LRU entry.
    fn prefix_victim(&self) -> PrefixVictim {
        PrefixVictim::ColdPrefix
    }

    /// Clones the policy behind a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn SchedulePolicy>;
}

impl Clone for Box<dyn SchedulePolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// First-come-first-served admission, no preemption.
///
/// Under this policy the generic loop matches a straight-line FCFS oracle
/// *bit for bit* (verified by the `schedule_policies` proptest suite): the
/// head of the arrival-ordered queue is the only admission candidate —
/// including ties, which keep the stable-sort submission order — so a head
/// request that does not fit blocks everything behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fcfs;

impl SchedulePolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn select(
        &self,
        queued: &[QueuedRequest],
        _running: &[RunningRequest],
        _now: f64,
    ) -> Option<usize> {
        // `queued` is arrival-ordered, so the head IS the FCFS choice.
        if queued.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(*self)
    }
}

/// Strict priority tiers with starvation aging and optional preemption.
///
/// Admission picks the queued request with the highest *effective* tier —
/// the request's own [`PriorityClass`] promoted one rank per `aging_s`
/// seconds of waiting, so a starving `Batch` request eventually competes
/// with `Interactive` traffic. Within a tier, preempted victims get resume
/// priority over fresh arrivals (they hold sunk prefill work); remaining
/// ties fall back to FCFS. With `preemptive`
/// set, an `Interactive` candidate that cannot fit may evict the running
/// request with the lowest raw tier (ties: the one holding the most KV,
/// so one eviction frees the most pages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priority {
    /// Seconds of queueing that promote a request by one tier.
    pub aging_s: f64,
    /// Whether a strictly higher-tier candidate may evict a lower-tier
    /// running request when KV capacity blocks admission.
    pub preemptive: bool,
}

impl Default for Priority {
    fn default() -> Self {
        Priority {
            aging_s: 30.0,
            preemptive: true,
        }
    }
}

impl Priority {
    /// Effective rank after aging: raw rank + one per `aging_s` waited,
    /// saturating at the top tier.
    fn effective_rank(&self, q: &QueuedRequest, now: f64) -> u8 {
        let waited = (now - q.req.arrival_s).max(0.0);
        let bump = if self.aging_s > 0.0 {
            (waited / self.aging_s) as u8
        } else {
            0
        };
        q.req
            .priority
            .rank()
            .saturating_add(bump)
            .min(PriorityClass::Interactive.rank())
    }
}

impl SchedulePolicy for Priority {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn select(
        &self,
        queued: &[QueuedRequest],
        _running: &[RunningRequest],
        now: f64,
    ) -> Option<usize> {
        queued
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                self.effective_rank(a, now)
                    .cmp(&self.effective_rank(b, now))
                    // Resume priority: within a tier, a preempted victim
                    // (who already holds sunk prefill work) beats fresh
                    // arrivals.
                    .then((a.preemptions > 0).cmp(&(b.preemptions > 0)))
                    // Lower arrival wins a tie, so compare reversed.
                    .then(
                        b.req
                            .arrival_s
                            .partial_cmp(&a.req.arrival_s)
                            .expect("finite arrival"),
                    )
                    .then(b.req.id.cmp(&a.req.id))
            })
            .map(|(i, _)| i)
    }

    fn victim(
        &self,
        candidate: &QueuedRequest,
        running: &[RunningRequest],
        _now: f64,
    ) -> Option<usize> {
        if !self.preemptive {
            return None;
        }
        // Only a strictly higher raw tier may evict; aging promotes
        // admission order but never steals someone else's KV pages. Victims
        // already at the preemption cap are pinned and skipped, so one
        // pinned request cannot veto evicting the rest.
        let cand_rank = candidate.req.priority.rank();
        running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.req.priority.rank() < cand_rank && r.preemptions < MAX_PREEMPTIONS)
            .min_by(|(_, a), (_, b)| {
                a.req
                    .priority
                    .rank()
                    .cmp(&b.req.priority.rank())
                    .then(b.kv_tokens().cmp(&a.kv_tokens()))
            })
            .map(|(i, _)| i)
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(*self)
    }
}

/// Earliest-deadline-first admission against per-request TTFT SLOs.
///
/// Each queued request's deadline is `arrival + slo.ttft_s`; requests
/// without an SLO get `default_ttft_s` as their budget so they still sort
/// deterministically. No preemption: EDF only reorders admission, which is
/// the classic result for meeting deadlines when the system is feasible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloEdf {
    /// TTFT budget assumed for requests that carry no [`Slo`].
    pub default_ttft_s: f64,
}

impl Default for SloEdf {
    fn default() -> Self {
        SloEdf {
            default_ttft_s: 10.0,
        }
    }
}

impl SloEdf {
    fn deadline(&self, q: &QueuedRequest) -> f64 {
        match q.req.slo {
            Some(slo) => slo.deadline_s(q.req.arrival_s),
            None => q.req.arrival_s + self.default_ttft_s,
        }
    }
}

impl SchedulePolicy for SloEdf {
    fn name(&self) -> &'static str {
        "slo-edf"
    }

    fn select(
        &self,
        queued: &[QueuedRequest],
        _running: &[RunningRequest],
        _now: f64,
    ) -> Option<usize> {
        queued
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                self.deadline(a)
                    .partial_cmp(&self.deadline(b))
                    .expect("finite deadline")
                    .then(
                        a.req
                            .arrival_s
                            .partial_cmp(&b.req.arrival_s)
                            .expect("finite arrival"),
                    )
                    .then(a.req.id.cmp(&b.req.id))
            })
            .map(|(i, _)| i)
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(*self)
    }
}

/// Shortest-remaining-output-first with KV-cache-aware preemption.
///
/// Admission gives *resume priority* to preempted victims — a victim
/// re-enters the batch before any fresh arrival, so a long job evicted
/// once cannot starve behind an endless stream of short fresh jobs (the
/// classic SJF pathology; pinned by the `preempted_victim_resumes_before_
/// fresh_arrivals` regression). Among victims, and then among fresh
/// arrivals, the fewest output tokens still to generate wins
/// (resume-aware, so a preempted request near completion sorts ahead of a
/// fresh long job). When the candidate cannot fit, the running request
/// with the *most* remaining output is evicted — but only if it has
/// strictly more remaining work than the candidate, which bounds thrash:
/// every preemption strictly reduces the remaining work of the admitted
/// side. The victim's KV pages are recovered per [`PreemptionMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreemptiveSjf {
    /// How victims' KV pages are recovered (recompute vs PCIe page-out).
    pub mode: PreemptionMode,
}

impl SchedulePolicy for PreemptiveSjf {
    fn name(&self) -> &'static str {
        match self.mode {
            PreemptionMode::Recompute => "preemptive-sjf",
            PreemptionMode::PageOut => "preemptive-sjf-pageout",
        }
    }

    fn select(
        &self,
        queued: &[QueuedRequest],
        _running: &[RunningRequest],
        _now: f64,
    ) -> Option<usize> {
        queued
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                // Resume priority first: preempted victims re-enter before
                // any fresh arrival (false sorts before true).
                (a.preemptions == 0)
                    .cmp(&(b.preemptions == 0))
                    .then(a.remaining_output().cmp(&b.remaining_output()))
                    .then(
                        a.req
                            .arrival_s
                            .partial_cmp(&b.req.arrival_s)
                            .expect("finite arrival"),
                    )
                    .then(a.req.id.cmp(&b.req.id))
            })
            .map(|(i, _)| i)
    }

    fn victim(
        &self,
        candidate: &QueuedRequest,
        running: &[RunningRequest],
        _now: f64,
    ) -> Option<usize> {
        // Pinned victims (at the preemption cap) are skipped rather than
        // letting one pinned long job veto all preemption.
        let cand_remaining = candidate.remaining_output();
        running
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.remaining_output() > cand_remaining && r.preemptions < MAX_PREEMPTIONS
            })
            .max_by(|(_, a), (_, b)| {
                a.remaining_output()
                    .cmp(&b.remaining_output())
                    .then(a.kv_tokens().cmp(&b.kv_tokens()))
            })
            .map(|(i, _)| i)
    }

    fn preemption_mode(&self) -> PreemptionMode {
        self.mode
    }

    fn prefix_victim(&self) -> PrefixVictim {
        // SJF already trades sunk work for throughput; its registry
        // reclaims whichever prefix is stalest, pinned or not.
        PrefixVictim::ActiveSequence
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64, arrival: f64, out: u64, prio: PriorityClass) -> QueuedRequest {
        QueuedRequest::fresh(Request::new(id, arrival, 128, out).with_priority(prio))
    }

    #[test]
    fn fcfs_picks_the_queue_head() {
        // The loop hands `select` an arrival-ordered queue; FCFS is its head
        // regardless of priority, and holds only on an empty queue.
        let queued = [
            q(2, 1.0, 64, PriorityClass::Batch),
            q(1, 2.0, 64, PriorityClass::Interactive),
        ];
        assert_eq!(Fcfs.select(&queued, &[], 3.0), Some(0));
        assert_eq!(Fcfs.select(&[], &[], 3.0), None);
    }

    #[test]
    fn priority_prefers_higher_tier_then_ages() {
        let p = Priority {
            aging_s: 10.0,
            preemptive: false,
        };
        let queued = [
            q(1, 0.0, 64, PriorityClass::Batch),
            q(2, 5.0, 64, PriorityClass::Standard),
        ];
        // At t=6 the standard request outranks the un-aged batch one.
        assert_eq!(p.select(&queued, &[], 6.0), Some(1));
        // By t=25 the batch request has aged past standard (rank 0+2 > 1+2
        // is capped, but tie then falls to earlier arrival).
        assert_eq!(p.select(&queued, &[], 25.0), Some(0));
    }

    #[test]
    fn edf_sorts_by_deadline() {
        let edf = SloEdf::default();
        let mut a = q(1, 0.0, 64, PriorityClass::Standard);
        a.req = a.req.with_slo(Slo::new(8.0, 0.2));
        let mut b = q(2, 1.0, 64, PriorityClass::Standard);
        b.req = b.req.with_slo(Slo::new(2.0, 0.2));
        // b's deadline (3.0) beats a's (8.0) despite arriving later.
        assert_eq!(edf.select(&[a, b], &[], 1.5), Some(1));
    }

    #[test]
    fn resumed_victims_outrank_fresh_arrivals() {
        // SJF: a preempted victim with 100 tokens left beats a fresh job
        // with 8 — remaining-output order alone would starve the victim
        // behind an endless stream of short arrivals.
        let sjf = PreemptiveSjf::default();
        let mut victim = q(1, 0.0, 128, PriorityClass::Interactive);
        victim.resume_generated = 28; // remaining 100
        victim.preemptions = 1;
        let fresh = q(2, 5.0, 8, PriorityClass::Batch);
        assert_eq!(sjf.select(&[victim, fresh], &[], 6.0), Some(0));
        // Without the preemption marker the short job wins as before.
        let long = q(1, 0.0, 128, PriorityClass::Interactive);
        assert_eq!(sjf.select(&[long, fresh], &[], 6.0), Some(1));

        // Priority: resume priority breaks ties *within* a tier but never
        // inverts tiers.
        let p = Priority {
            aging_s: 1e9,
            preemptive: true,
        };
        let mut std_victim = q(3, 0.0, 64, PriorityClass::Standard);
        std_victim.preemptions = 1;
        let std_fresh = q(4, 0.0, 64, PriorityClass::Standard);
        let interactive = q(5, 9.0, 64, PriorityClass::Interactive);
        assert_eq!(
            p.select(&[std_victim, std_fresh], &[], 10.0),
            Some(0),
            "same tier: victim first"
        );
        assert_eq!(
            p.select(&[std_victim, interactive], &[], 10.0),
            Some(1),
            "higher tier still wins over a resumed lower tier"
        );
    }

    #[test]
    fn sjf_victim_must_have_strictly_more_remaining() {
        let sjf = PreemptiveSjf::default();
        let cand = q(9, 0.0, 32, PriorityClass::Standard);
        let running = [RunningRequest {
            req: Request::new(1, 0.0, 128, 32),
            admitted_ns: 0,
            generated: 0,
            preemptions: 0,
            first_admitted_ns: 0,
            first_token_ns: None,
            retries: 0,
            prefill_chunks_left: 0,
            prefill_ns: 0,
        }];
        // Equal remaining output: no preemption.
        assert_eq!(sjf.victim(&cand, &running, 1.0), None);
        let long = [RunningRequest {
            req: Request::new(1, 0.0, 128, 512),
            ..running[0]
        }];
        assert_eq!(sjf.victim(&cand, &long, 1.0), Some(0));
    }
}
