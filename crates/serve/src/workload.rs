//! Serving workloads: static batches of generation requests (§6.5 setup)
//! and mixed-priority online arrival generators for the scheduling-policy
//! experiments.

use crate::policy::{PriorityClass, Slo};
use crate::scheduler::Request;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One batch workload: `batch` requests with a shared prompt and output
/// length — the benchmarking setup of §6.5 (batch 8/32, outputs 128–2048).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// Concurrent requests.
    pub batch: u64,
    /// Prompt tokens per request.
    pub prompt_len: u64,
    /// Output tokens to generate per request.
    pub output_len: u64,
}

impl Workload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn new(batch: u64, prompt_len: u64, output_len: u64) -> Self {
        assert!(
            batch > 0 && prompt_len > 0 && output_len > 0,
            "workload dimensions must be nonzero"
        );
        Workload {
            batch,
            prompt_len,
            output_len,
        }
    }

    /// The §6.5 sweep: batch {8, 32} × output {128, 256, 512, 1024, 2048}
    /// with a 512-token prompt.
    pub fn paper_sweep() -> Vec<Workload> {
        let mut out = Vec::new();
        for batch in [8u64, 32] {
            for output in [128u64, 256, 512, 1024, 2048] {
                out.push(Workload::new(batch, 512, output));
            }
        }
        out
    }

    /// Total output tokens produced by the whole batch.
    pub fn total_output_tokens(&self) -> u64 {
        self.batch * self.output_len
    }

    /// Maximum context length reached (prompt + full output).
    pub fn max_context(&self) -> u64 {
        self.prompt_len + self.output_len
    }

    /// Peak KV tokens held by the batch.
    pub fn peak_kv_tokens(&self) -> u64 {
        self.batch * self.max_context()
    }
}

/// One class of traffic within an [`ArrivalMix`]: a sampling weight plus
/// the request shape and QoS every request of the class carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficClass {
    /// Relative sampling weight (normalized over the mix).
    pub share: f64,
    /// Prompt tokens per request.
    pub prompt_len: u64,
    /// Output tokens per request.
    pub output_len: u64,
    /// Priority tier.
    pub priority: PriorityClass,
    /// Latency SLO, if the class has one.
    pub slo: Option<Slo>,
    /// Distinct tenants this class's traffic is spread across. `0` is
    /// legacy tenant-less traffic: no tenant id, no session structure,
    /// and exactly the historical two RNG draws per request — the
    /// bit-compat path [`ArrivalMix::paper_mix`] stays on.
    pub tenants: u64,
    /// Tokens of the tenant's shared system prompt at the head of every
    /// fresh prompt (clamped so at least one prompt token stays unique).
    /// Requests of one tenant share one prefix hash, so a prefix cache
    /// forks the pool copy instead of re-prefilling it.
    pub shared_prefix_len: u64,
    /// Probability that a tenant's next request continues its live
    /// conversation — prompt = accumulated context + a fresh turn, with
    /// the context declared as the shared prefix — instead of opening a
    /// new one. `0.0` disables sessions (and the extra RNG draw).
    pub followup_share: f64,
    /// Parallel-sampling fan-out: each arrival of the class emits this
    /// many requests at the same instant sharing one full-prompt prefix
    /// (one prefill, N − 1 decode-only forks). `1` means no fan-out.
    pub parallel_samples: u32,
}

impl Default for TrafficClass {
    /// A neutral standard-tier class (legacy tenant-less shape) — the
    /// base for functional-update literals in mix constructors.
    fn default() -> Self {
        TrafficClass {
            share: 1.0,
            prompt_len: 512,
            output_len: 128,
            priority: PriorityClass::Standard,
            slo: None,
            tenants: 0,
            shared_prefix_len: 0,
            followup_share: 0.0,
            parallel_samples: 1,
        }
    }
}

/// A mixed-priority online workload: Poisson arrivals whose class (shape,
/// priority, SLO) is sampled per request — the traffic model the
/// scheduling-policy comparisons (`fig_sched` bench, burst scenarios) run
/// on, where [`crate::policy`]'s non-FCFS policies differentiate.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalMix {
    /// The classes requests are drawn from.
    pub classes: Vec<TrafficClass>,
}

impl ArrivalMix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or any share is not strictly positive.
    pub fn new(classes: Vec<TrafficClass>) -> Self {
        assert!(!classes.is_empty(), "mix needs at least one class");
        assert!(
            classes.iter().all(|c| c.share > 0.0),
            "class shares must be positive"
        );
        ArrivalMix { classes }
    }

    /// The paper-style serving mix used by the policy experiments:
    /// 50% interactive chat (512/128, tight TTFT), 30% standard API
    /// traffic (1024/256, relaxed SLO), 20% batch summarization
    /// (2048/512, no SLO).
    pub fn paper_mix() -> Self {
        ArrivalMix::new(vec![
            TrafficClass {
                share: 0.5,
                prompt_len: 512,
                output_len: 128,
                priority: PriorityClass::Interactive,
                slo: Some(Slo::new(2.0, 0.1)),
                ..TrafficClass::default()
            },
            TrafficClass {
                share: 0.3,
                prompt_len: 1024,
                output_len: 256,
                priority: PriorityClass::Standard,
                slo: Some(Slo::new(5.0, 0.25)),
                ..TrafficClass::default()
            },
            TrafficClass {
                share: 0.2,
                prompt_len: 2048,
                output_len: 512,
                priority: PriorityClass::Batch,
                slo: None,
                ..TrafficClass::default()
            },
        ])
    }

    /// The multi-tenant companion to [`ArrivalMix::paper_mix`]: the same
    /// three-tier shape, but every class carries tenant identity and
    /// session structure so shared-prefix caching has something to hit —
    /// tenant chat with a shared system prompt and conversational
    /// follow-ups, API traffic stamped from big per-tenant templates, and
    /// batch parallel sampling fanning four candidates off one prefill.
    pub fn multi_tenant_mix() -> Self {
        ArrivalMix::new(vec![
            TrafficClass {
                share: 0.45,
                prompt_len: 512,
                output_len: 128,
                priority: PriorityClass::Interactive,
                slo: Some(Slo::new(2.0, 0.1)),
                tenants: 8,
                shared_prefix_len: 384,
                followup_share: 0.5,
                ..TrafficClass::default()
            },
            TrafficClass {
                share: 0.35,
                prompt_len: 1024,
                output_len: 256,
                priority: PriorityClass::Standard,
                slo: Some(Slo::new(5.0, 0.25)),
                tenants: 4,
                shared_prefix_len: 768,
                ..TrafficClass::default()
            },
            TrafficClass {
                share: 0.2,
                prompt_len: 2048,
                output_len: 512,
                priority: PriorityClass::Batch,
                slo: None,
                tenants: 2,
                parallel_samples: 4,
                ..TrafficClass::default()
            },
        ])
    }

    /// Generates `count` Poisson arrivals at `rate_per_s`, sampling each
    /// request's class by share. Deterministic in `seed` (same xorshift
    /// generator as [`crate::scheduler::poisson_arrivals`]).
    ///
    /// Tenant-less classes (`tenants == 0`) consume exactly the two
    /// historical draws per request — inter-arrival gap, then class pick —
    /// so mixes like [`ArrivalMix::paper_mix`] reproduce their pre-tenant
    /// streams bit-for-bit. Tenant classes draw extras strictly *after*
    /// the class pick (tenant choice, then the follow-up decision when
    /// `followup_share > 0`), leaving the legacy prefix of the stream
    /// untouched. A parallel-sampling class emits its whole fan-out group
    /// at one arrival instant, all sharing one full-prompt prefix hash.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_s` is not strictly positive.
    pub fn generate(&self, rate_per_s: f64, count: usize, seed: u64) -> Vec<Request> {
        assert!(rate_per_s > 0.0, "rate must be positive");
        let total_share: f64 = self.classes.iter().map(|c| c.share).sum();
        let mut uniform = crate::scheduler::UniformStream::new(seed);
        let mut t = 0.0;
        let mut sessions: HashMap<(usize, u64), Session> = HashMap::new();
        let mut out: Vec<Request> = Vec::with_capacity(count);
        while out.len() < count {
            t += -uniform.next().ln() / rate_per_s;
            let mut pick = uniform.next() * total_share;
            let mut class_idx = self.classes.len() - 1;
            for (i, c) in self.classes.iter().enumerate() {
                if pick < c.share {
                    class_idx = i;
                    break;
                }
                pick -= c.share;
            }
            let class = self.classes[class_idx];
            let build = |id: u64, t: f64, prompt: u64| {
                let mut req =
                    Request::new(id, t, prompt, class.output_len).with_priority(class.priority);
                if let Some(slo) = class.slo {
                    req = req.with_slo(slo);
                }
                req
            };
            if class.tenants == 0 {
                // Legacy tenant-less emit: exactly the historical stream.
                out.push(build(out.len() as u64, t, class.prompt_len));
                continue;
            }
            let tenant = ((uniform.next() * class.tenants as f64) as u64).min(class.tenants - 1);
            let tenant_id = ((class_idx as u64) << 32) | tenant;
            let followup = class.followup_share > 0.0 && uniform.next() < class.followup_share;
            let key = (class_idx, tenant);
            if followup {
                if let Some(s) = sessions.get_mut(&key) {
                    // Continue the live conversation: the accumulated
                    // context is the shared prefix, one fresh turn follows.
                    let prompt = s.ctx + class.prompt_len;
                    let req = build(out.len() as u64, t, prompt)
                        .with_tenant(tenant_id)
                        .with_shared_prefix(s.hash, s.ctx);
                    s.ctx = prompt + class.output_len;
                    out.push(req);
                    continue;
                }
            }
            if class.parallel_samples > 1 {
                // One prefill, N sampled continuations: the whole group
                // lands at the same instant under one full-prompt hash.
                let group_hash =
                    nonzero_hash(mix64(mix64(tenant_id ^ GROUP_SALT) ^ out.len() as u64));
                for _ in 0..class.parallel_samples {
                    if out.len() >= count {
                        break;
                    }
                    let req = build(out.len() as u64, t, class.prompt_len)
                        .with_tenant(tenant_id)
                        .with_shared_prefix(group_hash, class.prompt_len);
                    out.push(req);
                }
                continue;
            }
            let id = out.len() as u64;
            let mut req = build(id, t, class.prompt_len).with_tenant(tenant_id);
            if class.shared_prefix_len > 0 {
                // Fresh prompt stamped from the tenant's system-prompt
                // pool; at least one trailing token stays unique.
                let len = class
                    .shared_prefix_len
                    .min(class.prompt_len.saturating_sub(1));
                req = req.with_shared_prefix(nonzero_hash(mix64(tenant_id ^ POOL_SALT)), len);
            }
            if class.followup_share > 0.0 {
                // A fresh request opens a new conversation instance that
                // later follow-up draws extend.
                sessions.insert(
                    key,
                    Session {
                        hash: nonzero_hash(mix64(mix64(tenant_id ^ SESSION_SALT) ^ id)),
                        ctx: class.prompt_len + class.output_len,
                    },
                );
            }
            out.push(req);
        }
        out
    }
}

/// One tenant's live conversation: the prefix hash its follow-ups declare
/// and the context (prompt + generated tokens) accumulated so far.
struct Session {
    hash: u64,
    ctx: u64,
}

const POOL_SALT: u64 = 0x706f_6f6c;
const SESSION_SALT: u64 = 0x7365_7373;
const GROUP_SALT: u64 = 0x6772_7570;

/// SplitMix64 finalizer — the same mixer the fleet router uses to spread
/// tenant keys across replicas.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Prefix hash 0 means "no shared prefix" on [`Request`]; remap the one
/// colliding mixer output.
fn nonzero_hash(h: u64) -> u64 {
    h.max(1)
}

/// Deterministic trace replay: serializes a request stream to a minimal
/// line-based text format and reads it back bit-identically, so a
/// generated workload can be captured once and re-run (or shipped to
/// another machine) without carrying the generator or its seed.
///
/// The format is one `key=value` record per line after a version header:
///
/// ```text
/// # zipserv-trace v1
/// id=0 t=0.41524105 prompt=512 output=128 class=interactive slo=2,0.1 tenant=17 prefix=9e3779b9:384
/// ```
///
/// `id`, `t`, `prompt`, and `output` are required; `class` defaults to
/// `standard`; `slo`, `tenant`, and `prefix` (hash in hex, then the
/// shared length) are omitted when absent. Floats print in Rust's
/// shortest-round-trip form, so [`Trace::replay`] reparses them to the
/// exact bits [`Trace::record`] saw — round-tripping is pinned by a
/// property test.
#[derive(Debug)]
pub struct Trace;

/// A malformed trace line: 1-based line number plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// The version header every trace starts with.
    pub const HEADER: &'static str = "# zipserv-trace v1";

    /// Serializes a request stream to the trace text format.
    pub fn record(reqs: &[Request]) -> String {
        let mut out = String::with_capacity(reqs.len() * 64 + 32);
        out.push_str(Self::HEADER);
        out.push('\n');
        for r in reqs {
            let _ = write!(
                out,
                "id={} t={} prompt={} output={} class={}",
                r.id,
                r.arrival_s,
                r.prompt_len,
                r.output_len,
                r.priority.name()
            );
            if let Some(slo) = r.slo {
                let _ = write!(out, " slo={},{}", slo.ttft_s, slo.tpot_s);
            }
            if let Some(tenant) = r.tenant {
                let _ = write!(out, " tenant={tenant}");
            }
            if r.prefix_hash != 0 {
                let _ = write!(out, " prefix={:x}:{}", r.prefix_hash, r.prefix_len);
            }
            out.push('\n');
        }
        out
    }

    /// Parses a trace back into the request stream [`Trace::record`]
    /// serialized, bit-identically. Blank lines and `#` comments after
    /// the header are skipped.
    pub fn replay(text: &str) -> Result<Vec<Request>, TraceError> {
        let err = |line: usize, msg: String| TraceError { line, msg };
        let mut lines = text.lines().enumerate();
        let header = lines.next().ok_or_else(|| err(1, "empty trace".into()))?;
        if header.1.trim() != Self::HEADER {
            return Err(err(1, format!("expected header {:?}", Self::HEADER)));
        }
        let mut out = Vec::new();
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut id = None;
            let mut t = None;
            let mut prompt = None;
            let mut output = None;
            let mut class = PriorityClass::Standard;
            let mut slo = None;
            let mut tenant = None;
            let mut prefix = None;
            for field in line.split_whitespace() {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| err(line_no, format!("field {field:?} is not key=value")))?;
                let bad = |what: &str| err(line_no, format!("bad {what} {value:?}"));
                match key {
                    "id" => id = Some(value.parse::<u64>().map_err(|_| bad("id"))?),
                    "t" => t = Some(value.parse::<f64>().map_err(|_| bad("t"))?),
                    "prompt" => prompt = Some(value.parse::<u64>().map_err(|_| bad("prompt"))?),
                    "output" => output = Some(value.parse::<u64>().map_err(|_| bad("output"))?),
                    "class" => {
                        class = PriorityClass::ALL
                            .into_iter()
                            .find(|c| c.name() == value)
                            .ok_or_else(|| bad("class"))?;
                    }
                    "slo" => {
                        let (ttft, tpot) = value.split_once(',').ok_or_else(|| bad("slo"))?;
                        let ttft = ttft.parse::<f64>().map_err(|_| bad("slo"))?;
                        let tpot = tpot.parse::<f64>().map_err(|_| bad("slo"))?;
                        if !(ttft > 0.0 && tpot > 0.0) {
                            return Err(bad("slo"));
                        }
                        slo = Some(Slo::new(ttft, tpot));
                    }
                    "tenant" => tenant = Some(value.parse::<u64>().map_err(|_| bad("tenant"))?),
                    "prefix" => {
                        let (hash, len) = value.split_once(':').ok_or_else(|| bad("prefix"))?;
                        let hash = u64::from_str_radix(hash, 16).map_err(|_| bad("prefix"))?;
                        let len = len.parse::<u64>().map_err(|_| bad("prefix"))?;
                        prefix = Some((hash, len));
                    }
                    _ => return Err(err(line_no, format!("unknown key {key:?}"))),
                }
            }
            let miss = |what: &str| err(line_no, format!("missing {what}"));
            let mut req = Request::new(
                id.ok_or_else(|| miss("id"))?,
                t.ok_or_else(|| miss("t"))?,
                prompt.ok_or_else(|| miss("prompt"))?,
                output.ok_or_else(|| miss("output"))?,
            )
            .with_priority(class);
            if let Some(slo) = slo {
                req = req.with_slo(slo);
            }
            if let Some(tenant) = tenant {
                req = req.with_tenant(tenant);
            }
            if let Some((hash, len)) = prefix {
                req = req.with_shared_prefix(hash, len);
            }
            out.push(req);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let w = Workload::new(32, 512, 2048);
        assert_eq!(w.total_output_tokens(), 65_536);
        assert_eq!(w.max_context(), 2560);
        assert_eq!(w.peak_kv_tokens(), 81_920);
    }

    #[test]
    fn paper_sweep_covers_ten_points() {
        let sweep = Workload::paper_sweep();
        assert_eq!(sweep.len(), 10);
        assert!(sweep.iter().all(|w| w.prompt_len == 512));
        assert!(sweep.iter().any(|w| w.batch == 8 && w.output_len == 2048));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_batch_rejected() {
        let _ = Workload::new(0, 1, 1);
    }

    #[test]
    fn paper_mix_samples_all_classes_by_share() {
        let mix = ArrivalMix::paper_mix();
        let reqs = mix.generate(8.0, 600, 19);
        assert_eq!(reqs.len(), 600);
        for w in reqs.windows(2) {
            assert!(w[1].arrival_s > w[0].arrival_s, "arrivals sorted");
        }
        let count = |p: PriorityClass| reqs.iter().filter(|r| r.priority == p).count();
        let interactive = count(PriorityClass::Interactive);
        let standard = count(PriorityClass::Standard);
        let batch = count(PriorityClass::Batch);
        assert_eq!(interactive + standard + batch, 600);
        // Shares within a loose band of 0.5 / 0.3 / 0.2.
        assert!(
            (interactive as f64 / 600.0 - 0.5).abs() < 0.1,
            "{interactive}"
        );
        assert!((standard as f64 / 600.0 - 0.3).abs() < 0.1, "{standard}");
        assert!((batch as f64 / 600.0 - 0.2).abs() < 0.1, "{batch}");
        // QoS rides along with the class.
        assert!(reqs
            .iter()
            .filter(|r| r.priority == PriorityClass::Interactive)
            .all(|r| r.slo == Some(Slo::new(2.0, 0.1)) && r.prompt_len == 512));
        assert!(reqs
            .iter()
            .filter(|r| r.priority == PriorityClass::Batch)
            .all(|r| r.slo.is_none() && r.output_len == 512));
    }

    #[test]
    fn mix_generation_is_deterministic() {
        let mix = ArrivalMix::paper_mix();
        assert_eq!(mix.generate(4.0, 50, 7), mix.generate(4.0, 50, 7));
        assert_ne!(mix.generate(4.0, 50, 7), mix.generate(4.0, 50, 8));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mix_rejected() {
        let _ = ArrivalMix::new(Vec::new());
    }

    #[test]
    fn paper_mix_stays_tenant_less() {
        // The legacy mix takes the legacy path: no tenant ids, no prefix
        // declarations — the stream the bit-compat digests pin.
        for r in ArrivalMix::paper_mix().generate(8.0, 200, 11) {
            assert_eq!(r.tenant, None);
            assert_eq!(r.prefix_hash, 0);
            assert_eq!(r.prefix_len, 0);
        }
    }

    #[test]
    fn multi_tenant_mix_declares_prefixes_and_tenants() {
        let reqs = ArrivalMix::multi_tenant_mix().generate(8.0, 400, 23);
        assert_eq!(reqs.len(), 400);
        for w in reqs.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s, "arrivals sorted");
        }
        assert!(reqs.iter().all(|r| r.tenant.is_some()));
        assert!(
            reqs.iter().any(|r| r.prefix_hash != 0 && r.prefix_len > 0),
            "nobody declared a shared prefix"
        );
        // Same tenant's fresh interactive prompts share one pool hash.
        let chat: Vec<&Request> = reqs
            .iter()
            .filter(|r| {
                r.priority == PriorityClass::Interactive && r.prompt_len == 512 && r.prefix_len > 0
            })
            .collect();
        assert!(
            chat.len() > 10,
            "too few fresh chat requests: {}",
            chat.len()
        );
        let mut by_tenant: HashMap<u64, u64> = HashMap::new();
        for r in &chat {
            let hash = by_tenant.entry(r.tenant.unwrap()).or_insert(r.prefix_hash);
            assert_eq!(*hash, r.prefix_hash, "pool hash not stable per tenant");
            assert_eq!(r.prefix_len, 384);
        }
        assert!(by_tenant.len() > 1, "only one chat tenant ever sampled");
    }

    #[test]
    fn followups_grow_the_conversation_context() {
        let reqs = ArrivalMix::multi_tenant_mix().generate(8.0, 600, 29);
        // Follow-ups are interactive requests whose prompt grew past the
        // fresh 512 shape: context + one new turn, context as the prefix.
        let followups: Vec<&Request> = reqs
            .iter()
            .filter(|r| r.priority == PriorityClass::Interactive && r.prompt_len > 512)
            .collect();
        assert!(!followups.is_empty(), "no follow-up ever sampled");
        for f in &followups {
            assert_eq!(f.prompt_len, f.prefix_len + 512, "prompt = context + turn");
            assert!(
                f.prefix_len >= 512 + 128,
                "context includes a full first round"
            );
        }
        // At least one conversation reached a second follow-up (a longer
        // context under the same session hash).
        let mut ctxs: HashMap<u64, Vec<u64>> = HashMap::new();
        for f in &followups {
            ctxs.entry(f.prefix_hash).or_default().push(f.prefix_len);
        }
        assert!(
            ctxs.values().any(|v| v.len() > 1),
            "no conversation survived two follow-ups"
        );
    }

    #[test]
    fn parallel_sampling_fans_out_one_arrival() {
        let reqs = ArrivalMix::multi_tenant_mix().generate(8.0, 600, 31);
        let mut groups: HashMap<u64, Vec<&Request>> = HashMap::new();
        for r in reqs.iter().filter(|r| r.priority == PriorityClass::Batch) {
            groups.entry(r.prefix_hash).or_default().push(r);
        }
        assert!(!groups.is_empty(), "no batch group sampled");
        let mut saw_full = false;
        for (hash, group) in &groups {
            assert_ne!(*hash, 0, "batch requests carry a group hash");
            assert!(group.len() <= 4, "group larger than the fan-out");
            saw_full |= group.len() == 4;
            for r in group {
                assert_eq!(r.arrival_s, group[0].arrival_s, "group arrives together");
                assert_eq!(r.prefix_len, r.prompt_len, "full-prompt prefix");
                assert_eq!(r.tenant, group[0].tenant);
            }
            // Fan-out ids are consecutive: the group was emitted as one unit.
            for pair in group.windows(2) {
                assert_eq!(pair[1].id, pair[0].id + 1);
            }
        }
        assert!(saw_full, "no group reached the full fan-out of 4");
    }

    #[test]
    fn trace_round_trips_the_multi_tenant_stream() {
        let reqs = ArrivalMix::multi_tenant_mix().generate(8.0, 300, 41);
        let text = Trace::record(&reqs);
        assert!(text.starts_with(Trace::HEADER));
        let back = Trace::replay(&text).expect("replay");
        assert_eq!(back, reqs, "trace round-trip drifted");
    }

    #[test]
    fn trace_rejects_malformed_input() {
        assert_eq!(Trace::replay("").unwrap_err().line, 1);
        assert_eq!(Trace::replay("nonsense").unwrap_err().line, 1);
        let bad_field = format!("{}\nid=0 t=oops prompt=1 output=1", Trace::HEADER);
        let e = Trace::replay(&bad_field).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("bad t"), "{}", e.msg);
        let missing = format!("{}\nid=0 prompt=1 output=1", Trace::HEADER);
        assert!(Trace::replay(&missing)
            .unwrap_err()
            .msg
            .contains("missing t"));
        let unknown = format!("{}\nid=0 t=1 prompt=1 output=1 zap=3", Trace::HEADER);
        assert!(Trace::replay(&unknown)
            .unwrap_err()
            .msg
            .contains("unknown key"));
        // Comments and blank lines are fine.
        let commented = format!(
            "{}\n\n# note\nid=7 t=1.5 prompt=64 output=8\n",
            Trace::HEADER
        );
        let reqs = Trace::replay(&commented).expect("comments skipped");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].id, 7);
    }
}
