//! The two simulator workloads, driven only through
//! `ServingEngine::serve_online` and `FleetRouter::run`.
//!
//! * `paper_mix_long` — one ZipServ LLaMA3.1-8B replica on an RTX 4090
//!   under `Priority`, batch cap 16, the paper mix at 1.2 req/s (~80% of
//!   capacity) over traces of 24k requests. The scheduler's admission loop
//!   does nearly all the work; router, prefix registry, faults and kernels
//!   idle.
//! * `tenant_fleet` — four such replicas with prefix caching and chunked
//!   (live-shard) admission behind `SessionAffinity`, the multi-tenant mix
//!   with ×8 tenants at 2 req/s over traces of 64k requests, and a light
//!   fault plan on replica 0. It runs the layers `paper_mix_long` skips.
//!
//! Each run records several seed-derived traces and cycles its serving
//! calls through them; every call gets a fresh deployment, so no warm step
//! memo carries over between timed calls.

use std::collections::HashMap;
use std::time::Instant;

use zipserv_gpu_sim::device::Gpu;
use zipserv_kernels::shapes::LlmModel;
use zipserv_serve::cluster::GpuCluster;
use zipserv_serve::scheduler::Completion;
use zipserv_serve::{
    ArrivalMix, EngineKind, FaultPlan, FleetReport, FleetRouter, PrefixRegistry, PrefixStats,
    Priority, RejectReason, Rejection, Request, RoutePolicy, SchedulePolicy, ScheduleReport,
    ServingEngine, SessionAffinity, Trace,
};

use crate::report::{Kind, Outcome};
use crate::spans::{TimedPolicy, TimedRoute, Tracer, NO_REQ};
use crate::stats::{self, sub_seed, Probe};

/// Sub-seed salts: one independent stream per use of the workload seed.
const TRACE_SALT: u64 = 1;
const SEARCH_SALT: u64 = 2;

/// Independent seed-derived traces each SLO-rate probe pools: a probe's
/// attainment varies with the tenants a single trace happens to draw.
const SEARCH_TRACES: u64 = 4;
/// A traced run alternates untraced and traced calls and needs this many of
/// each, even past the deadline.
const MIN_TRACED_CALLS: usize = 2;

/// Replicas of `tenant_fleet`.
const FLEET_REPLICAS: usize = 4;
/// Multiplier on every multi-tenant class's tenant count: it keeps
/// session-affinity imbalance near 1.2, so the fleet runs just under
/// saturation instead of overloading one hot replica.
const TENANT_SCALE: u64 = 8;

/// One simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    /// One replica, the paper mix, a long trace.
    PaperMixLong,
    /// Four replicas, multi-tenant traffic, prefix caching and faults.
    TenantFleet,
}

impl Sim {
    fn requests(self) -> usize {
        match self {
            Sim::PaperMixLong => 24_000,
            Sim::TenantFleet => 64_000,
        }
    }

    fn rate(self) -> f64 {
        match self {
            Sim::PaperMixLong => 1.2,
            Sim::TenantFleet => 2.0,
        }
    }

    /// Distinct seed-derived traces per run. Untraced calls cycle through
    /// all of them and the modeled metrics pool their outcomes: one trace's
    /// p99 TTFT swings ~10% from seed to seed at these loads. Eight
    /// 24k-request traces fit a run's calls; the fleet's 64k-request calls
    /// leave room for four.
    fn traces(self) -> usize {
        match self {
            Sim::PaperMixLong => 8,
            Sim::TenantFleet => 4,
        }
    }

    /// Length of each of the [`SEARCH_TRACES`] traces an SLO-rate search
    /// probe serves.
    fn search_requests(self) -> usize {
        match self {
            Sim::PaperMixLong => 2_000,
            Sim::TenantFleet => 8_000,
        }
    }

    fn mix(self) -> ArrivalMix {
        match self {
            Sim::PaperMixLong => ArrivalMix::paper_mix(),
            Sim::TenantFleet => {
                let mut mix = ArrivalMix::multi_tenant_mix();
                for class in &mut mix.classes {
                    class.tenants *= TENANT_SCALE;
                }
                mix
            }
        }
    }

    /// The name of the span around one serving call.
    fn root(self) -> &'static str {
        match self {
            Sim::PaperMixLong => "scheduler.serve",
            Sim::TenantFleet => "fleet.run",
        }
    }
}

/// Replica 0's faults, placed at fixed shares of the trace's horizon: a
/// rank failure at 40% repaired 0.5% later, a KV stall at 60% and a
/// two-frame corrupt burst at 70%.
fn fault_plan(horizon_s: f64) -> FaultPlan {
    FaultPlan::new()
        .rank_fail(0.4 * horizon_s, 0)
        .rank_repair(0.405 * horizon_s, 0)
        .kv_stall(0.6 * horizon_s, 0.5)
        .corrupt_frame(0.7 * horizon_s, 2)
}

fn policy(tracer: Option<&Tracer>) -> Box<dyn SchedulePolicy> {
    let inner: Box<dyn SchedulePolicy> = Box::new(Priority::default());
    match tracer {
        Some(t) => Box::new(TimedPolicy::new(inner, t.clone())),
        None => inner,
    }
}

fn engine(sim: Sim, policy: Box<dyn SchedulePolicy>, plan: FaultPlan) -> ServingEngine {
    let builder = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .policy_box(policy)
        .max_batch(16);
    match sim {
        Sim::PaperMixLong => builder,
        Sim::TenantFleet => builder
            .prefix_caching(true)
            .chunked_prefill(true)
            .fault_plan(plan),
    }
    .build()
}

/// Replica 0 (with the fault plan) and the clean prototype the other
/// replicas are cloned from.
fn fleet_engines(horizon_s: f64, tracer: Option<&Tracer>) -> (ServingEngine, ServingEngine) {
    (
        engine(Sim::TenantFleet, policy(tracer), fault_plan(horizon_s)),
        engine(Sim::TenantFleet, policy(tracer), FaultPlan::new()),
    )
}

/// A built deployment, ready for one serving call.
enum Server {
    One(ServingEngine),
    Fleet(FleetRouter),
}

fn build(sim: Sim, horizon_s: f64, tracer: Option<&Tracer>, route: Box<dyn RoutePolicy>) -> Server {
    match sim {
        Sim::PaperMixLong => Server::One(engine(sim, policy(tracer), FaultPlan::new())),
        Sim::TenantFleet => {
            let (first, proto) = fleet_engines(horizon_s, tracer);
            Server::Fleet(
                FleetRouter::new_boxed(route)
                    .with_replica(first)
                    .with_replicas(&proto, FLEET_REPLICAS - 1),
            )
        }
    }
}

/// One serving call's outcome, flattened over replicas.
struct Flat {
    completions: Vec<Completion>,
    rejections: Vec<Rejection>,
    duration_s: f64,
    peak_batch: usize,
    preemptions: u64,
    step_hits: u64,
    step_misses: u64,
    prefix: PrefixStats,
    retries: u64,
    recomputed_tokens: u64,
    shed: u64,
    availability: f64,
    imbalance: f64,
    /// Digest of each replica's report, in replica order.
    replica_digests: Vec<u64>,
}

impl Flat {
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for d in &self.replica_digests {
            h.word(*d);
        }
        for r in &self.rejections {
            h.word(r.id);
            h.bytes(r.reason.name().as_bytes());
        }
        h.0
    }
}

fn serve(server: Server, reqs: Vec<Request>) -> Flat {
    match server {
        Server::One(engine) => {
            let r = engine.serve_online(reqs);
            Flat {
                duration_s: r.duration_s,
                peak_batch: r.peak_batch,
                preemptions: r.preemptions,
                step_hits: r.step_cache.hits,
                step_misses: r.step_cache.misses,
                prefix: r.prefix,
                retries: r.robustness.retries,
                recomputed_tokens: r.robustness.recomputed_tokens,
                shed: r.robustness.shed,
                availability: r.availability(),
                imbalance: 1.0,
                replica_digests: vec![report_digest(&r)],
                rejections: r.rejections,
                completions: r.completions,
            }
        }
        Server::Fleet(router) => flatten_fleet(router.run(reqs)),
    }
}

fn flatten_fleet(r: FleetReport) -> Flat {
    let mut flat = Flat {
        completions: Vec::new(),
        rejections: r.rejections.clone(),
        duration_s: r.duration_s(),
        peak_batch: 0,
        preemptions: 0,
        step_hits: 0,
        step_misses: 0,
        prefix: r.prefix(),
        retries: 0,
        recomputed_tokens: 0,
        shed: 0,
        availability: r.availability(),
        imbalance: r.imbalance_ratio(),
        replica_digests: r.per_replica.iter().map(report_digest).collect(),
    };
    for rep in r.per_replica {
        flat.peak_batch = flat.peak_batch.max(rep.peak_batch);
        flat.preemptions += rep.preemptions;
        flat.step_hits += rep.step_cache.hits;
        flat.step_misses += rep.step_cache.misses;
        flat.retries += rep.robustness.retries;
        flat.recomputed_tokens += rep.robustness.recomputed_tokens;
        flat.shed += rep.robustness.shed;
        flat.rejections.extend(rep.rejections);
        flat.completions.extend(rep.completions);
    }
    flat
}

/// FNV-1a over the 64-bit words of a report's outcomes.
#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

fn report_digest(r: &ScheduleReport) -> u64 {
    let mut h = Fnv::default();
    h.word(r.duration_s.to_bits());
    for c in &r.completions {
        for w in [
            c.id,
            c.queue_s.to_bits(),
            c.latency_s.to_bits(),
            c.ttft_s.to_bits(),
            u64::from(c.preemptions),
            u64::from(c.retries),
            c.slo_met.map_or(2, u64::from),
        ] {
            h.word(w);
        }
    }
    for r in &r.rejections {
        h.word(r.id);
        h.bytes(r.reason.name().as_bytes());
    }
    h.0
}

/// Requests sent that did not resolve exactly once (completed, or one typed
/// rejection), plus duplicate sent ids and outcomes for ids never sent.
fn unresolved(sent: &[Request], flat: &Flat) -> u64 {
    let mut seen: HashMap<u64, u32> = HashMap::with_capacity(sent.len());
    let mut bad = 0u64;
    for r in sent {
        if seen.insert(r.id, 0).is_some() {
            bad += 1;
        }
    }
    let outcomes = flat
        .completions
        .iter()
        .map(|c| c.id)
        .chain(flat.rejections.iter().map(|r| r.id));
    for id in outcomes {
        match seen.get_mut(&id) {
            Some(n) => *n += 1,
            None => bad += 1,
        }
    }
    bad + seen.values().filter(|&&n| n != 1).count() as u64
}

/// TTFT of every request sent, in arrival order; `INFINITY` for requests
/// that never produced a first token.
fn ttft_by_arrival(sent: &[Request], completions: &[Completion]) -> Vec<f64> {
    let ttft: HashMap<u64, f64> = completions.iter().map(|c| (c.id, c.ttft_s)).collect();
    sent.iter()
        .map(|r| ttft.get(&r.id).copied().unwrap_or(f64::INFINITY))
        .collect()
}

/// Compressed / raw weight bytes the engine's memory plan holds: ZipServ's
/// against the dense vLLM deployment of the same model.
fn modeled_weight_ratio() -> f64 {
    let bytes = |kind| {
        ServingEngine::builder()
            .kind(kind)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::single(Gpu::Rtx4090))
            .build()
            .memory_plan()
            .weight_bytes as f64
    };
    bytes(EngineKind::ZipServ) / bytes(EngineKind::Vllm)
}

/// Runs one simulator workload for `seconds` of timed serving calls and
/// records its metrics: end-to-end ones untraced, per-layer ones traced.
pub fn run(sim: Sim, seed: u64, seconds: f64, trace: bool, tracer: &Tracer, out: &mut Outcome) {
    // Each trace is recorded to text once; every set-up replays it.
    let traces: Vec<(String, f64)> = (0..sim.traces() as u64)
        .map(|k| {
            let reqs = sim.mix().generate(
                sim.rate(),
                sim.requests(),
                sub_seed(sub_seed(seed, TRACE_SALT), k),
            );
            let text = Trace::record(&reqs);
            if Trace::replay(&text).as_ref() != Ok(&reqs) {
                out.problem(format!(
                    "trace {k} does not replay to its generated requests"
                ));
            }
            (text, reqs.last().map_or(1.0, |r| r.arrival_s))
        })
        .collect();

    // Set-up for one serving call of trace `k`: the trace is loaded from
    // its recorded text and the engines and router are built; traced calls
    // install the timing wrappers. Every call's set-up is timed. The host's
    // speed changes in bursts of a second or two, by up to 1.7x for this
    // allocation-heavy work, so samples spread over the whole run give a
    // steadier median than set-ups clustered at its start.
    let mut inputs_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut setup_s = Vec::new();
    let mut prepare = |k: usize, traced: bool| {
        let (text, horizon_s) = &traces[k];
        let t0 = Instant::now();
        let reqs = Trace::replay(text).expect("the recorded trace replays");
        let t1 = Instant::now();
        let (route, routed): (Box<dyn RoutePolicy>, _) = if traced && sim == Sim::TenantFleet {
            let (r, routed) = TimedRoute::new(SessionAffinity::default(), tracer.clone());
            (Box::new(r), Some(routed))
        } else {
            (Box::new(SessionAffinity::default()), None)
        };
        let server = build(sim, *horizon_s, traced.then_some(tracer), route);
        let t2 = Instant::now();
        inputs_ms.push((t1 - t0).as_secs_f64() * 1e3);
        build_ms.push((t2 - t1).as_secs_f64() * 1e3);
        setup_s.push((t2 - t0).as_secs_f64());
        (reqs, server, routed, *horizon_s)
    };

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    // Per trace: its first call's digests and end-to-end summary. A traced
    // run keeps trace 0's whole outcome for the layer metrics instead.
    let mut references: Vec<Option<(u64, Vec<u64>, Summary)>> = Vec::new();
    references.resize_with(sim.traces(), || None);
    let mut first: Option<(Flat, Vec<Request>)> = None;
    // The root span of the first traced call, which serves trace 0.
    let mut first_traced: Option<u32> = None;
    loop {
        let calls = untraced_s.len() + traced_s.len();
        // A traced run serves each trace untraced, then traced.
        let (k, traced) = if trace {
            ((calls / 2) % sim.traces(), calls % 2 == 1)
        } else {
            (calls % sim.traces(), false)
        };
        let (reqs, server, routed, horizon_s) = prepare(k, traced);
        let sent = reqs.clone();
        let t0 = Instant::now();
        let flat = if traced {
            let root = tracer.open(sim.root(), NO_REQ);
            let flat = serve(server, reqs);
            tracer.close(root);
            first_traced.get_or_insert(root);
            flat
        } else {
            serve(server, reqs)
        };
        let dt = t0.elapsed().as_secs_f64();
        if traced {
            traced_s.push(dt);
        } else {
            untraced_s.push(dt);
        }
        out.attempted += sent.len() as u64;
        out.failed += unresolved(&sent, &flat);
        let digest = flat.digest();
        match &references[k] {
            Some((d, ..)) if *d != digest => {
                out.problem(format!(
                    "serving call {calls} modeled a different outcome of trace {k} than its first"
                ));
            }
            Some(_) => {}
            None => {
                let summary = Summary::new(&flat, &sent);
                references[k] = Some((digest, flat.replica_digests.clone(), summary));
                if trace && k == 0 {
                    first = Some((flat, sent.clone()));
                }
            }
        }
        if let Some(routed) = routed {
            let routed = routed.lock().expect("routing log").clone();
            let want = &references[k].as_ref().expect("set above").1;
            replay_routed_shares(sent, &routed, horizon_s, tracer, want, out);
        }
        let enough = if trace {
            traced_s.len() >= MIN_TRACED_CALLS && untraced_s.len() >= MIN_TRACED_CALLS
        } else {
            untraced_s.len() >= sim.traces()
        };
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    if trace {
        let (flat, sent) = first.expect("a traced run serves trace 0 first");
        let root = first_traced.expect("a traced run makes traced calls");
        let calls = Calls {
            untraced_s: &untraced_s,
            traced_s: &traced_s,
            first_traced: root,
        };
        layer_metrics(sim, seed, &sent, &flat, tracer, &calls, out);
        out.set(
            "setup.inputs_ms",
            stats::median(&inputs_ms),
            Kind::Measured,
            inputs_ms.len(),
        );
        out.set(
            "setup.build_ms",
            stats::median(&build_ms),
            Kind::Measured,
            build_ms.len(),
        );
    } else {
        out.set_peak_rss();
        let summaries: Vec<Summary> = references.into_iter().flatten().map(|r| r.2).collect();
        end_to_end(sim, seed, &summaries, &untraced_s, &setup_s, out);
    }
}

/// What the end-to-end metrics need from one trace's outcome, so a run
/// holds no more than one call's full outcome at a time.
struct Summary {
    ttft_s: Vec<f64>,
    tpot_s: Vec<f64>,
    /// Output tokens of completions that met their SLO or carry none.
    good_tokens: u64,
    duration_s: f64,
    sent: usize,
    /// Requests sent with an SLO, and completions that met theirs.
    judged: usize,
    met: usize,
}

impl Summary {
    fn new(flat: &Flat, sent: &[Request]) -> Self {
        let done = &flat.completions;
        Summary {
            ttft_s: done.iter().map(|c| c.ttft_s).collect(),
            tpot_s: done
                .iter()
                .filter_map(|c| stats::tpot_s(c.latency_s, c.ttft_s, c.output_len))
                .collect(),
            good_tokens: done
                .iter()
                .filter(|c| c.slo_met != Some(false))
                .map(|c| c.output_len)
                .sum(),
            duration_s: flat.duration_s,
            sent: sent.len(),
            judged: sent.iter().filter(|r| r.slo.is_some()).count(),
            met: done.iter().filter(|c| c.slo_met == Some(true)).count(),
        }
    }
}

/// Replays each replica's routed share through clones of a freshly built
/// engine, in replica order, timing each `serve_online` call; each replayed
/// report must equal the fleet's for that replica exactly.
fn replay_routed_shares(
    sent: Vec<Request>,
    routed: &[usize],
    horizon_s: f64,
    tracer: &Tracer,
    want: &[u64],
    out: &mut Outcome,
) {
    if routed.len() != sent.len() {
        out.problem(format!(
            "{} of {} arrivals were routed",
            routed.len(),
            sent.len()
        ));
        return;
    }
    let mut shares: Vec<Vec<Request>> = vec![Vec::new(); FLEET_REPLICAS];
    for (req, &idx) in sent.into_iter().zip(routed) {
        shares[idx.min(FLEET_REPLICAS - 1)].push(req);
    }
    let (first, proto) = fleet_engines(horizon_s, Some(tracer));
    let mut first = Some(first);
    for (i, share) in shares.into_iter().enumerate() {
        let engine = first.take().unwrap_or_else(|| proto.clone());
        let report = tracer.span("scheduler.serve", NO_REQ, || engine.serve_online(share));
        if want.get(i) != Some(&report_digest(&report)) {
            out.problem(format!(
                "replaying replica {i}'s routed share changed its outcome"
            ));
        }
    }
}

/// End-to-end metrics; the modeled ones pool the outcomes of every trace.
fn end_to_end(
    sim: Sim,
    seed: u64,
    traces: &[Summary],
    calls_s: &[f64],
    setup_s: &[f64],
    out: &mut Outcome,
) {
    let ttft: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.ttft_s.iter().copied())
        .collect();
    let tpot: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.tpot_s.iter().copied())
        .collect();
    let sum = |f: fn(&Summary) -> usize| traces.iter().map(f).sum::<usize>();
    let (sent, judged, met) = (sum(|t| t.sent), sum(|t| t.judged), sum(|t| t.met));
    let calls: Vec<String> = calls_s.iter().map(|c| format!("{c:.3}")).collect();
    println!("# serving calls (s): {}", calls.join(" "));
    let setups: Vec<String> = setup_s.iter().map(|c| format!("{:.1}", c * 1e3)).collect();
    println!("# set-ups (ms): {}", setups.join(" "));
    out.set(
        "setup_s",
        stats::median(setup_s),
        Kind::Measured,
        setup_s.len(),
    );
    out.set(
        "req_per_s",
        sim.requests() as f64 / stats::median(calls_s),
        Kind::Measured,
        calls_s.len(),
    );
    percentiles(out, &ttft, &tpot);
    let good_tokens: u64 = traces.iter().map(|t| t.good_tokens).sum();
    let duration_s: f64 = traces.iter().map(|t| t.duration_s).sum();
    out.set(
        "goodput_tps",
        good_tokens as f64 / duration_s,
        Kind::Modeled,
        ttft.len(),
    );
    // Over requests *sent*: a rejected SLO request is a miss.
    out.set(
        "slo_attainment",
        met as f64 / judged.max(1) as f64,
        Kind::Modeled,
        judged,
    );
    out.set(
        "served_share",
        ttft.len() as f64 / sent as f64,
        Kind::Modeled,
        sent,
    );
    let rate = slo_rate(sim, seed, out);
    out.set(
        "slo_rate_rps",
        rate,
        Kind::Modeled,
        SEARCH_TRACES as usize * sim.search_requests(),
    );
    out.set(
        "weight_bytes_ratio",
        modeled_weight_ratio(),
        Kind::Modeled,
        1,
    );
}

/// The TTFT and TPOT medians and tails of a sample set.
fn percentiles(out: &mut Outcome, ttft_s: &[f64], tpot_s: &[f64]) {
    for (name, values, scale) in [("ttft_p50_s", ttft_s, 1.0), ("tpot_p50_ms", tpot_s, 1e3)] {
        match stats::percentile(values, 0.5) {
            Some(p) => out.set(name, p.value * scale, Kind::Modeled, p.n),
            None => out.problem(format!(
                "{name}: {} samples support no median",
                values.len()
            )),
        }
    }
    for (name, values, scale) in [("ttft_tail_s", ttft_s, 1.0), ("tpot_tail_ms", tpot_s, 1e3)] {
        if let Some(p) = stats::tail(values) {
            out.set(name, p.value * scale, Kind::Modeled, p.n);
            println!("# {name} is p{} over {} samples", p.q * 100.0, p.n);
        }
    }
}

/// The highest arrival rate meeting the SLO target without a growing
/// backlog, searched over the workload's own mix and deployment on a
/// shorter trace. Every probe's requests must resolve exactly once too.
fn slo_rate(sim: Sim, seed: u64, out: &mut Outcome) -> f64 {
    // Brackets around each workload's sustainable rate, so the search
    // spends its probes bisecting rather than expanding.
    let (lo, hi) = match sim {
        Sim::PaperMixLong => (1.2, 2.4),
        Sim::TenantFleet => (2.0, 3.0),
    };
    stats::slo_rate_search(lo, hi, |rate| {
        let mut sent_all = Vec::new();
        let mut done_all = Vec::new();
        let mut backlog = false;
        for t in 0..SEARCH_TRACES {
            let sent = sim.mix().generate(
                rate,
                sim.search_requests(),
                sub_seed(sub_seed(seed, SEARCH_SALT), t),
            );
            let horizon_s = sent.last().map_or(1.0, |r| r.arrival_s);
            let server = build(sim, horizon_s, None, Box::new(SessionAffinity::default()));
            let flat = serve(server, sent.clone());
            out.attempted += sent.len() as u64;
            out.failed += unresolved(&sent, &flat);
            backlog |= stats::growing_backlog(&ttft_by_arrival(&sent, &flat.completions));
            sent_all.extend(sent);
            done_all.extend(flat.completions);
        }
        Probe {
            attainment: stats::slo_attainment_sent(&sent_all, &done_all).unwrap_or(0.0),
            backlog,
        }
    })
}

/// The serving calls of a traced run.
struct Calls<'a> {
    untraced_s: &'a [f64],
    traced_s: &'a [f64],
    /// Root span of the first traced call.
    first_traced: u32,
}

fn layer_metrics(
    sim: Sim,
    seed: u64,
    sent: &[Request],
    flat: &Flat,
    tracer: &Tracer,
    calls: &Calls,
    out: &mut Outcome,
) {
    let traced = calls.traced_s.len();
    out.set(
        "serve.call_ms_p50",
        stats::median(calls.traced_s) * 1e3,
        Kind::Measured,
        traced,
    );
    let overhead = 1.0 - stats::median(calls.untraced_s) / stats::median(calls.traced_s);
    out.set(
        "trace.overhead_share",
        overhead,
        Kind::Measured,
        calls.untraced_s.len() + traced,
    );

    // Wall-time shares of the traced serving calls. On `paper_mix_long` the
    // policy calls are the only spans inside `serve_online`, so the
    // scheduler's self time is what they leave. On `tenant_fleet` the
    // scheduler's time comes from the routed-share replay, so the layers
    // need not add up to `FleetRouter::run`, and the fleet's own time is
    // what remains of it after routing, policy and replay.
    let root = sim.root();
    let (total, _) = tracer.total(root);
    let (policy_s, _) = tracer.under(root, "policy.");
    let (route_s, route_n) = tracer.under(root, "fleet.route");
    let sched_self = match sim {
        Sim::PaperMixLong => total - policy_s,
        Sim::TenantFleet => {
            tracer.total("scheduler.serve").0 - tracer.under("scheduler.serve", "policy.").0
        }
    };
    let fleet_self = match sim {
        Sim::PaperMixLong => 0.0,
        Sim::TenantFleet => total - route_s - policy_s - sched_self,
    };
    out.set(
        "scheduler.self_share",
        sched_self / total,
        Kind::Measured,
        traced,
    );
    out.set("policy.share", policy_s / total, Kind::Measured, traced);
    out.set("fleet.route_share", route_s / total, Kind::Measured, traced);
    out.set(
        "fleet.self_share",
        fleet_self / total,
        Kind::Measured,
        traced,
    );
    let layers = (sched_self + policy_s + route_s) / total;
    println!(
        "# layers of {root}: scheduler {:.4} + policy {:.4} + route {:.4} = {layers:.4}; \
         fleet self {:.4}; tracing overhead {overhead:.4}",
        sched_self / total,
        policy_s / total,
        route_s / total,
        fleet_self / total,
    );
    // The measured layers may exceed the serving call's wall time by no
    // more than tracing's own overhead.
    if layers - 1.0 > overhead.max(0.0) {
        out.problem(format!(
            "the layers of {root} add up to {layers:.4} of its wall time, \
             more than the {overhead:.4} tracing overhead allows"
        ));
    }

    // Call counts of one fixed call, trace 0's first traced one, so they
    // repeat exactly whatever the host's speed.
    for (name, prefix) in [
        ("policy.select_calls", "policy.select"),
        ("policy.victim_calls", "policy.victim"),
        ("fleet.route_calls", "fleet.route"),
    ] {
        let n = tracer.children(calls.first_traced, prefix);
        out.set(name, n as f64, Kind::Modeled, 1);
    }
    let (select_s, select_n) = tracer.total("policy.select");
    out.set(
        "policy.select_mcalls_per_s",
        rate_m(select_n, select_s),
        Kind::Measured,
        select_n,
    );
    out.set(
        "fleet.route_mcalls_per_s",
        rate_m(route_n, route_s),
        Kind::Measured,
        route_n,
    );

    // Modeled scheduler, KV and fault counters of one call.
    let steps = flat.step_hits + flat.step_misses;
    out.set(
        "engine.step_cache_hit_rate",
        if steps == 0 {
            0.0
        } else {
            flat.step_hits as f64 / steps as f64
        },
        Kind::Modeled,
        steps as usize,
    );
    let done = flat.completions.len().max(1) as f64;
    let mean_queue = flat.completions.iter().map(|c| c.queue_s).sum::<f64>() / done;
    let mean_ttft = flat.completions.iter().map(|c| c.ttft_s).sum::<f64>() / done;
    out.set(
        "scheduler.queue_wait_share",
        if mean_ttft > 0.0 {
            mean_queue / mean_ttft
        } else {
            0.0
        },
        Kind::Modeled,
        flat.completions.len(),
    );
    let latency: f64 = flat.completions.iter().map(|c| c.latency_s).sum();
    out.set(
        "scheduler.in_flight_mean",
        stats::littles_in_flight(latency, flat.duration_s),
        Kind::Modeled,
        flat.completions.len(),
    );
    out.set(
        "scheduler.peak_batch",
        flat.peak_batch as f64,
        Kind::Modeled,
        1,
    );
    out.set(
        "scheduler.preemptions",
        flat.preemptions as f64,
        Kind::Modeled,
        1,
    );
    let prompt_tokens: u64 = sent.iter().map(|r| r.prompt_len).sum();
    out.set(
        "kvcache.prefix_hit_rate",
        flat.prefix.hit_rate(),
        Kind::Modeled,
        flat.prefix.lookups as usize,
    );
    out.set(
        "kvcache.prefill_saved_share",
        flat.prefix.tokens_saved as f64 / prompt_tokens as f64,
        Kind::Modeled,
        sent.len(),
    );
    out.set(
        "kvcache.prefix_evictions",
        flat.prefix.evictions as f64,
        Kind::Modeled,
        1,
    );
    out.set(
        "kvcache.pages_shared",
        flat.prefix.pages_shared as f64,
        Kind::Modeled,
        1,
    );
    out.set("fleet.imbalance_ratio", flat.imbalance, Kind::Modeled, 1);
    out.set("fault.retries", flat.retries as f64, Kind::Modeled, 1);
    out.set(
        "fault.recomputed_tokens",
        flat.recomputed_tokens as f64,
        Kind::Modeled,
        1,
    );
    out.set("fault.shed", flat.shed as f64, Kind::Modeled, 1);
    out.set("fault.availability", flat.availability, Kind::Modeled, 1);
    for (name, reason) in [
        ("fault.rejected_oversized", RejectReason::Oversized),
        (
            "fault.rejected_retries_exhausted",
            RejectReason::RetriesExhausted,
        ),
        ("fault.rejected_brownout_shed", RejectReason::BrownoutShed),
        ("fault.rejected_capacity_lost", RejectReason::CapacityLost),
        ("fault.rejected_policy_hold", RejectReason::PolicyHold),
    ] {
        let count = flat
            .rejections
            .iter()
            .filter(|r| r.reason == reason)
            .count();
        out.set(name, count as f64, Kind::Modeled, 1);
    }

    // Standalone probes of the engine's step pricing and of the prefix
    // registry, at this workload's shapes.
    let probe_engine = engine(sim, policy(None), FaultPlan::new());
    out.set(
        "engine.step_us",
        decode_step_us(&probe_engine, tracer),
        Kind::Measured,
        DECODE_REPS,
    );
    let (admits, admit_s) = prefix_admit_replay(&probe_engine, sent, tracer);
    out.set(
        "kvcache.admit_mcalls_per_s",
        rate_m(admits, admit_s),
        Kind::Measured,
        admits,
    );
    // The simulator prices the engine's kernels analytically and runs none;
    // `paper_mix_long`'s traced run measures the real ones.
    match sim {
        Sim::PaperMixLong => crate::cpu::kernel_probes(seed, tracer, out),
        Sim::TenantFleet => {
            for name in [
                "transformer.self_share",
                "zipgemm.share_of_forward",
                "zipgemm.gflop_per_s",
                "zipgemm.flops_per_forward",
                "zipgemm.bytes_per_forward",
                "decompress.mtiles_per_s",
                "decompress.tiles_per_forward",
                "compress.mweights_per_s",
            ] {
                out.set(name, 0.0, Kind::Modeled, 0);
            }
        }
    }
}

/// Millions of calls per second of busy time; 0 when nothing was called.
fn rate_m(calls: usize, busy_s: f64) -> f64 {
    if calls == 0 || busy_s <= 0.0 {
        0.0
    } else {
        calls as f64 / busy_s / 1e6
    }
}

const DECODE_BATCHES: [u64; 5] = [1, 2, 4, 8, 16];
const DECODE_CONTEXTS: [u64; 3] = [640, 1280, 2560];
/// Timed samples, and passes over every shape within one sample.
const DECODE_REPS: usize = 40;
const DECODE_PASSES: usize = 20;

/// Wall time of one `decode_step` pricing at the batch sizes and context
/// lengths this deployment serves, in µs: the median over samples of a
/// loop's time per call. The clock runs inside the span, so the span's own
/// bookkeeping stays out of the figure.
fn decode_step_us(engine: &ServingEngine, tracer: &Tracer) -> f64 {
    let calls = DECODE_PASSES * DECODE_BATCHES.len() * DECODE_CONTEXTS.len();
    let samples: Vec<f64> = (0..DECODE_REPS)
        .map(|_| {
            tracer.span("engine.decode_step", NO_REQ, || {
                let t0 = Instant::now();
                for _ in 0..DECODE_PASSES {
                    for batch in DECODE_BATCHES {
                        for context in DECODE_CONTEXTS {
                            let step = engine.decode_step(
                                std::hint::black_box(batch),
                                std::hint::black_box(context),
                            );
                            std::hint::black_box(step.total_ms());
                        }
                    }
                }
                t0.elapsed().as_secs_f64() * 1e6 / calls as f64
            })
        })
        .collect();
    stats::median(&samples)
}

/// Replays the workload's prefix declarations through a standalone
/// `PrefixRegistry` over the engine's pristine shards, admitting and
/// releasing each request in turn. Returns (admit calls, busy seconds).
fn prefix_admit_replay(engine: &ServingEngine, sent: &[Request], tracer: &Tracer) -> (usize, f64) {
    let declared: Vec<&Request> = sent.iter().filter(|r| r.prefix_hash != 0).collect();
    if declared.is_empty() {
        return (0, 0.0);
    }
    let mut registry = PrefixRegistry::new(engine.kv_shards(), engine.policy().prefix_victim());
    let t0 = Instant::now();
    tracer.span("kvcache.admit_replay", NO_REQ, || {
        for r in &declared {
            std::hint::black_box(registry.admit(r.id, r.prefix_hash, r.prefix_len, r.prompt_len));
            registry.release(r.id);
        }
    });
    (declared.len(), t0.elapsed().as_secs_f64())
}
