//! Cross-version pins for the scheduler loop: every path
//! `run_policy_faulted` takes — five policies, whole and chunked prefill,
//! prefix caching, a pipelined deployment, light and saturating load,
//! clean and faulted runs, plus two routed fleets — each hashed over the
//! full `Debug` rendering of its report, so any field that moves (down to
//! the last bit of a float) changes the digest.
//!
//! The digests were recorded from the scheduler before it gained its
//! arrival cursor and decode fast-forward. Both are pure speedups, so
//! every report must stay bit-identical. Seven pins were re-recorded since:
//!
//! * `fleet/p2c_x4/paper_6`, when the fleet stopped routing on an
//!   estimated shadow of each replica and began routing on the replicas'
//!   live state (power-of-two-choices reads in-flight depth, so its
//!   placements moved; session affinity routes by tenant hash and its pin
//!   held);
//! * the five `*/rtx4090_chunked_prefix/tenant_2/faulted` pins and
//!   `fleet/affinity_x4/tenant_8/faulted`, when a rank failure began to
//!   clear the prefix cache. Every rank holds a slice of every cached
//!   prefix, as it does of every resident, so the failure loses the
//!   cache's KV too. Before, a single-rank replica kept the cache's
//!   entries across the failure while the repaired rank forgot their
//!   pages: those entries missed on every lookup without being cached
//!   again, and the pages they claimed went to other prefixes, so the
//!   cache over-committed its budget. Page counting replaced page
//!   allocation in the same change and moved no other pin.
//!
//! Then every pin was re-recorded once, when the scheduler's clock became
//! integer nanoseconds. Each price (prefill, prefill chunk, decode step,
//! stall, swap, re-fetch) now enters the clock rounded to a whole
//! nanosecond, and each report field is one nanosecond total converted to
//! seconds, so nearly every float moved in its low digits: a clock that
//! adds thousands of rounded steps drifts from the old float sum by up to
//! 0.94 µs on these traces. Against the reports recorded before the
//! change, every id, count and counter is identical — completion order,
//! rejections, preemptions, step-cache hits and misses, prefix counters —
//! and no admission, preemption or fault decision moved.
//!
//! On a mismatch the failure message prints the whole current table,
//! ready to paste back after an intended behaviour change.

use std::collections::HashSet;

use zipserv::prelude::*;
use zipserv::serve::scheduler::run_policy_faulted;

const MAX_BATCH: usize = 8;

/// FNV-1a over the report's `Debug` text: every field of
/// `ScheduleReport` / `FleetReport`, floats in shortest round-trip form.
fn digest(report: &impl std::fmt::Debug) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn policies() -> Vec<Box<dyn SchedulePolicy>> {
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

const DEPLOYMENTS: [&str; 3] = [
    "rtx4090_whole",
    "rtx4090_chunked_prefix",
    "l40s_pp2_chunked",
];

fn builder(deployment: &str) -> EngineBuilder {
    let b = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .max_batch(MAX_BATCH);
    match deployment {
        "rtx4090_whole" => b.cluster(GpuCluster::single(Gpu::Rtx4090)),
        "rtx4090_chunked_prefix" => b
            .cluster(GpuCluster::single(Gpu::Rtx4090))
            .chunked_prefill(true)
            .prefix_caching(true),
        "l40s_pp2_chunked" => b
            .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2))
            .chunked_prefill(true),
        other => unreachable!("unknown deployment {other}"),
    }
}

const LOADS: [&str; 3] = ["paper_1.6", "paper_12", "tenant_2"];

fn arrivals(load: &str) -> Vec<Request> {
    match load {
        "paper_1.6" => ArrivalMix::paper_mix().generate(1.6, 80, 41),
        "paper_12" => ArrivalMix::paper_mix().generate(12.0, 80, 43),
        "tenant_2" => ArrivalMix::multi_tenant_mix().generate(2.0, 80, 47),
        other => unreachable!("unknown load {other}"),
    }
}

/// A seeded rank fail/repair plus a link-degrade window and a KV stall,
/// spread over the trace's arrival horizon.
fn faulted_plan(trace: &[Request], ranks: usize) -> FaultPlan {
    let horizon = trace.last().map_or(1.0, |r| r.arrival_s).max(1.0);
    FaultPlan::seeded(19, horizon, ranks)
        .link_degrade(0.3 * horizon, 2.5, 0.15 * horizon)
        .kv_stall(0.5 * horizon, 0.02 * horizon)
}

/// Every pinned configuration's name and current digest, in a fixed order.
fn current_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for policy in policies() {
        for deployment in DEPLOYMENTS {
            for load in LOADS {
                let trace = arrivals(load);
                let engine = builder(deployment).build();
                let faults = faulted_plan(&trace, engine.cluster().total_ranks());
                for (plan_name, plan) in [("clean", FaultPlan::default()), ("faulted", faults)] {
                    let report = run_policy_faulted(
                        &engine,
                        policy.as_ref(),
                        MAX_BATCH,
                        trace.clone(),
                        &plan,
                        &RetryPolicy::default(),
                    );
                    out.push((
                        format!("{}/{deployment}/{load}/{plan_name}", policy.name()),
                        digest(&report),
                    ));
                }
            }
        }
    }

    let p2c = FleetRouter::new(PowerOfTwoChoices::new(7))
        .with_replicas(
            &builder("rtx4090_whole").policy(Priority::default()).build(),
            4,
        )
        .run(ArrivalMix::paper_mix().generate(6.0, 160, 53));
    out.push(("fleet/p2c_x4/paper_6".to_string(), digest(&p2c)));

    let tenants = ArrivalMix::multi_tenant_mix().generate(8.0, 160, 59);
    let affinity_engine = builder("rtx4090_chunked_prefix")
        .policy(Priority::default())
        .fault_plan(faulted_plan(&tenants, 1))
        .build();
    let affinity = FleetRouter::new(SessionAffinity::default())
        .with_replicas(&affinity_engine, 4)
        .run(tenants);
    out.push((
        "fleet/affinity_x4/tenant_8/faulted".to_string(),
        digest(&affinity),
    ));
    out
}

#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("fcfs/rtx4090_whole/paper_1.6/clean", 0xb101c42d317bf65b),
    ("fcfs/rtx4090_whole/paper_1.6/faulted", 0xfccd53514b2250c3),
    ("fcfs/rtx4090_whole/paper_12/clean", 0xd029967a13de5e04),
    ("fcfs/rtx4090_whole/paper_12/faulted", 0x80db2ca5e3442870),
    ("fcfs/rtx4090_whole/tenant_2/clean", 0x1be83c75be4cc68b),
    ("fcfs/rtx4090_whole/tenant_2/faulted", 0xf5e15f45678788f5),
    ("fcfs/rtx4090_chunked_prefix/paper_1.6/clean", 0xf7c7b03e91898eb1),
    ("fcfs/rtx4090_chunked_prefix/paper_1.6/faulted", 0xd8e7a3849da4cdbe),
    ("fcfs/rtx4090_chunked_prefix/paper_12/clean", 0x6ee337caace84b3e),
    ("fcfs/rtx4090_chunked_prefix/paper_12/faulted", 0xa2c2dbab7d342aaa),
    ("fcfs/rtx4090_chunked_prefix/tenant_2/clean", 0xf6f99fccade0b352),
    ("fcfs/rtx4090_chunked_prefix/tenant_2/faulted", 0x227562af5a0e01c5),
    ("fcfs/l40s_pp2_chunked/paper_1.6/clean", 0x5bfbd8f9cfa49213),
    ("fcfs/l40s_pp2_chunked/paper_1.6/faulted", 0xe37f3c8bee96770e),
    ("fcfs/l40s_pp2_chunked/paper_12/clean", 0x622194cf7b230a45),
    ("fcfs/l40s_pp2_chunked/paper_12/faulted", 0x0643c98814882e9c),
    ("fcfs/l40s_pp2_chunked/tenant_2/clean", 0x425f5fbf69b06472),
    ("fcfs/l40s_pp2_chunked/tenant_2/faulted", 0x889bcd17a1235404),
    ("priority/rtx4090_whole/paper_1.6/clean", 0x4100ed6fe6ac190b),
    ("priority/rtx4090_whole/paper_1.6/faulted", 0x943ef29c0537f072),
    ("priority/rtx4090_whole/paper_12/clean", 0xace9f422fad97df5),
    ("priority/rtx4090_whole/paper_12/faulted", 0x61259dc0c7544f2f),
    ("priority/rtx4090_whole/tenant_2/clean", 0xe41643c0532cd69c),
    ("priority/rtx4090_whole/tenant_2/faulted", 0x4417a0c850838155),
    ("priority/rtx4090_chunked_prefix/paper_1.6/clean", 0x9b20c6b30f4fba52),
    ("priority/rtx4090_chunked_prefix/paper_1.6/faulted", 0x852ee1f66dfabe2e),
    ("priority/rtx4090_chunked_prefix/paper_12/clean", 0xfce61a3c95429e04),
    ("priority/rtx4090_chunked_prefix/paper_12/faulted", 0x868efa0a8109700f),
    ("priority/rtx4090_chunked_prefix/tenant_2/clean", 0x9f9bd865af0eab39),
    ("priority/rtx4090_chunked_prefix/tenant_2/faulted", 0x17a75220935b3aa5),
    ("priority/l40s_pp2_chunked/paper_1.6/clean", 0x8867855f0b999df9),
    ("priority/l40s_pp2_chunked/paper_1.6/faulted", 0xe8e4e7ef3291c64e),
    ("priority/l40s_pp2_chunked/paper_12/clean", 0x556caa584f93d0fb),
    ("priority/l40s_pp2_chunked/paper_12/faulted", 0x0edab6c966e86cd8),
    ("priority/l40s_pp2_chunked/tenant_2/clean", 0x767f8510fc289cd4),
    ("priority/l40s_pp2_chunked/tenant_2/faulted", 0xdf8ba08949dc8274),
    ("slo-edf/rtx4090_whole/paper_1.6/clean", 0x7979709ddb7b96f4),
    ("slo-edf/rtx4090_whole/paper_1.6/faulted", 0x6e11fc7ba4ac36e2),
    ("slo-edf/rtx4090_whole/paper_12/clean", 0xed6d7dc9c6bf5177),
    ("slo-edf/rtx4090_whole/paper_12/faulted", 0x2037511f6fba07f9),
    ("slo-edf/rtx4090_whole/tenant_2/clean", 0xb9d5390c49a51ae2),
    ("slo-edf/rtx4090_whole/tenant_2/faulted", 0x6d7fe3f1d4018853),
    ("slo-edf/rtx4090_chunked_prefix/paper_1.6/clean", 0x7030117d810ed636),
    ("slo-edf/rtx4090_chunked_prefix/paper_1.6/faulted", 0x7be53e7b83e37f71),
    ("slo-edf/rtx4090_chunked_prefix/paper_12/clean", 0xf8df4c903c2bec80),
    ("slo-edf/rtx4090_chunked_prefix/paper_12/faulted", 0xfd1b78ff5744fba7),
    ("slo-edf/rtx4090_chunked_prefix/tenant_2/clean", 0x8a5953e8fdd6ea1a),
    ("slo-edf/rtx4090_chunked_prefix/tenant_2/faulted", 0xfa8f8208a3166861),
    ("slo-edf/l40s_pp2_chunked/paper_1.6/clean", 0xb20cbecbbabcb710),
    ("slo-edf/l40s_pp2_chunked/paper_1.6/faulted", 0xfd780a792e62df81),
    ("slo-edf/l40s_pp2_chunked/paper_12/clean", 0x760dc118a670f830),
    ("slo-edf/l40s_pp2_chunked/paper_12/faulted", 0xcb990db3a6c4376a),
    ("slo-edf/l40s_pp2_chunked/tenant_2/clean", 0x3de35778927643de),
    ("slo-edf/l40s_pp2_chunked/tenant_2/faulted", 0xc35bae2a30083f55),
    ("preemptive-sjf/rtx4090_whole/paper_1.6/clean", 0x91eea1d1927ae0be),
    ("preemptive-sjf/rtx4090_whole/paper_1.6/faulted", 0x730b0b735286c411),
    ("preemptive-sjf/rtx4090_whole/paper_12/clean", 0xf2ee46a9014924d4),
    ("preemptive-sjf/rtx4090_whole/paper_12/faulted", 0xb4b033d246614ba5),
    ("preemptive-sjf/rtx4090_whole/tenant_2/clean", 0x7a5eff44c9145a3d),
    ("preemptive-sjf/rtx4090_whole/tenant_2/faulted", 0xe5ec8b6b3642de62),
    ("preemptive-sjf/rtx4090_chunked_prefix/paper_1.6/clean", 0xd9b032ee2dc33f23),
    ("preemptive-sjf/rtx4090_chunked_prefix/paper_1.6/faulted", 0x67cb02e71da72bf4),
    ("preemptive-sjf/rtx4090_chunked_prefix/paper_12/clean", 0xad399c93b6839c63),
    ("preemptive-sjf/rtx4090_chunked_prefix/paper_12/faulted", 0x45a42ef8a21251ff),
    ("preemptive-sjf/rtx4090_chunked_prefix/tenant_2/clean", 0x72e7fb46da480354),
    ("preemptive-sjf/rtx4090_chunked_prefix/tenant_2/faulted", 0x25ae90f81507f9fc),
    ("preemptive-sjf/l40s_pp2_chunked/paper_1.6/clean", 0x1472495853534806),
    ("preemptive-sjf/l40s_pp2_chunked/paper_1.6/faulted", 0xf1874651ae4dfd2e),
    ("preemptive-sjf/l40s_pp2_chunked/paper_12/clean", 0xc760d4f2cc3c2738),
    ("preemptive-sjf/l40s_pp2_chunked/paper_12/faulted", 0xbb9387c739025d59),
    ("preemptive-sjf/l40s_pp2_chunked/tenant_2/clean", 0x6a35d30d2538d910),
    ("preemptive-sjf/l40s_pp2_chunked/tenant_2/faulted", 0xe1367b4e0fbe822d),
    ("preemptive-sjf-pageout/rtx4090_whole/paper_1.6/clean", 0x6e6cb9f87babee6e),
    ("preemptive-sjf-pageout/rtx4090_whole/paper_1.6/faulted", 0xfd6bb964451a2a11),
    ("preemptive-sjf-pageout/rtx4090_whole/paper_12/clean", 0xbcbd630bb604879c),
    ("preemptive-sjf-pageout/rtx4090_whole/paper_12/faulted", 0xad73f2f46dce25e5),
    ("preemptive-sjf-pageout/rtx4090_whole/tenant_2/clean", 0xdc9df576e39593dd),
    ("preemptive-sjf-pageout/rtx4090_whole/tenant_2/faulted", 0x5ad79c854a2f95d2),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/paper_1.6/clean", 0x55276b02b95534a3),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/paper_1.6/faulted", 0x56d619bf4c80493c),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/paper_12/clean", 0xe8c145890e290a63),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/paper_12/faulted", 0xb9ea776cfcb3c1af),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/tenant_2/clean", 0x3ce6294114b0361c),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/tenant_2/faulted", 0x1e32c1b14a9ebda4),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/paper_1.6/clean", 0x32eb199fae1e3656),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/paper_1.6/faulted", 0xcf898fb492cc3d3e),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/paper_12/clean", 0xa6a22c44b6cf51b0),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/paper_12/faulted", 0x0173d8f3cde54959),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/tenant_2/clean", 0x2fd04a0e581949e8),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/tenant_2/faulted", 0xd419499cfc77b12d),
    ("fleet/p2c_x4/paper_6", 0xca8f13471e454b45),
    ("fleet/affinity_x4/tenant_8/faulted", 0xe04be3ffe8fbfa7d),
];

#[test]
fn every_scheduler_path_matches_its_recorded_digest() {
    let current = current_digests();
    assert_eq!(current.len(), 92, "5 x 3 x 3 x 2 configs plus two fleets");
    let distinct: HashSet<u64> = current.iter().map(|&(_, d)| d).collect();
    assert_eq!(distinct.len(), current.len(), "two configs share a digest");

    let drifted: Vec<&str> = current
        .iter()
        .zip(PINS.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|((name, d), pin)| *pin != Some(&(name.as_str(), *d)))
        .map(|((name, _), _)| name.as_str())
        .collect();
    let table: String = current
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        drifted.is_empty() && PINS.len() == current.len(),
        "{} of {} configs drifted from their pins (first: {:?}); current table:\n{table}",
        drifted.len(),
        current.len(),
        drifted.first()
    );
}
