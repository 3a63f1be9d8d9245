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
    ("fcfs/rtx4090_whole/paper_1.6/clean", 0x20e0e9abf23fb799),
    ("fcfs/rtx4090_whole/paper_1.6/faulted", 0xb01e1155cc98be15),
    ("fcfs/rtx4090_whole/paper_12/clean", 0xeb941be782e4656e),
    ("fcfs/rtx4090_whole/paper_12/faulted", 0x024d69c1a4f18d89),
    ("fcfs/rtx4090_whole/tenant_2/clean", 0xf23ac62ca27f499b),
    ("fcfs/rtx4090_whole/tenant_2/faulted", 0x63c8eea0a6fed3c0),
    ("fcfs/rtx4090_chunked_prefix/paper_1.6/clean", 0x735af69865460b07),
    ("fcfs/rtx4090_chunked_prefix/paper_1.6/faulted", 0x0b9147060405e51f),
    ("fcfs/rtx4090_chunked_prefix/paper_12/clean", 0xb3b97b06d61d3af7),
    ("fcfs/rtx4090_chunked_prefix/paper_12/faulted", 0xe93435c971fbc165),
    ("fcfs/rtx4090_chunked_prefix/tenant_2/clean", 0x56e6f1713a2571c7),
    ("fcfs/rtx4090_chunked_prefix/tenant_2/faulted", 0x5461bd6bc55582e7),
    ("fcfs/l40s_pp2_chunked/paper_1.6/clean", 0x8d11d1115bb3e3ce),
    ("fcfs/l40s_pp2_chunked/paper_1.6/faulted", 0x886fe1efa6655993),
    ("fcfs/l40s_pp2_chunked/paper_12/clean", 0xf82c3b5d45cd3d7e),
    ("fcfs/l40s_pp2_chunked/paper_12/faulted", 0x0fa061e9e0e5290a),
    ("fcfs/l40s_pp2_chunked/tenant_2/clean", 0xac838a5fb4d2b7e2),
    ("fcfs/l40s_pp2_chunked/tenant_2/faulted", 0xa1de4b72f931cb4e),
    ("priority/rtx4090_whole/paper_1.6/clean", 0x86c7e0a4417c7656),
    ("priority/rtx4090_whole/paper_1.6/faulted", 0x9ba45dfea21af041),
    ("priority/rtx4090_whole/paper_12/clean", 0x8f74f3f0aefb8ec3),
    ("priority/rtx4090_whole/paper_12/faulted", 0xc4045c47bcc9c03a),
    ("priority/rtx4090_whole/tenant_2/clean", 0xdc1e17558c0a176d),
    ("priority/rtx4090_whole/tenant_2/faulted", 0x5e851fc354649dcc),
    ("priority/rtx4090_chunked_prefix/paper_1.6/clean", 0x6f0842e79846b297),
    ("priority/rtx4090_chunked_prefix/paper_1.6/faulted", 0x1b4d3bbc01b7ab75),
    ("priority/rtx4090_chunked_prefix/paper_12/clean", 0x85c50c071439d8c0),
    ("priority/rtx4090_chunked_prefix/paper_12/faulted", 0x9e3f6fa994d535fd),
    ("priority/rtx4090_chunked_prefix/tenant_2/clean", 0xa598abc56753baa7),
    ("priority/rtx4090_chunked_prefix/tenant_2/faulted", 0x0d8d6986db729ecc),
    ("priority/l40s_pp2_chunked/paper_1.6/clean", 0xe6772770a594e031),
    ("priority/l40s_pp2_chunked/paper_1.6/faulted", 0x021ba54cd97d9de4),
    ("priority/l40s_pp2_chunked/paper_12/clean", 0xab06dce02f92ca76),
    ("priority/l40s_pp2_chunked/paper_12/faulted", 0x4864d97c6689d5a4),
    ("priority/l40s_pp2_chunked/tenant_2/clean", 0x8b23b8d05824821f),
    ("priority/l40s_pp2_chunked/tenant_2/faulted", 0x2cfe7b24e2d538e5),
    ("slo-edf/rtx4090_whole/paper_1.6/clean", 0xf235062a53044dc7),
    ("slo-edf/rtx4090_whole/paper_1.6/faulted", 0xf2f718ce2aba16e7),
    ("slo-edf/rtx4090_whole/paper_12/clean", 0xb3ed1488b5bfea5d),
    ("slo-edf/rtx4090_whole/paper_12/faulted", 0xa42810cc57422c05),
    ("slo-edf/rtx4090_whole/tenant_2/clean", 0x5f1f0f1ae04bd6d8),
    ("slo-edf/rtx4090_whole/tenant_2/faulted", 0xf35c8e6ee7ce2c45),
    ("slo-edf/rtx4090_chunked_prefix/paper_1.6/clean", 0xecbad72d186faf40),
    ("slo-edf/rtx4090_chunked_prefix/paper_1.6/faulted", 0x1d50abd44aa1dccb),
    ("slo-edf/rtx4090_chunked_prefix/paper_12/clean", 0x9c7eb9751b76058b),
    ("slo-edf/rtx4090_chunked_prefix/paper_12/faulted", 0xcf42a754ce205462),
    ("slo-edf/rtx4090_chunked_prefix/tenant_2/clean", 0x3ffd260ad4b61572),
    ("slo-edf/rtx4090_chunked_prefix/tenant_2/faulted", 0x76833ad29cfb09a7),
    ("slo-edf/l40s_pp2_chunked/paper_1.6/clean", 0x2cc9c3b0873e6afe),
    ("slo-edf/l40s_pp2_chunked/paper_1.6/faulted", 0x4e84e3da86f455ff),
    ("slo-edf/l40s_pp2_chunked/paper_12/clean", 0x2ee232c99904eb78),
    ("slo-edf/l40s_pp2_chunked/paper_12/faulted", 0x73be06b4bced748a),
    ("slo-edf/l40s_pp2_chunked/tenant_2/clean", 0x4bde6e43247d0734),
    ("slo-edf/l40s_pp2_chunked/tenant_2/faulted", 0xa811771c10e5f880),
    ("preemptive-sjf/rtx4090_whole/paper_1.6/clean", 0xc73f328fe978aa37),
    ("preemptive-sjf/rtx4090_whole/paper_1.6/faulted", 0xb300cd8cfcd1d547),
    ("preemptive-sjf/rtx4090_whole/paper_12/clean", 0x6936579158abcac4),
    ("preemptive-sjf/rtx4090_whole/paper_12/faulted", 0x3d1f840d465e9ae2),
    ("preemptive-sjf/rtx4090_whole/tenant_2/clean", 0xb815eb82d179e138),
    ("preemptive-sjf/rtx4090_whole/tenant_2/faulted", 0x4474cb44151276ab),
    ("preemptive-sjf/rtx4090_chunked_prefix/paper_1.6/clean", 0x9d216e796dd3beea),
    ("preemptive-sjf/rtx4090_chunked_prefix/paper_1.6/faulted", 0xd6b894211fffda74),
    ("preemptive-sjf/rtx4090_chunked_prefix/paper_12/clean", 0xf545d9d0c41f51b6),
    ("preemptive-sjf/rtx4090_chunked_prefix/paper_12/faulted", 0x1754e99393cdaa90),
    ("preemptive-sjf/rtx4090_chunked_prefix/tenant_2/clean", 0x28387d625b5c835a),
    ("preemptive-sjf/rtx4090_chunked_prefix/tenant_2/faulted", 0x31773582f049aaa2),
    ("preemptive-sjf/l40s_pp2_chunked/paper_1.6/clean", 0xced47ae7ccd324a4),
    ("preemptive-sjf/l40s_pp2_chunked/paper_1.6/faulted", 0xead660cf96289c0f),
    ("preemptive-sjf/l40s_pp2_chunked/paper_12/clean", 0xa815888ae202a397),
    ("preemptive-sjf/l40s_pp2_chunked/paper_12/faulted", 0x6338023f12597202),
    ("preemptive-sjf/l40s_pp2_chunked/tenant_2/clean", 0x9ef937ee3b849b14),
    ("preemptive-sjf/l40s_pp2_chunked/tenant_2/faulted", 0x8e519c6adcfbef06),
    ("preemptive-sjf-pageout/rtx4090_whole/paper_1.6/clean", 0x9ba84c2daf865587),
    ("preemptive-sjf-pageout/rtx4090_whole/paper_1.6/faulted", 0x928f3dd220d808b7),
    ("preemptive-sjf-pageout/rtx4090_whole/paper_12/clean", 0x0e474025f5b8c2ac),
    ("preemptive-sjf-pageout/rtx4090_whole/paper_12/faulted", 0xfdb7c1d35dbfe252),
    ("preemptive-sjf-pageout/rtx4090_whole/tenant_2/clean", 0x85ea8e3de1884bb0),
    ("preemptive-sjf-pageout/rtx4090_whole/tenant_2/faulted", 0x2da2d395f81fa9eb),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/paper_1.6/clean", 0xd8641701c9eef87a),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/paper_1.6/faulted", 0x9673e10325dfc7bc),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/paper_12/clean", 0xa170d04748a221a6),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/paper_12/faulted", 0xee3df7f834574b68),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/tenant_2/clean", 0xfeda71e7d980030a),
    ("preemptive-sjf-pageout/rtx4090_chunked_prefix/tenant_2/faulted", 0xe3cbd844b052c392),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/paper_1.6/clean", 0xce368f086832a90c),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/paper_1.6/faulted", 0x0af88eda638ba55f),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/paper_12/clean", 0x09329868e6b400e7),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/paper_12/faulted", 0x7cfea0fb22a557f2),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/tenant_2/clean", 0xcf4eda8731a24b5c),
    ("preemptive-sjf-pageout/l40s_pp2_chunked/tenant_2/faulted", 0xc52624c81621bd56),
    ("fleet/p2c_x4/paper_6", 0x38ada58a7855f36b),
    ("fleet/affinity_x4/tenant_8/faulted", 0xfdba44f8815141e4),
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
