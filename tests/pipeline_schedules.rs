//! Pipeline-schedule closed forms and scheduler bit-compatibility.
//!
//! Three layers of pins around the 1F1B / chunked-prefill work:
//!
//! 1. The analytic schedules match their closed forms across a (pp, m)
//!    grid: GPipe's bubble fraction is `(s - 1) / (s + m - 1)` and 1F1B's
//!    steady-state idle time is `(pp - 1) / m` slots, with 1F1B strictly
//!    better whenever both pipelining and multiple micro-batches exist.
//! 2. The legacy whole-prefill scheduler path (`chunked_prefill(false)`,
//!    and the pp = 1 default) is bit-identical to the pre-refactor
//!    scheduler, pinned by FNV-1a digests over full reports for every
//!    in-tree policy on two pipelined deployments.
//! 3. The acceptance criterion itself: on the paper's mixed traffic at
//!    pp ≥ 2, chunked prefill cuts interactive p99 TTFT while keeping
//!    total throughput within 5% of the legacy path.

use zipserv::prelude::*;
use zipserv::serve::policy::PreemptiveSjf;
use zipserv::serve::scheduler::{run_policy, ScheduleReport};

// ---------------------------------------------------------------------------
// 1. Closed forms.

/// GPipe's textbook bubble fraction `(s - 1) / (s + m - 1)` and 1F1B's
/// steady-state idle count `(pp - 1) / m` hold exactly across the grid,
/// and 1F1B's bubble fraction is strictly below GPipe's whenever there is
/// both a pipeline (pp >= 2) and enough micro-batches to interleave
/// (m >= 2).
#[test]
fn closed_forms_hold_across_the_grid() {
    for pp in 1u32..=8 {
        for m in 1u32..=16 {
            let gpipe = PipelineSchedule::new(pp, m);
            assert_eq!(gpipe.kind, PipelineKind::GPipe);
            let s = f64::from(pp);
            let mf = f64::from(m);
            let expect_gpipe = (s - 1.0) / (s + mf - 1.0);
            assert!(
                (gpipe.bubble_fraction() - expect_gpipe).abs() < 1e-12,
                "GPipe bubble at pp={pp} m={m}: {} != {expect_gpipe}",
                gpipe.bubble_fraction()
            );

            let one_f = PipelineSchedule::new(pp, m).with_kind(PipelineKind::OneFOneB);
            let expect_idle = (s - 1.0) / mf;
            assert!(
                (one_f.steady_idle_slots() - expect_idle).abs() < 1e-12,
                "1F1B idle slots at pp={pp} m={m}: {} != {expect_idle}",
                one_f.steady_idle_slots()
            );

            if pp >= 2 && m >= 2 {
                assert!(
                    one_f.bubble_fraction() < gpipe.bubble_fraction(),
                    "1F1B not strictly better at pp={pp} m={m}: {} vs {}",
                    one_f.bubble_fraction(),
                    gpipe.bubble_fraction()
                );
            } else {
                // Degenerate pipelines coincide: nothing to interleave.
                assert!(
                    (one_f.bubble_fraction() - gpipe.bubble_fraction()).abs() < 1e-12,
                    "schedules should coincide at pp={pp} m={m}"
                );
            }
        }
    }
}

/// The slot count (latency denominator of the prefill makespan) is the
/// same `s + m - 1` integer for both schedules — 1F1B reorders work, it
/// does not shrink the fill/drain of a single prompt.
#[test]
fn one_f_one_b_keeps_the_slot_count() {
    for pp in 2u32..=4 {
        for m in 2u32..=8 {
            let gpipe = PipelineSchedule::new(pp, m);
            let one_f = PipelineSchedule::new(pp, m).with_kind(PipelineKind::OneFOneB);
            assert_eq!(gpipe.slots(), one_f.slots());
            assert_eq!(gpipe.slots(), pp + m - 1);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Bit-compatibility of the legacy scheduler path.

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

fn policies() -> Vec<(&'static str, Box<dyn SchedulePolicy>)> {
    vec![
        ("fcfs", Box::new(Fcfs)),
        ("priority", Box::new(Priority::default())),
        ("slo-edf", Box::new(SloEdf::default())),
        ("preemptive-sjf", Box::new(PreemptiveSjf::default())),
        (
            "preemptive-sjf-pageout",
            Box::new(PreemptiveSjf {
                mode: PreemptionMode::PageOut,
            }),
        ),
    ]
}

/// With chunked prefill disabled, every policy's full report on the
/// pipelined deployments hashes to the exact digests recorded from the
/// pre-refactor scheduler: the legacy arithmetic survived the streaming
/// refactor byte for byte. The digests were re-recorded once, when the
/// scheduler's clock became integer nanoseconds: every id, count and
/// completion order held, and each time moved by at most 0.13 µs.
#[test]
fn legacy_path_reports_are_bit_identical_to_pre_refactor() {
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 80, 37);
    let pp2 = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2))
        .chunked_prefill(false)
        .build();
    let tp4pp2 = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_70b)
        .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2))
        .chunked_prefill(false)
        .build();
    type DeploymentPins<'a> = (&'a str, &'a ServingEngine, &'a [(&'a str, u64)]);
    let recorded: [DeploymentPins; 2] = [
        (
            "pp2",
            &pp2,
            &[
                ("fcfs", 0xd7cfb261536f43dd),
                ("priority", 0xd31993909140a65e),
                ("slo-edf", 0x2a3375e217fd2312),
                ("preemptive-sjf", 0xd31993909140a65e),
                ("preemptive-sjf-pageout", 0xd31993909140a65e),
            ],
        ),
        (
            "tp4pp2",
            &tp4pp2,
            &[
                ("fcfs", 0xeb9cc06e654ce362),
                ("priority", 0xf6531a215de28e78),
                ("slo-edf", 0x0a7f7bbd79a9f47d),
                ("preemptive-sjf", 0x6540c7455e6c90de),
                ("preemptive-sjf-pageout", 0x6540c7455e6c90de),
            ],
        ),
    ];
    for (deploy, eng, pins) in recorded {
        for ((pname, policy), &(pin_name, pin)) in policies().iter().zip(pins.iter()) {
            assert_eq!(*pname, pin_name, "pin table out of order");
            let report = run_policy(eng, policy.as_ref(), 64, arrivals.clone());
            assert_eq!(
                report.completions.len(),
                80,
                "{deploy}/{pname}: lost requests"
            );
            assert_eq!(
                digest(&report),
                pin,
                "{deploy}/{pname}: legacy report drifted from the pre-refactor scheduler"
            );
        }
    }
}

/// At pp = 1 the chunked-prefill default resolves to *off*, so a default
/// build and an explicit `chunked_prefill(false)` build produce the same
/// report, field for field.
#[test]
fn single_stage_default_matches_disabled() {
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 60, 11);
    let build = |chunked: Option<bool>| {
        let mut b = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::tensor_parallel(Gpu::L40s, 2));
        if let Some(c) = chunked {
            b = b.chunked_prefill(c);
        }
        b.build()
    };
    let default = build(None);
    assert!(
        !default.chunked_prefill(),
        "pp=1 must default to legacy prefill"
    );
    for (_, policy) in policies() {
        let a = run_policy(&default, policy.as_ref(), 64, arrivals.clone());
        let b = run_policy(&build(Some(false)), policy.as_ref(), 64, arrivals.clone());
        assert_eq!(a, b, "pp=1 default drifted from the explicit legacy path");
    }
}

// ---------------------------------------------------------------------------
// 3. The chunked-prefill acceptance criterion.

fn interactive_p99_ttft(r: &ScheduleReport) -> f64 {
    let mut ttfts: Vec<f64> = r
        .completions
        .iter()
        .filter(|c| c.priority == PriorityClass::Interactive)
        .map(|c| c.ttft_s)
        .collect();
    assert!(!ttfts.is_empty(), "trace has no interactive completions");
    ttfts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let idx = ((ttfts.len() as f64) * 0.99).ceil() as usize - 1;
    ttfts[idx.min(ttfts.len() - 1)]
}

/// On the paper's mixed traffic at pp = 2, streaming prefill chunks
/// between decode steps lets interactive prompts overtake long batch
/// prefills: interactive p99 TTFT drops, and total throughput stays
/// within 5% of the legacy whole-prefill path.
#[test]
fn chunked_prefill_cuts_interactive_ttft_within_throughput_budget() {
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 80, 37);
    let build = |chunked: bool| {
        ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2))
            .chunked_prefill(chunked)
            .build()
    };
    let legacy = run_policy(&build(false), &Priority::default(), 64, arrivals.clone());
    let chunked = run_policy(&build(true), &Priority::default(), 64, arrivals);
    assert_eq!(legacy.completions.len(), 80);
    assert_eq!(chunked.completions.len(), 80);

    let (p99_legacy, p99_chunked) = (
        interactive_p99_ttft(&legacy),
        interactive_p99_ttft(&chunked),
    );
    assert!(
        p99_chunked < p99_legacy,
        "chunked prefill failed to cut interactive p99 TTFT: {p99_chunked:.4}s vs legacy {p99_legacy:.4}s"
    );
    let tput_ratio = chunked.throughput_tps / legacy.throughput_tps;
    assert!(
        tput_ratio > 0.95,
        "chunked prefill cost more than 5% throughput: {:.1} vs {:.1} tps ({:.1}%)",
        chunked.throughput_tps,
        legacy.throughput_tps,
        tput_ratio * 100.0
    );
}
