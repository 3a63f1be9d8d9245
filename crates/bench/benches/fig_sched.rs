//! Scheduling-policy race: the four `SchedulePolicy` implementations
//! driving the continuous-batching simulator over the paper's
//! mixed-priority arrival mix on the ZipServ engine.
//!
//! The printed `figures::sched()` table records the serving-level outcomes
//! (per-class p99 TTFT, SLO attainment, preemptions); the timed section
//! records simulator cost per policy so scheduler-side regressions show up
//! in `BENCH_baseline.json`. The `FIG_SIMSCALE` line records how the
//! simulator's own throughput scales with trace length (req/s at 64k
//! requests over req/s at 4k), which the CI smoke check gates.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zipserv_bench::figures;
use zipserv_gpu_sim::device::Gpu;
use zipserv_kernels::shapes::LlmModel;
use zipserv_serve::cluster::GpuCluster;
use zipserv_serve::engine::{EngineKind, ServingEngine};
use zipserv_serve::policy::{Fcfs, PreemptiveSjf, Priority, SchedulePolicy, SloEdf};
use zipserv_serve::scheduler::run_policy;
use zipserv_serve::workload::ArrivalMix;

/// Simulated requests per wall second of `run_policy` on the long-trace
/// config (one RTX 4090, `Priority`, batch 16, paper mix at 1.2 req/s),
/// best of five runs.
fn sim_req_per_s(engine: &ServingEngine, requests: usize) -> f64 {
    let arrivals = ArrivalMix::paper_mix().generate(1.2, requests, 61);
    let best_s = (0..5)
        .map(|_| {
            let trace = arrivals.clone();
            let t0 = Instant::now();
            black_box(run_policy(engine, &Priority::default(), 16, trace));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    requests as f64 / best_s
}

fn bench(c: &mut Criterion) {
    println!("{}", figures::sched());
    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .build();

    let short = sim_req_per_s(&engine, 4096);
    let long = sim_req_per_s(&engine, 65536);
    println!(
        "FIG_SIMSCALE rate_ratio={:.4} req_per_s_4k={short:.0} req_per_s_64k={long:.0}",
        long / short
    );

    let arrivals = ArrivalMix::paper_mix().generate(10.0, 120, 29);
    let policies: Vec<Box<dyn SchedulePolicy>> = vec![
        Box::new(Fcfs),
        Box::new(Priority::default()),
        Box::new(SloEdf::default()),
        Box::new(PreemptiveSjf::default()),
    ];
    let mut group = c.benchmark_group("fig_sched/paper_mix_120reqs");
    group.sample_size(10);
    for policy in &policies {
        group.bench_function(policy.name(), |b| {
            b.iter(|| run_policy(black_box(&engine), policy.as_ref(), 64, arrivals.clone()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
