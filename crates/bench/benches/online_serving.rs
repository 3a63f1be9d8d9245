//! Online continuous-batching bench: the scheduler simulation itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zipserv_bench::figures;
use zipserv_gpu_sim::device::Gpu;
use zipserv_kernels::shapes::LlmModel;
use zipserv_serve::cluster::GpuCluster;
use zipserv_serve::engine::{EngineKind, ServingEngine};
use zipserv_serve::policy::Fcfs;
use zipserv_serve::scheduler::{poisson_arrivals, run_policy};

fn bench(c: &mut Criterion) {
    println!("{}", figures::online());
    let engine = ServingEngine::new(
        EngineKind::ZipServ,
        LlmModel::Llama31_8b,
        GpuCluster::single(Gpu::Rtx4090),
    );
    let arrivals = poisson_arrivals(6.0, 40, 512, 128, 3);
    c.bench_function("online/continuous_batching_40reqs", |b| {
        b.iter(|| run_policy(black_box(&engine), &Fcfs, 64, arrivals.clone()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
