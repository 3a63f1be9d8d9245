//! Figure 12: micro-level analysis — plus a benchmark of the real
//! lane-exact tile decoder that generates the instruction workload.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zipserv_bench::figures;
use zipserv_bf16::gen::WeightGen;
use zipserv_core::decompress::{decode_tile_lanewise, decode_tile_lut};
use zipserv_core::{TbeCompressor, ZipGemm};

fn bench(c: &mut Criterion) {
    println!("{}", figures::fig12());
    let w = WeightGen::new(0.018).seed(12).matrix(64, 64);
    let tbe = TbeCompressor::new().compress(&w).expect("tileable");
    c.bench_function("fig12/decode_tile_lanewise", |b| {
        b.iter(|| decode_tile_lanewise(black_box(tbe.tile_view(0)), tbe.base_exp()));
    });
    // The table-driven decoder races the same tile; the lanewise/LUT ratio
    // is gated in CI as `decode_ns_per_tile`.
    c.bench_function("fig12/decode_tile_lut", |b| {
        b.iter(|| decode_tile_lut(black_box(tbe.tile_view(0)), tbe.base_exp()));
    });

    // One BlockTile-sized fused pass, naive vs blocked: at the micro level
    // the win is exactly the per-tile decode caching + register blocking.
    let x = WeightGen::new(0.5).seed(13).matrix(64, 32);
    let kernel = ZipGemm::new();
    c.bench_function("fig12/zipgemm_naive_64x64xb32", |b| {
        b.iter(|| kernel.multiply_reference(black_box(&tbe), black_box(&x)));
    });
    c.bench_function("fig12/zipgemm_blocked_64x64xb32", |b| {
        b.iter(|| kernel.multiply(black_box(&tbe), black_box(&x)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench
}
criterion_main!(benches);
