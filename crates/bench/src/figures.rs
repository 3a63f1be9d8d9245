//! One generator per paper experiment. Every function returns the rendered
//! table; the `repro` binary prints them and EXPERIMENTS.md records them.

use crate::table::{f2, pct, render};
use zipserv_bf16::gen::{survey_histograms, ModelFamily, WeightGen};
use zipserv_bf16::stats::{contiguity_survey, ExponentHistogram, ExponentSummary};
use zipserv_bf16::theory::ExponentDistribution;
use zipserv_core::codeword::{analyze_distribution, best_choice};
use zipserv_core::TbeCompressor;
use zipserv_gpu_sim::device::Gpu;
use zipserv_gpu_sim::roofline::{figure5_series, GemmShape};
use zipserv_kernels::cublas_model::CublasTc;
use zipserv_kernels::decoupled::{BaselineCodec, DecoupledPipeline};
use zipserv_kernels::fused::{typical_stats, FusedZipGemm};
use zipserv_kernels::marlin_model::MarlinW8A16;
use zipserv_kernels::shapes::{LayerKind, LlmModel};
use zipserv_serve::cluster::GpuCluster;
use zipserv_serve::engine::{EngineKind, ServingEngine};
use zipserv_serve::workload::Workload;

/// The paper's average compression ratio (§3.1).
pub const PAPER_CR: f64 = 1.51;

fn gateup(model: LlmModel, n: u64) -> GemmShape {
    LayerKind::GateUpProj.gemm_shape(model, n)
}

/// Figure 1: execution time of lossless pipelines on the L40S, GateUp
/// layers — decompression alone takes 1.56–3.44× the GEMM.
pub fn fig01() -> String {
    let spec = Gpu::L40s.spec();
    let mut rows = Vec::new();
    for model in [
        LlmModel::Llama31_8b,
        LlmModel::Mistral24b,
        LlmModel::Qwen25_32b,
    ] {
        for n in [8u64, 16, 32] {
            let shape = gateup(model, n);
            let gemm = CublasTc::time(shape, &spec).total_us;
            let mut row = vec![model.name().to_string(), n.to_string(), f2(gemm / 1e3)];
            for codec in BaselineCodec::ALL {
                let d = DecoupledPipeline::new(codec)
                    .decomp_time(shape.m, shape.k, &spec)
                    .total_us;
                row.push(format!("{} ({:.2}x)", f2(d / 1e3), d / gemm));
            }
            rows.push(row);
        }
    }
    format!(
        "Figure 1 — decoupled decompression vs GEMM time, L40S GateUp (ms):\n{}",
        render(
            &["model", "batch", "GEMM", "DietGPU", "nvCOMP", "DFloat11"],
            &rows
        )
    )
}

/// Figure 2: exponent distributions of LLM weights (synthetic Gaussian
/// matching §3.1's reported statistics).
pub fn fig02() -> String {
    let mut rows = Vec::new();
    for family in ModelFamily::ALL {
        let weights = WeightGen::for_family(family).seed(2024).vector(400_000);
        let hist = ExponentHistogram::from_values(weights);
        let s = ExponentSummary::from_histogram(&hist);
        rows.push(vec![
            family.name().to_string(),
            f2(s.entropy_bits),
            pct(s.top3_coverage),
            pct(s.top7_coverage),
            pct(s.window7_coverage),
            s.top7_contiguous.to_string(),
            f2(s.theoretical_ratio),
        ]);
    }
    format!(
        "Figure 2 — BF16 exponent statistics (paper: entropy 2.57-2.74 bits, top-3 > 67%, top-7 > 95%):\n{}",
        render(
            &["family", "entropy(b)", "top-3", "top-7", "window-7", "contiguous", "theor. ratio"],
            &rows
        )
    )
}

/// §3.1 contiguity survey: top-7 contiguity across many matrices
/// (paper: 99.6% contiguous, 97.1% mean window coverage on 3,875 matrices).
pub fn contiguity() -> String {
    let hists = survey_histograms(&ModelFamily::ALL, 24, 50_000, 7);
    let s = contiguity_survey(hists.iter());
    format!(
        "Contiguity survey (paper: 99.6% contiguous, 97.1% coverage):\n\
         matrices surveyed : {}\n\
         top-7 contiguous  : {}\n\
         mean win-7 cover  : {}\n",
        s.matrices,
        pct(s.contiguous_fraction),
        pct(s.mean_window_coverage)
    )
}

/// Figure 5: roofline compute-intensity analysis (Eqs. 1–3).
pub fn fig05() -> String {
    let pts = figure5_series(&[8, 16, 32, 64], PAPER_CR);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                f2(p.ci_dense),
                f2(p.ci_decoupled),
                f2(p.ci_fused),
                pct(p.decoupled_degradation()),
                pct(p.fused_improvement()),
            ]
        })
        .collect();
    format!(
        "Figure 5 — compute intensity, M=K=4096, CR={PAPER_CR} \
         (paper: decoupled -62%, fused +50%):\n{}",
        render(
            &[
                "N",
                "CI dense",
                "CI decoupled",
                "CI fused",
                "degradation",
                "improvement"
            ],
            &rows
        )
    )
}

/// §4.2 codeword-length table (paper: 12.4 / 11.3 / 12.1 bits for 2/3/4-bit).
pub fn codeword() -> String {
    let dist = ExponentDistribution::new(0.018);
    let choices = analyze_distribution(&dist, 5);
    let rows: Vec<Vec<String>> = choices
        .iter()
        .map(|c| {
            vec![
                c.n.to_string(),
                c.window.to_string(),
                pct(c.coverage),
                f2(c.avg_bits),
            ]
        })
        .collect();
    format!(
        "Codeword-length analysis (paper: 3-bit optimal at 11.3 bits; floor 10.6):\n{}best: {}-bit\n",
        render(&["bits", "window", "coverage", "avg bits/elem"], &rows),
        best_choice(&choices).n
    )
}

/// Figure 11: kernel speedups over cuBLAS_TC across models, layers and
/// batch sizes on the RTX4090 and L40S.
pub fn fig11() -> String {
    let mut out = String::new();
    for gpu in [Gpu::Rtx4090, Gpu::L40s] {
        let spec = gpu.spec();
        let mut rows = Vec::new();
        let mut all_zip = Vec::new();
        for model in LlmModel::ALL {
            let mut per_model: Vec<f64> = Vec::new();
            let mut base: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
            for layer in LayerKind::BLOCK {
                for n in [8u64, 16, 32] {
                    let shape = layer.gemm_shape(model, n);
                    let dense = CublasTc::time(shape, &spec).total_us;
                    let fused =
                        FusedZipGemm::time(&typical_stats(shape.m, shape.k), n, &spec).total_us;
                    per_model.push(dense / fused);
                    for (i, codec) in BaselineCodec::ALL.iter().enumerate() {
                        let t = DecoupledPipeline::new(*codec).time(shape, &spec);
                        base[i].push(dense / t.total_us());
                    }
                }
            }
            let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            all_zip.extend_from_slice(&per_model);
            rows.push(vec![
                model.name().to_string(),
                f2(avg(&per_model)),
                f2(avg(&base[0])),
                f2(avg(&base[1])),
                f2(avg(&base[2])),
            ]);
        }
        let avg = all_zip.iter().sum::<f64>() / all_zip.len() as f64;
        let peak = all_zip.iter().cloned().fold(0.0, f64::max);
        out.push_str(&format!(
            "Figure 11 — speedup over cuBLAS_TC on {} (paper avg 1.31x/1.36x, peak 1.71x/2.21x):\n{}\
             ZipGEMM average {:.2}x, peak {:.2}x\n\n",
            gpu.name(),
            render(
                &["model", "ZipGEMM", "DietGPU", "nvCOMP", "DFloat11"],
                &rows
            ),
            avg,
            peak
        ));
    }
    // Figure 11(c): layer-wise on L40S, LLaMA family.
    let spec = Gpu::L40s.spec();
    let mut rows = Vec::new();
    for layer in LayerKind::BLOCK {
        let mut row = vec![layer.name().to_string()];
        for model in [
            LlmModel::Llama31_8b,
            LlmModel::Llama31_70b,
            LlmModel::Llama31_405b,
        ] {
            let shape = layer.gemm_shape(model, 32);
            let dense = CublasTc::time(shape, &spec).total_us;
            let fused = FusedZipGemm::time(&typical_stats(shape.m, shape.k), 32, &spec).total_us;
            row.push(f2(dense / fused));
        }
        rows.push(row);
    }
    out.push_str(&format!(
        "Figure 11(c) — layer-wise ZipGEMM speedup, L40S, batch 32 \
         (paper: GateUp 1.39x, Down 1.64x avg; O_proj 0.79x on 8B):\n{}",
        render(&["layer", "8B", "70B", "405B"], &rows)
    ));
    out
}

/// Figure 12: micro-level analysis of ZipGEMM on the RTX4090
/// (M=28672, K=4096, N=32).
pub fn fig12() -> String {
    let spec = Gpu::Rtx4090.spec();
    let shape = GemmShape::new(28672, 4096, 32);
    let stats = typical_stats(28672, 4096);
    let fused_profile = FusedZipGemm::kernel_profile(&stats, 32, &spec);
    let dense_profile = CublasTc::kernel_profile(shape, &spec);
    let fused = fused_profile.execute(&spec);
    let dense = dense_profile.execute(&spec);
    let dietgpu = BaselineCodec::DietGpu.decomp_profile(28672, 4096, 2.65);

    let dram_drop =
        1.0 - fused_profile.dram.read_bytes as f64 / dense_profile.dram.read_bytes as f64;
    // ALU duty: fraction of the kernel the integer pipes are busy decoding
    // (the paper's NCU run reports 66% ALU utilization with TC utilization
    // held at 71.6% of cuBLAS; our pipeline model hides the decode fully,
    // so we report the duty cycle plus the relative mma issue rate).
    let alu_duty = fused.alu_us / fused.total_us;
    let mma_rate = dense.total_us / fused.total_us;
    use zipserv_gpu_sim::instr::InstrKind;
    format!(
        "Figure 12 — ZipGEMM micro analysis, RTX4090, 28672x4096 @ N=32:\n\
         (a) decode instruction workload: LOP3 {:.1}M, IADD {:.1}M, POPC {:.1}M, SHIFT {:.1}M\n\
         (b) DRAM read reduction vs cuBLAS: {} (paper: 29.3%)\n\
             decode ALU duty cycle: {} (paper: ALU utilization 66.0%, hidden by the pipeline)\n\
             relative mma issue rate vs cuBLAS: {:.2}x (paper: TC utilization 71.6% of cuBLAS,\n\
             yet faster end-to-end because the kernel moves 29% fewer bytes)\n\
         (c) shared-memory bank conflicts: ZipGEMM ~{:.1}K vs DietGPU {:.1}M (paper: ~4.7K vs millions)\n",
        fused_profile.alu.count(InstrKind::Lop3) as f64 / 1e6,
        fused_profile.alu.count(InstrKind::Iadd) as f64 / 1e6,
        fused_profile.alu.count(InstrKind::Popc) as f64 / 1e6,
        fused_profile.alu.count(InstrKind::Shift) as f64 / 1e6,
        pct(dram_drop),
        pct(alu_duty),
        mma_rate,
        fused_profile.smem.conflict_count() / 1e3,
        dietgpu.smem.conflict_count() / 1e6,
    )
}

/// Figure 13: standalone decompression of a full transformer block's
/// weights (paper: ZipServ-Decomp 2.14×/1.83×/1.10× over
/// DietGPU/nvCOMP/DFloat11).
pub fn fig13() -> String {
    let mut rows = Vec::new();
    for gpu in [Gpu::Rtx4090, Gpu::L40s] {
        let spec = gpu.spec();
        for model in [LlmModel::Llama31_8b, LlmModel::Mistral24b] {
            let dims = model.dims();
            let mut zip_us = 0.0;
            let mut base_us = [0.0f64; 3];
            for layer in LayerKind::BLOCK {
                let (m, k) = layer.weight_dims(&dims);
                zip_us += FusedZipGemm::decomp_profile(&typical_stats(m, k))
                    .execute(&spec)
                    .total_us;
                for (i, codec) in BaselineCodec::ALL.iter().enumerate() {
                    base_us[i] += codec.decomp_profile(m, k, 2.65).execute(&spec).total_us;
                }
            }
            rows.push(vec![
                gpu.name().to_string(),
                model.name().to_string(),
                f2(zip_us / 1e3),
                format!("{} ({:.2}x)", f2(base_us[0] / 1e3), base_us[0] / zip_us),
                format!("{} ({:.2}x)", f2(base_us[1] / 1e3), base_us[1] / zip_us),
                format!("{} ({:.2}x)", f2(base_us[2] / 1e3), base_us[2] / zip_us),
            ]);
        }
    }
    format!(
        "Figure 13 — full-block decompression time (ms) and ZipServ-Decomp speedup \
         (paper: 2.14x DietGPU, 1.83x nvCOMP, 1.10x DFloat11):\n{}",
        render(
            &["GPU", "model", "ZipServ", "DietGPU", "nvCOMP", "DFloat11"],
            &rows
        )
    )
}

/// Figure 14: cross-generation and cross-tier comparison (RTX5090 vs
/// A100/H800), GateUp layers at batch 32.
pub fn fig14() -> String {
    let mut rows = Vec::new();
    for model in [LlmModel::Llama31_8b, LlmModel::Mistral24b] {
        let shape = gateup(model, 32);
        for gpu in [Gpu::Rtx4090, Gpu::Rtx5090, Gpu::A100, Gpu::H800] {
            let spec = gpu.spec();
            let dense = CublasTc::time(shape, &spec).total_us;
            let fused = FusedZipGemm::time(&typical_stats(shape.m, shape.k), 32, &spec).total_us;
            rows.push(vec![
                model.name().to_string(),
                gpu.name().to_string(),
                f2(dense / 1e3),
                f2(fused / 1e3),
                f2(dense / fused),
            ]);
        }
    }
    let shape = gateup(LlmModel::Llama31_8b, 32);
    let h800 = CublasTc::time(shape, &Gpu::H800.spec()).total_us;
    let d5090 = CublasTc::time(shape, &Gpu::Rtx5090.spec()).total_us;
    let z5090 =
        FusedZipGemm::time(&typical_stats(shape.m, shape.k), 32, &Gpu::Rtx5090.spec()).total_us;
    format!(
        "Figure 14 — cross-generation comparison, GateUp @ batch 32 (ms) \
         (paper: 5090 speedups 1.34x/1.87x; 4090+ZipGEMM ~ A100 cuBLAS):\n{}\
         RTX5090 deficit vs H800: dense {} -> fused {} (paper: 53.3% -> 14.1%)\n",
        render(&["model", "GPU", "cuBLAS", "ZipGEMM", "speedup"], &rows),
        pct(d5090 / h800 - 1.0),
        pct(z5090 / h800 - 1.0),
    )
}

/// Figure 15: performance under different `N` — fused wins in decode,
/// decoupled prefill overhead ~4%/2% at N = 8192/16384.
pub fn fig15() -> String {
    let spec = Gpu::Rtx4090.spec();
    let stats = typical_stats(28672, 4096);
    let mut rows = Vec::new();
    for n in [1u64, 8, 32, 128, 512, 2048, 8192, 16384] {
        let shape = GemmShape::new(28672, 4096, n);
        let dense = CublasTc::time(shape, &spec).total_us;
        let fused = FusedZipGemm::time(&stats, n, &spec).total_us;
        let decomp = FusedZipGemm::decomp_profile(&stats).execute(&spec).total_us;
        let decoupled_overhead = decomp / dense;
        rows.push(vec![
            n.to_string(),
            f2(dense / 1e3),
            f2(fused / 1e3),
            f2(dense / fused),
            pct(decoupled_overhead),
        ]);
    }
    format!(
        "Figure 15 — N sweep, 28672x4096, RTX4090 \
         (paper: fused wins for N<=128; decoupled overhead ~4%/2% at 8192/16384):\n{}",
        render(
            &[
                "N",
                "cuBLAS ms",
                "ZipGEMM ms",
                "fused speedup",
                "decoupled ovh"
            ],
            &rows
        )
    )
}

/// §6.4 offline compression cost: measured Rust throughput extrapolated to
/// LLaMA3.1-8B (paper: ~2.5 min on 16 cores).
pub fn offline() -> String {
    let elems = 4_194_304usize; // 2048 x 2048 sample
    let w = WeightGen::new(0.018).seed(99).matrix(2048, 2048);
    let start = std::time::Instant::now();
    let tbe = TbeCompressor::new().compress(&w).expect("tileable");
    let secs = start.elapsed().as_secs_f64();
    let throughput = elems as f64 / secs / 1e6;
    let model_elems = LlmModel::Llama31_8b.dims().total_params() as f64;
    let projected_min = model_elems / (throughput * 1e6) / 60.0;
    format!(
        "Offline compression cost (§6.4, paper: ~2.5 min for LLaMA3.1-8B on 16 cores):\n\
         sample           : {} elements in {:.3} s ({:.1} Melem/s)\n\
         projected 8B     : {:.1} min\n\
         achieved ratio   : {:.3}x ({} of raw)\n",
        elems,
        secs,
        throughput,
        projected_min,
        tbe.compression_ratio(),
        pct(1.0 / tbe.compression_ratio()),
    )
}

/// The three §6.5 deployments.
pub fn deployments() -> Vec<(LlmModel, GpuCluster)> {
    vec![
        (LlmModel::Llama31_8b, GpuCluster::single(Gpu::Rtx4090)),
        (
            LlmModel::Mistral24b,
            GpuCluster::tensor_parallel(Gpu::L40s, 2),
        ),
        (
            LlmModel::Llama31_70b,
            GpuCluster::tensor_parallel(Gpu::L40s, 4),
        ),
    ]
}

/// Figure 16: end-to-end latency and throughput across engines.
pub fn fig16() -> String {
    let mut out = String::from(
        "Figure 16 — end-to-end serving (paper: ZipServ 1.22x vLLM, 3.18x Transformers, 8.52x DFloat11 throughput):\n",
    );
    let mut speedups = [Vec::new(), Vec::new(), Vec::new()];
    for (model, cluster) in deployments() {
        let mut rows = Vec::new();
        for w in Workload::paper_sweep() {
            let mut row = vec![format!("bs{}", w.batch), w.output_len.to_string()];
            let zip = ServingEngine::new(EngineKind::ZipServ, model, cluster).serve(w);
            for kind in EngineKind::ALL {
                let r = ServingEngine::new(kind, model, cluster).serve(w);
                row.push(format!("{:.1}s/{:.0}t/s", r.latency_s, r.throughput_tps));
                match kind {
                    EngineKind::Vllm => speedups[0].push(zip.throughput_tps / r.throughput_tps),
                    EngineKind::Transformers => {
                        speedups[1].push(zip.throughput_tps / r.throughput_tps)
                    }
                    EngineKind::DFloat11 => speedups[2].push(zip.throughput_tps / r.throughput_tps),
                    EngineKind::ZipServ => {}
                }
            }
            rows.push(row);
        }
        out.push_str(&format!(
            "\n{} on {}x{}:\n{}",
            model.name(),
            cluster.count,
            cluster.gpu.name(),
            render(
                &[
                    "batch",
                    "out",
                    "ZipServ",
                    "vLLM",
                    "Transformers",
                    "DFloat11"
                ],
                &rows
            )
        ));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.push_str(&format!(
        "\naverage throughput speedup: {:.2}x vs vLLM, {:.2}x vs Transformers, {:.2}x vs DFloat11\n",
        avg(&speedups[0]),
        avg(&speedups[1]),
        avg(&speedups[2])
    ));
    out
}

/// Figure 17: decode-step and memory breakdown for LLaMA3.1-8B on the
/// RTX4090.
pub fn fig17() -> String {
    let cluster = GpuCluster::single(Gpu::Rtx4090);
    let zip = ServingEngine::new(EngineKind::ZipServ, LlmModel::Llama31_8b, cluster);
    let vllm = ServingEngine::new(EngineKind::Vllm, LlmModel::Llama31_8b, cluster);
    let zs = zip.decode_step(32, 1024);
    let vs = vllm.decode_step(32, 1024);
    let gb = 1024.0 * 1024.0 * 1024.0;
    format!(
        "Figure 17 — LLaMA3.1-8B on RTX4090, batch 32, seq 1024:\n\
         step breakdown (ms)      vLLM      ZipServ   (paper: 24.99 -> 14.76 linear, 1.69x)\n\
           linear                 {:>7.2}   {:>7.2}   ({:.2}x)\n\
           attention              {:>7.2}   {:>7.2}\n\
           other                  {:>7.2}   {:>7.2}\n\
           total                  {:>7.2}   {:>7.2}\n\
         linear fraction (vLLM)  : {} (paper: 83.6%)\n\
         memory (GiB)             vLLM      ZipServ   (paper: weights 14.96 -> 11.18, KV 5.07 -> 8.60)\n\
           weights                {:>7.2}   {:>7.2}\n\
           KV cache               {:>7.2}   {:>7.2}   ({:.2}x, paper 1.70x)\n",
        vs.linear_ms,
        zs.linear_ms,
        vs.linear_ms / zs.linear_ms,
        vs.attention_ms,
        zs.attention_ms,
        vs.other_ms,
        zs.other_ms,
        vs.total_ms(),
        zs.total_ms(),
        pct(vs.linear_fraction()),
        vllm.memory_plan().weight_bytes as f64 / gb,
        zip.memory_plan().weight_bytes as f64 / gb,
        vllm.memory_plan().kv_bytes as f64 / gb,
        zip.memory_plan().kv_bytes as f64 / gb,
        zip.memory_plan().kv_bytes as f64 / vllm.memory_plan().kv_bytes as f64,
    )
}

/// Figure 18 / §7: training-oriented datacenter GPUs and the Marlin-W8A16
/// lossy comparison.
pub fn fig18() -> String {
    let mut rows = Vec::new();
    for gpu in [Gpu::A100, Gpu::H800] {
        let spec = gpu.spec();
        for model in [LlmModel::Llama31_8b, LlmModel::Mistral24b] {
            let shape = gateup(model, 32);
            let dense = CublasTc::time(shape, &spec).total_us;
            let fused = FusedZipGemm::time(&typical_stats(shape.m, shape.k), 32, &spec).total_us;
            let zip_decomp = FusedZipGemm::decomp_profile(&typical_stats(shape.m, shape.k))
                .execute(&spec)
                .total_us;
            let best_base = BaselineCodec::ALL
                .iter()
                .map(|c| {
                    c.decomp_profile(shape.m, shape.k, 2.65)
                        .execute(&spec)
                        .total_us
                })
                .fold(f64::INFINITY, f64::min);
            rows.push(vec![
                gpu.name().to_string(),
                model.name().to_string(),
                f2(dense / fused),
                f2(best_base / zip_decomp),
            ]);
        }
    }
    let spec = Gpu::Rtx4090.spec();
    let shape = GemmShape::new(28672, 4096, 32);
    let marlin = MarlinW8A16::time(shape, &spec).total_us;
    let fused = FusedZipGemm::time(&typical_stats(28672, 4096), 32, &spec).total_us;
    format!(
        "Figure 18 / §7 — datacenter GPUs (paper: ZipGEMM may trail cuBLAS; decomp still fastest):\n{}\
         Marlin-W8A16 vs ZipGEMM on RTX4090: {} ms vs {} ms, gap {:.2}x \
         (paper: 0.143 vs 0.194 ms, 1.36x ~ bit-width ratio)\n",
        render(
            &["GPU", "model", "ZipGEMM/cuBLAS", "decomp speedup vs best"],
            &rows
        ),
        f2(marlin / 1e3),
        f2(fused / 1e3),
        fused / marlin,
    )
}

/// §6.5 memory table: weight footprints before/after compression.
pub fn memory_table() -> String {
    let rows: Vec<Vec<String>> = [
        LlmModel::Llama31_8b,
        LlmModel::Mistral24b,
        LlmModel::Llama31_70b,
    ]
    .iter()
    .map(|&m| {
        let raw = m.dims().weight_bytes_bf16() as f64 / 1e9;
        let comp = raw * zipserv_serve::engine::ZIPSERV_WEIGHT_FRACTION;
        vec![m.name().to_string(), f2(raw), f2(comp), pct(comp / raw)]
    })
    .collect();
    format!(
        "Weight footprint (paper: 14.96/43.92/131.56 GB -> 72.4/71.3/71.1%):\n{}",
        render(&["model", "BF16 GB", "TCA-TBE GB", "fraction"], &rows)
    )
}

/// Ablation study: the two §4.2 design choices, made executable — triple
/// bit-plane bitmaps vs a packed 3-bit bitstream, and the implicit
/// base-plus-code lookup vs an explicit frequency-ranked codebook.
pub fn ablation() -> String {
    use zipserv_core::ablation::{compare_codebooks, compare_layouts};
    let mut rows = Vec::new();
    for gpu in [Gpu::Rtx4090, Gpu::L40s, Gpu::A100] {
        let spec = gpu.spec();
        let layout = compare_layouts(&spec);
        let weights = WeightGen::new(0.018).seed(2024).vector(200_000);
        let hist = ExponentHistogram::from_values(weights);
        let (gain, codebook) = compare_codebooks(&hist, &spec);
        rows.push(vec![
            gpu.name().to_string(),
            format!("{} -> {} ops", layout.reference_ops, layout.ablated_ops),
            format!("{:.2}x slower", layout.slowdown()),
            pct(gain),
            format!("{:.2}x slower", codebook.slowdown()),
        ]);
    }
    format!(
        "Ablation — TCA-TBE design choices (§4.2):\n{}\
         packed bitstream: more extraction work per element, no size benefit.\n\
         explicit codebook: zero coverage gain on contiguous (LLM-like) exponent\n\
         distributions (Theorem A.2), at a shared-memory LUT cost per element.\n",
        render(
            &[
                "GPU",
                "packed-bitstream ops",
                "packed decode",
                "LUT coverage gain",
                "LUT decode"
            ],
            &rows
        )
    )
}

/// Online continuous-batching comparison (the production-serving view of
/// Figure 16's KV-capacity mechanism).
pub fn online() -> String {
    use zipserv_serve::policy::Fcfs;
    use zipserv_serve::scheduler::{poisson_arrivals, run_policy};
    let cluster = GpuCluster::single(Gpu::Rtx4090);
    let arrivals = poisson_arrivals(8.0, 80, 1024, 256, 17);
    let mut rows = Vec::new();
    for kind in [EngineKind::ZipServ, EngineKind::Vllm] {
        let engine = ServingEngine::new(kind, LlmModel::Llama31_8b, cluster);
        let report = run_policy(&engine, &Fcfs, 64, arrivals.clone());
        rows.push(vec![
            kind.name().to_string(),
            f2(report.throughput_tps),
            f2(report.latency_percentile(0.5).expect("completions")),
            f2(report.latency_percentile(0.95).expect("completions")),
            f2(report.mean_queue_s().expect("completions")),
            report.peak_batch.to_string(),
        ]);
    }
    format!(
        "Online serving — continuous batching, Poisson arrivals (8 req/s, prompt 1024, output 256):\n{}",
        render(
            &["engine", "tok/s", "p50 lat (s)", "p95 lat (s)", "mean queue (s)", "peak batch"],
            &rows
        )
    )
}

/// Scheduling-policy comparison: the four `SchedulePolicy` implementations
/// racing on the paper's mixed-priority arrival trace (the `fig_sched`
/// criterion bench times the same race).
pub fn sched() -> String {
    use zipserv_serve::policy::{Fcfs, PreemptiveSjf, Priority, PriorityClass, SloEdf};
    use zipserv_serve::workload::ArrivalMix;
    let arrivals = ArrivalMix::paper_mix().generate(10.0, 120, 29);
    let policies: Vec<Box<dyn zipserv_serve::policy::SchedulePolicy>> = vec![
        Box::new(Fcfs),
        Box::new(Priority::default()),
        Box::new(SloEdf::default()),
        Box::new(PreemptiveSjf::default()),
    ];
    let mut rows = Vec::new();
    for policy in &policies {
        let engine = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::single(Gpu::Rtx4090))
            .policy_box(policy.clone_box())
            .build();
        let report = engine.serve_online(arrivals.clone());
        let int_p99 = report
            .class_ttft_percentile(PriorityClass::Interactive, 0.99)
            .expect("interactive completions");
        rows.push(vec![
            report.policy.clone(),
            f2(report.throughput_tps),
            f2(int_p99),
            f2(report.ttft_percentile(0.99).expect("completions")),
            pct(report.slo_attainment().expect("SLO-carrying completions")),
            report.preemptions.to_string(),
        ]);
    }
    format!(
        "Scheduling policies — ZipServ/LLaMA3.1-8B/RTX4090, paper mix (10 req/s, 120 reqs):\n{}",
        render(
            &[
                "policy",
                "tok/s",
                "p99 TTFT int (s)",
                "p99 TTFT all (s)",
                "SLO att.",
                "preempts"
            ],
            &rows
        )
    )
}

/// Tensor/pipeline-parallel serving: the three §6.5 deployments plus a
/// two-node pipeline projection, with the communication cost (all-reduce,
/// stage hops) broken out of every per-step time — including the steps the
/// online scheduler actually charges (`ScheduleReport::comm_s`).
///
/// Prints a machine-readable `FIG_TP_SCALING` line consumed by the CI
/// smoke check (`smoke_check` bin), which gates on the *ratios* staying
/// within 25% of `BENCH_baseline.json` rather than absolute times.
pub fn tp_parallel() -> String {
    use zipserv_serve::scheduler::poisson_arrivals;
    let mut out = String::from(
        "Multi-GPU serving — §6.5 deployments + 2-node PP projection, ZipServ, batch 32 @ seq 1024:\n",
    );
    let deployments: Vec<(&str, LlmModel, GpuCluster)> = vec![
        (
            "1xRTX4090",
            LlmModel::Llama31_8b,
            GpuCluster::single(Gpu::Rtx4090),
        ),
        (
            "2xL40S (TP2)",
            LlmModel::Mistral24b,
            GpuCluster::tensor_parallel(Gpu::L40s, 2),
        ),
        (
            "4xL40S (TP4)",
            LlmModel::Llama31_70b,
            GpuCluster::tensor_parallel(Gpu::L40s, 4),
        ),
        (
            "2x(4xL40S) (TP4 PP2)",
            LlmModel::Llama31_70b,
            GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2),
        ),
    ];
    let mut rows = Vec::new();
    for (label, model, cluster) in &deployments {
        let engine = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(*model)
            .cluster(*cluster)
            .build();
        let s = engine.decode_step(32, 1024);
        let report = engine.serve_online(poisson_arrivals(3.0, 24, 512, 64, 41));
        rows.push(vec![
            label.to_string(),
            model.name().to_string(),
            f2(s.linear_ms),
            f2(s.attention_ms),
            f2(s.allreduce_ms),
            f2(s.p2p_ms),
            f2(s.total_ms()),
            pct(s.comm_ms() / s.total_ms()),
            format!("{:.2}/{:.1}", report.comm_s, report.duration_s),
        ]);
    }
    out.push_str(&render(
        &[
            "deployment",
            "model",
            "linear",
            "attn",
            "allreduce",
            "p2p",
            "total ms",
            "comm",
            "sched comm/dur (s)",
        ],
        &rows,
    ));

    // TP scaling on a fixed model: LLaMA3.1-8B across 1/2/4 L40S.
    let base = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::L40s))
        .build();
    let t1 = base.decode_step(32, 1024).total_ms();
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for tp in [1u32, 2, 4] {
        let engine = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::tensor_parallel(Gpu::L40s, tp))
            .build();
        let s = engine.decode_step(32, 1024);
        let speedup = t1 / s.total_ms();
        ratios.push(speedup);
        rows.push(vec![
            format!("TP{tp}"),
            f2(s.total_ms()),
            f2(s.allreduce_ms),
            format!("{speedup:.2}x"),
            pct(speedup / tp as f64),
            format!("{}", engine.kv_capacity_tokens()),
        ]);
    }
    out.push_str(&format!(
        "\nTP scaling — LLaMA3.1-8B on 1/2/4 L40S (all-reduce caps the speedup below linear):\n{}",
        render(
            &[
                "degree",
                "step ms",
                "allreduce ms",
                "speedup",
                "efficiency",
                "KV tokens"
            ],
            &rows
        )
    ));
    out.push_str(&format!(
        "FIG_TP_SCALING tp2={:.4} tp4={:.4}\n",
        ratios[1], ratios[2]
    ));
    out
}

/// Fault injection and recovery: the same mixed-priority trace on the TP2
/// deployment, clean vs a mid-run rank failure (with and without repair),
/// a degraded-link window, and a seeded chaos plan — reporting goodput,
/// availability, retries and recompute work.
///
/// Prints a machine-readable `FIG_FAULT` line (faulted-vs-clean goodput
/// ratio and availability under the fail+repair scenario) consumed by the
/// CI smoke check; both numbers are deterministic model outputs, so the
/// gate is symmetric like `FIG_TP_SCALING`.
pub fn fault_recovery() -> String {
    use zipserv_serve::fault::{FaultPlan, RetryPolicy};
    use zipserv_serve::policy::Fcfs;
    use zipserv_serve::scheduler::run_policy_faulted;
    use zipserv_serve::workload::ArrivalMix;
    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::tensor_parallel(Gpu::L40s, 2))
        .build();
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 100, 37);
    let retry = RetryPolicy::default();
    let run =
        |plan: &FaultPlan| run_policy_faulted(&engine, &Fcfs, 64, arrivals.clone(), plan, &retry);
    let clean = run(&FaultPlan::default());
    let (fail_at, repair_at) = (0.3 * clean.duration_s, 0.6 * clean.duration_s);
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("clean", FaultPlan::default()),
        (
            "rank fail + repair",
            FaultPlan::new()
                .rank_fail(fail_at, 0)
                .rank_repair(repair_at, 0),
        ),
        (
            "rank fail, no repair",
            FaultPlan::new().rank_fail(fail_at, 0),
        ),
        (
            "link degrade 4x",
            FaultPlan::new().link_degrade(fail_at, 4.0, repair_at - fail_at),
        ),
        (
            "seeded chaos (7)",
            FaultPlan::seeded(7, clean.duration_s, 2),
        ),
    ];
    let mut rows = Vec::new();
    let mut recovered = None;
    for (label, plan) in &scenarios {
        let r = run(plan);
        rows.push(vec![
            label.to_string(),
            r.completions.len().to_string(),
            r.rejections.len().to_string(),
            f2(r.goodput_tps()),
            pct(r.availability()),
            r.robustness.retries.to_string(),
            r.robustness.recomputed_tokens.to_string(),
            r.robustness
                .mean_time_to_recover_s()
                .map_or("-".to_string(), f2),
            f2(r.duration_s),
        ]);
        if *label == "rank fail + repair" {
            recovered = Some(r);
        }
    }
    let recovered = recovered.expect("scenario list names the recovery run");
    format!(
        "Fault injection & recovery — ZipServ TP2 (2xL40S, LLaMA3.1-8B), paper mix (12 req/s, 100 reqs):\n{}\
         FIG_FAULT goodput_ratio={:.4} availability={:.4}\n",
        render(
            &[
                "scenario",
                "done",
                "rej",
                "goodput t/s",
                "avail",
                "retries",
                "recomp tok",
                "TTR (s)",
                "dur (s)",
            ],
            &rows
        ),
        recovered.goodput_tps() / clean.goodput_tps(),
        recovered.availability(),
    )
}

/// §7 extension: lossless KV-cache compression with per-page bases.
pub fn kv_compression() -> String {
    use zipserv_core::kv::{KvCompressionStats, KvPageCodec};
    let codec = KvPageCodec::new();
    let mut stats = KvCompressionStats::default();
    for seed in 0..32u64 {
        let drift = 0.2 + (seed % 8) as f64 * 0.4;
        let page = WeightGen::new(0.6 * drift).seed(seed).matrix(16, 256);
        let c = codec.compress(&page).expect("tileable");
        stats.push(&c);
    }
    format!(
        "KV-cache compression (§7 extension) — 32 pages of 16 tokens x 256 dims:\n\
         aggregate ratio      : {:.2}x\n\
         capacity multiplier  : {:.2}x on top of the weight savings\n\
         pages                : {}\n",
        stats.ratio(),
        stats.capacity_multiplier(),
        stats.pages
    )
}

/// Prefill pipelining study: serial decompress-then-GEMM (§4.4) vs
/// stream-overlapped double buffering, against the dense (vLLM) floor.
pub fn prefill_overlap() -> String {
    let cluster = GpuCluster::single(Gpu::Rtx4090);
    let zip = ServingEngine::new(EngineKind::ZipServ, LlmModel::Llama31_8b, cluster);
    let vllm = ServingEngine::new(EngineKind::Vllm, LlmModel::Llama31_8b, cluster);
    let mut rows = Vec::new();
    for (batch, prompt) in [(8u64, 512u64), (8, 2048), (32, 1024)] {
        let floor = vllm.prefill_ms(batch, prompt);
        let serial = zip.prefill_ms(batch, prompt);
        let overlapped = zip.prefill_ms_overlapped(batch, prompt);
        rows.push(vec![
            format!("bs{batch}/p{prompt}"),
            f2(floor),
            format!("{} ({:+.1}%)", f2(serial), 100.0 * (serial / floor - 1.0)),
            format!(
                "{} ({:+.1}%)",
                f2(overlapped),
                100.0 * (overlapped / floor - 1.0)
            ),
        ]);
    }
    format!(
        "Prefill decompression overhead (paper §6.4: ~4%/2% at N=8192/16384, serial):\n{}\
         (the stream-overlapped pipeline can dip below the serial dense floor because\n\
         the kernel-graph simulator also overlaps consecutive GEMMs' memory/compute)\n",
        render(
            &[
                "workload",
                "dense floor (ms)",
                "serial decoupled",
                "stream-overlapped"
            ],
            &rows
        )
    )
}

/// §7 orthogonality: lossless compression atop INT8 quantization.
pub fn quant_stack() -> String {
    use zipserv_kernels::marlin_model::MarlinW8A16;
    use zipserv_kernels::quant::{residual_compression, CompressedW8Kernel, QuantizedMatrix};
    let w = WeightGen::new(0.018).seed(123).matrix(512, 512);
    let q = QuantizedMatrix::quantize(&w);
    let err = q.relative_error(&w);
    let residual = residual_compression(&q);
    let spec = Gpu::Rtx4090.spec();
    let shape = GemmShape::new(28672, 4096, 32);
    let marlin = MarlinW8A16::time(shape, &spec).total_us;
    let combined = CompressedW8Kernel::new(residual.fraction())
        .time(shape, &spec)
        .total_us;
    format!(
        "Lossy + lossless stacking (§7: ZipServ is orthogonal to quantization):\n\
         INT8 per-row absmax error   : {:.3}% relative RMSE (lossy — TCA-TBE alone is exact)\n\
         residual lossless ratio     : {:.3}x on the INT8 codes (real Huffman)\n\
         effective bits per weight   : 16 -> 8 -> {:.2}\n\
         kernel, 28672x4096 @ N=32   : Marlin {:.3} ms -> compressed-W8 {:.3} ms ({:.2}x)\n",
        100.0 * err,
        residual.ratio(),
        8.0 * residual.fraction(),
        marlin / 1e3,
        combined / 1e3,
        marlin / combined,
    )
}

/// Pipeline schedules and chunked prefill: GPipe-vs-1F1B bubble
/// fractions across the (pp, m) grid, then the serving-level payoff —
/// chunked prefill vs legacy whole-prefill admission on the paper's
/// mixed-priority traffic at pp = 2.
///
/// Prints a machine-readable `FIG_PIPELINE` line consumed by the CI
/// smoke check: the minimum GPipe/1F1B bubble gain over the grid (> 1
/// certifies 1F1B strictly below GPipe at every swept point), one
/// representative grid point, the interactive p99 TTFT gain from chunked
/// prefill, and its throughput ratio. All four are deterministic model
/// outputs, so the gates are symmetric like `FIG_TP_SCALING`.
pub fn pipeline() -> String {
    use zipserv_serve::parallel::{PipelineKind, PipelineSchedule};
    use zipserv_serve::policy::{Priority, PriorityClass};
    use zipserv_serve::scheduler::{run_policy, ScheduleReport};
    use zipserv_serve::workload::ArrivalMix;

    // GPipe vs 1F1B across the grid. The slot count s + m - 1 is shared;
    // only the idle fraction moves.
    let mut rows = Vec::new();
    let mut min_gain = f64::INFINITY;
    let mut gain_pp4_m8 = 0.0;
    for pp in [2u32, 4, 8] {
        for m in [2u32, 4, 8, 16] {
            let gpipe = PipelineSchedule::new(pp, m);
            let one_f = PipelineSchedule::new(pp, m).with_kind(PipelineKind::OneFOneB);
            let gain = gpipe.bubble_fraction() / one_f.bubble_fraction();
            min_gain = min_gain.min(gain);
            if pp == 4 && m == 8 {
                gain_pp4_m8 = gain;
            }
            rows.push(vec![
                format!("pp{pp}/m{m}"),
                gpipe.slots().to_string(),
                pct(gpipe.bubble_fraction()),
                pct(one_f.bubble_fraction()),
                format!("{gain:.2}x"),
            ]);
        }
    }
    let mut out = format!(
        "Pipeline schedules — GPipe vs 1F1B bubble fraction over the (pp, m) grid:\n{}\
         (1F1B keeps the s + m - 1 slot count but shrinks steady-state idle\n\
         to (pp - 1) / m slots; minimum bubble gain over the grid: {min_gain:.2}x)\n",
        render(
            &["deployment", "slots", "GPipe bubble", "1F1B bubble", "gain"],
            &rows
        )
    );

    // Chunked prefill vs legacy whole-prefill on the pp = 2 deployment:
    // interactive prompts overtake long batch prefills, so the tail TTFT
    // collapses while throughput stays within a few percent.
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 80, 37);
    let build = |chunked: bool| {
        ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 1, 2))
            .chunked_prefill(chunked)
            .build()
    };
    let interactive_ttfts = |r: &ScheduleReport| -> Vec<f64> {
        let mut v: Vec<f64> = r
            .completions
            .iter()
            .filter(|c| c.priority == PriorityClass::Interactive)
            .map(|c| c.ttft_s)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite TTFT"));
        v
    };
    let quantile = |sorted: &[f64], q: f64| -> f64 {
        let idx = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[idx.clamp(1, sorted.len()) - 1]
    };
    let legacy = run_policy(&build(false), &Priority::default(), 64, arrivals.clone());
    let chunked = run_policy(&build(true), &Priority::default(), 64, arrivals);
    let mut rows = Vec::new();
    let mut p99 = [0.0f64; 2];
    for (i, (label, r)) in [
        ("legacy whole-prefill", &legacy),
        ("chunked prefill", &chunked),
    ]
    .iter()
    .enumerate()
    {
        let ttfts = interactive_ttfts(r);
        p99[i] = quantile(&ttfts, 0.99);
        rows.push(vec![
            label.to_string(),
            f2(ttfts.iter().sum::<f64>() / ttfts.len() as f64),
            f2(quantile(&ttfts, 0.5)),
            f2(p99[i]),
            format!("{:.1}", r.throughput_tps),
            r.preemptions.to_string(),
        ]);
    }
    let ttft_gain = p99[0] / p99[1];
    let tput_ratio = chunked.throughput_tps / legacy.throughput_tps;
    out.push_str(&format!(
        "\nChunked prefill — ZipServ PP2 (L40S, LLaMA3.1-8B), paper mix (12 req/s, 80 reqs), priority policy:\n{}",
        render(
            &[
                "prefill mode",
                "int. TTFT mean",
                "int. TTFT p50",
                "int. TTFT p99",
                "tput t/s",
                "preempt",
            ],
            &rows
        )
    ));
    out.push_str(&format!(
        "FIG_PIPELINE min_bubble_gain={min_gain:.4} bubble_gain_pp4_m8={gain_pp4_m8:.4} \
         ttft_p99_gain={ttft_gain:.4} tput_ratio={tput_ratio:.4}\n"
    ));
    out
}

/// Fleet-scale serving: the paper mix routed across four replicas under
/// every in-tree routing policy, plus an autoscaling race against a
/// fixed single replica. Prints a machine-readable `FIG_FLEET` line
/// consumed by the CI smoke gate; the model is deterministic, so the
/// gates are symmetric like `FIG_TP_SCALING`.
pub fn fleet() -> String {
    use zipserv_serve::fleet::{
        Autoscale, FleetReport, FleetRouter, LeastKvPressure, PowerOfTwoChoices, RoundRobin,
        RoutePolicy, SessionAffinity,
    };
    use zipserv_serve::policy::{Priority, PriorityClass};
    use zipserv_serve::workload::ArrivalMix;

    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .policy(Priority::default())
        .max_batch(16)
        .build();
    // Near-saturation load: light fleets make every policy look alike
    // (round-robin's blind interleave is near-optimal when queues never
    // form); routing only earns its keep once queues exist to avoid.
    let arrivals = ArrivalMix::paper_mix().generate(7.0, 320, 53);
    fn race(
        engine: &ServingEngine,
        arrivals: &[zipserv_serve::scheduler::Request],
        policy: impl RoutePolicy + 'static,
    ) -> FleetReport {
        FleetRouter::new(policy)
            .with_replicas(engine, 4)
            .run(arrivals.to_vec())
    }
    let reports = [
        race(&engine, &arrivals, RoundRobin::default()),
        race(&engine, &arrivals, LeastKvPressure),
        race(&engine, &arrivals, SessionAffinity::default()),
        race(&engine, &arrivals, PowerOfTwoChoices::default()),
    ];
    let p99 = |r: &FleetReport| {
        r.class_ttft_percentile(PriorityClass::Interactive, 0.99)
            .expect("interactive completions")
    };
    let mut rows = Vec::new();
    for r in &reports {
        rows.push(vec![
            r.route_policy.clone(),
            f2(p99(r)),
            f2(r.latency_percentile(0.99).expect("completions")),
            format!("{:.1}", r.throughput_tps()),
            format!("{:.3}", r.imbalance_ratio()),
            pct(r.slo_attainment().unwrap_or(1.0)),
        ]);
    }
    let mut out = format!(
        "Fleet routing — 4x ZipServ replicas (RTX 4090, LLaMA3.1-8B, batch 16), paper mix (7 req/s, 320 reqs):\n{}",
        render(
            &[
                "route policy",
                "int. TTFT p99",
                "lat p99",
                "tput t/s",
                "imbalance",
                "SLO",
            ],
            &rows
        )
    );

    let p2c_ttft_gain = p99(&reports[0]) / p99(&reports[3]);
    let p2c_tput_ratio = reports[3].throughput_tps() / reports[0].throughput_tps();
    // Session affinity's sticky hashing is the fleet's worst-balanced
    // policy: its max-over-mean replica load is the imbalance headline.
    let imbalance_ratio = reports[2].imbalance_ratio();

    // Autoscaling race: start from one replica and let queue depth grow
    // the fleet to four, against a fixed single replica on the same trace.
    let autoscaled = FleetRouter::new(LeastKvPressure)
        .with_replica(engine.clone())
        .autoscale(Autoscale {
            min_replicas: 1,
            max_replicas: 4,
            ..Autoscale::default()
        })
        .run(arrivals.clone());
    let fixed = FleetRouter::new(LeastKvPressure)
        .with_replica(engine.clone())
        .run(arrivals);
    let autoscale_tput_ratio = autoscaled.throughput_tps() / fixed.throughput_tps();
    out.push_str(&format!(
        "\nAutoscaling (1 -> {} replicas, {} scale events): {:.1} t/s vs fixed single replica {:.1} t/s ({autoscale_tput_ratio:.2}x)\n",
        autoscaled.per_replica.len(),
        autoscaled.autoscale_events.len(),
        autoscaled.throughput_tps(),
        fixed.throughput_tps(),
    ));
    out.push_str(&format!(
        "FIG_FLEET p2c_ttft_gain={p2c_ttft_gain:.4} p2c_tput_ratio={p2c_tput_ratio:.4} \
         imbalance_ratio={imbalance_ratio:.4} autoscale_tput_ratio={autoscale_tput_ratio:.4}\n"
    ));
    out
}

/// Prefix caching on the multi-tenant mix: the same single-replica
/// deployment and arrival stream raced with the shared-prefix registry
/// off (the legacy bit-compat path) and on, then the four-replica
/// session-affinity fleet where sticky tenants keep their prefixes hot
/// per replica. Prints a machine-readable `FIG_PREFIX` line consumed by
/// the CI smoke gate; the model is deterministic, so the gates are
/// symmetric like `FIG_FLEET`.
pub fn prefix() -> String {
    use zipserv_serve::fleet::{FleetRouter, SessionAffinity};
    use zipserv_serve::policy::{Priority, PriorityClass};
    use zipserv_serve::scheduler::run_policy;
    use zipserv_serve::workload::ArrivalMix;

    let build = |caching: bool| {
        ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::single(Gpu::Rtx4090))
            .policy(Priority::default())
            .max_batch(16)
            .prefix_caching(caching)
            .build()
    };
    // The multi-tenant companion of the paper mix: tenant chat with
    // shared system prompts and follow-ups, templated API traffic, and
    // parallel sampling — every shape the registry can hit on.
    let arrivals = ArrivalMix::multi_tenant_mix().generate(7.0, 320, 53);
    let prompt_tokens: u64 = arrivals.iter().map(|r| r.prompt_len).sum();

    let interactive_ttfts = |r: &zipserv_serve::scheduler::ScheduleReport| -> Vec<f64> {
        let mut v: Vec<f64> = r
            .completions
            .iter()
            .filter(|c| c.priority == PriorityClass::Interactive)
            .map(|c| c.ttft_s)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite TTFT"));
        v
    };
    let quantile = |sorted: &[f64], q: f64| -> f64 {
        let idx = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[idx.clamp(1, sorted.len()) - 1]
    };

    let baseline = run_policy(&build(false), &Priority::default(), 16, arrivals.clone());
    let cached = run_policy(&build(true), &Priority::default(), 16, arrivals.clone());
    let mut rows = Vec::new();
    let mut p99 = [0.0f64; 2];
    for (i, (label, r)) in [("caching off", &baseline), ("caching on", &cached)]
        .iter()
        .enumerate()
    {
        let ttfts = interactive_ttfts(r);
        p99[i] = quantile(&ttfts, 0.99);
        rows.push(vec![
            label.to_string(),
            pct(r.prefix.hit_rate()),
            r.prefix.tokens_saved.to_string(),
            pct(r.prefix.tokens_saved as f64 / prompt_tokens as f64),
            f2(quantile(&ttfts, 0.5)),
            f2(p99[i]),
            format!("{:.1}", r.throughput_tps),
        ]);
    }
    let flops_saved = cached.prefix.tokens_saved as f64 / prompt_tokens as f64;
    let ttft_gain = p99[0] / p99[1];
    let hit_rate = cached.prefix.hit_rate();
    let tput_ratio = cached.throughput_tps / baseline.throughput_tps;
    let mut out = format!(
        "Prefix caching — ZipServ (RTX 4090, LLaMA3.1-8B, batch 16), multi-tenant mix (7 req/s, 320 reqs), priority policy:\n{}",
        render(
            &[
                "prefix cache",
                "hit rate",
                "tokens saved",
                "FLOPs saved",
                "int. TTFT p50",
                "int. TTFT p99",
                "tput t/s",
            ],
            &rows
        )
    );

    // Fleet compounding: session-affinity routing keeps each tenant on
    // one replica, so per-replica registries see the same hit stream a
    // single box would — the per-replica stats fold into FleetReport.
    let fleet = |caching: bool| {
        FleetRouter::new(SessionAffinity::default())
            .with_replicas(&build(caching), 4)
            .run(arrivals.clone())
    };
    let fleet_off = fleet(false);
    let fleet_on = fleet(true);
    let fleet_stats = fleet_on.prefix();
    out.push_str(&format!(
        "\nSession-affinity fleet (4 replicas): hit rate {}, {} tokens saved ({} of prefill), tput {:.1} vs {:.1} t/s uncached\n",
        pct(fleet_stats.hit_rate()),
        fleet_stats.tokens_saved,
        pct(fleet_stats.tokens_saved as f64 / prompt_tokens as f64),
        fleet_on.throughput_tps(),
        fleet_off.throughput_tps(),
    ));
    out.push_str(&format!(
        "FIG_PREFIX flops_saved={flops_saved:.4} ttft_gain={ttft_gain:.4} \
         hit_rate={hit_rate:.4} tput_ratio={tput_ratio:.4}\n"
    ));
    out
}

/// A named experiment: `(id, generator)`.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment in order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("fig01", fig01 as fn() -> String),
        ("fig02", fig02),
        ("contiguity", contiguity),
        ("fig05", fig05),
        ("codeword", codeword),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("offline", offline),
        ("fig16", fig16),
        ("fig17", fig17),
        ("fig18", fig18),
        ("memory", memory_table),
        ("ablation", ablation),
        ("online", online),
        ("sched", sched),
        ("tp", tp_parallel),
        ("pipeline", pipeline),
        ("fleet", fleet),
        ("prefix", prefix),
        ("fault", fault_recovery),
        ("kv", kv_compression),
        ("prefill", prefill_overlap),
        ("quant", quant_stack),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_figures_render() {
        // Smoke-test the cheap generators (the expensive ones run in the
        // repro binary / criterion benches).
        for gen in [
            fig05 as fn() -> String,
            codeword,
            fig12,
            fig14,
            fig15,
            fig18,
            memory_table,
        ] {
            let s = gen();
            assert!(s.len() > 100, "figure output too short: {s}");
        }
    }

    #[test]
    fn experiment_index_is_complete() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        for want in [
            "fig01",
            "fig02",
            "contiguity",
            "fig05",
            "codeword",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "offline",
            "fig16",
            "fig17",
            "fig18",
            "memory",
            "fleet",
            "prefix",
        ] {
            assert!(ids.contains(&want), "missing experiment {want}");
        }
    }
}
