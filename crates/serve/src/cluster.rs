//! Deployment descriptions: which GPUs, how many, and how they talk.
//!
//! A deployment is a grid of `tp × pp` identical devices: `count` (= the
//! tensor-parallel degree) GPUs per pipeline stage, `pp` pipeline stages.
//! TP ranks within a stage talk over the intra-node interconnect
//! (`link_gbps`, NVLink- or PCIe-class); adjacent pipeline stages exchange
//! activations over the inter-stage link (`pp_link_gbps`, typically a
//! slower cross-node fabric).

use zipserv_gpu_sim::device::{DeviceSpec, Gpu, Tier};

/// Effective inter-node bandwidth for pipeline-stage hops (GB/s per
/// direction): IB/Ethernet-class fabric between hosts.
pub const INTER_NODE_GBPS: f64 = 25.0;

/// A homogeneous GPU deployment running one model with tensor and/or
/// pipeline parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCluster {
    /// Device type.
    pub gpu: Gpu,
    /// Devices per pipeline stage (= tensor-parallel degree).
    pub count: u32,
    /// Effective intra-stage (TP) bandwidth per direction, GB/s.
    pub link_gbps: f64,
    /// Pipeline-parallel degree (stages).
    pub pp: u32,
    /// Effective inter-stage (PP) bandwidth per direction, GB/s.
    pub pp_link_gbps: f64,
}

impl GpuCluster {
    /// A single GPU.
    pub fn single(gpu: Gpu) -> Self {
        GpuCluster {
            gpu,
            count: 1,
            link_gbps: 0.0,
            pp: 1,
            pp_link_gbps: 0.0,
        }
    }

    /// A tensor-parallel deployment with a tier-appropriate interconnect:
    /// PCIe Gen4 (~22 GB/s effective) on consumer parts, NVLink-class
    /// (~200 GB/s effective) on datacenter parts.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn tensor_parallel(gpu: Gpu, count: u32) -> Self {
        assert!(count >= 1, "cluster needs at least one GPU");
        let link = match gpu.spec().tier {
            Tier::Consumer => 22.0,
            Tier::Datacenter => 200.0,
        };
        GpuCluster {
            gpu,
            count,
            link_gbps: if count > 1 { link } else { 0.0 },
            pp: 1,
            pp_link_gbps: 0.0,
        }
    }

    /// A `tp × pp` grid: `pp` pipeline stages of `tp` tensor-parallel GPUs
    /// each. Intra-stage links follow [`GpuCluster::tensor_parallel`];
    /// stages talk over an [`INTER_NODE_GBPS`] fabric (each stage is
    /// typically its own host).
    ///
    /// # Panics
    ///
    /// Panics if `tp == 0` or `pp == 0`.
    pub fn pipeline_parallel(gpu: Gpu, tp: u32, pp: u32) -> Self {
        assert!(pp >= 1, "cluster needs at least one pipeline stage");
        let mut c = GpuCluster::tensor_parallel(gpu, tp);
        c.pp = pp;
        c.pp_link_gbps = if pp > 1 { INTER_NODE_GBPS } else { 0.0 };
        c
    }

    /// The device specification.
    pub fn spec(&self) -> DeviceSpec {
        self.gpu.spec()
    }

    /// Per-GPU DRAM capacity in bytes.
    pub fn dram_bytes_per_gpu(&self) -> u64 {
        (self.spec().dram_gib * 1024.0 * 1024.0 * 1024.0) as u64
    }

    /// Tensor-parallel degree (GPUs per pipeline stage).
    pub fn tp(&self) -> u32 {
        self.count
    }

    /// Pipeline-parallel degree (stages).
    pub fn pp(&self) -> u32 {
        self.pp
    }

    /// Total devices in the deployment (`tp × pp`).
    pub fn total_devices(&self) -> u32 {
        self.count * self.pp
    }

    /// Transformer layers held by each pipeline stage: a balanced
    /// partition, with the first `layers % pp` stages carrying one extra
    /// layer. With `pp == 1` this is just `[layers]`.
    pub fn stage_layers(&self, layers: u64) -> Vec<u64> {
        let pp = self.pp as u64;
        let base = layers / pp;
        let extra = layers % pp;
        (0..pp).map(|s| base + u64::from(s < extra)).collect()
    }

    /// Layers on the most-loaded (bottleneck) pipeline stage.
    pub fn bottleneck_stage_layers(&self, layers: u64) -> u64 {
        layers.div_ceil(self.pp as u64)
    }

    /// Total ranks as a `usize` — the fault layer's flat index space
    /// (`rank = stage * tp + lane`).
    pub fn total_ranks(&self) -> usize {
        self.total_devices() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_deployments() {
        // §6.5: LLaMA3.1-8B on 1×RTX4090, Mistral-24B on 2×L40S,
        // LLaMA3.1-70B on 4×L40S.
        let a = GpuCluster::single(Gpu::Rtx4090);
        assert_eq!(a.tp(), 1);
        assert_eq!(a.pp(), 1);
        assert_eq!(a.link_gbps, 0.0);
        let b = GpuCluster::tensor_parallel(Gpu::L40s, 2);
        assert_eq!(b.tp(), 2);
        assert!(b.link_gbps > 0.0);
        assert_eq!(b.pp_link_gbps, 0.0);
        let c = GpuCluster::tensor_parallel(Gpu::L40s, 4);
        assert_eq!(c.total_devices(), 4);
    }

    #[test]
    fn datacenter_links_are_faster() {
        let consumer = GpuCluster::tensor_parallel(Gpu::L40s, 2);
        let dc = GpuCluster::tensor_parallel(Gpu::A100, 2);
        assert!(dc.link_gbps > 5.0 * consumer.link_gbps);
    }

    #[test]
    fn capacity_math() {
        let c = GpuCluster::single(Gpu::Rtx4090);
        assert_eq!(c.dram_bytes_per_gpu(), 24 * 1024 * 1024 * 1024);
    }

    #[test]
    fn pipeline_grid_counts_every_rank() {
        let c = GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2);
        assert_eq!(c.tp(), 4);
        assert_eq!(c.pp(), 2);
        assert_eq!(c.total_devices(), 8);
        assert_eq!(c.total_ranks(), 8);
        // Stage hops cross nodes over the fixed inter-node fabric — much
        // slower than an NVLink-class intra-stage link.
        assert_eq!(c.pp_link_gbps, INTER_NODE_GBPS);
        let dc = GpuCluster::pipeline_parallel(Gpu::A100, 2, 2);
        assert!(dc.pp_link_gbps < dc.link_gbps);
    }

    #[test]
    fn single_stage_has_no_pp_link() {
        let c = GpuCluster::pipeline_parallel(Gpu::L40s, 2, 1);
        assert_eq!(c, GpuCluster::tensor_parallel(Gpu::L40s, 2));
        assert_eq!(c.pp_link_gbps, 0.0);
    }

    #[test]
    fn stage_layer_partition_is_balanced_and_complete() {
        let c = GpuCluster::pipeline_parallel(Gpu::L40s, 1, 3);
        let stages = c.stage_layers(32);
        assert_eq!(stages, vec![11, 11, 10]);
        assert_eq!(stages.iter().sum::<u64>(), 32);
        assert_eq!(c.bottleneck_stage_layers(32), 11);
        // pp=1 degenerates to the whole model on one stage.
        assert_eq!(GpuCluster::single(Gpu::Rtx4090).stage_layers(32), vec![32]);
    }
}
