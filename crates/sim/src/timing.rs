//! Trace-driven timing model.
//!
//! The simulator counts events exactly (FMA lane-ops, shared-memory replay
//! cycles, global-memory transactions, constant-memory serializations,
//! barriers); this module converts those counts into seconds using the
//! published machine rates in [`GpuSpec`]. The model is deliberately simple
//! and fully documented:
//!
//! * **Compute**: FMA/ALU lane-ops issue at `cores_per_sm x
//!   issue_efficiency` lanes per cycle per SM.
//! * **Shared memory**: one warp access per SM per cycle; bank conflicts
//!   multiply an access's cycles (counted by the bank model).
//! * **Constant memory**: only serialization cycles cost (a cached uniform
//!   read is folded into the consuming instruction, as on real hardware).
//! * **Global memory**: bus bytes (whole transactions, plus constant-cache
//!   miss lines) at the chip bandwidth.
//! * **Load imbalance**: a grid of `B` blocks on `S` SMs runs
//!   `ceil(B/S)*S/B` slower than perfectly balanced.
//! * **Latency floor**: each barrier-delimited phase must cover the
//!   global-memory latency unless enough blocks are resident to interleave.
//! * **Overlap**: components overlap according to the kernel's
//!   [`OverlapMode`] scaled by occupancy: `t = max + (1 - q·hide)(sum - max)`.
//!
//! Absolute times therefore carry model error (documented in
//! `EXPERIMENTS.md`); *ratios* between kernels are driven by the exactly
//! counted traffic, which is what the paper's conclusions rest on.

use crate::error::{Result, SimError};
use crate::launch::LaunchConfig;
use crate::spec::{GpuSpec, WARP_SIZE};
use crate::stats::KernelStats;

/// Global-memory latency in core cycles (Kepler measures ~230-600 depending
/// on hit level; 400 is a representative round number).
pub const GM_LATENCY_CYCLES: f64 = 400.0;

/// Cost of one `__syncthreads()` in core cycles.
pub const BARRIER_CYCLES: f64 = 20.0;

/// Fixed kernel-launch overhead in seconds (driver + dispatch).
pub const LAUNCH_OVERHEAD_S: f64 = 4e-6;

/// How well a kernel overlaps computation with communication.
///
/// The paper's kernels prefetch the next tile into registers while computing
/// on the current one ([`OverlapMode::Prefetch`]); naive kernels serialize
/// loads and math ([`OverlapMode::Serial`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverlapMode {
    /// Double-buffered / register-prefetched: near-full overlap.
    #[default]
    Prefetch,
    /// Some natural overlap from warp scheduling only.
    Moderate,
    /// Load-then-compute with no software pipelining.
    Serial,
}

impl OverlapMode {
    /// Fraction of the non-critical components hidden under the critical
    /// one at full occupancy.
    pub fn quality(self) -> f64 {
        match self {
            OverlapMode::Prefetch => 0.90,
            OverlapMode::Moderate => 0.55,
            OverlapMode::Serial => 0.15,
        }
    }

    /// Stable single-byte encoding used by the KTRC trace format.
    pub const fn as_u8(self) -> u8 {
        match self {
            OverlapMode::Prefetch => 0,
            OverlapMode::Moderate => 1,
            OverlapMode::Serial => 2,
        }
    }

    /// Inverse of [`OverlapMode::as_u8`]; `None` for unknown encodings.
    pub const fn from_u8(v: u8) -> Option<OverlapMode> {
        match v {
            0 => Some(OverlapMode::Prefetch),
            1 => Some(OverlapMode::Moderate),
            2 => Some(OverlapMode::Serial),
            _ => None,
        }
    }
}

/// Residency of a launch on one SM, computed from the architectural limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Warps resident per SM.
    pub resident_warps: u32,
    /// Which resource bounded the residency.
    pub limiter: &'static str,
}

/// Computes the occupancy of `cfg` on `spec`.
///
/// # Errors
///
/// Returns [`SimError::InvalidLaunch`] if the block cannot run at all (too
/// many threads, too much shared memory, or register demand above the SM
/// capacity).
pub fn occupancy(spec: &GpuSpec, cfg: &LaunchConfig) -> Result<Occupancy> {
    if cfg.threads_per_block == 0 || cfg.blocks == 0 {
        return Err(SimError::InvalidLaunch(
            "grid and block must be non-empty".into(),
        ));
    }
    if cfg.threads_per_block > 1024 {
        return Err(SimError::InvalidLaunch(format!(
            "{} threads per block exceeds the 1024 limit",
            cfg.threads_per_block
        )));
    }
    if cfg.smem_bytes > spec.max_smem_per_block {
        return Err(SimError::InvalidLaunch(format!(
            "{} B of shared memory exceeds the {} B per-block limit",
            cfg.smem_bytes, spec.max_smem_per_block
        )));
    }
    let warps_per_block = (cfg.threads_per_block as u32).div_ceil(WARP_SIZE as u32);
    let mut bps = spec.max_blocks_per_sm;
    let mut limiter = "blocks";
    let lim_threads = spec.max_threads_per_sm / cfg.threads_per_block as u32;
    if lim_threads < bps {
        bps = lim_threads;
        limiter = "threads";
    }
    if let Some(lim_smem) = spec.smem_bytes_per_sm.checked_div(cfg.smem_bytes) {
        if lim_smem < bps {
            bps = lim_smem;
            limiter = "shared memory";
        }
    }
    if cfg.regs_per_thread > 0 {
        let regs_per_block = (cfg.regs_per_thread * cfg.threads_per_block as u32).max(1);
        let lim_regs = spec.regs_per_sm / regs_per_block;
        if lim_regs < bps {
            bps = lim_regs;
            limiter = "registers";
        }
    }
    if bps == 0 {
        return Err(SimError::InvalidLaunch(format!(
            "block does not fit on an SM (limited by {limiter})"
        )));
    }
    Ok(Occupancy {
        blocks_per_sm: bps,
        resident_warps: bps * warps_per_block,
        limiter,
    })
}

/// Timing breakdown for one launch, all components in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Arithmetic issue time (FMA + ALU lane-ops).
    pub t_compute: f64,
    /// Shared-memory pipeline time (incl. bank-conflict replays).
    pub t_smem: f64,
    /// Constant-memory serialization time.
    pub t_cm: f64,
    /// Global-memory bus time (transactions + constant-cache miss lines).
    pub t_gm: f64,
    /// Barrier overhead.
    pub t_barrier: f64,
    /// Latency floor from barrier-delimited dependent phases.
    pub t_latency: f64,
    /// Modeled wall-clock time of the launch.
    pub t_total: f64,
    /// Occupancy used for the overlap term.
    pub occupancy: Occupancy,
    /// Achieved throughput (`stats.flops() / t_total`), in GFlop/s.
    pub gflops: f64,
}

impl Timing {
    /// Name of the dominant cost component.
    pub fn bottleneck(&self) -> &'static str {
        let compute = self.t_compute + self.t_barrier;
        let smem = self.t_smem + self.t_cm;
        let mut name = "compute";
        let mut best = compute;
        if smem > best {
            best = smem;
            name = "shared memory";
        }
        if self.t_gm > best {
            best = self.t_gm;
            name = "global memory";
        }
        if self.t_latency > best {
            name = "latency";
        }
        name
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} ms ({:.1} GFlop/s; compute {:.3} ms, smem {:.3} ms, gmem {:.3} ms, bound by {})",
            self.t_total * 1e3,
            self.gflops,
            self.t_compute * 1e3,
            self.t_smem * 1e3,
            self.t_gm * 1e3,
            self.bottleneck()
        )
    }
}

/// Evaluates the timing model for one launch.
///
/// `stats` must describe the **whole** grid (the launcher scales sampled
/// executions before calling this).
///
/// # Errors
///
/// Returns [`SimError::InvalidLaunch`] if the configuration cannot run (see
/// [`occupancy`]).
pub fn evaluate(spec: &GpuSpec, cfg: &LaunchConfig, stats: &KernelStats) -> Result<Timing> {
    let occ = occupancy(spec, cfg)?;
    let blocks = stats.blocks_total.max(1);
    let sm = spec.sm_count as u64;
    let clock = spec.clock_hz();

    // A grid of B blocks on S SMs takes ceil(B/S) block-rounds; relative to
    // perfect balance that is an inflation of ceil(B/S)*S/B >= 1.
    let imbalance = (blocks.div_ceil(sm) * sm) as f64 / blocks as f64;
    let per_sm = |cycles: f64| cycles / sm as f64 / clock * imbalance;

    let lane_cycles = (stats.fma_lane_ops + stats.alu_lane_ops) as f64
        / (spec.cores_per_sm as f64 * spec.issue_efficiency);
    let t_compute = per_sm(lane_cycles);
    let t_smem = per_sm(stats.sm_cycles() as f64);
    let t_cm = per_sm(stats.cm_cycles as f64);
    let t_barrier = per_sm(stats.barriers as f64 * BARRIER_CYCLES);

    let gm_bus_bytes = stats.gm_bytes_bus() + stats.cm_misses * spec.cm_line_bytes;
    let t_gm = gm_bus_bytes as f64 / (spec.gm_bandwidth_gbs * 1e9) * imbalance;

    // Latency floor: each barrier-delimited phase of each block has a
    // dependent global-memory round trip; resident blocks interleave to
    // cover it.
    let interleave = occ.blocks_per_sm.min(blocks.div_ceil(sm) as u32).max(1) as f64;
    let t_latency = per_sm(stats.barriers as f64 * GM_LATENCY_CYCLES) / interleave;

    let comp = t_compute + t_barrier;
    let smm = t_smem + t_cm;
    let parts = [comp, smm, t_gm];
    let max3 = parts.iter().cloned().fold(0.0f64, f64::max);
    let sum3: f64 = parts.iter().sum();
    let hide = (occ.resident_warps as f64 / spec.latency_hiding_warps as f64).min(1.0);
    let q = cfg.overlap.quality() * hide;
    let t_total = max3.max(t_latency) + (1.0 - q) * (sum3 - max3) + LAUNCH_OVERHEAD_S;

    let gflops = stats.flops() as f64 / t_total / 1e9;
    Ok(Timing {
        t_compute,
        t_smem,
        t_cm,
        t_gm,
        t_barrier,
        t_latency,
        t_total,
        occupancy: occ,
        gflops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::LaunchConfig;

    fn cfg(blocks: usize, threads: usize) -> LaunchConfig {
        LaunchConfig::new("t", blocks, threads)
    }

    fn spec() -> GpuSpec {
        GpuSpec::kepler_k40m()
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let occ = occupancy(&spec(), &cfg(100, 1024)).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.resident_warps, 64);
        assert_eq!(occ.limiter, "threads");
    }

    #[test]
    fn occupancy_limited_by_smem() {
        let mut c = cfg(100, 64);
        c.smem_bytes = 20 * 1024;
        let occ = occupancy(&spec(), &c).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, "shared memory");
    }

    #[test]
    fn occupancy_limited_by_regs() {
        let mut c = cfg(100, 256);
        c.regs_per_thread = 128;
        let occ = occupancy(&spec(), &c).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, "registers");
    }

    #[test]
    fn invalid_launches_rejected() {
        assert!(occupancy(&spec(), &cfg(0, 32)).is_err());
        assert!(occupancy(&spec(), &cfg(1, 0)).is_err());
        assert!(occupancy(&spec(), &cfg(1, 2048)).is_err());
        let mut c = cfg(1, 32);
        c.smem_bytes = 64 * 1024;
        assert!(occupancy(&spec(), &c).is_err());
        let mut c = cfg(1, 1024);
        c.regs_per_thread = 255;
        assert!(occupancy(&spec(), &c).is_err());
    }

    fn compute_stats(fma: u64, blocks: u64) -> KernelStats {
        KernelStats {
            fma_lane_ops: fma,
            blocks_total: blocks,
            blocks_executed: blocks,
            ..Default::default()
        }
    }

    #[test]
    fn pure_compute_approaches_issue_ceiling() {
        let s = spec();
        // Lots of flops, no memory: should approach issue_efficiency * peak.
        let stats = compute_stats(2_000_000_000, 15 * 16);
        let t = evaluate(&s, &cfg(15 * 16, 256), &stats).unwrap();
        let frac = t.gflops / s.peak_gflops();
        assert!(frac > 0.70 && frac <= s.issue_efficiency + 1e-9, "{frac}");
        assert_eq!(t.bottleneck(), "compute");
    }

    #[test]
    fn gm_bound_kernel_tracks_bandwidth() {
        let s = spec();
        let mut stats = compute_stats(1000, 15 * 64);
        stats.gm_ld_bytes_bus = 288_000_000; // 1 ms at 288 GB/s
        stats.gm_ld_bytes_useful = 288_000_000;
        let t = evaluate(&s, &cfg(15 * 64, 256), &stats).unwrap();
        assert!((t.t_gm - 1e-3).abs() < 1e-5, "{}", t.t_gm);
        assert_eq!(t.bottleneck(), "global memory");
    }

    #[test]
    fn imbalance_penalizes_small_grids() {
        let s = spec();
        let stats_big = compute_stats(1_500_000_000, 150);
        let t_big = evaluate(&s, &cfg(150, 256), &stats_big).unwrap();
        // Same total work in a single block: only one SM busy.
        let stats_one = compute_stats(1_500_000_000, 1);
        let t_one = evaluate(&s, &cfg(1, 256), &stats_one).unwrap();
        assert!(t_one.t_total > 10.0 * t_big.t_total);
    }

    #[test]
    fn sixteen_blocks_on_fifteen_sms_pay_a_second_round() {
        let s = spec();
        let t15 = evaluate(&s, &cfg(15, 256), &compute_stats(1_500_000_000, 15)).unwrap();
        let t16 = evaluate(&s, &cfg(16, 256), &compute_stats(1_600_000_000, 16)).unwrap();
        // 16 blocks do ~2x the wall time of 15 despite only 7% more work:
        // imbalance 2*15/16 = 1.875 times the 16/15 extra work = 2.0.
        let ratio = t16.t_compute / t15.t_compute;
        assert!((ratio - 2.0).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn bank_conflicts_slow_smem_bound_kernels() {
        let s = spec();
        let mut a = compute_stats(1000, 150);
        a.sm_ld_requests = 1_000_000;
        a.sm_ld_cycles = 1_000_000;
        let mut b = a;
        b.sm_ld_cycles = 2_000_000; // 2-way conflicts
        let ta = evaluate(&s, &cfg(150, 256), &a).unwrap();
        let tb = evaluate(&s, &cfg(150, 256), &b).unwrap();
        assert!((tb.t_smem / ta.t_smem - 2.0).abs() < 1e-9);
    }

    #[test]
    fn prefetch_overlaps_better_than_serial() {
        let s = spec();
        let mut stats = compute_stats(500_000_000, 150);
        stats.gm_ld_bytes_bus = 100_000_000;
        let mut c = cfg(150, 256);
        c.overlap = OverlapMode::Prefetch;
        let tp = evaluate(&s, &c, &stats).unwrap();
        c.overlap = OverlapMode::Serial;
        let ts = evaluate(&s, &c, &stats).unwrap();
        assert!(ts.t_total > tp.t_total);
    }

    #[test]
    fn latency_floor_binds_tiny_phases() {
        let s = spec();
        // Many barriers, almost no work, occupancy 1 block per SM by smem.
        let mut stats = compute_stats(100, 15);
        stats.barriers = 150_000;
        let mut c = cfg(15, 256);
        c.smem_bytes = 40 * 1024;
        let t = evaluate(&s, &c, &stats).unwrap();
        assert_eq!(t.bottleneck(), "latency");
        assert!(t.t_total >= t.t_latency);
    }

    #[test]
    fn display_and_bottleneck() {
        let s = spec();
        let t = evaluate(&s, &cfg(150, 256), &compute_stats(1_000_000, 150)).unwrap();
        let text = t.to_string();
        assert!(text.contains("GFlop/s"));
    }

    #[test]
    fn overlap_quality_ordering() {
        assert!(OverlapMode::Prefetch.quality() > OverlapMode::Moderate.quality());
        assert!(OverlapMode::Moderate.quality() > OverlapMode::Serial.quality());
        assert_eq!(OverlapMode::default(), OverlapMode::Prefetch);
    }
}
