//! # kconv-systolic — double-buffered staging pipeline over the workload matrix
//!
//! The paper's kernels alternate *stage → barrier → compute → barrier* every
//! channel round: two `bar.sync`s per round, with every warp idle while the
//! round's shared-memory slab fills. This crate splits the shared-memory
//! allocation into ping/pong halves and overlaps the rounds: while round `r`
//! computes from buffer `A`, the same warps stage round `r + 1` into buffer
//! `B`, and one barrier per round separates the two phases. Over `R` rounds
//! the barrier count drops from `2R` to `R + 1` — asymptotically half — at
//! the cost of doubling the staging footprint.
//!
//! [`PipelineConfig::depth`] selects the schedule: depth 1 is the paper's
//! stage/compute alternation (the differential baseline), depth 2 the
//! double-buffered pipeline. Everything else — global-memory addresses,
//! shared-memory conflict behavior, FMA order, output — is bit-identical
//! between the two, so the simulator's counters isolate exactly the barrier
//! savings. The ping/pong offset is a multiple of 256 bytes (a full bank
//! row on both 4- and 8-byte-bank parts), which keeps the bank-conflict
//! cost of every staged access invariant across depths.
//!
//! The executor also widens the workload matrix beyond the paper's dense
//! stride-1 case: [`SystolicConv`] accepts strided, dilated and depthwise
//! (`groups == channels`) problems (see
//! [`ConvProblem::with_dilation`]/[`ConvProblem::depthwise`]), staging only
//! the `K` gathered input rows a dilated/strided tap pattern actually
//! touches. Staging is `n`-wide through the [`KernelShape`] vector factor,
//! so the architecture-adaptive generator's matched variants get the
//! pipelined form too.
//!
//! ```
//! use kconv_core::Convolution;
//! use kconv_sim::{Gpu, GpuSpec, SimMode};
//! use kconv_systolic::{PipelineConfig, SystolicConv};
//! use kconv_tensor::{random_filters, random_maps, ConvProblem};
//!
//! # fn main() -> Result<(), kconv_core::ConvError> {
//! let spec = GpuSpec::kepler_k40m();
//! let problem = ConvProblem::general(32, 8, 4, 3).with_stride(2);
//! let input = random_maps(8, 32, 32, 1);
//! let filters = random_filters(4, 8, 3, 2);
//!
//! let base = PipelineConfig::matched_for(&spec).with_depth(1);
//! let pipe = base.with_depth(2);
//! let mut gpu = Gpu::new(spec);
//! let d1 = SystolicConv::new(base).run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
//! let d2 = SystolicConv::new(pipe).run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
//!
//! // Same numbers, same memory traffic, (R + 1) vs 2R barriers.
//! assert_eq!(d1.output.as_slice(), d2.output.as_slice());
//! assert_eq!(d1.report.stats.gm_ld_bytes_bus, d2.report.stats.gm_ld_bytes_bus);
//! assert!(d2.report.stats.barriers < d1.report.stats.barriers);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use kconv_core::tune::TuneSkip;
use kconv_core::{ConvError, ConvRun, Convolution, DataType, KernelShape, OutRegion, Result};
use kconv_sim::{
    lane_addrs_from, Gpu, GpuSpec, LaneMask, LaunchConfig, OverlapMode, SimMode, WARP_SIZE,
};
use kconv_tensor::{random_filters, random_maps, ConvProblem, FeatureMaps, FilterSet};

/// Ping/pong buffer alignment in bytes: one full shared-memory bank row on
/// every modeled part (32 banks x 8 bytes). Offsetting the second buffer by
/// a multiple of this keeps each staged address in the same bank it used at
/// depth 1, so bank-conflict costs are bit-identical across depths.
pub const BUF_ALIGN: usize = 256;

fn round_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

/// Configuration of the pipelined executor: the staging schedule depth plus
/// the tile geometry and vectorization shape every round stages with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Staging schedule: `1` = stage/compute alternation (two barriers per
    /// round — the paper's kernels, kept as the differential baseline);
    /// `2` = double-buffered ping/pong (one barrier per round plus a prime).
    pub depth: usize,
    /// Output columns per block; one thread per column, so also the block's
    /// thread count.
    pub tile_w: usize,
    /// Channels staged per round (`C_SH`); `ceil(C / c_sh)` rounds total.
    pub c_sh: usize,
    /// Vectorization shape of the staging stream (`n`-wide global loads and
    /// shared stores). The systolic kernel computes in `f32`; the shape's
    /// `vec_width` must be one of its instantiable factors (1, 2, 4).
    pub shape: KernelShape,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            depth: 2,
            tile_w: 64,
            c_sh: 2,
            shape: KernelShape {
                dtype: DataType::F32,
                vec_width: 2,
            },
        }
    }
}

impl PipelineConfig {
    /// The default tile with the staging vector factor derived from `spec`'s
    /// bank width (eq. 1 in reverse, like the architecture-adaptive
    /// generator).
    pub fn matched_for(spec: &GpuSpec) -> Self {
        PipelineConfig {
            shape: KernelShape::matched(spec, DataType::F32),
            ..PipelineConfig::default()
        }
    }

    /// This configuration with a different pipeline depth.
    pub fn with_depth(self, depth: usize) -> Self {
        PipelineConfig { depth, ..self }
    }

    /// Channel rounds the main loop runs for `problem`.
    pub fn rounds(&self, problem: &ConvProblem) -> usize {
        problem.channels.div_ceil(self.c_sh)
    }

    /// Columns of one staged input row: the tile's gathered span
    /// `(tile_w - 1) * stride + k_span`, padded to the staging vector
    /// factor so `n`-wide staging stays aligned.
    pub fn row_pitch(&self, problem: &ConvProblem) -> usize {
        let span = (self.tile_w - 1) * problem.stride + problem.k_span();
        round_up(span, self.shape.vec_width)
    }

    /// Filters staged per channel: all `F` for dense convolution, exactly
    /// one for depthwise (channel `c` feeds only output map `c`).
    fn fcount(&self, problem: &ConvProblem) -> usize {
        if problem.depthwise {
            1
        } else {
            problem.filters
        }
    }

    /// Bytes one round's slab occupies: `c_sh` channels x `K` gathered
    /// input rows x [`row_pitch`](Self::row_pitch), plus the round's filter
    /// taps.
    pub fn round_bytes(&self, problem: &ConvProblem) -> usize {
        let kk = problem.k * problem.k;
        let img = self.c_sh * problem.k * self.row_pitch(problem);
        let flt = self.c_sh * self.fcount(problem) * kk;
        (img + flt) * 4
    }

    /// Distance between ping and pong buffers:
    /// [`round_bytes`](Self::round_bytes) rounded up to [`BUF_ALIGN`].
    pub fn buf_stride(&self, problem: &ConvProblem) -> usize {
        round_up(self.round_bytes(problem), BUF_ALIGN)
    }

    /// Total static shared memory per block: `depth` staging buffers.
    pub fn smem_bytes(&self, problem: &ConvProblem) -> usize {
        self.depth * self.buf_stride(problem)
    }

    /// Barriers one block issues for `problem` under this schedule:
    /// `2R` at depth 1 (stage;sync;compute;sync per round), `R + 1` at
    /// depth 2 (one priming sync plus one per round).
    pub fn barriers_per_block(&self, problem: &ConvProblem) -> u64 {
        let r = self.rounds(problem) as u64;
        match self.depth {
            1 => 2 * r,
            _ => r + 1,
        }
    }

    /// Checks this configuration against `spec` and `problem`, returning a
    /// human-readable reason on rejection — the string the depth-axis tuner
    /// records as a [`TuneSkip`] when the doubled staging buffer no longer
    /// fits the shared memory of one block.
    ///
    /// # Errors
    ///
    /// Returns the reason the configuration cannot run.
    pub fn validate(
        &self,
        spec: &GpuSpec,
        problem: &ConvProblem,
    ) -> std::result::Result<(), String> {
        if !(1..=2).contains(&self.depth) {
            return Err(format!("pipeline depth {} (supported: 1, 2)", self.depth));
        }
        if self.tile_w == 0 || self.tile_w > 1024 {
            return Err(format!("tile_w {} threads per block", self.tile_w));
        }
        if self.c_sh == 0 {
            return Err("c_sh must be at least 1".into());
        }
        if self.shape.dtype != DataType::F32 {
            return Err(format!(
                "systolic kernel computes in f32, got {:?}",
                self.shape.dtype
            ));
        }
        if !KernelShape::supported_factors(DataType::F32).contains(&self.shape.vec_width) {
            return Err(format!(
                "staging vector factor {} (supported: 1, 2, 4)",
                self.shape.vec_width
            ));
        }
        let need = self.smem_bytes(problem);
        if need > spec.max_smem_per_block as usize {
            return Err(format!(
                "depth-{} staging needs {} B of shared memory ({} B/buffer x {}), \
                 exceeds the {} B per-block capacity of {}",
                self.depth,
                need,
                self.buf_stride(problem),
                self.depth,
                spec.max_smem_per_block,
                spec.name
            ));
        }
        Ok(())
    }
}

/// The barrier-halving relation between the two schedules on the same
/// problem: depth 2's `R + 1` per-block barriers against depth 1's `2R`,
/// i.e. `(pipelined - 1) * 2 == baseline`. This is the per-block check the
/// `systolic` harness and `trace_report --check` apply to captured traces.
pub fn barrier_halving(baseline_per_block: u64, pipelined_per_block: u64) -> bool {
    pipelined_per_block >= 1 && (pipelined_per_block - 1) * 2 == baseline_per_block
}

/// The pipelined direct convolution: one thread per output column, one
/// block per (output row, column tile), channel rounds staged through the
/// ping/pong schedule of its [`PipelineConfig`].
///
/// Unlike the paper's kernels this executor accepts the full workload
/// matrix — strided, dilated and depthwise problems — by staging the `K`
/// gathered input rows (`y * stride + i * dilation`) each output row
/// actually reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystolicConv {
    /// The pipeline schedule and tile geometry.
    pub config: PipelineConfig,
}

impl SystolicConv {
    /// A kernel with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        SystolicConv { config }
    }
}

impl Convolution for SystolicConv {
    fn name(&self) -> String {
        format!(
            "systolic d{} n={}",
            self.config.depth, self.config.shape.vec_width
        )
    }

    fn run(
        &self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<ConvRun> {
        if !problem.matches(input, filters) {
            return Err(ConvError::Shape(format!(
                "input/filter shapes do not match {problem}"
            )));
        }
        self.config
            .validate(gpu.spec(), problem)
            .map_err(ConvError::Config)?;
        match self.config.shape.vec_width {
            1 => run_systolic::<1>(gpu, &self.config, problem, input, filters, mode),
            2 => run_systolic::<2>(gpu, &self.config, problem, input, filters, mode),
            4 => run_systolic::<4>(gpu, &self.config, problem, input, filters, mode),
            n => Err(ConvError::Config(format!(
                "unsupported vec_width {n} (expected 1, 2 or 4)"
            ))),
        }
    }
}

/// Geometry shared by setup and the block body.
struct Geom {
    k: usize,
    kk: usize,
    channels: usize,
    filters: usize,
    stride: usize,
    dilation: usize,
    depthwise: bool,
    oh: usize,
    ow: usize,
    tiles_x: usize,
    tile_w: usize,
    c_sh: usize,
    rounds: usize,
    row_pitch: usize,
    in_pitch: usize,
    in_rows: usize,
    fcount: usize,
    /// Element offset of the filter slab inside one staging buffer.
    flt_base: usize,
    /// Byte distance between the ping and pong buffers.
    buf_stride: u64,
    depth: usize,
}

fn run_systolic<const N: usize>(
    gpu: &mut Gpu,
    cfg: &PipelineConfig,
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
    mode: SimMode,
) -> Result<ConvRun> {
    let (oh, ow) = (problem.out_height(), problem.out_width());
    let tiles_x = ow.div_ceil(cfg.tile_w);
    let row_pitch = cfg.row_pitch(problem);
    // Every tile stages a full row_pitch of columns; pad the device image so
    // the last tile's (vector-aligned) staging reads stay in bounds.
    let in_pitch = problem
        .width
        .max((tiles_x - 1) * cfg.tile_w * problem.stride + row_pitch);

    let padded = input.padded_to(problem.height, in_pitch);
    let d_in = gpu.alloc_f32((problem.channels * problem.height * in_pitch) as u64)?;
    gpu.upload_f32(d_in, padded.as_slice())?;
    let d_flt = gpu.alloc_f32(filters.len() as u64)?;
    gpu.upload_f32(d_flt, filters.as_slice())?;
    let d_out = gpu.alloc_f32((problem.filters * oh * ow) as u64)?;

    let g = Geom {
        k: problem.k,
        kk: problem.k * problem.k,
        channels: problem.channels,
        filters: problem.filters,
        stride: problem.stride,
        dilation: problem.dilation,
        depthwise: problem.depthwise,
        oh,
        ow,
        tiles_x,
        tile_w: cfg.tile_w,
        c_sh: cfg.c_sh,
        rounds: cfg.rounds(problem),
        row_pitch,
        in_pitch,
        in_rows: problem.height,
        fcount: cfg.fcount(problem),
        flt_base: cfg.c_sh * problem.k * row_pitch,
        buf_stride: cfg.buf_stride(problem) as u64,
        depth: cfg.depth,
    };

    let launch = LaunchConfig::new(
        format!("systolic d{} n{N} K={}", cfg.depth, problem.k),
        oh * tiles_x,
        cfg.tile_w,
    )
    .with_smem(cfg.smem_bytes(problem) as u32)
    .with_regs(32)
    .with_overlap(OverlapMode::Prefetch);

    let report = gpu.launch(&launch, mode, |blk| {
        systolic_block::<N>(blk, &g, d_in, d_flt, d_out);
    })?;

    let flat = gpu.download_f32(d_out)?;
    let output = FeatureMaps::from_vec(problem.filters, oh, ow, flat);

    let mut regions = Vec::new();
    for &b in &report.executed_blocks {
        let (y, tx) = (b / tiles_x, b % tiles_x);
        if let Some(r) = (OutRegion {
            f0: 0,
            nf: problem.filters,
            y0: y,
            x0: tx * cfg.tile_w,
            h: 1,
            w: cfg.tile_w,
        })
        .clipped(problem)
        {
            regions.push(r);
        }
    }
    Ok(ConvRun {
        output,
        report,
        executed_regions: regions,
        faults: Vec::new(),
    })
}

/// One thread block: output row `y`, columns `[tx * tile_w, ...)`, every
/// filter. The channel rounds run under the configured staging schedule;
/// staging and compute issue identical memory operations at either depth —
/// only their interleaving and the buffer offsets differ.
fn systolic_block<const N: usize>(
    blk: &mut kconv_sim::BlockCtx<'_>,
    g: &Geom,
    d_in: kconv_sim::GmBuf,
    d_flt: kconv_sim::GmBuf,
    d_out: kconv_sim::GmBuf,
) {
    let b = blk.dims.block_id;
    let (y, tx) = (b / g.tiles_x, b % g.tiles_x);
    let gx = tx * g.tile_w * g.stride; // input-column base of the tile
    let ox0 = tx * g.tile_w; // output-column base

    // Per-thread accumulators: each thread owns one output column across
    // all F maps. Sized to whole warps so trailing lanes index in bounds.
    let lanes = g.tile_w.div_ceil(WARP_SIZE) * WARP_SIZE;
    let mut acc = vec![0.0f32; lanes * g.filters];

    let buf_off = |r: usize| (r % 2) as u64 * g.buf_stride;
    if g.depth == 1 {
        // Baseline schedule: stage; sync; compute; sync — 2R barriers.
        for r in 0..g.rounds {
            stage_round::<N>(blk, g, d_in, d_flt, r, 0, y, gx);
            blk.sync();
            compute_round(blk, g, r, 0, ox0, &mut acc);
            blk.sync();
        }
    } else {
        // Pipelined schedule: prime buffer 0, then each round stages the
        // next round's slab into the other buffer while computing the
        // current one — R + 1 barriers. The write set (buffer r+1) and the
        // read set (buffer r) are disjoint, so no hazard spans a round.
        stage_round::<N>(blk, g, d_in, d_flt, 0, 0, y, gx);
        blk.sync();
        for r in 0..g.rounds {
            if r + 1 < g.rounds {
                stage_round::<N>(blk, g, d_in, d_flt, r + 1, buf_off(r + 1), y, gx);
            }
            compute_round(blk, g, r, buf_off(r), ox0, &mut acc);
            blk.sync();
        }
    }

    // Write back: one coalesced row segment per filter, no barrier needed —
    // every accumulator is thread-private.
    for f in 0..g.filters {
        blk.each_warp(|w| {
            let pop = w.population();
            let mask =
                LaneMask::from_fn(|lane| pop.is_active(lane) && ox0 + w.thread_id(lane) < g.ow);
            if mask.is_empty() {
                return;
            }
            let addrs = lane_addrs_from(|lane| {
                let x = (ox0 + w.thread_id(lane)).min(g.ow - 1);
                d_out.f32_addr(((f * g.oh + y) * g.ow + x) as u64)
            });
            let vals: [[f32; 1]; WARP_SIZE] =
                std::array::from_fn(|lane| [acc[w.thread_id(lane) * g.filters + f]]);
            w.st_global::<1>(&addrs, &vals, mask);
        });
    }
}

/// Stages round `r`'s slab into the buffer at byte offset `buf`: the `K`
/// gathered input rows (`y * stride + i * dilation`) of each of the round's
/// channels, `N` elements per lane, then the round's filter taps. Identical
/// global addresses at every depth; shared addresses differ only by `buf`.
#[allow(clippy::too_many_arguments)]
fn stage_round<const N: usize>(
    blk: &mut kconv_sim::BlockCtx<'_>,
    g: &Geom,
    d_in: kconv_sim::GmBuf,
    d_flt: kconv_sim::GmBuf,
    r: usize,
    buf: u64,
    y: usize,
    gx: usize,
) {
    let threads = blk.dims.threads;
    let c0 = r * g.c_sh;
    let cr = (g.channels - c0).min(g.c_sh);

    // Image slab: cr channels x K gathered rows x row_pitch columns, in
    // N-wide groups (row_pitch is a multiple of N).
    let gpr = g.row_pitch / N;
    let groups = cr * g.k * gpr;
    let mut g0 = 0usize;
    while g0 < groups {
        blk.each_warp(|w| {
            let mask = LaneMask::from_fn(|lane| g0 + w.thread_id(lane) < groups);
            if mask.is_empty() {
                return;
            }
            let decode = |lane: usize| {
                let e = (g0 + w.thread_id(lane)).min(groups - 1);
                let col = (e % gpr) * N;
                let i = (e / gpr) % g.k;
                let cc = e / (gpr * g.k);
                (cc, i, col)
            };
            let gaddrs = lane_addrs_from(|lane| {
                let (cc, i, col) = decode(lane);
                d_in.f32_addr(
                    (((c0 + cc) * g.in_rows + y * g.stride + i * g.dilation) * g.in_pitch
                        + gx
                        + col) as u64,
                )
            });
            let saddrs = lane_addrs_from(|lane| {
                let (cc, i, col) = decode(lane);
                buf + (((cc * g.k + i) * g.row_pitch + col) * 4) as u64
            });
            let vals = w.ld_global::<N>(&gaddrs, mask);
            w.st_shared::<N>(&saddrs, &vals, mask);
        });
        g0 += threads;
    }

    // Filter slab: cr channels x fcount filters x K*K taps, scalar (the
    // FCHW source is only contiguous within one filter's K*K window).
    let elems = cr * g.fcount * g.kk;
    let mut e0 = 0usize;
    while e0 < elems {
        blk.each_warp(|w| {
            let mask = LaneMask::from_fn(|lane| e0 + w.thread_id(lane) < elems);
            if mask.is_empty() {
                return;
            }
            let decode = |lane: usize| {
                let e = (e0 + w.thread_id(lane)).min(elems - 1);
                let q = e % g.kk;
                let fi = (e / g.kk) % g.fcount;
                let cc = e / (g.kk * g.fcount);
                (cc, fi, q)
            };
            let gaddrs = lane_addrs_from(|lane| {
                let (cc, fi, q) = decode(lane);
                // Dense: filter fi, channel c0+cc of a C-channel filter.
                // Depthwise: filter c0+cc, whose single channel is its own.
                let idx = if g.depthwise {
                    (c0 + cc) * g.kk + q
                } else {
                    (fi * g.channels + c0 + cc) * g.kk + q
                };
                d_flt.f32_addr(idx as u64)
            });
            let saddrs = lane_addrs_from(|lane| {
                let (cc, fi, q) = decode(lane);
                buf + ((g.flt_base + (cc * g.fcount + fi) * g.kk + q) * 4) as u64
            });
            let vals = w.ld_global::<1>(&gaddrs, mask);
            w.st_shared::<1>(&saddrs, &vals, mask);
        });
        e0 += threads;
    }
}

/// Computes round `r` from the buffer at byte offset `buf`: every thread
/// accumulates its output column's taps for the round's channels. Filter
/// reads are warp-uniform (broadcast); pixel reads walk the gathered rows
/// at `stride`-spaced lanes. The operation stream is independent of the
/// pipeline depth.
fn compute_round(
    blk: &mut kconv_sim::BlockCtx<'_>,
    g: &Geom,
    r: usize,
    buf: u64,
    ox0: usize,
    acc: &mut [f32],
) {
    let c0 = r * g.c_sh;
    let cr = (g.channels - c0).min(g.c_sh);
    blk.each_warp(|w| {
        let pop = w.population();
        let mask = LaneMask::from_fn(|lane| pop.is_active(lane) && ox0 + w.thread_id(lane) < g.ow);
        if mask.is_empty() {
            return;
        }
        for cc in 0..cr {
            for i in 0..g.k {
                for j in 0..g.k {
                    let paddrs = lane_addrs_from(|lane| {
                        let t = w.thread_id(lane).min(g.tile_w - 1);
                        buf + (((cc * g.k + i) * g.row_pitch + t * g.stride + j * g.dilation) * 4)
                            as u64
                    });
                    let pix = w.ld_shared::<1>(&paddrs, mask);
                    // Depthwise: channel c0+cc feeds only output map c0+cc
                    // (slab slot 0); dense: all F maps.
                    let fouts = if g.depthwise { 1 } else { g.filters };
                    for fi in 0..fouts {
                        let f_out = if g.depthwise { c0 + cc } else { fi };
                        let taddr = buf
                            + ((g.flt_base + (cc * g.fcount + fi) * g.kk + i * g.k + j) * 4) as u64;
                        let taddrs = lane_addrs_from(|_| taddr);
                        let tap = w.ld_shared::<1>(&taddrs, mask);
                        for lane in mask.iter() {
                            acc[w.thread_id(lane) * g.filters + f_out] +=
                                pix[lane][0] * tap[lane][0];
                        }
                    }
                }
            }
        }
        let per_thread = cr * g.kk * if g.depthwise { 1 } else { g.filters };
        w.count_fma(mask.count() as u64 * per_thread as u64);
    });
}

/// One measured pipeline configuration (see [`explore_pipeline`]).
#[derive(Debug, Clone, Copy)]
pub struct PipelineTuneResult {
    /// The configuration.
    pub config: PipelineConfig,
    /// Achieved algorithmic GFlop/s on the probe problem.
    pub gflops: f64,
}

/// The depth axis of the search space: `base` at depth 1 (the baseline
/// alternation) and depth 2 (double-buffered), in that order.
pub fn depth_axis(base: PipelineConfig) -> Vec<PipelineConfig> {
    vec![base.with_depth(1), base.with_depth(2)]
}

/// [`explore_pipeline`] plus the skip record: candidates rejected by
/// [`PipelineConfig::validate`] — most importantly depth-2 tiles whose
/// doubled staging buffer exceeds the block's shared-memory capacity — are
/// returned as [`TuneSkip`]s instead of being silently dropped.
///
/// # Errors
///
/// Propagates launch errors from candidates that validated but failed.
pub fn explore_pipeline_recorded(
    spec: &GpuSpec,
    problem: &ConvProblem,
    candidates: &[PipelineConfig],
    blocks: usize,
) -> Result<(Vec<PipelineTuneResult>, Vec<TuneSkip<PipelineConfig>>)> {
    let input = random_maps(problem.channels, problem.height, problem.width, 81);
    let filters = random_filters(problem.filters, problem.channels_per_group(), problem.k, 83);
    let mut results = Vec::new();
    let mut skips = Vec::new();
    for &config in candidates {
        if let Err(reason) = config.validate(spec, problem) {
            skips.push(TuneSkip { config, reason });
            continue;
        }
        let mut gpu = Gpu::new(spec.clone());
        let run = SystolicConv::new(config).run(
            &mut gpu,
            problem,
            &input,
            &filters,
            SimMode::Sampled(blocks),
        )?;
        results.push(PipelineTuneResult {
            config,
            gflops: run.effective_gflops(problem),
        });
    }
    results.sort_by(|a, b| b.gflops.total_cmp(&a.gflops));
    Ok((results, skips))
}

/// Measures `candidates` on a sampled run of `problem` and returns them
/// sorted by achieved GFlop/s (best first). Invalid candidates are skipped;
/// use [`explore_pipeline_recorded`] to see why.
///
/// # Errors
///
/// Propagates launch errors from candidates that validated but failed.
pub fn explore_pipeline(
    spec: &GpuSpec,
    problem: &ConvProblem,
    candidates: &[PipelineConfig],
    blocks: usize,
) -> Result<Vec<PipelineTuneResult>> {
    explore_pipeline_recorded(spec, problem, candidates, blocks).map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_sim::{GpuSpec, KernelStats, SanitizerMode};
    use kconv_tensor::CONV_TOL;

    fn run_cfg(cfg: PipelineConfig, problem: &ConvProblem, seed: u64, mode: SimMode) -> ConvRun {
        let input = random_maps(problem.channels, problem.height, problem.width, seed);
        let filters = random_filters(
            problem.filters,
            problem.channels_per_group(),
            problem.k,
            seed + 1,
        );
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_sanitizer(SanitizerMode::Full);
        let run = SystolicConv::new(cfg)
            .run(&mut gpu, problem, &input, &filters, mode)
            .unwrap_or_else(|e| panic!("{problem}: {e}"));
        run.verify_executed(problem, &input, &filters, CONV_TOL)
            .unwrap_or_else(|e| panic!("{problem}: {e}"));
        run
    }

    /// Memory-traffic counters that must be bit-identical across depths —
    /// everything except the barrier group.
    fn traffic(s: &KernelStats) -> Vec<u64> {
        vec![
            s.fma_lane_ops,
            s.gm_ld_requests,
            s.gm_st_requests,
            s.gm_ld_transactions,
            s.gm_st_transactions,
            s.gm_ld_bytes_bus,
            s.gm_st_bytes_bus,
            s.gm_ld_bytes_useful,
            s.gm_st_bytes_useful,
            s.sm_ld_requests,
            s.sm_st_requests,
            s.sm_ld_cycles,
            s.sm_st_cycles,
            s.sm_bytes_useful,
            s.sm_broadcasts,
            s.cm_requests,
            s.cm_cycles,
            s.cm_misses,
        ]
    }

    #[test]
    fn workload_matrix_matches_reference_at_both_depths() {
        // Differential grid over (stride, dilation, depthwise) x depth,
        // sanitizer on full, every cell freshly seeded.
        let mut seed = 4000u64;
        for &stride in &[1usize, 2] {
            for &dilation in &[1usize, 2] {
                for &depthwise in &[false, true] {
                    for depth in [1usize, 2] {
                        seed += 13;
                        let c = 4;
                        let f = if depthwise { c } else { 3 };
                        let mut problem = ConvProblem::general(19, c, f, 3)
                            .with_stride(stride)
                            .with_dilation(dilation);
                        if depthwise {
                            problem = problem.depthwise();
                        }
                        let cfg = PipelineConfig {
                            depth,
                            tile_w: 8,
                            c_sh: 2,
                            ..PipelineConfig::default()
                        };
                        run_cfg(cfg, &problem, seed, SimMode::Full);
                    }
                }
            }
        }
    }

    #[test]
    fn depth_two_is_bit_identical_except_barriers() {
        let problem = ConvProblem::general(24, 8, 4, 3).with_stride(2);
        let base = PipelineConfig {
            tile_w: 16,
            c_sh: 2,
            ..PipelineConfig::default()
        };
        let d1 = run_cfg(base.with_depth(1), &problem, 700, SimMode::Full);
        let d2 = run_cfg(base.with_depth(2), &problem, 700, SimMode::Full);
        // Same FMA order => bitwise-equal output, not merely close.
        assert_eq!(d1.output.as_slice(), d2.output.as_slice());
        assert_eq!(traffic(&d1.report.stats), traffic(&d2.report.stats));
        assert!(d2.report.stats.barriers < d1.report.stats.barriers);
    }

    #[test]
    fn barrier_counts_follow_the_pipeline_formulas() {
        let problem = ConvProblem::general(20, 8, 2, 3);
        let base = PipelineConfig {
            tile_w: 32,
            c_sh: 2,
            ..PipelineConfig::default()
        };
        let rounds = base.rounds(&problem) as u64;
        assert_eq!(rounds, 4);
        let d1 = run_cfg(base.with_depth(1), &problem, 710, SimMode::Full);
        let d2 = run_cfg(base.with_depth(2), &problem, 710, SimMode::Full);
        let blocks = d1.report.executed_blocks.len() as u64;
        assert_eq!(d1.report.stats.barriers, blocks * 2 * rounds);
        assert_eq!(d2.report.stats.barriers, blocks * (rounds + 1));
        // Warp arrivals scale with one warp per 32-thread tile.
        assert_eq!(d1.report.stats.bar_syncs, d1.report.stats.barriers);
        assert!(barrier_halving(
            d1.report.stats.barriers / blocks,
            d2.report.stats.barriers / blocks
        ));
        assert_eq!(base.with_depth(1).barriers_per_block(&problem), 2 * rounds);
        assert_eq!(base.with_depth(2).barriers_per_block(&problem), rounds + 1);
    }

    #[test]
    fn depth_two_improves_modeled_time() {
        // R = 4 rounds: 9 barriers instead of 16 per block, same traffic,
        // same occupancy class => strictly better modeled time.
        let problem = ConvProblem::general(40, 8, 4, 3);
        let base = PipelineConfig {
            tile_w: 64,
            c_sh: 2,
            ..PipelineConfig::default()
        };
        let d1 = run_cfg(base.with_depth(1), &problem, 720, SimMode::Full);
        let d2 = run_cfg(base.with_depth(2), &problem, 720, SimMode::Full);
        assert!(
            d2.report.seconds() < d1.report.seconds(),
            "depth 2 {} s not faster than depth 1 {} s",
            d2.report.seconds(),
            d1.report.seconds()
        );
    }

    #[test]
    fn vector_factors_agree_bitwise() {
        let problem = ConvProblem::general(22, 4, 3, 3).with_dilation(2);
        let runs: Vec<ConvRun> = [1usize, 2, 4]
            .iter()
            .map(|&n| {
                let cfg = PipelineConfig {
                    shape: KernelShape::forced(DataType::F32, n).unwrap(),
                    tile_w: 16,
                    c_sh: 2,
                    ..PipelineConfig::default()
                };
                run_cfg(cfg, &problem, 730, SimMode::Full)
            })
            .collect();
        assert_eq!(runs[0].output.as_slice(), runs[1].output.as_slice());
        assert_eq!(runs[0].output.as_slice(), runs[2].output.as_slice());
    }

    #[test]
    fn oversized_staging_becomes_a_tune_skip() {
        let spec = GpuSpec::kepler_k40m();
        let problem = ConvProblem::general(130, 64, 8, 5);
        let fat = PipelineConfig {
            depth: 2,
            tile_w: 1024,
            c_sh: 64,
            ..PipelineConfig::default()
        };
        let reason = fat.validate(&spec, &problem).unwrap_err();
        assert!(reason.contains("exceeds"), "{reason}");
        let (results, skips) =
            explore_pipeline_recorded(&spec, &problem, &depth_axis(fat), 2).unwrap();
        assert!(results.is_empty());
        assert_eq!(skips.len(), 2);
        assert!(
            skips[1].reason.contains("shared memory"),
            "{}",
            skips[1].reason
        );
    }

    #[test]
    fn tuner_prefers_the_pipelined_depth() {
        let spec = GpuSpec::kepler_k40m();
        let problem = ConvProblem::general(40, 8, 4, 3);
        let base = PipelineConfig {
            tile_w: 64,
            c_sh: 2,
            ..PipelineConfig::default()
        };
        let (results, skips) =
            explore_pipeline_recorded(&spec, &problem, &depth_axis(base), 4).unwrap();
        assert!(skips.is_empty(), "{:?}", skips.first().map(|s| &s.reason));
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].config.depth, 2, "pipelined depth should win");
    }

    #[test]
    fn single_round_problems_degenerate_gracefully() {
        // C <= c_sh => R = 1: depth 2 primes and computes with the same
        // barrier count as depth 1 (2 each) and identical everything else.
        let problem = ConvProblem::general(16, 2, 2, 3);
        let base = PipelineConfig {
            tile_w: 16,
            c_sh: 2,
            ..PipelineConfig::default()
        };
        let d1 = run_cfg(base.with_depth(1), &problem, 740, SimMode::Full);
        let d2 = run_cfg(base.with_depth(2), &problem, 740, SimMode::Full);
        assert_eq!(d1.report.stats.barriers, d2.report.stats.barriers);
        assert_eq!(d1.output.as_slice(), d2.output.as_slice());
    }

    #[test]
    fn rejects_non_f32_shapes_and_bad_depths() {
        let spec = GpuSpec::kepler_k40m();
        let problem = ConvProblem::general(16, 2, 2, 3);
        let bad_dtype = PipelineConfig {
            shape: KernelShape {
                dtype: DataType::F16,
                vec_width: 2,
            },
            ..PipelineConfig::default()
        };
        assert!(bad_dtype.validate(&spec, &problem).is_err());
        let bad_depth = PipelineConfig::default().with_depth(3);
        assert!(bad_depth.validate(&spec, &problem).is_err());
        let zero_tile = PipelineConfig {
            tile_w: 0,
            ..PipelineConfig::default()
        };
        assert!(zero_tile.validate(&spec, &problem).is_err());
    }

    #[test]
    fn sampled_execution_verifies() {
        let problem = ConvProblem::general(33, 4, 3, 3).with_stride(2);
        let cfg = PipelineConfig {
            tile_w: 8,
            c_sh: 2,
            ..PipelineConfig::default()
        };
        let run = run_cfg(cfg, &problem, 750, SimMode::Sampled(3));
        assert!(!run.executed_regions.is_empty());
    }
}
