//! The communication-reduced general-case kernel (paper section 4).
//!
//! With many input channels the filters no longer fit in constant memory
//! and one convolution's pixels no longer fit in registers, so the kernel
//! adopts the blocked-GEMM thread-block structure (2D grid over filter
//! groups x image tiles, 2D `T_X x T_Y` threads, intermediate results
//! accumulated in registers) — but departs from blocked GEMM in the one way
//! that matters for memory traffic:
//!
//! * **Contiguous outputs per thread.** Each thread computes `W_T`
//!   *horizontally contiguous* output pixels, so one shared-memory row of
//!   `W_T + K - 1` pixels held in registers serves `K` FMA rounds. Against
//!   computing those pixels in different threads this cuts the
//!   shared-memory image traffic by `(W_T + K - 1) / (W_T * K)`, and one
//!   staged image row serves the convolutions of `K` output rows, cutting
//!   global-memory traffic by about `1/K` versus GEMM-based convolution.
//! * `C_SH` channels of image tile and filters are staged in shared memory
//!   per step; the filter tile is stored **transposed with a padded pitch**
//!   so both its staging stores and its fragment loads are conflict-free.
//! * Fragment reads are `n`-wide (`float2` on Kepler) so the computation
//!   data width matches the bank width; threads in the same `T_X` row read
//!   identical image addresses, served by the shared-memory broadcast.
//! * The write-back of `rAcc` is **uncoalesced** (contiguous threads write
//!   different output maps); the paper measures this phase as negligible
//!   and leaves it unoptimized, as do we — the simulator charges the real
//!   scattered-transaction cost.

use kconv_sim::pricing::{affine_lanes, TwoLevel, WarpAccess};
use kconv_sim::{
    lane_addrs_from, BlockCtx, GmBuf, Gpu, LaneMask, LaunchConfig, OverlapMode, SimMode, WarpAddrs,
    WARP_SIZE,
};
use kconv_tensor::{ConvProblem, FeatureMaps, FilterSet};

use crate::config::{round_up, GeneralConfig};
use crate::dtype::DataType;
use crate::error::{ConvError, Result};
use crate::run::{executed_tile_regions, ConvRun, Convolution};
use crate::shape::KernelShape;

/// The general-case (multi-channel) direct convolution kernel.
///
/// # Examples
///
/// ```
/// use kconv_core::{GeneralConv, GeneralConfig, Convolution};
/// use kconv_sim::{Gpu, GpuSpec, SimMode};
/// use kconv_tensor::{random_maps, random_filters, ConvProblem};
///
/// # fn main() -> Result<(), kconv_core::ConvError> {
/// let problem = ConvProblem::general(34, 4, 64, 3);
/// let input = random_maps(4, 34, 34, 1);
/// let filters = random_filters(64, 4, 3, 2);
/// let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
/// let run = GeneralConv::default().run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
/// assert!(run
///     .verify_executed(&problem, &input, &filters, kconv_tensor::CONV_TOL)
///     .is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneralConv {
    /// Tiling, register-blocking and vector-width configuration.
    pub config: GeneralConfig,
}

impl GeneralConv {
    /// Creates the kernel with the given configuration.
    pub fn new(config: GeneralConfig) -> Self {
        GeneralConv { config }
    }

    /// The kernel with the paper's Table 1 configuration for filter size
    /// `k`.
    pub fn table1(k: usize) -> Self {
        GeneralConv {
            config: GeneralConfig::table1(k),
        }
    }
}

impl Convolution for GeneralConv {
    fn name(&self) -> String {
        format!("general (n={})", self.config.vec_width)
    }

    fn run(
        &self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<ConvRun> {
        if problem.stride != 1 {
            return Err(ConvError::Shape(format!(
                "the paper's direct kernels are stride-1 only, got S = {} \
                 (use a GEMM baseline for strided problems)",
                problem.stride
            )));
        }
        crate::run::require_dense(problem)?;
        if !problem.matches(input, filters) {
            return Err(ConvError::Shape(format!(
                "input/filter shapes do not match {problem}"
            )));
        }
        self.config
            .validate(gpu.spec(), problem.k)
            .map_err(ConvError::Config)?;
        if !problem.filters.is_multiple_of(self.config.f_tb) {
            return Err(ConvError::Shape(format!(
                "F = {} not divisible by F_TB = {}",
                problem.filters, self.config.f_tb
            )));
        }
        if !problem.channels.is_multiple_of(self.config.c_sh) {
            return Err(ConvError::Shape(format!(
                "C = {} not divisible by C_SH = {}",
                problem.channels, self.config.c_sh
            )));
        }
        match self.config.vec_width {
            1 => run_general::<1>(gpu, &self.config, problem, input, filters, mode),
            2 => run_general::<2>(gpu, &self.config, problem, input, filters, mode),
            4 => run_general::<4>(gpu, &self.config, problem, input, filters, mode),
            n => Err(ConvError::Config(format!(
                "unsupported vec_width {n} (expected 1, 2 or 4)"
            ))),
        }
    }
}

/// Geometry shared by the setup code and the per-block closure; the
/// [`KernelShape`] supplies the vector factor and element width for every
/// address computed inside the block body (see [`crate::special`]).
struct Geom {
    k: usize,
    channels: usize,
    tiles_x: usize,
    tbx: usize,
    tile_w: usize,
    tile_h: usize,
    in_pitch: usize,
    in_rows: usize,
    out_pitch: usize,
    out_rows: usize,
    img_pitch: usize,
    flt_pitch: usize,
    row_len: usize,
    shape: KernelShape,
}

fn run_general<const N: usize>(
    gpu: &mut Gpu,
    cfg: &GeneralConfig,
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
    mode: SimMode,
) -> Result<ConvRun> {
    run_general_inner::<N>(gpu, cfg, problem, input, filters, mode, false)
}

#[allow(clippy::too_many_arguments)]
fn run_general_inner<const N: usize>(
    gpu: &mut Gpu,
    cfg: &GeneralConfig,
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
    mode: SimMode,
    strided: bool,
) -> Result<ConvRun> {
    let k = problem.k;
    let (oh, ow) = (problem.out_height(), problem.out_width());
    let tiles_x = ow.div_ceil(cfg.width);
    let tiles_y = oh.div_ceil(cfg.height);
    let in_pitch = tiles_x * cfg.width + k - 1;
    let in_rows = tiles_y * cfg.height + k - 1;
    let out_pitch = tiles_x * cfg.width;
    let out_rows = tiles_y * cfg.height;
    let tbx = problem.filters / cfg.f_tb;

    // Device setup: zero-padded input (every channel), filters FCHW,
    // padded output.
    let padded = input.padded_to(in_rows, in_pitch);
    let d_in = gpu.alloc_f32((problem.channels * in_rows * in_pitch) as u64)?;
    gpu.upload_f32(d_in, padded.as_slice())?;
    let d_flt = gpu.alloc_f32(filters.len() as u64)?;
    gpu.upload_f32(d_flt, filters.as_slice())?;
    let d_out = gpu.alloc_f32((problem.filters * out_rows * out_pitch) as u64)?;

    let geom = Geom {
        k,
        channels: problem.channels,
        tiles_x,
        tbx,
        tile_w: cfg.width,
        tile_h: cfg.height,
        in_pitch,
        in_rows,
        out_pitch,
        out_rows,
        img_pitch: cfg.img_pitch(k),
        flt_pitch: cfg.flt_pitch(),
        row_len: cfg.width + k - 1,
        shape: KernelShape {
            dtype: DataType::F32,
            vec_width: cfg.vec_width,
        },
    };

    let launch = LaunchConfig::new(
        format!("general K={k} n={N}"),
        tbx * tiles_x * tiles_y,
        cfg.threads(),
    )
    .with_smem(cfg.smem_bytes(k))
    .with_regs(cfg.regs_per_thread(k))
    .with_overlap(OverlapMode::Prefetch);

    // The register tile runs at compile-time width for the `W_T` values
    // the presets, the tuner and the serving engine use; any other width
    // runs the same body at run-time width.
    let block: BlockFn = match cfg.w_t {
        2 => general_block::<N, 2>,
        4 => general_block::<N, 4>,
        8 => general_block::<N, 8>,
        16 => general_block::<N, 16>,
        _ => general_block::<N, 0>,
    };
    let cfg_copy = *cfg;
    let report = gpu.launch(&launch, mode, |blk| {
        if strided {
            general_block_strided(blk, &cfg_copy, &geom, d_in, d_flt, d_out);
        } else {
            block(blk, &cfg_copy, &geom, d_in, d_flt, d_out);
        }
    })?;

    let flat = gpu.download_f32(d_out)?;
    let mut output = FeatureMaps::zeros(problem.filters, oh, ow);
    let dst = output.as_mut_slice();
    for f in 0..problem.filters {
        for y in 0..oh {
            let src = (f * out_rows + y) * out_pitch;
            let at = (f * oh + y) * ow;
            dst[at..at + ow].copy_from_slice(&flat[src..src + ow]);
        }
    }
    let regions = executed_tile_regions(problem, &report, tiles_x, cfg.width, cfg.height, |b| {
        (b / tbx, (b % tbx) * cfg.f_tb, cfg.f_tb)
    });
    Ok(ConvRun {
        output,
        report,
        executed_regions: regions,
        faults: Vec::new(),
    })
}

/// One thread block of the general kernel.
type BlockFn = fn(&mut BlockCtx<'_>, &GeneralConfig, &Geom, GmBuf, GmBuf, GmBuf);

/// Most warps in a block: [`GeneralConfig::validate`] caps a block at
/// 1024 threads.
const MAX_WARPS: usize = 1024 / WARP_SIZE;

/// The lane form of one warp's per-lane byte offsets: an access adds its
/// warp-uniform base, so the memory models price it in closed form
/// instead of re-deriving its shape from 32 addresses. An explicit warp
/// rebuilds its lanes from the offsets.
#[derive(Debug, Clone, Copy)]
enum LaneForm {
    Affine { first: u64, step: u64 },
    TwoLevel(TwoLevel),
    Explicit,
}

impl LaneForm {
    /// The form of the offsets `offset(lane)` over the whole warp:
    /// affine, two-level, or explicit when neither fits. The kernel's
    /// masks are the warp's population, a prefix of its lanes, under
    /// which an affine form's `k`-th active lane is lane `k` and a
    /// two-level form (indexed by lane) reads what it reads under the
    /// full mask.
    fn of(offset: impl Fn(usize) -> u64) -> Self {
        let offsets = lane_addrs_from(offset);
        if let Some((first, step)) = affine_lanes(LaneMask::ALL, &offsets) {
            LaneForm::Affine { first, step }
        } else if let Some(form) = TwoLevel::of(LaneMask::ALL, &offsets) {
            LaneForm::TwoLevel(form)
        } else {
            LaneForm::Explicit
        }
    }

    /// The access at `base` plus the offsets `offset(lane)` this form was
    /// derived from; an explicit one is written into `buf`.
    #[inline]
    fn at<'a>(
        self,
        base: u64,
        buf: &'a mut WarpAddrs,
        offset: impl Fn(usize) -> u64,
    ) -> WarpAccess<'a> {
        match self {
            LaneForm::Affine { first, step } => WarpAccess::Affine {
                first: base + first,
                step,
            },
            LaneForm::TwoLevel(form) => WarpAccess::TwoLevel(TwoLevel {
                base: base + form.base,
                ..form
            }),
            LaneForm::Explicit => {
                *buf = lane_addrs_from(|lane| base + offset(lane));
                WarpAccess::Explicit(buf)
            }
        }
    }
}

/// Algorithm 2 of the paper, executed by one thread block. The vector
/// factor comes from the geometry's [`KernelShape`] at run time; `N` sizes
/// the per-lane value arrays and the register copies and must agree with
/// it. `WT` is `W_T` at compile time, or 0 to take it from `cfg`.
fn general_block<const N: usize, const WT: usize>(
    blk: &mut BlockCtx<'_>,
    cfg: &GeneralConfig,
    g: &Geom,
    d_in: GmBuf,
    d_flt: GmBuf,
    d_out: GmBuf,
) {
    let k = g.k;
    let kk = k * k;
    debug_assert_eq!(
        g.shape.vec_width, N,
        "shape vec_width must match the instantiated lane width"
    );
    debug_assert!(WT == 0 || WT == cfg.w_t, "W_T must match the instance");
    let w_t = if WT == 0 { cfg.w_t } else { WT };
    let threads = cfg.threads();
    let tx_count = cfg.threads_x();
    let (f_t, c_sh) = (cfg.f_t, cfg.c_sh);
    let cols_per_row = cfg.width / w_t;

    let fx = blk.dims.block_id % g.tbx;
    let tile = blk.dims.block_id / g.tbx;
    let tile_y = tile / g.tiles_x;
    let tile_x = tile % g.tiles_x;
    let f0 = fx * cfg.f_tb;
    let gy = tile_y * g.tile_h; // output-row base (== input-row base)
    let gx = tile_x * g.tile_w;

    let slab_rows = g.tile_h + k - 1;
    let flt_base = (c_sh * slab_rows * g.img_pitch * 4) as u64;

    // rAcc[F_T][W_T] per thread, flat.
    let mut acc = vec![0.0f32; threads * f_t * w_t];
    // rImg: the W_T + K - 1 row window per thread.
    let win_w = round_up(w_t + k - 1, N);
    let mut rimg = vec![0.0f32; threads * win_w];
    // rFlt fragments per lane; fully overwritten before every use, so one
    // buffer serves the whole block instead of being zeroed per access.
    let mut rflt = [[0.0f32; 16]; WARP_SIZE];

    // Per-thread geometry, decoded once per block: the div/mod chains in
    // the per-lane address closures ran once per lane per shared-memory
    // access and were the hottest instructions of the whole launch.
    // Trailing slots past `threads` use the same formulas, so dead lanes
    // see exactly the addresses they always did.
    let warps = threads.div_ceil(WARP_SIZE);
    let lanes = warps * WARP_SIZE;
    let mut t_tx = vec![0usize; lanes];
    let mut t_r = vec![0usize; lanes];
    let mut t_col = vec![0usize; lanes];
    let mut img_off = vec![0usize; lanes]; // r_t * img_pitch + col_t
    for t in 0..lanes {
        let ty = t / tx_count;
        let r_t = ty / cols_per_row;
        let col_t = (ty % cols_per_row) * w_t;
        t_tx[t] = t % tx_count;
        t_r[t] = r_t;
        t_col[t] = col_t;
        img_off[t] = r_t * g.img_pitch + col_t;
    }
    // Each warp's image-window offsets (its threads' rows and columns of
    // the slab) and filter-fragment offsets (their T_X groups' F_T
    // filters), in bytes, and their lane forms.
    let (img_off, t_tx) = (&img_off, &t_tx);
    let img_at = |wid: usize| move |lane: usize| (img_off[wid * WARP_SIZE + lane] * 4) as u64;
    let flt_at = |wid: usize| move |lane: usize| (t_tx[wid * WARP_SIZE + lane] * f_t * 4) as u64;
    let mut img_forms = [LaneForm::Explicit; MAX_WARPS];
    let mut flt_forms = [LaneForm::Explicit; MAX_WARPS];
    for wid in 0..warps {
        img_forms[wid] = LaneForm::of(img_at(wid));
        flt_forms[wid] = LaneForm::of(flt_at(wid));
    }
    let mut buf = [0u64; WARP_SIZE];

    let mut c0 = 0usize;
    while c0 < g.channels {
        // Lines 4-5 / 17-18: stage C_SH channels of image tile and filters.
        stage_tiles(blk, cfg, g, d_in, d_flt, c0, gy, gx, f0, flt_base);
        blk.sync();

        // Lines 10-15: C_SH channels x K filter rows x K rounds.
        for i in 0..c_sh {
            for j in 0..k {
                // Line 12: each thread refills its image-row window
                // (W_T + K - 1 pixels, n at a time). Threads sharing a
                // T_Y row read identical addresses: broadcast.
                for gv in 0..win_w / N {
                    let base = (((i * slab_rows + j) * g.img_pitch + gv * N) * 4) as u64;
                    blk.each_warp(|w| {
                        let wid = w.warp_id();
                        let access = img_forms[wid].at(base, &mut buf, img_at(wid));
                        let vals = w.ld_shared::<N>(access, LaneMask::ALL);
                        for lane in w.population().iter() {
                            let at = w.thread_id(lane) * win_w + gv * N;
                            rimg[at..at + N].copy_from_slice(&vals[lane]);
                        }
                    });
                }
                for kc in 0..k {
                    // Line 14: F_T filter values, n-wide, contiguous
                    // across T_X threads: conflict-free.
                    let row = (i * kk + j * k + kc) * g.flt_pitch;
                    blk.each_warp(|w| {
                        let wid = w.warp_id();
                        for gv in 0..f_t / N {
                            let base = flt_base + ((row + gv * N) * 4) as u64;
                            let access = flt_forms[wid].at(base, &mut buf, flt_at(wid));
                            let vals = w.ld_shared::<N>(access, LaneMask::ALL);
                            for (frag, v) in rflt.iter_mut().zip(&vals) {
                                frag[gv * N..gv * N + N].copy_from_slice(v);
                            }
                        }
                        // Line 15: the rank-1 update
                        // rAcc[ff][v] += rFlt[ff] * rImg[kc + v]. Slice
                        // windows keep the per-element FMA order of the
                        // indexed loop while letting the adds vectorize.
                        let pop = w.population();
                        for lane in pop.iter() {
                            let t = w.thread_id(lane);
                            let abase = t * f_t * w_t;
                            let arow = &mut acc[abase..abase + f_t * w_t];
                            let img = &rimg[t * win_w + kc..t * win_w + kc + w_t];
                            for (acc_ff, &fv) in arow.chunks_exact_mut(w_t).zip(&rflt[lane][..f_t])
                            {
                                for (a, &x) in acc_ff.iter_mut().zip(img) {
                                    *a += fv * x;
                                }
                            }
                        }
                        w.count_fma(pop.count() as u64 * (f_t * w_t) as u64);
                    });
                }
            }
        }
        blk.sync();
        c0 += c_sh;
    }

    // Line 20: write rAcc back. Contiguous T_X threads hold different
    // output maps, so this is uncoalesced by design (measured, not
    // optimized — matching the paper).
    for ff in 0..f_t {
        for gv in 0..w_t / N {
            blk.each_warp(|w| {
                let wid = w.warp_id();
                let addrs = lane_addrs_from(|lane| {
                    let t = wid * WARP_SIZE + lane;
                    let f = f0 + t_tx[t] * f_t + ff;
                    d_out.f32_addr(
                        ((f * g.out_rows + gy + t_r[t]) * g.out_pitch + gx + t_col[t] + gv * N)
                            as u64,
                    )
                });
                let mut vals = [[0.0f32; N]; WARP_SIZE];
                for (lane, v) in vals.iter_mut().enumerate() {
                    let t = wid * WARP_SIZE + lane;
                    if t < threads {
                        let at = t * f_t * w_t + ff * w_t + gv * N;
                        v.copy_from_slice(&acc[at..at + N]);
                    }
                }
                w.st_global::<N>(&addrs, &vals, LaneMask::ALL);
            });
        }
    }
}

/// Cooperative staging of `C_SH` channels of image tile (natural layout)
/// and filters (transposed, padded pitch) into shared memory — lines 4-5 /
/// 17-18 of Algorithm 2, shared by both output layouts.
#[allow(clippy::too_many_arguments)]
fn stage_tiles(
    blk: &mut BlockCtx<'_>,
    cfg: &GeneralConfig,
    g: &Geom,
    d_in: GmBuf,
    d_flt: GmBuf,
    c0: usize,
    gy: usize,
    gx: usize,
    f0: usize,
    flt_base: u64,
) {
    let k = g.k;
    let kk = k * k;
    let threads = cfg.threads();
    let c_sh = cfg.c_sh;
    let slab_rows = g.tile_h + k - 1;

    let img_elems = c_sh * slab_rows * g.row_len;
    let mut e0 = 0usize;
    while e0 < img_elems {
        blk.each_warp(|w| {
            let mask = LaneMask::from_fn(|lane| e0 + w.thread_id(lane) < img_elems);
            // Consecutive lanes stage consecutive elements, so the
            // (channel, row, col) decode is an odometer carried across the
            // warp — and shared by the load and store streams — instead of
            // three divisions per lane per address.
            let mut e = (e0 + w.thread_id(0)).min(img_elems - 1);
            let mut col = e % g.row_len;
            let rows = e / g.row_len;
            let mut row = rows % slab_rows;
            let mut cc = rows / slab_rows;
            let mut gaddrs = [0u64; WARP_SIZE];
            let mut saddrs = [0u64; WARP_SIZE];
            for (ga, sa) in gaddrs.iter_mut().zip(saddrs.iter_mut()) {
                *ga = d_in
                    .f32_addr((((c0 + cc) * g.in_rows + gy + row) * g.in_pitch + gx + col) as u64);
                *sa = (((cc * slab_rows + row) * g.img_pitch + col) * 4) as u64;
                if e + 1 < img_elems {
                    e += 1;
                    col += 1;
                    if col == g.row_len {
                        col = 0;
                        row += 1;
                        if row == slab_rows {
                            row = 0;
                            cc += 1;
                        }
                    }
                }
            }
            let vals = w.ld_global::<1>(&gaddrs, mask);
            w.st_shared::<1>(&saddrs, &vals, mask);
        });
        e0 += threads;
    }
    // The pitch extends past the `W + K - 1` data columns so aligned
    // `n`-wide window loads stay in bounds; zero the pad columns so those
    // loads never touch undefined shared memory.
    let pad = g.img_pitch - g.row_len;
    if pad > 0 {
        let pad_elems = c_sh * slab_rows * pad;
        let mut e0 = 0usize;
        while e0 < pad_elems {
            blk.each_warp(|w| {
                let mask = LaneMask::from_fn(|lane| e0 + w.thread_id(lane) < pad_elems);
                let saddrs = lane_addrs_from(|lane| {
                    let e = (e0 + w.thread_id(lane)).min(pad_elems - 1);
                    let col = g.row_len + e % pad;
                    let row = (e / pad) % slab_rows;
                    let cc = e / (pad * slab_rows);
                    (((cc * slab_rows + row) * g.img_pitch + col) * 4) as u64
                });
                w.st_shared::<1>(&saddrs, &[[0.0f32; 1]; WARP_SIZE], mask);
            });
            e0 += threads;
        }
    }
    // Filters: read (nearly) coalesced from FCHW, store transposed with
    // padded pitch (the gray box of the paper's Fig. 6).
    let flt_elems = c_sh * kk * cfg.f_tb;
    let per_f = c_sh * kk; // the C_SH x K x K taps of one filter are
                           // contiguous in FCHW: coalesced chunks
    let mut e0 = 0usize;
    while e0 < flt_elems {
        blk.each_warp(|w| {
            let mask = LaneMask::from_fn(|lane| e0 + w.thread_id(lane) < flt_elems);
            // Same odometer decode as the image loop: one division per
            // warp, carried across lanes and shared by both streams.
            let mut e = (e0 + w.thread_id(0)).min(flt_elems - 1);
            let mut qq = e % per_f;
            let mut f = e / per_f;
            let mut gaddrs = [0u64; WARP_SIZE];
            let mut saddrs = [0u64; WARP_SIZE];
            for (ga, sa) in gaddrs.iter_mut().zip(saddrs.iter_mut()) {
                *ga = d_flt.f32_addr(((f0 + f) * g.channels * kk + c0 * kk + qq) as u64);
                *sa = flt_base + ((qq * g.flt_pitch + f) * 4) as u64;
                if e + 1 < flt_elems {
                    e += 1;
                    qq += 1;
                    if qq == per_f {
                        qq = 0;
                        f += 1;
                    }
                }
            }
            let vals = w.ld_global::<1>(&gaddrs, mask);
            w.st_shared::<1>(&saddrs, &vals, mask);
        });
        e0 += threads;
    }
}

/// The **blocked-GEMM-layout ablation** of the general kernel: identical
/// staging, register blocking and filter handling, but each thread's `W_T`
/// outputs are *interleaved across threads* (output `v` of thread `g` is
/// column `g + v*G`) — the layout of the paper's reference \[19\] that
/// [`GeneralConv`] deliberately departs from.
///
/// Two costs follow, both measured by the simulator: the image-row reuse
/// collapses (each output needs its own `K`-pixel window: `W_T * K * K`
/// shared-memory pixel reads per thread per channel instead of
/// `(W_T + K - 1) * K` — the paper's section 4.2 factor), and the reads
/// cannot be vectorized (scalar, bank-width-unmatched). In exchange the
/// write-back becomes coalesced. The paper's measurement that write-back
/// time is negligible is exactly why its trade goes the other way.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneralConvStrided {
    /// Tiling configuration (shared with [`GeneralConv`]; `vec_width` is
    /// ignored — the strided layout forces scalar image reads).
    pub config: GeneralConfig,
}

impl GeneralConvStrided {
    /// Creates the ablation kernel with the given configuration.
    pub fn new(config: GeneralConfig) -> Self {
        GeneralConvStrided { config }
    }
}

impl Convolution for GeneralConvStrided {
    fn name(&self) -> String {
        "general (strided outputs, GEMM layout)".into()
    }

    fn run(
        &self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<ConvRun> {
        if problem.stride != 1 {
            return Err(ConvError::Shape(format!(
                "the paper's direct kernels are stride-1 only, got S = {}",
                problem.stride
            )));
        }
        crate::run::require_dense(problem)?;
        if !problem.matches(input, filters) {
            return Err(ConvError::Shape(format!(
                "input/filter shapes do not match {problem}"
            )));
        }
        self.config
            .validate(gpu.spec(), problem.k)
            .map_err(ConvError::Config)?;
        if !problem.filters.is_multiple_of(self.config.f_tb)
            || !problem.channels.is_multiple_of(self.config.c_sh)
        {
            return Err(ConvError::Shape(format!(
                "F/C not divisible by F_TB/C_SH for {problem}"
            )));
        }
        run_general_inner::<2>(gpu, &self.config, problem, input, filters, mode, true)
    }
}

/// Algorithm 2 with the blocked-GEMM output layout (see
/// [`GeneralConvStrided`]). Staging and the filter-fragment path are
/// identical to [`general_block`]; only the image-read/accumulate/write
/// phases differ.
fn general_block_strided(
    blk: &mut BlockCtx<'_>,
    cfg: &GeneralConfig,
    g: &Geom,
    d_in: GmBuf,
    d_flt: GmBuf,
    d_out: GmBuf,
) {
    let k = g.k;
    let kk = k * k;
    let threads = cfg.threads();
    let tx_count = cfg.threads_x();
    let (w_t, f_t, c_sh) = (cfg.w_t, cfg.f_t, cfg.c_sh);
    let cols_per_row = cfg.width / w_t; // thread groups per tile row (G)

    let fx = blk.dims.block_id % g.tbx;
    let tile = blk.dims.block_id / g.tbx;
    let tile_y = tile / g.tiles_x;
    let tile_x = tile % g.tiles_x;
    let f0 = fx * cfg.f_tb;
    let gy = tile_y * g.tile_h;
    let gx = tile_x * g.tile_w;

    let slab_rows = g.tile_h + k - 1;
    let flt_base = (c_sh * slab_rows * g.img_pitch * 4) as u64;

    let mut acc = vec![0.0f32; threads * f_t * w_t];
    // Per-thread image registers: one K-window per owned output.
    let mut rimg = vec![0.0f32; threads * w_t * k];

    // Per-thread geometry, decoded once per block — the same tables
    // general_block uses; these closures were the last per-lane div/mod
    // chains on the shared-memory path. Output v of pixel-thread ty is
    // column s_col0[t] + v * cols_per_row (the interleaved layout).
    // Trailing slots past `threads` use the same formulas, so dead lanes
    // see exactly the addresses they always did.
    let lanes = threads.div_ceil(WARP_SIZE) * WARP_SIZE;
    let mut t_tx = vec![0usize; lanes];
    let mut s_row = vec![0usize; lanes];
    let mut s_col0 = vec![0usize; lanes];
    for t in 0..lanes {
        let ty = t / tx_count;
        t_tx[t] = t % tx_count;
        s_row[t] = ty / cols_per_row;
        s_col0[t] = ty % cols_per_row;
    }

    let mut c0 = 0usize;
    while c0 < g.channels {
        stage_tiles(blk, cfg, g, d_in, d_flt, c0, gy, gx, f0, flt_base);
        blk.sync();

        for i in 0..c_sh {
            for j in 0..k {
                // Every output's window is loaded separately, one scalar
                // lane-read per pixel: W_T * K reads per thread per row —
                // the reuse the contiguous layout gets for free is gone,
                // and scalar reads waste half of Kepler's 8-byte banks.
                for v in 0..w_t {
                    for kc in 0..k {
                        blk.each_warp(|w| {
                            let lane0 = w.warp_id() * WARP_SIZE;
                            let addrs = lane_addrs_from(|lane| {
                                let t = lane0 + lane;
                                (((i * slab_rows + s_row[t] + j) * g.img_pitch
                                    + s_col0[t]
                                    + v * cols_per_row
                                    + kc)
                                    * 4) as u64
                            });
                            let vals = w.ld_shared::<1>(&addrs, LaneMask::ALL);
                            for lane in w.population().iter() {
                                let t = w.thread_id(lane);
                                rimg[(t * w_t + v) * k + kc] = vals[lane][0];
                            }
                        });
                    }
                }
                for kc in 0..k {
                    blk.each_warp(|w| {
                        let lane0 = w.warp_id() * WARP_SIZE;
                        let mut rflt = [[0.0f32; 16]; WARP_SIZE];
                        for gv in 0..f_t / 2 {
                            let addrs = lane_addrs_from(|lane| {
                                flt_base
                                    + (((i * kk + j * k + kc) * g.flt_pitch
                                        + t_tx[lane0 + lane] * f_t
                                        + gv * 2)
                                        * 4) as u64
                            });
                            let vals = w.ld_shared::<2>(&addrs, LaneMask::ALL);
                            for lane in 0..WARP_SIZE {
                                rflt[lane][gv * 2..gv * 2 + 2].copy_from_slice(&vals[lane]);
                            }
                        }
                        let pop = w.population();
                        for lane in pop.iter() {
                            let t = w.thread_id(lane);
                            let abase = t * f_t * w_t;
                            for ff in 0..f_t {
                                let fv = rflt[lane][ff];
                                for v in 0..w_t {
                                    acc[abase + ff * w_t + v] += fv * rimg[(t * w_t + v) * k + kc];
                                }
                            }
                        }
                        w.count_fma(pop.count() as u64 * (f_t * w_t) as u64);
                    });
                }
            }
        }
        blk.sync();
        c0 += c_sh;
    }

    // Write-back: within a T_X group, consecutive pixel-threads hold
    // consecutive columns — coalesced scalar stores (the one advantage of
    // this layout).
    for ff in 0..f_t {
        for v in 0..w_t {
            blk.each_warp(|w| {
                let wid = w.warp_id();
                let addrs = lane_addrs_from(|lane| {
                    let t = wid * WARP_SIZE + lane;
                    let f = f0 + t_tx[t] * f_t + ff;
                    d_out.f32_addr(
                        ((f * g.out_rows + gy + s_row[t]) * g.out_pitch
                            + gx
                            + s_col0[t]
                            + v * cols_per_row) as u64,
                    )
                });
                let mut vals = [[0.0f32; 1]; WARP_SIZE];
                for (lane, val) in vals.iter_mut().enumerate() {
                    let t = wid * WARP_SIZE + lane;
                    if t < threads {
                        val[0] = acc[t * f_t * w_t + ff * w_t + v];
                    }
                }
                w.st_global::<1>(&addrs, &vals, LaneMask::ALL);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_sim::GpuSpec;
    use kconv_tensor::{random_filters, random_maps, CONV_TOL};

    fn small_cfg() -> GeneralConfig {
        GeneralConfig {
            width: 16,
            height: 4,
            f_tb: 8,
            w_t: 8,
            f_t: 4,
            c_sh: 2,
            vec_width: 2,
        }
    }

    fn check(cfg: GeneralConfig, n: usize, c: usize, f: usize, k: usize, mode: SimMode) -> ConvRun {
        let problem = ConvProblem::general(n, c, f, k);
        let input = random_maps(c, n, n, 21);
        let filters = random_filters(f, c, k, 23);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let run = GeneralConv::new(cfg)
            .run(&mut gpu, &problem, &input, &filters, mode)
            .expect("launch");
        run.verify_executed(&problem, &input, &filters, CONV_TOL)
            .expect("output mismatch");
        run
    }

    #[test]
    fn exact_tiles_3x3() {
        // 18x18 input, K=3 -> 16x16 output = 1x4 tiles; C=4, F=16.
        check(small_cfg(), 18, 4, 16, 3, SimMode::Full);
    }

    #[test]
    fn ragged_tiles_3x3() {
        // 25x25 -> 23x23 output: clipping on both axes.
        check(small_cfg(), 25, 2, 8, 3, SimMode::Full);
    }

    #[test]
    fn five_by_five() {
        check(small_cfg(), 22, 2, 8, 5, SimMode::Full);
    }

    #[test]
    fn seven_by_seven() {
        check(small_cfg(), 26, 2, 8, 7, SimMode::Full);
    }

    #[test]
    fn single_channel_general_path() {
        let cfg = GeneralConfig {
            c_sh: 1,
            ..small_cfg()
        };
        check(cfg, 20, 1, 8, 3, SimMode::Full);
    }

    #[test]
    fn unmatched_variant() {
        let cfg = GeneralConfig {
            vec_width: 1,
            ..small_cfg()
        };
        check(cfg, 18, 2, 8, 3, SimMode::Full);
    }

    #[test]
    fn multiple_filter_groups() {
        // F = 32 with F_TB = 8: four blocks along the filter axis.
        let run = check(small_cfg(), 18, 2, 32, 3, SimMode::Full);
        assert_eq!(run.report.stats.blocks_total, (4 * 4));
    }

    #[test]
    fn sampled_execution_verifies_filter_slices() {
        let run = check(small_cfg(), 34, 2, 32, 3, SimMode::Sampled(3));
        assert_eq!(run.executed_regions.len(), 3);
        // Each region covers exactly one filter group.
        assert!(run.executed_regions.iter().all(|r| r.nf == 8));
    }

    #[test]
    fn paper_table1_config_runs() {
        // The real Table 1 3x3 config on a small-but-divisible problem.
        let cfg = GeneralConfig::table1_3x3();
        check(cfg, 34, 2, 64, 3, SimMode::Full);
    }

    #[test]
    fn smem_loads_are_nearly_conflict_free() {
        let run = check(small_cfg(), 18, 4, 16, 3, SimMode::Full);
        assert!(
            run.report.stats.sm_replay_factor() < 1.05,
            "replay {}",
            run.report.stats.sm_replay_factor()
        );
    }

    #[test]
    fn strided_layout_is_correct() {
        let problem = ConvProblem::general(18, 4, 16, 3);
        let input = random_maps(4, 18, 18, 25);
        let filters = random_filters(16, 4, 3, 27);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let run = GeneralConvStrided::new(small_cfg())
            .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
            .expect("strided launch");
        run.verify_executed(&problem, &input, &filters, CONV_TOL)
            .expect("strided output mismatch");
    }

    #[test]
    fn contiguous_outputs_cut_sm_image_traffic() {
        // Paper section 4.2: (W_T + K - 1)/(W_T * K) shared-memory image
        // reduction vs the blocked-GEMM layout, measured in pixel reads.
        let cfg = small_cfg(); // W_T = 8, K = 3
        let problem = ConvProblem::general(18, 4, 8, 3);
        let input = random_maps(4, 18, 18, 29);
        let filters = random_filters(8, 4, 3, 31);
        let run_with = |conv: &dyn Convolution| {
            let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
            conv.run(&mut gpu, &problem, &input, &filters, SimMode::Full)
                .unwrap()
                .report
        };
        let ours = run_with(&GeneralConv::new(cfg));
        let gemm_layout = run_with(&GeneralConvStrided::new(cfg));
        // Same arithmetic.
        assert_eq!(ours.stats.fma_lane_ops, gemm_layout.stats.fma_lane_ops);
        // Image pixels read from shared memory per thread per channel row:
        // contiguous (W_T + K - 1) = 10, strided W_T * K = 24 -> 2.4x. The
        // totals also include (identical) filter reads and staging stores,
        // so require a healthy but smaller ratio on useful bytes.
        let ratio = gemm_layout.stats.sm_bytes_useful as f64 / ours.stats.sm_bytes_useful as f64;
        assert!(ratio > 1.5, "sm-bytes ratio {ratio}");
        // And the model says the contiguous layout is faster.
        assert!(ours.seconds() < gemm_layout.seconds());
    }

    #[test]
    fn rejects_indivisible_shapes() {
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let problem = ConvProblem::general(18, 3, 8, 3); // C=3 not divisible by c_sh=2
        let input = random_maps(3, 18, 18, 1);
        let filters = random_filters(8, 3, 3, 1);
        let err =
            GeneralConv::new(small_cfg()).run(&mut gpu, &problem, &input, &filters, SimMode::Full);
        assert!(matches!(err, Err(ConvError::Shape(_))));

        let problem = ConvProblem::general(18, 2, 12, 3); // F=12 not divisible by f_tb=8
        let input = random_maps(2, 18, 18, 1);
        let filters = random_filters(12, 2, 3, 1);
        let err =
            GeneralConv::new(small_cfg()).run(&mut gpu, &problem, &input, &filters, SimMode::Full);
        assert!(matches!(err, Err(ConvError::Shape(_))));
    }

    #[test]
    fn gm_traffic_reduction_vs_kk_duplication() {
        // The staged image bytes should be ~ (H+K-1)(W+K-1)/(H*W) per
        // output pixel per channel per tile — far below the K*K im2col
        // duplication.
        let run = check(small_cfg(), 18, 4, 8, 3, SimMode::Full);
        let tiles = 4;
        let per_tile_img = 4 * (4 + 2) * (16 + 2) * 4; // C*(H+K-1)*(W+K-1)*4B
        let flt = 8 * 4 * 9 * 4 * tiles; // every tile restages its filters
        let expected = tiles * per_tile_img + flt;
        assert_eq!(run.report.stats.gm_ld_bytes_useful, expected as u64);
    }
}
