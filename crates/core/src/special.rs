//! The communication-optimized special-case kernel (paper section 3), for
//! every storage type.
//!
//! For single-channel input (`C = 1`) — the first layer of CNNs on
//! grayscale images and most classic image-processing workloads — the
//! filters fit in constant memory and every pixel a convolution needs can
//! live in registers. The kernel is built so that
//!
//! * each input pixel of a tile is read from global memory **exactly
//!   once** (the theoretical lower bound, up to tile halos);
//! * the shared memory provides *horizontal* (inter-thread) data sharing,
//!   one streamed row at a time, while a `K x (K + n - 1)` register window
//!   per thread provides *vertical* (intra-thread) sharing;
//! * every thread reads, computes and writes `n = W_SMB / W_CD` pixels as a
//!   single unit, matching the computation data width to the shared-memory
//!   bank width (`float2` on Kepler — [`SpecialConfig::vec_width`] = 2);
//! * all warps read each filter tap from constant memory at the same
//!   uniform address (the broadcast fast path), and the next image row is
//!   prefetched into registers while the current row is convolved
//!   (Algorithm 1 of the paper).
//!
//! Setting `vec_width = 1` yields the *unmatched* kernel of the paper's
//! Fig. 7b ablation.
//!
//! The paper closes by predicting that its bank-width model pays off even
//! more for short data types: `W_CD` = 2 bytes (fp16) gives `n = 4` on
//! Kepler, `W_CD` = 1 byte (int8 fixed point) gives `n = 8`, and a
//! mismatch exists even on 4-byte-bank parts. [`Storage`] selects the
//! element type pixels move through global and shared memory as; values
//! are widened to `f32` in registers for the FMAs (the standard
//! mixed-precision scheme of the era). One block body serves every
//! storage: it is generic over an element codec, monomorphized per
//! storage, and over the lane width in bytes. Besides restoring the
//! shared-memory fabric, narrow storage divides the global-memory traffic
//! by 2 (fp16) or 4 (int8) — and the `F`-map write stream is what bounds
//! the f32 kernel at large `F`.

use kconv_sim::pricing::WarpAccess;
use kconv_sim::{
    lane_addrs_from, BlockCtx, GmBuf, Gpu, GpuSpec, LaneMask, LaunchConfig, LaunchReport,
    OverlapMode, SimMode, WARP_SIZE,
};
use kconv_tensor::{
    f16_bits_to_f32, f16_roundtrip, f32_to_f16_bits, pack_f16x2, unpack_f16x2, ConvProblem,
    FeatureMaps, FilterSet,
};

use crate::config::{round_up, SpecialConfig};
use crate::dtype::DataType;
use crate::error::{ConvError, Result};
use crate::reference::OutRegion;
use crate::run::{verify_regions, ConvRun, Convolution};
use crate::shape::KernelShape;

/// Comparison tolerance for fp16-stored convolutions (re-exported from
/// [`kconv_tensor`], where the bound is documented next to the comparison
/// helpers that use it).
pub use kconv_tensor::F16_TOL;

/// Comparison tolerance for int8-stored convolutions: with |image| <= 1
/// inputs and the filter-norm output scale, quantization noise stays well
/// inside this bound.
pub const I8_TOL: f32 = 8e-2;

/// Largest filter size the kernel supports (bounds its per-thread tap
/// buffer; 13x13 covers every filter the paper and the applications use).
pub const MAX_K: usize = 13;

/// How the special kernel stores pixels and filter taps.
///
/// [`SpecialConfig::vec_width`] counts elements of the storage type per
/// thread per access: the matched factor is `W_SMB / W_CD` (see
/// [`KernelShape::derive_n`]).
///
/// # Examples
///
/// ```
/// use kconv_core::{quantize_filters_f16, quantize_maps_f16};
/// use kconv_core::{Convolution, DataType, KernelShape, SpecialConv, Storage, F16_TOL};
/// use kconv_sim::{Gpu, GpuSpec, SimMode};
/// use kconv_tensor::{random_maps, random_filters, ConvProblem};
///
/// # fn main() -> Result<(), kconv_core::ConvError> {
/// // The generator's fp16 variant for a 4-byte-bank part: true half2.
/// let spec = GpuSpec::maxwell_like();
/// let conv = SpecialConv::for_shape(KernelShape::matched(&spec, DataType::F16));
/// assert_eq!((conv.storage, conv.config.vec_width), (Storage::Half2, 2));
/// let problem = ConvProblem::special(64, 2, 3);
/// let input = random_maps(1, 64, 64, 7);
/// let filters = random_filters(2, 1, 3, 8);
/// let mut gpu = Gpu::new(spec);
/// let run = conv.run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
/// // Half2 rounds the taps too: the oracle runs on fp16 input and taps.
/// run.verify_executed(
///     &problem,
///     &quantize_maps_f16(&input),
///     &quantize_filters_f16(&filters),
///     F16_TOL,
/// )
/// .unwrap();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Storage {
    /// `f32` pixels and taps: the paper's kernel.
    #[default]
    F32,
    /// IEEE binary16 pixels, exact `f32` taps in constant memory.
    F16,
    /// Binary16 pixels **and** binary16 taps packed two per 4-byte
    /// constant-memory word (CUDA's `__half2`): half the tap broadcasts,
    /// at fp16 tap precision. The generator's fp16 variant.
    Half2,
    /// Symmetric 8-bit fixed point with per-tensor scales, derived from the
    /// data on each run ([`i8_input_scale`], [`i8_output_scale`]); `f32`
    /// taps.
    I8,
}

impl Storage {
    /// The computation [`DataType`] of one stored pixel.
    pub fn dtype(self) -> DataType {
        match self {
            Storage::F32 => DataType::F32,
            Storage::F16 | Storage::Half2 => DataType::F16,
            Storage::I8 => DataType::I8,
        }
    }
}

/// The special-case (`C = 1`) direct convolution kernel.
///
/// # Examples
///
/// ```
/// use kconv_core::{SpecialConv, Convolution};
/// use kconv_sim::{Gpu, GpuSpec, SimMode};
/// use kconv_tensor::{random_maps, random_filters, ConvProblem};
///
/// # fn main() -> Result<(), kconv_core::ConvError> {
/// let problem = ConvProblem::special(64, 4, 3);
/// let input = random_maps(1, 64, 64, 7);
/// let filters = random_filters(4, 1, 3, 8);
/// let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
/// let run = SpecialConv::default().run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
/// assert!(run
///     .verify_executed(&problem, &input, &filters, kconv_tensor::CONV_TOL)
///     .is_ok());
/// # Ok(())
/// # }
/// ```
///
/// Narrow storage: fp16 (`n = 4` is matched on Kepler's 8-byte banks) is
/// checked against the reference on the fp16-quantized input, int8
/// (`n = 8`) against the int8-quantized one.
///
/// ```
/// use kconv_core::{quantize_maps, quantize_maps_f16, Convolution, Encoding, SpecialConv, Storage};
/// use kconv_core::{i8_input_scale, i8_output_scale, F16_TOL, I8_TOL};
/// use kconv_sim::{Gpu, GpuSpec, SimMode};
/// use kconv_tensor::{random_maps, random_filters, ConvProblem};
///
/// # fn main() -> Result<(), kconv_core::ConvError> {
/// let problem = ConvProblem::special(64, 2, 3);
/// let input = random_maps(1, 64, 64, 7);
/// let filters = random_filters(2, 1, 3, 8);
/// let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
/// let run = SpecialConv::with_storage(Storage::F16, 4)
///     .run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
/// run.verify_executed(&problem, &quantize_maps_f16(&input), &filters, F16_TOL).unwrap();
///
/// let run = SpecialConv::with_storage(Storage::I8, 8)
///     .run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
/// let enc = Encoding::I8 {
///     scale_in: i8_input_scale(&input),
///     scale_out: i8_output_scale(&input, &filters),
/// };
/// run.verify_executed(&problem, &quantize_maps(&input, enc), &filters, I8_TOL).unwrap();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecialConv {
    /// Tiling and vector-width configuration (`vec_width` in elements of
    /// `storage`).
    pub config: SpecialConfig,
    /// Element type of pixels and taps in device memory.
    pub storage: Storage,
}

impl SpecialConv {
    /// Creates the `f32` kernel with the given configuration.
    pub fn new(config: SpecialConfig) -> Self {
        SpecialConv {
            config,
            storage: Storage::F32,
        }
    }

    /// The paper's tile with `storage` and `n` elements per access.
    pub fn with_storage(storage: Storage, n: usize) -> Self {
        SpecialConv {
            config: SpecialConfig::with_vec_width(n),
            storage,
        }
    }

    /// The kernel the generator instantiates for `shape`: the paper's tile
    /// with `n = shape.vec_width`, `f32` → [`Storage::F32`], fp16 →
    /// [`Storage::Half2`], int8 → [`Storage::I8`].
    pub fn for_shape(shape: KernelShape) -> Self {
        let storage = match shape.dtype {
            DataType::F32 => Storage::F32,
            DataType::F16 => Storage::Half2,
            DataType::I8 => Storage::I8,
        };
        SpecialConv::with_storage(storage, shape.vec_width)
    }

    /// Constant-memory bytes `problem`'s filter bank occupies: one 4-byte
    /// word per tap, or per tap pair under [`Storage::Half2`].
    pub fn const_bytes(&self, problem: &ConvProblem) -> u64 {
        let taps = problem.k * problem.k;
        let words = match self.storage {
            Storage::Half2 => taps.div_ceil(2),
            _ => taps,
        };
        (problem.filters * words * 4) as u64
    }

    /// Checks that this kernel can run `problem` on `spec`: one dense
    /// stride-1 input channel, an instantiable vector factor, a valid tile
    /// and a filter bank that fits constant memory.
    ///
    /// # Errors
    ///
    /// [`ConvError::Shape`] for a problem outside the special case,
    /// [`ConvError::Config`] for a configuration that cannot run it.
    pub fn validate(&self, spec: &GpuSpec, problem: &ConvProblem) -> Result<()> {
        if problem.channels != 1 {
            return Err(ConvError::Shape(format!(
                "special-case kernel requires C = 1, got C = {}",
                problem.channels
            )));
        }
        if problem.stride != 1 {
            return Err(ConvError::Shape(format!(
                "the paper's direct kernels are stride-1 only, got S = {} \
                 (use a GEMM baseline for strided problems)",
                problem.stride
            )));
        }
        crate::run::require_dense(problem)?;
        let (dtype, n) = (self.storage.dtype(), self.config.vec_width);
        if KernelShape::forced(dtype, n).is_none() {
            return Err(ConvError::Config(format!(
                "vec_width {n} is not instantiable for {dtype} (expected one of {:?})",
                KernelShape::supported_factors(dtype)
            )));
        }
        self.config
            .validate(spec, problem.k)
            .map_err(ConvError::Config)?;
        let cm = self.const_bytes(problem);
        if cm > spec.cm_bytes {
            return Err(ConvError::Config(format!(
                "{} filters of size {k}x{k} ({cm} B) exceed constant memory",
                problem.filters,
                k = problem.k
            )));
        }
        Ok(())
    }

    /// Tile geometry of one image of `problem`.
    fn geom(&self, problem: &ConvProblem) -> Geom {
        let cfg = &self.config;
        let k = problem.k;
        let (oh, ow) = (problem.out_height(), problem.out_width());
        let tiles_x = ow.div_ceil(cfg.width);
        let tiles_y = oh.div_ceil(cfg.height);
        // Row pitch: the tiled width plus halo, extended so the last tile's
        // full-vector tail loads stay inside the row (vectorized kernels
        // load whole vectors; the buffer provides the headroom, as on real
        // CUDA).
        let row_len = cfg.width + k - 1;
        let in_pitch = (tiles_x * cfg.width + k - 1)
            .max((tiles_x - 1) * cfg.width + round_up(row_len, cfg.vec_width));
        Geom {
            k,
            f: problem.filters,
            tiles_x,
            tiles_y,
            tile_w: cfg.width,
            tile_h: cfg.height,
            in_pitch,
            in_rows: tiles_y * cfg.height + k - 1,
            out_pitch: tiles_x * cfg.width,
            out_rows: tiles_y * cfg.height,
            sm_pitch: cfg.smem_pitch(k),
            row_len,
            shape: KernelShape {
                dtype: self.storage.dtype(),
                vec_width: cfg.vec_width,
            },
            packed_taps: self.storage == Storage::Half2,
        }
    }

    /// Uploads the filter bank to constant memory in this storage's tap
    /// layout.
    fn write_taps(&self, gpu: &mut Gpu, filters: &FilterSet) -> Result<()> {
        if self.storage != Storage::Half2 {
            gpu.write_const_f32(0, filters.as_slice())?;
            return Ok(());
        }
        // Two binary16 taps per word, per filter (uploaded bitwise through
        // the f32 facade).
        let kk = filters.k() * filters.k();
        let mut words = Vec::new();
        for taps in filters.as_slice().chunks(kk) {
            for pair in taps.chunks(2) {
                let hi = pair.get(1).copied().unwrap_or(0.0);
                words.push(f32::from_bits(pack_f16x2(pair[0], hi)));
            }
        }
        gpu.write_const_f32(0, &words)?;
        Ok(())
    }
}

/// Result of a fused-batch launch of the special kernel: all images in a
/// single grid of `batch x tiles` blocks.
#[derive(Debug, Clone)]
pub struct FusedBatchRun {
    /// Per-image outputs, in input order.
    pub outputs: Vec<FeatureMaps>,
    /// The single launch's counters and timing.
    pub report: LaunchReport,
    /// Executed `(image, region)` pairs (clipped to the output).
    pub executed: Vec<(usize, OutRegion)>,
}

impl FusedBatchRun {
    /// Validates every executed region of every image against the CPU
    /// reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching element.
    pub fn verify_executed(
        &self,
        problem: &ConvProblem,
        inputs: &[FeatureMaps],
        filters: &FilterSet,
        tol: f32,
    ) -> std::result::Result<(), String> {
        for (img, (output, input)) in self.outputs.iter().zip(inputs).enumerate() {
            let regions = self.executed.iter().filter(|e| e.0 == img).map(|e| &e.1);
            verify_regions(output, regions, problem, input, filters, tol)
                .map_err(|e| format!("image {img}, {e}"))?;
        }
        Ok(())
    }
}

impl SpecialConv {
    /// Runs a whole batch in **one launch**: the grid is `batch x tiles`
    /// blocks, so small images still fill the machine and the per-launch
    /// overhead is paid once (compare [`run_batch`](crate::run_batch),
    /// which launches per image). `f32` storage only.
    ///
    /// # Errors
    ///
    /// As [`Convolution::run`], plus [`ConvError::Shape`] for an empty or
    /// shape-mismatched batch and [`ConvError::Config`] for narrow storage.
    pub fn run_fused_batch(
        &self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        inputs: &[FeatureMaps],
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<FusedBatchRun> {
        if inputs.is_empty() {
            return Err(ConvError::Shape("empty batch".into()));
        }
        if self.storage != Storage::F32 {
            return Err(ConvError::Config(format!(
                "the fused batch launch stores f32 only, not {:?}",
                self.storage
            )));
        }
        let (outputs, report, executed) =
            self.run_images(gpu, problem, inputs, filters, mode, true)?;
        Ok(FusedBatchRun {
            outputs,
            report,
            executed,
        })
    }

    /// Validates, then convolves `inputs` in one launch of `inputs.len()
    /// x tiles` blocks (`fused` names it as a batch launch).
    fn run_images(
        &self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        inputs: &[FeatureMaps],
        filters: &FilterSet,
        mode: SimMode,
        fused: bool,
    ) -> Result<Images> {
        self.validate(gpu.spec(), problem)?;
        for (i, input) in inputs.iter().enumerate() {
            if !problem.matches(input, filters) {
                return Err(ConvError::Shape(format!(
                    "input {i}: input/filter shapes do not match {problem}"
                )));
            }
        }
        self.write_taps(gpu, filters)?;
        let (k, n, eb) = (
            problem.k,
            self.config.vec_width,
            self.storage.dtype().bytes(),
        );
        let name = match self.storage {
            _ if fused => format!("special-batch{} K={k} n={n}", inputs.len()),
            Storage::F32 => format!("special K={k} n={n}"),
            Storage::Half2 => format!("special-half2 K={k} n={n}"),
            Storage::F16 | Storage::I8 => format!("special-{eb}B K={k} n={n}"),
        };
        let (f32s, f16s) = ((F32Codec, F32Codec), (F16Codec, F16Codec));
        match self.storage {
            Storage::F32 => self.run_codec(gpu, f32s, problem, inputs, mode, name),
            Storage::F16 | Storage::Half2 => self.run_codec(gpu, f16s, problem, inputs, mode, name),
            Storage::I8 => {
                let io = (
                    I8Codec(i8_input_scale(&inputs[0])),
                    I8Codec(i8_output_scale(&inputs[0], filters)),
                );
                self.run_codec(gpu, io, problem, inputs, mode, name)
            }
        }
    }

    /// Dispatches on the per-lane access width in bytes.
    fn run_codec<C: Codec>(
        &self,
        gpu: &mut Gpu,
        io: (C, C),
        problem: &ConvProblem,
        inputs: &[FeatureMaps],
        mode: SimMode,
        name: String,
    ) -> Result<Images> {
        match self.config.vec_width * C::BYTES {
            1 => self.launch::<C, 1>(gpu, io, problem, inputs, mode, name),
            2 => self.launch::<C, 2>(gpu, io, problem, inputs, mode, name),
            4 => self.launch::<C, 4>(gpu, io, problem, inputs, mode, name),
            8 => self.launch::<C, 8>(gpu, io, problem, inputs, mode, name),
            _ => self.launch::<C, 16>(gpu, io, problem, inputs, mode, name),
        }
    }

    /// Device setup, the launch named `name`, and the host-side collection
    /// of every image's output, `B` bytes per lane per access.
    fn launch<C: Codec, const B: usize>(
        &self,
        gpu: &mut Gpu,
        (cin, cout): (C, C),
        problem: &ConvProblem,
        inputs: &[FeatureMaps],
        mode: SimMode,
        name: String,
    ) -> Result<Images> {
        let g = self.geom(problem);
        let eb = C::BYTES;
        let (batch, tiles) = (inputs.len(), g.tiles_x * g.tiles_y);
        // One allocation per tensor with per-image slots (256-byte aligned
        // so vectorized accesses stay aligned in every slot).
        let in_bytes = g.in_rows * g.in_pitch * eb;
        let out_bytes = g.f * g.out_rows * g.out_pitch * eb;
        let (in_slot, out_slot) = (round_up(in_bytes, 256), round_up(out_bytes, 256));
        let slot = |buf: GmBuf, i: usize, at: usize, len: usize| {
            buf.subbuffer((i * at) as u64, len as u64)
        };
        let d_in_all = gpu.alloc_bytes(((batch - 1) * in_slot + in_bytes) as u64)?;
        for (i, input) in inputs.iter().enumerate() {
            let padded = input.channel(0).padded_to(g.in_rows, g.in_pitch);
            let mut image = vec![0u8; in_bytes];
            for (v, out) in padded.as_slice().iter().zip(image.chunks_exact_mut(eb)) {
                cin.encode(*v, out);
            }
            upload_bytes(gpu, slot(d_in_all, i, in_slot, in_bytes), &image)?;
        }
        let d_out_all = gpu.alloc_bytes(((batch - 1) * out_slot + out_bytes) as u64)?;

        let k = g.k;
        let launch = LaunchConfig::new(name, batch * tiles, self.config.threads())
            .with_smem((k * g.sm_pitch * eb) as u32)
            .with_regs(self.config.regs_per_thread(k))
            .with_overlap(OverlapMode::Prefetch);
        let report = gpu.launch(&launch, mode, |blk| {
            let img = blk.dims.block_id / tiles;
            let d_in = slot(d_in_all, img, in_slot, in_bytes);
            let d_out = slot(d_out_all, img, out_slot, out_bytes);
            // Rewrite the block id so the tile decoding inside the kernel
            // body sees a per-image grid.
            let mut dims = blk.dims;
            dims.block_id %= tiles;
            let saved = std::mem::replace(&mut blk.dims, dims);
            special_block::<C, B>(blk, &g, (cin, cout), d_in, d_out);
            blk.dims = saved;
        })?;

        let mut outputs = Vec::with_capacity(batch);
        for i in 0..batch {
            let raw = download_bytes(gpu, slot(d_out_all, i, out_slot, out_bytes), out_bytes)?;
            outputs.push(g.collect(problem, cout, &raw));
        }
        let mut executed = Vec::new();
        for &b in &report.executed_blocks {
            let tile = b % tiles;
            if let Some(r) = (OutRegion {
                f0: 0,
                nf: problem.filters,
                y0: (tile / g.tiles_x) * g.tile_h,
                x0: (tile % g.tiles_x) * g.tile_w,
                h: g.tile_h,
                w: g.tile_w,
            })
            .clipped(problem)
            {
                executed.push((b / tiles, r));
            }
        }
        Ok((outputs, report, executed))
    }
}

/// Per-image outputs, the launch report and the executed `(image, region)`
/// pairs.
type Images = (Vec<FeatureMaps>, LaunchReport, Vec<(usize, OutRegion)>);

impl Convolution for SpecialConv {
    fn name(&self) -> String {
        let n = self.config.vec_width;
        let which = if n == 1 {
            "unmatched"
        } else if n * self.storage.dtype().bytes() >= 8 {
            "matched"
        } else {
            "partial"
        };
        let storage = match self.storage {
            Storage::F32 => "",
            Storage::F16 => " fp16",
            Storage::Half2 => " half2",
            Storage::I8 => " int8",
        };
        format!("special{storage} ({which}, n={n})")
    }

    fn run(
        &self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<ConvRun> {
        let inputs = std::slice::from_ref(input);
        let (mut outputs, report, executed) =
            self.run_images(gpu, problem, inputs, filters, mode, false)?;
        Ok(ConvRun {
            output: outputs.remove(0),
            report,
            executed_regions: executed.into_iter().map(|(_, r)| r).collect(),
            faults: Vec::new(),
        })
    }
}

/// How one stored element converts to and from the `f32` registers the
/// kernel computes in. Monomorphized into the block body, so the `f32`
/// path pays no per-element dispatch.
trait Codec: Copy + Send + Sync {
    /// Stored bytes per element (`W_CD`).
    const BYTES: usize;
    /// Writes `v` into `out` (`BYTES` long).
    fn encode(self, v: f32, out: &mut [u8]);
    /// Reads one element from `bytes` (`BYTES` long).
    fn decode(self, bytes: &[u8]) -> f32;
}

#[derive(Clone, Copy)]
struct F32Codec;

impl Codec for F32Codec {
    const BYTES: usize = 4;
    fn encode(self, v: f32, out: &mut [u8]) {
        out.copy_from_slice(&v.to_le_bytes());
    }
    fn decode(self, bytes: &[u8]) -> f32 {
        f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
    }
}

#[derive(Clone, Copy)]
struct F16Codec;

impl Codec for F16Codec {
    const BYTES: usize = 2;
    fn encode(self, v: f32, out: &mut [u8]) {
        out.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes());
    }
    fn decode(self, bytes: &[u8]) -> f32 {
        f16_bits_to_f32(u16::from_le_bytes([bytes[0], bytes[1]]))
    }
}

/// Symmetric fixed point with step `.0`: `stored = round(v / step)`,
/// clamped to `[-127, 127]`.
#[derive(Clone, Copy)]
struct I8Codec(f32);

impl Codec for I8Codec {
    const BYTES: usize = 1;
    fn encode(self, v: f32, out: &mut [u8]) {
        out[0] = (v / self.0).round().clamp(-127.0, 127.0) as i8 as u8;
    }
    fn decode(self, bytes: &[u8]) -> f32 {
        (bytes[0] as i8) as f32 * self.0
    }
}

fn round_trip<C: Codec>(c: C, v: f32) -> f32 {
    let mut buf = [0u8; 4];
    c.encode(v, &mut buf[..C::BYTES]);
    c.decode(&buf[..C::BYTES])
}

/// How pixel values are stored in device memory by the narrow storages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Encoding {
    /// IEEE binary16.
    F16,
    /// Symmetric fixed point: `stored_i8 = round(value / scale)`, clamped
    /// to `[-127, 127]`. Separate scales for input and output tensors.
    I8 {
        /// Input quantization step.
        scale_in: f32,
        /// Output quantization step.
        scale_out: f32,
    },
}

impl Encoding {
    /// Storage width `W_CD` in bytes.
    pub fn elem_bytes(self) -> usize {
        self.dtype().bytes()
    }

    /// The computation [`DataType`] this encoding stores.
    pub fn dtype(self) -> DataType {
        match self {
            Encoding::F16 => DataType::F16,
            Encoding::I8 { .. } => DataType::I8,
        }
    }
}

/// Quantizes feature maps through an encoding (`f32 -> storage -> f32`) —
/// the input the narrow kernel effectively convolves; pass the result to
/// the reference when validating.
pub fn quantize_maps(maps: &FeatureMaps, enc: Encoding) -> FeatureMaps {
    let data = maps
        .as_slice()
        .iter()
        .map(|&v| match enc {
            Encoding::F16 => round_trip(F16Codec, v),
            Encoding::I8 { scale_in, .. } => round_trip(I8Codec(scale_in), v),
        })
        .collect();
    FeatureMaps::from_vec(maps.channels(), maps.height(), maps.width(), data)
}

/// Quantizes feature maps through fp16.
pub fn quantize_maps_f16(maps: &FeatureMaps) -> FeatureMaps {
    quantize_maps(maps, Encoding::F16)
}

/// Quantizes a filter bank through fp16 (`f32 -> f16 -> f32`) — the taps
/// the [`Storage::Half2`] kernel effectively convolves with; pass the
/// result to the reference when validating it.
pub fn quantize_filters_f16(filters: &FilterSet) -> FilterSet {
    let taps = filters.as_slice().iter().map(|&v| f16_roundtrip(v));
    FilterSet::from_vec(
        filters.count(),
        filters.channels(),
        filters.k(),
        taps.collect(),
    )
}

/// Symmetric per-tensor input scale: `max|x| / 127` (1/127 for all-zero
/// data so the scale is always usable).
pub fn i8_input_scale(maps: &FeatureMaps) -> f32 {
    let max = maps.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    (max / 127.0).max(1.0 / 127.0)
}

/// Output scale from the worst-case amplification bound
/// `max_f sum |w_f|` applied to the dequantized input range.
pub fn i8_output_scale(maps: &FeatureMaps, filters: &FilterSet) -> f32 {
    let max_in = maps.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let mut worst = 0.0f32;
    for f in 0..filters.count() {
        let mut sum = 0.0f32;
        for c in 0..filters.channels() {
            for i in 0..filters.k() {
                for j in 0..filters.k() {
                    sum += filters.get(f, c, i, j).abs();
                }
            }
        }
        worst = worst.max(sum);
    }
    (max_in * worst / 127.0).max(1.0 / 127.0)
}

/// Host upload of raw bytes via the f32 facade (bitwise).
fn upload_bytes(gpu: &mut Gpu, buf: GmBuf, bytes: &[u8]) -> Result<()> {
    let mut words = Vec::with_capacity(bytes.len().div_ceil(4));
    for chunk in bytes.chunks(4) {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        words.push(f32::from_le_bytes(w));
    }
    gpu.upload_f32(buf, &words)?;
    Ok(())
}

/// Host download of `len` raw bytes via the f32 facade.
fn download_bytes(gpu: &Gpu, buf: GmBuf, len: usize) -> Result<Vec<u8>> {
    let words = gpu.download_f32_at(buf, 0, len.div_ceil(4))?;
    let mut out: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    out.truncate(len);
    Ok(out)
}

/// Geometry shared by the setup code and the per-block closure. The
/// [`KernelShape`] is the generator-derived source of truth for the vector
/// factor and element width: every address, mask and pitch computed inside
/// the block body reads `shape` rather than a hard-wired constant, so the
/// same body serves every storage, the Kepler float2 layout, the
/// 4-byte-bank scalar layout and forced-`n` ablations.
struct Geom {
    k: usize,
    f: usize,
    tiles_x: usize,
    tiles_y: usize,
    tile_w: usize,
    tile_h: usize,
    in_pitch: usize,
    in_rows: usize,
    out_pitch: usize,
    out_rows: usize,
    sm_pitch: usize,
    row_len: usize,
    shape: KernelShape,
    /// Taps packed two binary16 per constant word ([`Storage::Half2`]).
    packed_taps: bool,
}

impl Geom {
    /// Decodes the padded device output `raw` into the problem's maps
    /// (zeros where tiles were not executed).
    fn collect<C: Codec>(&self, problem: &ConvProblem, c: C, raw: &[u8]) -> FeatureMaps {
        let (oh, ow) = (problem.out_height(), problem.out_width());
        let mut output = FeatureMaps::zeros(problem.filters, oh, ow);
        let dst = output.as_mut_slice();
        for f in 0..problem.filters {
            for y in 0..oh {
                let src = ((f * self.out_rows + y) * self.out_pitch) * C::BYTES;
                let row = raw[src..src + ow * C::BYTES].chunks_exact(C::BYTES);
                let at = (f * oh + y) * ow;
                for (d, bytes) in dst[at..at + ow].iter_mut().zip(row) {
                    *d = c.decode(bytes);
                }
            }
        }
        output
    }
}

/// Algorithm 1 of the paper, executed by one thread block over one tile.
///
/// The vector factor `n` comes from the geometry's [`KernelShape`] at run
/// time; `C` fixes the element codec (`cin` for the image, `cout` for the
/// output) and `B = n * C::BYTES` only sizes the per-lane byte arrays the
/// simulator's warp API requires (the dispatchers guarantee they agree).
fn special_block<C: Codec, const B: usize>(
    blk: &mut BlockCtx<'_>,
    g: &Geom,
    (cin, cout): (C, C),
    d_in: GmBuf,
    d_out: GmBuf,
) {
    let k = g.k;
    let n = g.shape.vec_width;
    let eb = g.shape.elem_bytes();
    debug_assert_eq!(eb, C::BYTES, "shape dtype must match the codec");
    debug_assert_eq!(B, n * eb, "shape must match the instantiated lane width");
    let threads = blk.dims.threads;
    let bx = blk.dims.block_id % g.tiles_x;
    let by = blk.dims.block_id / g.tiles_x;
    let in_row0 = by * g.tile_h;
    let in_col0 = bx * g.tile_w;

    let win_w = round_up(k + n - 1, n);
    // Per-thread register window: K rows of the sliding K x (K+n-1) patch.
    let mut win = vec![0.0f32; threads * k * win_w];
    // Register staging for the prefetched row (its stored bytes: staging
    // moves elements without converting them).
    let rounds = g.row_len.div_ceil(threads * n);
    let mut pf = vec![0u8; rounds * threads * B];

    // Reads one absolute tile row from global memory into `pf`.
    let gm_row_to_pf = |blk: &mut BlockCtx<'_>, pf: &mut [u8], row: usize| {
        for r in 0..rounds {
            blk.each_warp(|w| {
                let mask =
                    LaneMask::from_fn(|lane| (r * threads + w.thread_id(lane)) * n < g.row_len);
                let addrs = lane_addrs_from(|lane| {
                    let p = ((r * threads + w.thread_id(lane)) * n).min(g.row_len - 1);
                    d_in.addr_of(
                        ((in_row0 + row) * g.in_pitch + in_col0 + p) as u64,
                        eb as u64,
                    )
                });
                let vals = w.ld_global_bytes::<B>(&addrs, mask);
                for lane in mask.iter() {
                    let p = (r * threads + w.thread_id(lane)) * B;
                    pf[p..p + B].copy_from_slice(&vals[lane]);
                }
            });
        }
    };

    // Writes `pf` into shared-memory ring slot `slot`.
    let pf_to_smem = |blk: &mut BlockCtx<'_>, pf: &[u8], slot: usize| {
        for r in 0..rounds {
            blk.each_warp(|w| {
                let mask =
                    LaneMask::from_fn(|lane| (r * threads + w.thread_id(lane)) * n < g.row_len);
                let addrs = lane_addrs_from(|lane| {
                    let p = ((r * threads + w.thread_id(lane)) * n).min(g.row_len - 1);
                    ((slot * g.sm_pitch + p) * eb) as u64
                });
                let mut vals = [[0u8; B]; WARP_SIZE];
                for lane in mask.iter() {
                    let p = (r * threads + w.thread_id(lane)) * B;
                    vals[lane].copy_from_slice(&pf[p..p + B]);
                }
                w.st_shared_bytes::<B>(&addrs, &vals, mask);
            });
        }
    };

    // Loads shared-memory row `slot` into window row `wr` of every thread.
    let smem_to_window = |blk: &mut BlockCtx<'_>, win: &mut [f32], slot: usize, wr: usize| {
        for gv in 0..win_w / n {
            blk.each_warp(|w| {
                let addrs = lane_addrs_from(|lane| {
                    ((slot * g.sm_pitch + w.thread_id(lane) * n + gv * n) * eb) as u64
                });
                let vals = w.ld_shared_bytes::<B>(&addrs, LaneMask::ALL);
                for lane in w.population().iter() {
                    let t = w.thread_id(lane);
                    let at = (t * k + wr) * win_w + gv * n;
                    for (x, bytes) in win[at..at + n].iter_mut().zip(vals[lane].chunks_exact(eb)) {
                        *x = cin.decode(bytes);
                    }
                }
            });
        }
    };

    // Lines 1-2: the first K rows go straight to shared memory.
    for row in 0..k {
        gm_row_to_pf(blk, &mut pf, row);
        pf_to_smem(blk, &pf, row % k);
    }
    blk.sync();
    // Line 3: rows 0..K-1 into the register windows.
    for wr in 0..k - 1 {
        smem_to_window(blk, &mut win, wr % k, wr);
    }

    // Lines 4-11: stream the remaining rows.
    let total_rows = g.tile_h + k - 1;
    for k_row in (k - 1)..total_rows {
        // Line 5: prefetch the next row while this one is convolved.
        let next = k_row + 1;
        if next < total_rows {
            gm_row_to_pf(blk, &mut pf, next);
        }
        // Line 6: the latest row from shared memory into the window.
        smem_to_window(blk, &mut win, k_row % k, k - 1);

        // Lines 7-8: every filter, n convolutions per thread, written back.
        let out_row = k_row - (k - 1);
        for f in 0..g.f {
            blk.each_warp(|w| {
                // All lanes read each tap at the same address: the constant
                // memory broadcast, passed as its affine form (step 0) so
                // the model prices it in closed form.
                let mut taps = [0.0f32; MAX_K * MAX_K];
                if g.packed_taps {
                    // One broadcast read yields two binary16 taps.
                    let words = (k * k).div_ceil(2);
                    for i in 0..words {
                        let addr = ((f * words + i) * 4) as u64;
                        let word = w.ld_const(
                            WarpAccess::Affine {
                                first: addr,
                                step: 0,
                            },
                            LaneMask::ALL,
                        )[0];
                        let (lo, hi) = unpack_f16x2(word.to_bits());
                        taps[2 * i] = lo;
                        if 2 * i + 1 < k * k {
                            taps[2 * i + 1] = hi;
                        }
                    }
                } else {
                    for (i, tap) in taps[..k * k].iter_mut().enumerate() {
                        let addr = ((f * k * k + i) * 4) as u64;
                        *tap = w.ld_const(
                            WarpAccess::Affine {
                                first: addr,
                                step: 0,
                            },
                            LaneMask::ALL,
                        )[0];
                    }
                }
                let pop = w.population();
                let mut acc = [[0u8; B]; WARP_SIZE];
                for lane in pop.iter() {
                    let t = w.thread_id(lane);
                    let base = t * k * win_w;
                    for (v, out) in acc[lane].chunks_exact_mut(eb).enumerate() {
                        let mut s = 0.0f32;
                        for i in 0..k {
                            for j in 0..k {
                                s += win[base + i * win_w + j + v] * taps[i * k + j];
                            }
                        }
                        cout.encode(s, out);
                    }
                }
                w.count_fma(pop.count() as u64 * (n * k * k) as u64);
                let addrs = lane_addrs_from(|lane| {
                    let t = w.thread_id(lane);
                    let at = (f * g.out_rows + in_row0 + out_row) * g.out_pitch + in_col0 + t * n;
                    d_out.addr_of(at as u64, eb as u64)
                });
                w.st_global_bytes::<B>(&addrs, &acc, LaneMask::ALL);
            });
        }

        // Lines 9-11: commit the prefetched row to the ring slot it
        // replaces, then advance the window.
        blk.sync();
        if next < total_rows {
            pf_to_smem(blk, &pf, next % k);
        }
        blk.sync();
        for t in 0..threads {
            let base = t * k * win_w;
            for wr in 0..k - 1 {
                let (dst, src) = (base + wr * win_w, base + (wr + 1) * win_w);
                win.copy_within(src..src + win_w, dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv_reference;
    use kconv_tensor::{random_filters, random_maps, CONV_TOL};

    // Small tile configs keep Full-mode tests fast.
    fn small(vec_width: usize) -> SpecialConfig {
        SpecialConfig {
            width: 32,
            height: 4,
            vec_width,
        }
    }

    fn stored(storage: Storage, vec_width: usize) -> SpecialConv {
        SpecialConv {
            config: small(vec_width),
            storage,
        }
    }

    fn check(cfg: SpecialConfig, n: usize, f: usize, k: usize, mode: SimMode) -> ConvRun {
        let problem = ConvProblem::special(n, f, k);
        let input = random_maps(1, n, n, 11);
        let filters = random_filters(f, 1, k, 13);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let run = SpecialConv::new(cfg)
            .run(&mut gpu, &problem, &input, &filters, mode)
            .expect("launch");
        run.verify_executed(&problem, &input, &filters, CONV_TOL)
            .expect("output mismatch");
        run
    }

    /// Runs `conv` on a `size`-pixel square and checks it against the
    /// reference on the operands its storage quantizes.
    fn check_stored(conv: SpecialConv, spec: GpuSpec, size: usize, f: usize, k: usize) -> ConvRun {
        let problem = ConvProblem::special(size, f, k);
        let input = random_maps(1, size, size, 81);
        let filters = random_filters(f, 1, k, 83);
        let mut gpu = Gpu::new(spec);
        let run = conv
            .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
            .expect("launch");
        let (maps, taps, tol) = match conv.storage {
            Storage::F32 => (input.clone(), filters.clone(), CONV_TOL),
            Storage::F16 => (quantize_maps_f16(&input), filters.clone(), F16_TOL),
            // Half2 quantizes the filters too: the oracle is the reference
            // on fp16 input AND fp16 taps.
            Storage::Half2 => (
                quantize_maps_f16(&input),
                quantize_filters_f16(&filters),
                F16_TOL,
            ),
            // Output quantization adds its own noise: the int8 tolerance.
            Storage::I8 => {
                let enc = Encoding::I8 {
                    scale_in: i8_input_scale(&input),
                    scale_out: i8_output_scale(&input, &filters),
                };
                (quantize_maps(&input, enc), filters.clone(), I8_TOL)
            }
        };
        run.verify_executed(&problem, &maps, &taps, tol)
            .unwrap_or_else(|e| panic!("{}: {e}", conv.name()));
        run
    }

    #[test]
    fn matched_3x3_exact_tiles() {
        // 66x66 input, K=3 -> 64x64 output = 2x2 tiles of 32x4... exact.
        let run = check(small(2), 66, 2, 3, SimMode::Full);
        assert_eq!(run.executed_regions.len(), (64 / 32) * (64 / 4));
    }

    #[test]
    fn matched_3x3_ragged_tiles() {
        // 50x50 input -> 48x48 output; 48 = 1.5 tiles wide: clipping path.
        check(small(2), 50, 2, 3, SimMode::Full);
    }

    #[test]
    fn matched_5x5() {
        check(small(2), 40, 3, 5, SimMode::Full);
    }

    #[test]
    fn matched_7x7() {
        check(small(2), 40, 2, 7, SimMode::Full);
    }

    #[test]
    fn matched_1x1() {
        check(small(2), 32, 4, 1, SimMode::Full);
    }

    #[test]
    fn unmatched_3x3() {
        check(small(1), 40, 2, 3, SimMode::Full);
    }

    #[test]
    fn vec4_3x3() {
        check(small(4), 40, 2, 3, SimMode::Full);
    }

    #[test]
    fn single_filter() {
        check(small(2), 40, 1, 3, SimMode::Full);
    }

    #[test]
    fn sampled_execution_verifies() {
        let run = check(small(2), 130, 2, 3, SimMode::Sampled(3));
        assert_eq!(run.executed_regions.len(), 3);
        assert!(run.report.stats.blocks_total > 3);
    }

    #[test]
    fn f16_storage_every_factor() {
        let kepler = GpuSpec::kepler_k40m;
        check_stored(stored(Storage::F16, 4), kepler(), 40, 2, 3);
        check_stored(stored(Storage::F16, 4), kepler(), 45, 3, 5);
        check_stored(stored(Storage::F16, 2), kepler(), 40, 2, 3);
        check_stored(stored(Storage::F16, 1), kepler(), 40, 2, 3);
    }

    #[test]
    fn half2_storage_every_factor() {
        let maxwell = GpuSpec::maxwell_like;
        check_stored(stored(Storage::Half2, 2), maxwell(), 40, 2, 3);
        check_stored(stored(Storage::Half2, 2), maxwell(), 45, 3, 5);
        // k*k even: no zero-padded tail tap in the packed words.
        check_stored(stored(Storage::Half2, 2), maxwell(), 40, 2, 2);
        check_stored(stored(Storage::Half2, 1), maxwell(), 40, 2, 3);
        check_stored(stored(Storage::Half2, 4), GpuSpec::kepler_k40m(), 40, 2, 3);
    }

    #[test]
    fn i8_storage_every_factor() {
        let kepler = GpuSpec::kepler_k40m;
        check_stored(stored(Storage::I8, 8), kepler(), 40, 2, 3);
        check_stored(stored(Storage::I8, 8), kepler(), 45, 2, 5);
        for n in [4, 2, 1] {
            check_stored(stored(Storage::I8, n), kepler(), 40, 2, 3);
        }
    }

    #[test]
    fn half2_filters_halve_cm_requests() {
        let cm = |storage| {
            let run = check_stored(stored(storage, 2), GpuSpec::maxwell_like(), 40, 2, 3);
            // The broadcast fast path must survive the packing.
            assert_eq!(run.report.stats.cm_cycles, 0);
            run.report.stats.cm_requests
        };
        let (f32_taps, half2_taps) = (cm(Storage::F16), cm(Storage::Half2));
        // 9 taps -> 5 words per filter: ceil division, not exact halving.
        let ratio = f32_taps as f64 / half2_taps as f64;
        assert!(
            (ratio - 9.0 / 5.0).abs() < 1e-9,
            "expected 9/5 request ratio, got {ratio} ({f32_taps} vs {half2_taps})"
        );
    }

    #[test]
    fn for_shape_maps_every_dtype() {
        let maxwell = GpuSpec::maxwell_like();
        let kepler = GpuSpec::kepler_k40m();
        for (dtype, storage) in [
            (DataType::F32, Storage::F32),
            (DataType::F16, Storage::Half2),
            (DataType::I8, Storage::I8),
        ] {
            for spec in [&maxwell, &kepler] {
                let shape = KernelShape::matched(spec, dtype);
                let conv = SpecialConv::for_shape(shape);
                assert_eq!(conv.storage, storage);
                assert_eq!(conv.storage.dtype(), dtype);
                assert_eq!(conv.config.vec_width, shape.vec_width);
            }
        }
        let half2 = |spec| SpecialConv::for_shape(KernelShape::matched(spec, DataType::F16));
        assert_eq!(half2(&maxwell).config.vec_width, 2);
        assert_eq!(half2(&kepler).config.vec_width, 4);
    }

    #[test]
    fn const_bytes_follows_the_tap_layout() {
        let problem = ConvProblem::special(40, 10, 3);
        let bytes = |storage| stored(storage, 1).const_bytes(&problem);
        assert_eq!(bytes(Storage::F32), 10 * 9 * 4);
        assert_eq!(bytes(Storage::F16), 10 * 9 * 4);
        assert_eq!(bytes(Storage::I8), 10 * 9 * 4);
        assert_eq!(bytes(Storage::Half2), 10 * 5 * 4);
    }

    #[test]
    fn quantize_filters_f16_round_trips_taps() {
        let filters = random_filters(2, 1, 3, 77);
        let q = quantize_filters_f16(&filters);
        assert_eq!(q.count(), 2);
        for (a, b) in q.as_slice().iter().zip(filters.as_slice()) {
            assert_eq!(*a, f16_roundtrip(*b));
        }
    }

    /// Every storage rejects every problem outside its reach with a typed
    /// error, before touching the device.
    #[test]
    fn every_storage_rejects_what_it_cannot_run() {
        let spec = GpuSpec::kepler_k40m();
        let special = ConvProblem::special(32, 2, 3);
        let big_k = MAX_K + 2;
        for storage in [Storage::F32, Storage::F16, Storage::Half2, Storage::I8] {
            let conv = SpecialConv::with_storage(storage, 1);
            let shape = |problem: ConvProblem, filter_k: usize| {
                let input = random_maps(problem.channels, problem.height, problem.width, 1);
                let filters = random_filters(problem.filters, problem.channels, filter_k, 2);
                let mut gpu = Gpu::new(spec.clone());
                conv.run(&mut gpu, &problem, &input, &filters, SimMode::Full)
                    .map(|_| ())
            };
            let at = format!("{storage:?}");
            let multichannel = ConvProblem::general(32, 2, 2, 3);
            assert!(
                matches!(shape(multichannel, 3), Err(ConvError::Shape(_))),
                "{at}"
            );
            let strided = special.with_stride(2);
            assert!(
                matches!(shape(strided, 3), Err(ConvError::Shape(_))),
                "{at}"
            );
            let dilated = special.with_dilation(2);
            assert!(
                matches!(shape(dilated, 3), Err(ConvError::Shape(_))),
                "{at}"
            );
            let depthwise = ConvProblem::special(32, 1, 3).depthwise();
            assert!(
                matches!(shape(depthwise, 3), Err(ConvError::Shape(_))),
                "{at}"
            );
            assert!(
                matches!(shape(special, 5), Err(ConvError::Shape(_))),
                "{at}"
            );
            let too_big = ConvProblem::special(40, 1, big_k);
            assert!(
                matches!(shape(too_big, big_k), Err(ConvError::Config(_))),
                "{at}"
            );
            let cm_full = ConvProblem::special(32, 4096, 3);
            assert!(
                matches!(shape(cm_full, 3), Err(ConvError::Config(_))),
                "{at}"
            );

            let widest = *KernelShape::supported_factors(storage.dtype())
                .last()
                .unwrap();
            let wide = SpecialConv::with_storage(storage, widest * 2);
            let err = wide.validate(&spec, &special);
            assert!(matches!(err, Err(ConvError::Config(_))), "{at}: {err:?}");
            let ok = SpecialConv::with_storage(storage, widest).validate(&spec, &special);
            assert!(ok.is_ok(), "{at}: {ok:?}");

            let inputs = [random_maps(1, 32, 32, 3)];
            let filters = random_filters(2, 1, 3, 4);
            let mut gpu = Gpu::new(spec.clone());
            let fused = conv.run_fused_batch(&mut gpu, &special, &inputs, &filters, SimMode::Full);
            if storage == Storage::F32 {
                assert!(fused.is_ok(), "{at}: {:?}", fused.err());
            } else {
                assert!(matches!(fused, Err(ConvError::Config(_))), "{at}");
            }
        }
    }

    #[test]
    fn input_pixels_read_once() {
        // The communication-optimality claim: useful GM load bytes equal
        // the padded tile inputs — each pixel of each tile read exactly
        // once (halos excepted, counted per tile).
        let cfg = small(2);
        let problem = ConvProblem::special(66, 2, 3);
        let input = random_maps(1, 66, 66, 3);
        let filters = random_filters(2, 1, 3, 4);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let run = SpecialConv::new(cfg)
            .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
            .unwrap();
        let tiles = (64 / 32) * (64 / 4);
        let per_tile = (cfg.width + 2) * (cfg.height + 2) * 4; // (W+K-1)(H+K-1)*4B
        assert_eq!(
            run.report.stats.gm_ld_bytes_useful,
            (tiles * per_tile) as u64
        );
    }

    #[test]
    fn narrow_storage_divides_gm_traffic() {
        let stats = |storage, n| {
            check_stored(stored(storage, n), GpuSpec::kepler_k40m(), 66, 4, 3)
                .report
                .stats
        };
        let (f32s, f16s, i8s) = (
            stats(Storage::F32, 2),
            stats(Storage::F16, 4),
            stats(Storage::I8, 8),
        );
        // Stores halve (fp16) and quarter (int8) exactly.
        assert_eq!(2 * f16s.gm_st_bytes_useful, f32s.gm_st_bytes_useful);
        assert_eq!(4 * i8s.gm_st_bytes_useful, f32s.gm_st_bytes_useful);
        // n=4 fp16 and n=8 int8 move 8 bytes per lane per access, exactly
        // like n=2 f32: same instruction count.
        assert_eq!(f16s.sm_requests(), f32s.sm_requests());
        assert_eq!(i8s.sm_requests(), f32s.sm_requests());
    }

    #[test]
    fn unmatched_is_slower_than_matched_for_every_storage() {
        for (storage, matched) in [(Storage::F32, 2), (Storage::F16, 4), (Storage::I8, 8)] {
            let secs = |n| {
                check_stored(stored(storage, n), GpuSpec::kepler_k40m(), 66, 8, 3)
                    .report
                    .seconds()
            };
            let (fast, slow) = (secs(matched), secs(1));
            assert!(
                fast < slow,
                "{storage:?}: matched {fast} vs unmatched {slow}"
            );
        }
    }

    #[test]
    fn f16_quantization_is_visible_but_bounded() {
        let problem = ConvProblem::special(40, 1, 3);
        let input = random_maps(1, 40, 40, 89);
        let filters = random_filters(1, 1, 3, 90);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let run = stored(Storage::F16, 4)
            .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
            .unwrap();
        let exact = conv_reference(&problem, &input, &filters);
        let worst = kconv_tensor::worst_mismatch(run.output.as_slice(), exact.as_slice(), 0.0);
        assert!(worst.is_some(), "fp16 must quantize something");
        assert!(kconv_tensor::all_close(
            run.output.as_slice(),
            exact.as_slice(),
            8e-3
        ));
    }

    #[test]
    fn i8_scales_are_sane() {
        let maps = random_maps(1, 8, 8, 11);
        let s = i8_input_scale(&maps);
        assert!(s > 0.0 && s < 1.0 / 64.0);
        let zeros = FeatureMaps::zeros(1, 4, 4);
        assert!(i8_input_scale(&zeros) > 0.0);
        let filters = random_filters(3, 1, 3, 13);
        assert!(i8_output_scale(&maps, &filters) >= s);
    }

    #[test]
    fn fused_batch_is_correct_per_image() {
        let cfg = small(2);
        let problem = ConvProblem::special(40, 2, 3);
        let inputs: Vec<_> = (0..3).map(|i| random_maps(1, 40, 40, 500 + i)).collect();
        let filters = random_filters(2, 1, 3, 510);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let run = SpecialConv::new(cfg)
            .run_fused_batch(&mut gpu, &problem, &inputs, &filters, SimMode::Full)
            .unwrap();
        assert_eq!(run.outputs.len(), 3);
        run.verify_executed(&problem, &inputs, &filters, CONV_TOL)
            .expect("fused batch mismatch");
        // Distinct inputs must give distinct outputs.
        assert_ne!(run.outputs[0].as_slice(), run.outputs[1].as_slice());
    }

    #[test]
    fn fused_batch_beats_per_image_launches_on_small_images() {
        // 8 small images: the fused grid fills all 15 SMs; per-image
        // launches leave most idle and pay 8 launch overheads.
        let cfg = SpecialConfig::kepler_best();
        let problem = ConvProblem::special(280, 8, 3);
        let inputs: Vec<_> = (0..8).map(|i| random_maps(1, 280, 280, 520 + i)).collect();
        let filters = random_filters(8, 1, 3, 530);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let fused = SpecialConv::new(cfg)
            .run_fused_batch(&mut gpu, &problem, &inputs, &filters, SimMode::Sampled(4))
            .unwrap();
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let looped = crate::run_batch(
            &SpecialConv::new(cfg),
            &mut gpu,
            &problem,
            &inputs,
            &filters,
            SimMode::Sampled(4),
        )
        .unwrap();
        assert!(
            fused.report.seconds() < looped.total_seconds(),
            "fused {} vs looped {}",
            fused.report.seconds(),
            looped.total_seconds()
        );
    }

    #[test]
    fn fused_batch_validates_inputs() {
        let cfg = small(2);
        let problem = ConvProblem::special(40, 2, 3);
        let filters = random_filters(2, 1, 3, 1);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let err =
            SpecialConv::new(cfg).run_fused_batch(&mut gpu, &problem, &[], &filters, SimMode::Full);
        assert!(matches!(err, Err(ConvError::Shape(_))));
        let bad = vec![random_maps(1, 20, 20, 1)];
        let err = SpecialConv::new(cfg).run_fused_batch(
            &mut gpu,
            &problem,
            &bad,
            &filters,
            SimMode::Full,
        );
        assert!(matches!(err, Err(ConvError::Shape(_))));
    }

    #[test]
    fn matched_beats_unmatched() {
        let t_matched = check(small(2), 66, 8, 3, SimMode::Full).report.seconds();
        let t_unmatched = check(small(1), 66, 8, 3, SimMode::Full).report.seconds();
        assert!(
            t_matched < t_unmatched,
            "matched {t_matched} vs unmatched {t_unmatched}"
        );
    }

    #[test]
    fn constant_memory_stays_on_broadcast_path() {
        let run = check(small(2), 40, 4, 3, SimMode::Full);
        // Every filter-tap read is warp-uniform: zero serialization cycles.
        assert!(run.report.stats.cm_requests > 0);
        assert_eq!(run.report.stats.cm_cycles, 0);
    }

    #[test]
    fn names_reflect_storage_and_matching() {
        let name = |storage, n| stored(storage, n).name();
        assert_eq!(name(Storage::F32, 2), "special (matched, n=2)");
        assert_eq!(name(Storage::F32, 1), "special (unmatched, n=1)");
        assert_eq!(name(Storage::F16, 4), "special fp16 (matched, n=4)");
        assert_eq!(name(Storage::F16, 2), "special fp16 (partial, n=2)");
        assert_eq!(name(Storage::Half2, 2), "special half2 (partial, n=2)");
        assert_eq!(name(Storage::I8, 8), "special int8 (matched, n=8)");
        assert_eq!(name(Storage::I8, 1), "special int8 (unmatched, n=1)");
        assert!(SpecialConv::new(SpecialConfig::kepler_unmatched())
            .name()
            .contains("unmatched"));
    }
}
