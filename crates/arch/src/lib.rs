//! # kconv-arch — architecture-adaptive kernel generation, verified by replay
//!
//! The paper derives the bank-width mismatch factor `n = W_SMB / W_CD`
//! (eq. 1) by hand for one machine — `n = 2` for `float` on Kepler's
//! 8-byte shared-memory banks — and hard-wires that conclusion into its
//! kernels as the float2 layout. This crate runs eq. 1 the other way, as a
//! *generator*: given any [`GpuSpec`] and a computation [`DataType`], it
//! derives the matched vector factor via [`KernelShape::derive_n`] and
//! instantiates the kernel variant that saturates that machine's
//! shared-memory fabric:
//!
//! * `f32` on 8-byte banks (Kepler) → the paper's float2 kernel (`n = 2`);
//! * `f32` on 4-byte banks (Fermi/Maxwell-class) → the scalar variant
//!   (`n = 1`) — vectorization would buy nothing and costs registers;
//! * `fp16` on 4-byte banks → the half2 variant (`n = 2`, two binary16
//!   taps per constant-memory word) — the mismatch *reappears* for short
//!   types exactly as section 6 predicts, and pairing removes it;
//! * `int8` → `n = 4` or `8` depending on the bank width.
//!
//! The claim that a generated variant is actually matched is not taken
//! from the formula: [`capture`] records the variant's full warp-level
//! address trace (KTRC) on its target spec, and the replay metrics
//! ([`conflict_factor`], [`full_warp_waste`]) re-price that trace under
//! any spec with [`kconv_replay`]. A matched variant replays to a
//! full-warp waste of exactly 1.0 on its own machine; forcing the wrong
//! `n` via [`generate_forced`] reproduces the paper's n-fold
//! serialization, cycle-exactly. The `arch` harness binary turns those
//! replays into CI gates.
//!
//! ```
//! use kconv_arch::{generate, full_warp_waste, capture};
//! use kconv_core::DataType;
//! use kconv_sim::GpuSpec;
//! use kconv_tensor::ConvProblem;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // fp16 on a 4-byte-bank part: the generator picks half2 (n = 2)...
//! let spec = GpuSpec::maxwell_like();
//! let variant = generate(&spec, DataType::F16);
//! assert_eq!(variant.shape.vec_width, 2);
//!
//! // ...and replaying its captured trace on its own spec proves the
//! // shared-memory fabric is saturated: full-warp waste exactly 1.0.
//! let cap = capture(&variant, &ConvProblem::special(64, 2, 3))?;
//! assert_eq!(full_warp_waste(&cap.bytes, &spec, variant.shape.lane_bytes())?, 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use kconv_core::{
    i8_input_scale, i8_output_scale, quantize_filters_f16, quantize_maps, quantize_maps_f16,
    ConvError, ConvRun, Convolution, DataType, Encoding, GeneralConfig, GeneralConv, KernelShape,
    SpecialConv, F16_TOL, I8_TOL,
};
use kconv_replay::{replay, ReplayError, TargetSpec};
use kconv_sim::{Gpu, GpuSpec, LaunchReport, SanitizerMode, SimMode};
use kconv_sim::{TraceOp, WARP_SIZE};
use kconv_systolic::{PipelineConfig, SystolicConv};
use kconv_tensor::{random_filters, random_maps, ConvProblem, FeatureMaps, FilterSet, CONV_TOL};

/// Input seed shared by every [`capture`] (and the `arch` harness).
pub const INPUT_SEED: u64 = 307;
/// Filter seed shared by every [`capture`].
pub const FILTER_SEED: u64 = 311;

/// One generator output: a concrete kernel instance plus the shape and
/// target it was derived for.
pub struct GeneratedVariant {
    /// The architecture the variant was generated for.
    pub spec: GpuSpec,
    /// The derived (or forced) vectorization shape.
    pub shape: KernelShape,
    /// Whether `shape` is the matched shape for `spec` (false for
    /// [`generate_forced`] ablations with a deliberately wrong `n`).
    pub matched: bool,
    /// The instantiated kernel.
    pub conv: Box<dyn Convolution>,
}

impl std::fmt::Debug for GeneratedVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeneratedVariant")
            .field("spec", &self.spec.name)
            .field("shape", &self.shape)
            .field("matched", &self.matched)
            .field("kernel", &self.conv.name())
            .finish()
    }
}

impl GeneratedVariant {
    /// Short display label, e.g. `"fp16 n=2 on Maxwell-class"`.
    pub fn label(&self) -> String {
        format!("{} on {}", self.shape, self.spec.name)
    }
}

/// Instantiates the special-case kernel template for `shape`.
fn instantiate(shape: KernelShape) -> Box<dyn Convolution> {
    Box::new(SpecialConv::for_shape(shape))
}

/// Generates the matched special-case kernel variant for `dtype` on
/// `spec`: eq. 1 in reverse (see [`KernelShape::derive_n`]), then template
/// instantiation. The result's replayed full-warp waste on `spec` is
/// exactly 1.0 — the property the `arch` harness re-proves from traces.
pub fn generate(spec: &GpuSpec, dtype: DataType) -> GeneratedVariant {
    let shape = KernelShape::matched(spec, dtype);
    GeneratedVariant {
        spec: spec.clone(),
        shape,
        matched: true,
        conv: instantiate(shape),
    }
}

/// Generates a variant with an explicitly forced vector factor — the
/// wrong-`n` ablation knob that reproduces the paper's serialization on
/// purpose. Returns `None` if `n` is not an instantiable factor for
/// `dtype` (see [`KernelShape::supported_factors`]).
pub fn generate_forced(spec: &GpuSpec, dtype: DataType, n: usize) -> Option<GeneratedVariant> {
    let shape = KernelShape::forced(dtype, n)?;
    Some(GeneratedVariant {
        spec: spec.clone(),
        shape,
        matched: shape.is_matched_for(spec),
        conv: instantiate(shape),
    })
}

/// Generates the matched variant for every data type on `spec` (one per
/// [`DataType`], in declaration order).
pub fn generate_all(spec: &GpuSpec) -> Vec<GeneratedVariant> {
    [DataType::F32, DataType::F16, DataType::I8]
        .into_iter()
        .map(|dtype| generate(spec, dtype))
        .collect()
}

/// Generates the matched general-case (multi-channel) configuration for
/// filter size `k` on `spec` — the paper's Table 1 tile with the vector
/// factor re-derived from the bank width. The general kernel computes in
/// `f32` only, so this is the one dtype the general template instantiates.
pub fn generate_general(spec: &GpuSpec, k: usize) -> GeneratedVariant {
    let shape = KernelShape::matched(spec, DataType::F32);
    GeneratedVariant {
        spec: spec.clone(),
        shape,
        matched: true,
        conv: Box::new(GeneralConv::new(GeneralConfig::matched_for(spec, k))),
    }
}

/// Generates the pipelined systolic variant for `spec`: the matched `f32`
/// staging shape (eq. 1 in reverse, like [`generate_general`]) wrapped in
/// the double-buffered executor at the given pipeline `depth` (1 = the
/// stage/compute alternation baseline, 2 = ping/pong). This is how the
/// generator's dtype/vector-factor derivation and the staging pipeline
/// compose: the same [`KernelShape`] drives both the bank-matched access
/// width and the pipelined schedule.
pub fn generate_systolic(spec: &GpuSpec, depth: usize) -> GeneratedVariant {
    let shape = KernelShape::matched(spec, DataType::F32);
    GeneratedVariant {
        spec: spec.clone(),
        shape,
        matched: true,
        conv: Box::new(SystolicConv::new(PipelineConfig {
            depth,
            shape,
            ..PipelineConfig::default()
        })),
    }
}

/// The reference oracle for a generated variant: what input and filters
/// the kernel *effectively* convolves (after storage quantization) and
/// the tolerance its output must meet against
/// [`kconv_core::conv_reference`] on them.
///
/// * `f32` — the data untouched, within [`CONV_TOL`] (the kernels
///   accumulate in a different order than the f64 reference);
/// * `fp16` — input **and** filters quantized through binary16
///   ([`quantize_maps_f16`], [`quantize_filters_f16`] — the half2 variant
///   stores taps as packed halves too), within [`F16_TOL`];
/// * `int8` — input quantized through the data-derived symmetric scales,
///   within [`I8_TOL`] (output quantization adds its own noise).
pub fn reference_oracle(
    dtype: DataType,
    input: &FeatureMaps,
    filters: &FilterSet,
) -> (FeatureMaps, FilterSet, f32) {
    match dtype {
        DataType::F32 => (input.clone(), filters.clone(), CONV_TOL),
        DataType::F16 => (
            quantize_maps_f16(input),
            quantize_filters_f16(filters),
            F16_TOL,
        ),
        DataType::I8 => {
            let enc = Encoding::I8 {
                scale_in: i8_input_scale(input),
                scale_out: i8_output_scale(input, filters),
            };
            (quantize_maps(input, enc), filters.clone(), I8_TOL)
        }
    }
}

/// Runs `variant` on its own spec and validates the output against the
/// CPU reference through [`reference_oracle`].
///
/// # Errors
///
/// Returns the launch error, or a description of the first mismatching
/// output element.
pub fn run_verified(
    variant: &GeneratedVariant,
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
) -> Result<ConvRun, String> {
    let mut gpu = Gpu::new(variant.spec.clone());
    let run = variant
        .conv
        .run(&mut gpu, problem, input, filters, SimMode::Full)
        .map_err(|e| format!("{}: {e}", variant.label()))?;
    let (ref_input, ref_filters, tol) = reference_oracle(variant.shape.dtype, input, filters);
    run.verify_executed(problem, &ref_input, &ref_filters, tol)
        .map_err(|e| format!("{}: {e}", variant.label()))?;
    Ok(run)
}

/// One captured variant execution: the KTRC bytes plus the live report
/// they must replay back to.
#[derive(Debug)]
pub struct ArchCapture {
    /// The kernel's self-reported name.
    pub kernel: String,
    /// The raw KTRC byte stream.
    pub bytes: Vec<u8>,
    /// The live launch the trace was captured from.
    pub live: LaunchReport,
}

/// Runs `variant` once on its own spec with a trace writer attached,
/// using the crate's fixed seeds ([`INPUT_SEED`], [`FILTER_SEED`]).
/// The sanitizer is off during capture (sanitized runs are a separate
/// gate — see the `arch` harness).
///
/// # Errors
///
/// Propagates the launch error.
pub fn capture(
    variant: &GeneratedVariant,
    problem: &ConvProblem,
) -> Result<ArchCapture, ConvError> {
    let input = random_maps(problem.channels, problem.height, problem.width, INPUT_SEED);
    let filters = random_filters(problem.filters, problem.channels, problem.k, FILTER_SEED);
    let mut gpu = Gpu::new(variant.spec.clone()).with_sanitizer(SanitizerMode::Off);
    let (run, bytes) = kconv_trace::capture(&mut gpu, |gpu| {
        variant
            .conv
            .run(gpu, problem, &input, &filters, SimMode::Full)
    });
    Ok(ArchCapture {
        kernel: variant.conv.name(),
        bytes,
        live: run?.report,
    })
}

/// Re-prices a captured trace under `target` and returns the
/// shared-memory bandwidth waste factor, combined across all launches in
/// the trace (bytes the SM pipeline moved per byte the lanes requested;
/// 1.0 means every cycle's full bank row carried useful data).
///
/// # Errors
///
/// Propagates trace decode/replay errors.
pub fn replayed_sm_waste(bytes: &[u8], target: &GpuSpec) -> Result<f64, ReplayError> {
    let reports = replay(bytes, &TargetSpec::Spec(target.clone()))?;
    let cycles: u64 = reports.iter().map(|r| r.sm_cycles()).sum();
    let useful: u64 = reports.iter().map(|r| r.stats.sm_bytes_useful).sum();
    if useful == 0 {
        return Ok(0.0);
    }
    Ok((cycles * target.smem_bytes_per_cycle()) as f64 / useful as f64)
}

/// Re-prices a captured trace under `target` and returns the
/// shared-memory **bank-conflict serialization factor**: replay cycles
/// per warp access instruction, over all SM loads and stores in the
/// trace. Exactly 1.0 means no access serialized on any bank (0.0 when
/// the trace touched no shared memory).
///
/// # Errors
///
/// Propagates trace decode/replay errors.
pub fn conflict_factor(bytes: &[u8], target: &GpuSpec) -> Result<f64, ReplayError> {
    let reports = replay(bytes, &TargetSpec::Spec(target.clone()))?;
    let (mut cycles, mut events) = (0u64, 0u64);
    for r in &reports {
        for op in [TraceOp::SmLd, TraceOp::SmSt] {
            cycles += r.op(op).cycles;
            events += r.op(op).events;
        }
    }
    if events == 0 {
        return Ok(0.0);
    }
    Ok(cycles as f64 / events as f64)
}

/// Re-prices a captured trace under `target` and returns the
/// **full-warp-normalized** shared-memory waste: bytes the SM pipeline
/// moved per byte a *fully occupied* warp would have requested
/// (`cycles x bank-row width` over `events x 32 x lane_bytes`). Unlike
/// [`replayed_sm_waste`] this strips the tile-edge lane-masking overhead
/// of real kernels, leaving the pure architectural quantity of eq. 1:
/// exactly 1.0 when every access fills a bank row conflict-free, exactly
/// `W_SMB / (n * W_CD)` when the lane under-fills it.
///
/// `lane_bytes` must be the per-lane access width of the traced kernel's
/// SM ops (uniform for the special-kernel family:
/// [`KernelShape::lane_bytes`]).
///
/// # Errors
///
/// Propagates trace decode/replay errors.
pub fn full_warp_waste(
    bytes: &[u8],
    target: &GpuSpec,
    lane_bytes: usize,
) -> Result<f64, ReplayError> {
    let reports = replay(bytes, &TargetSpec::Spec(target.clone()))?;
    let (mut cycles, mut events) = (0u64, 0u64);
    for r in &reports {
        for op in [TraceOp::SmLd, TraceOp::SmSt] {
            cycles += r.op(op).cycles;
            events += r.op(op).events;
        }
    }
    if events == 0 {
        return Ok(0.0);
    }
    Ok((cycles * target.smem_bytes_per_cycle()) as f64
        / (events * WARP_SIZE as u64 * lane_bytes as u64) as f64)
}

/// Measures eq. 1's mismatch factor for `dtype` at vector factor `n` on
/// `spec`, from a trace: the forced variant is captured on `problem` and
/// its [`full_warp_waste`] replayed on `spec`. For lanes that do not
/// overshoot the bank word (`n * dtype.bytes() <= W_SMB`) this is exactly
/// `W_SMB / (n * W_CD)` — e.g. 2.0 for scalar fp16 on 4-byte banks, 1.0
/// at the derived `n` — matching [`KernelShape::predicted_waste`] from
/// measured addresses rather than from the formula.
///
/// # Errors
///
/// Returns a description of an uninstantiable `n` or a failed
/// capture/replay.
pub fn measured_mismatch(
    spec: &GpuSpec,
    dtype: DataType,
    n: usize,
    problem: &ConvProblem,
) -> Result<f64, String> {
    let variant = generate_forced(spec, dtype, n)
        .ok_or_else(|| format!("n={n} is not instantiable for {dtype}"))?;
    let cap = capture(&variant, problem).map_err(|e| format!("{}: {e}", variant.label()))?;
    full_warp_waste(&cap.bytes, spec, variant.shape.lane_bytes())
        .map_err(|e| format!("{}: {e}", variant.label()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_core::SpecialConfig;

    #[test]
    fn generator_reproduces_the_papers_kepler_kernels() {
        let kepler = GpuSpec::kepler_k40m();
        let v = generate(&kepler, DataType::F32);
        assert_eq!(v.shape.vec_width, 2);
        assert!(v.matched);
        assert!(v.conv.name().contains("n=2"), "{}", v.conv.name());
        // The hand-tuned preset and the generated config agree.
        assert_eq!(
            SpecialConfig::matched_for(&kepler).vec_width,
            v.shape.vec_width
        );
    }

    #[test]
    fn derived_n_is_always_bank_over_dtype_clamped() {
        // Property over the full spec grid: derive_n == bank/dtype bytes,
        // clamped to the template-instantiable factors.
        let grid = GpuSpec::kepler_k40m()
            .grid()
            .bank_widths(&[kconv_sim::BankWidth::B4, kconv_sim::BankWidth::B8])
            .line_sizes(&[64, 128])
            .ro_cache_bytes(&[24 * 1024, 48 * 1024])
            .sm_counts(&[8, 15])
            .build()
            .expect("grid axes valid");
        assert_eq!(grid.len(), 16);
        for spec in &grid {
            for dtype in [DataType::F32, DataType::F16, DataType::I8] {
                let n = KernelShape::derive_n(spec, dtype);
                let ideal = (spec.bank_width.bytes() as usize / dtype.bytes()).max(1);
                let clamped = KernelShape::supported_factors(dtype)
                    .iter()
                    .copied()
                    .filter(|&f| f <= ideal)
                    .max()
                    .unwrap_or(1);
                assert_eq!(n, clamped, "{dtype:?} on {}", spec.name);
                // Every supported dtype's ideal factor is instantiable, so
                // the clamp is exact: n * dtype bytes == bank width.
                assert_eq!(
                    n * dtype.bytes(),
                    spec.bank_width.bytes() as usize,
                    "{dtype:?} on {}",
                    spec.name
                );
                let v = generate(spec, dtype);
                assert_eq!(v.shape.vec_width, n);
                assert!(v.matched);
            }
        }
    }

    #[test]
    fn forced_variants_know_when_they_mismatch() {
        let kepler = GpuSpec::kepler_k40m();
        let wrong = generate_forced(&kepler, DataType::F32, 1).expect("n=1 instantiable");
        assert!(!wrong.matched);
        assert_eq!(wrong.shape.predicted_waste(&kepler), 2);
        assert!(generate_forced(&kepler, DataType::F32, 3).is_none());
        let right = generate_forced(&kepler, DataType::F32, 2).expect("n=2 instantiable");
        assert!(right.matched);
    }

    #[test]
    fn generate_all_covers_every_dtype() {
        let variants = generate_all(&GpuSpec::maxwell_like());
        let dtypes: Vec<DataType> = variants.iter().map(|v| v.shape.dtype).collect();
        assert_eq!(dtypes, [DataType::F32, DataType::F16, DataType::I8]);
        assert_eq!(
            variants
                .iter()
                .map(|v| v.shape.vec_width)
                .collect::<Vec<_>>(),
            [1, 2, 4]
        );
    }

    #[test]
    fn generated_variants_match_the_reference_on_table1_shapes() {
        // Differential gate: every generated special variant, on both bank
        // widths, against the CPU reference through its oracle. Problems
        // are Table-1-sized filter banks on a small image.
        for spec in [GpuSpec::kepler_k40m(), GpuSpec::maxwell_like()] {
            for k in [3, 5] {
                let problem = ConvProblem::special(64, 4, k);
                let input = random_maps(1, 64, 64, INPUT_SEED);
                let filters = random_filters(4, 1, k, FILTER_SEED);
                for variant in generate_all(&spec) {
                    run_verified(&variant, &problem, &input, &filters)
                        .unwrap_or_else(|e| panic!("k={k}: {e}"));
                }
            }
        }
    }

    #[test]
    fn generated_general_variant_matches_the_reference() {
        for spec in [GpuSpec::kepler_k40m(), GpuSpec::maxwell_like()] {
            let variant = generate_general(&spec, 3);
            let problem = ConvProblem::general(34, 4, 64, 3);
            let input = random_maps(4, 34, 34, INPUT_SEED);
            let filters = random_filters(64, 4, 3, FILTER_SEED);
            run_verified(&variant, &problem, &input, &filters)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn generated_systolic_variants_match_the_reference_at_both_depths() {
        // The generator's derived staging width composes with the pipeline:
        // on each bank width, both schedules verify against the CPU
        // reference and the derived n flows into the staging stream.
        for spec in [GpuSpec::kepler_k40m(), GpuSpec::maxwell_like()] {
            let problem = ConvProblem::general(34, 4, 4, 3).with_stride(2);
            let input = random_maps(4, 34, 34, INPUT_SEED);
            let filters = random_filters(4, 4, 3, FILTER_SEED);
            for depth in [1, 2] {
                let variant = generate_systolic(&spec, depth);
                assert_eq!(
                    variant.shape.vec_width,
                    KernelShape::derive_n(&spec, DataType::F32)
                );
                assert!(
                    variant.conv.name().contains(&format!("d{depth}")),
                    "{}",
                    variant.conv.name()
                );
                run_verified(&variant, &problem, &input, &filters)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            }
        }
    }

    #[test]
    fn systolic_capture_replays_with_barrier_events() {
        // A depth-2 capture carries Bar events; replay grafts the live
        // barrier counters and prices the events at zero memory cost.
        let spec = GpuSpec::kepler_k40m();
        let variant = generate_systolic(&spec, 2);
        let problem = ConvProblem::general(20, 4, 2, 3);
        let cap = capture(&variant, &problem).expect("capture");
        let reports = replay(&cap.bytes, &TargetSpec::Spec(spec.clone())).expect("replay");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].stats.barriers, cap.live.stats.barriers);
        assert_eq!(reports[0].stats.bar_syncs, cap.live.stats.bar_syncs);
        assert_eq!(
            reports[0].stats.gm_ld_bytes_bus,
            cap.live.stats.gm_ld_bytes_bus
        );
    }

    #[test]
    fn matched_variants_never_serialize_on_their_own_banks() {
        // Every generated variant, on every preset: the conflict factor
        // (replay cycles per SM access) and the full-warp waste are both
        // exactly 1.0 on its own spec — conflict-free AND bank-row-filling.
        for spec in GpuSpec::presets_all() {
            for variant in generate_all(&spec) {
                let cap = capture(&variant, &ConvProblem::special(64, 2, 3)).expect("capture");
                let factor = conflict_factor(&cap.bytes, &spec).expect("replay");
                assert_eq!(factor, 1.0, "{}", variant.label());
                let waste =
                    full_warp_waste(&cap.bytes, &spec, variant.shape.lane_bytes()).expect("replay");
                assert_eq!(waste, 1.0, "{}", variant.label());
            }
        }
    }

    #[test]
    fn half2_mismatch_factor_is_exactly_two_then_gone() {
        // fp16 on 4B banks: eq. 1's factor at forced n=1 is exactly 2
        // (relative to the structurally identical f32 kernel), and the
        // derived n=2 eliminates it exactly.
        let spec = GpuSpec::maxwell_like();
        let problem = ConvProblem::special(64, 2, 3);
        assert_eq!(
            measured_mismatch(&spec, DataType::F16, 1, &problem).expect("measures"),
            2.0
        );
        assert_eq!(
            measured_mismatch(&spec, DataType::F16, 2, &problem).expect("measures"),
            1.0
        );
        // The same reappearance on 8B banks: half2's 4-byte unit fills
        // only half a Kepler bank word; n=4 is the derived cure.
        let kepler = GpuSpec::kepler_k40m();
        assert_eq!(
            measured_mismatch(&kepler, DataType::F16, 2, &problem).expect("measures"),
            2.0
        );
    }

    #[test]
    fn generated_serialization_never_exceeds_the_hardwired_kernels() {
        // The generator's f32 variant, captured and replayed on each
        // preset, never serializes more than the paper's hand-tuned
        // Kepler kernel's trace replayed on that preset — and strictly
        // less on 4-byte-bank presets, where the hard-wired 8-byte lane
        // needs two bank-row cycles per access.
        let problem = ConvProblem::special(64, 2, 3);
        let hardwired = generate_forced(&GpuSpec::kepler_k40m(), DataType::F32, 2).unwrap();
        let hard_cap = capture(&hardwired, &problem).expect("capture");
        for spec in GpuSpec::presets_all() {
            let hard_factor = conflict_factor(&hard_cap.bytes, &spec).expect("replay");
            let gen = generate(&spec, DataType::F32);
            let gen_cap = capture(&gen, &problem).expect("capture");
            let gen_factor = conflict_factor(&gen_cap.bytes, &spec).expect("replay");
            assert!(
                gen_factor <= hard_factor,
                "{}: generated {gen_factor} > hardwired {hard_factor}",
                spec.name
            );
            if spec.bank_width.bytes() == 4 {
                assert!(
                    gen_factor < hard_factor,
                    "{}: expected strict win, got {gen_factor} vs {hard_factor}",
                    spec.name
                );
            }
        }
    }
}
