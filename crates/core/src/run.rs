//! The uniform interface every convolution implementation exposes, and the
//! result type carrying output, statistics and verification support.

use kconv_sim::{Gpu, LaunchReport, SimMode};
use kconv_tensor::{worst_mismatch, ConvProblem, FeatureMaps, FilterSet};

use crate::error::{ConvError, Result};
use crate::reference::{conv_reference_region, OutRegion};

/// A failure observed while attempting an engine in a fallback chain
/// (see [`run_with_fallback`]): which implementation failed and how.
///
/// When the error wraps a device-side [`kconv_sim::DeviceFault`], it names
/// the exact kernel, block, warp and thread that misbehaved.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// [`Convolution::name`] of the implementation that failed.
    pub engine: String,
    /// The error it failed with.
    pub error: ConvError,
}

impl std::fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed: {}", self.engine, self.error)
    }
}

/// Result of running a convolution implementation.
#[derive(Debug, Clone)]
pub struct ConvRun {
    /// The output maps (`F x out_h x out_w`). Under sampled execution only
    /// the [`ConvRun::executed_regions`] hold computed values; the rest is
    /// zero.
    pub output: FeatureMaps,
    /// Launch counters and modeled timing.
    pub report: LaunchReport,
    /// Output regions that were actually computed (clipped to the output).
    pub executed_regions: Vec<OutRegion>,
    /// Faults absorbed on the way to this result. Empty for a direct
    /// [`Convolution::run`]; [`run_with_fallback`] records here every
    /// engine that faulted before one completed.
    pub faults: Vec<FaultRecord>,
}

impl ConvRun {
    /// Achieved throughput in GFlop/s, computed from the *algorithmic* flop
    /// count of `problem` (so baselines doing redundant work are not
    /// credited for it) over the modeled time.
    pub fn effective_gflops(&self, problem: &ConvProblem) -> f64 {
        problem.flops() as f64 / self.report.seconds() / 1e9
    }

    /// Validates every executed region against the CPU reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching element.
    pub fn verify_executed(
        &self,
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        tol: f32,
    ) -> std::result::Result<(), String> {
        verify_regions(
            &self.output,
            self.executed_regions.iter(),
            problem,
            input,
            filters,
            tol,
        )
    }
}

/// Validates `regions` of `output` against the CPU reference on `input`.
///
/// # Errors
///
/// Returns a description of the first mismatching row's worst element.
pub(crate) fn verify_regions<'a>(
    output: &FeatureMaps,
    regions: impl Iterator<Item = &'a OutRegion>,
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
    tol: f32,
) -> std::result::Result<(), String> {
    for region in regions {
        let want = conv_reference_region(problem, input, filters, *region);
        for f in 0..region.nf {
            for y in 0..region.h {
                let got: Vec<f32> = (0..region.w)
                    .map(|x| output.get(region.f0 + f, region.y0 + y, region.x0 + x))
                    .collect();
                let row: Vec<f32> = (0..region.w).map(|x| want.get(f, y, x)).collect();
                if let Some(m) = worst_mismatch(&got, &row, tol) {
                    return Err(format!(
                        "filter {}, output ({}, {}): got {} want {} (error {:.2e})",
                        region.f0 + f,
                        region.y0 + y,
                        region.x0 + m.index,
                        m.lhs,
                        m.rhs,
                        m.error
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A convolution implementation runnable on the simulator.
///
/// Implemented by the paper's two kernels ([`SpecialConv`], [`GeneralConv`])
/// and the baselines ([`ImplicitGemmConv`], [`ExplicitGemmConv`]), so
/// harnesses and applications can switch engines freely.
///
/// [`SpecialConv`]: crate::SpecialConv
/// [`GeneralConv`]: crate::GeneralConv
/// [`ImplicitGemmConv`]: crate::ImplicitGemmConv
/// [`ExplicitGemmConv`]: crate::ExplicitGemmConv
pub trait Convolution {
    /// Display name for reports.
    fn name(&self) -> String;

    /// Runs the convolution on `gpu`.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError`](crate::ConvError) when the problem shape is
    /// incompatible with the implementation/configuration or the launch is
    /// invalid.
    fn run(
        &self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<ConvRun>;
}

/// Rejects dilated and depthwise problems for kernels that only implement
/// the dense case (dilation 1, all channels accumulated). Strides are
/// policed separately — the GEMM baselines accept them.
pub(crate) fn require_dense(problem: &ConvProblem) -> Result<()> {
    if !problem.is_dense() {
        return Err(ConvError::Shape(format!(
            "this kernel supports only dense convolution (dilation 1, no \
             depthwise grouping), got {problem} (use the systolic or naive \
             kernels for the extended workload matrix)"
        )));
    }
    Ok(())
}

/// Builds the clipped output regions of the executed blocks of a launch:
/// `block_box` maps a block id to `(tile index, first filter, filter
/// count)` under the kernel's grid layout (shared by the special and
/// general kernels).
pub(crate) fn executed_tile_regions(
    problem: &ConvProblem,
    report: &LaunchReport,
    tiles_x: usize,
    tile_w: usize,
    tile_h: usize,
    block_box: impl Fn(usize) -> (usize, usize, usize),
) -> Vec<OutRegion> {
    let mut regions = Vec::new();
    for &b in &report.executed_blocks {
        let (tile, f0, nf) = block_box(b);
        let ty = tile / tiles_x;
        let tx = tile % tiles_x;
        if let Some(r) = (OutRegion {
            f0,
            nf,
            y0: ty * tile_h,
            x0: tx * tile_w,
            h: tile_h,
            w: tile_w,
        })
        .clipped(problem)
        {
            regions.push(r);
        }
    }
    regions
}

/// Convenience: run an implementation in [`SimMode::Full`] and verify the
/// whole output, returning the run.
///
/// # Errors
///
/// Returns the underlying error, or [`ConvError::Shape`] when verification
/// fails.
///
/// [`ConvError::Shape`]: crate::ConvError::Shape
pub fn run_verified(
    conv: &dyn Convolution,
    gpu: &mut Gpu,
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
) -> Result<ConvRun> {
    let run = conv.run(gpu, problem, input, filters, SimMode::Full)?;
    run.verify_executed(problem, input, filters, kconv_tensor::CONV_TOL)
        .map_err(|e| {
            crate::error::ConvError::Shape(format!("{} output mismatch: {e}", conv.name()))
        })?;
    Ok(run)
}

/// Whether an engine failure should be absorbed and the next engine in a
/// fallback chain tried: device-side kernel faults (the sanitizer or the
/// containment layer stopped the kernel) and shape/configuration rejections
/// are recoverable; host-side simulator errors (failed allocations, invalid
/// launches) indicate the *chain* is misused and propagate. The decision
/// is [`ConvError::retry_class`], the single classification shared with
/// retrying layers above the chain.
fn is_recoverable(e: &ConvError) -> bool {
    e.retry_class().recoverable()
}

/// Runs `engines` in order until one completes, absorbing recoverable
/// failures (device-side kernel faults and shape/config rejections) into
/// [`ConvRun::faults`] of the successful run.
///
/// This is the containment counterpart of [`Gpu::launch`]'s fault
/// reporting: a kernel that trips the sanitizer or faults on a device
/// access does not abort the computation — the next (typically simpler and
/// better-trusted) engine produces the answer, and the record of what
/// failed travels with it. End the chain with a reference implementation
/// such as [`NaiveConv`](crate::NaiveConv), which accepts every shape.
///
/// # Errors
///
/// Returns the last engine's error when every engine fails, a
/// non-recoverable error (e.g. a failed allocation) as soon as one occurs,
/// or [`ConvError::Config`] when `engines` is empty.
pub fn run_with_fallback(
    engines: &[&dyn Convolution],
    gpu: &mut Gpu,
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
    mode: SimMode,
) -> Result<ConvRun> {
    let mut faults = Vec::new();
    for (i, conv) in engines.iter().enumerate() {
        match conv.run(gpu, problem, input, filters, mode.clone()) {
            Ok(mut run) => {
                run.faults = faults;
                return Ok(run);
            }
            Err(e) if is_recoverable(&e) && i + 1 < engines.len() => {
                faults.push(FaultRecord {
                    engine: conv.name(),
                    error: e,
                });
            }
            Err(e) => return Err(e),
        }
    }
    Err(ConvError::Config(
        "run_with_fallback called with no engines".into(),
    ))
}
