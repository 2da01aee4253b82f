//! Engine selection: map a convolution problem to the right kernel.

use std::collections::HashMap;

use kconv_core::{
    run_with_fallback, ConvError, ConvRun, Convolution, DataType, ExplicitGemmConv, FaultRecord,
    GeneralConfig, GeneralConv, ImplicitGemmConv, KernelShape, NaiveConv, SpecialConv,
};
use kconv_sim::{Gpu, GpuSpec, SimMode};
use kconv_systolic::{PipelineConfig, SystolicConv};
use kconv_tensor::{ConvProblem, FeatureMaps, FilterSet};

/// Which convolution implementation an application uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Pick automatically: the special-case kernel for `C = 1`, the
    /// general-case kernel when a configuration fits the shape, the
    /// implicit-GEMM baseline otherwise.
    #[default]
    Auto,
    /// Force the special-case kernel (requires `C = 1`).
    Special,
    /// Force the general-case kernel (requires a feasible configuration).
    General,
    /// Force the cuDNN-like implicit-GEMM baseline.
    ImplicitGemm,
    /// Force the Caffe-like explicit `im2col` + GEMM baseline.
    ExplicitGemm,
    /// Force the double-buffered systolic pipeline executor (the one
    /// engine covering the full strided/dilated/depthwise workload
    /// matrix).
    Systolic,
}

/// The outcome of resolving an [`Engine`] for a problem on a spec: which
/// kernel runs, with the tuned configuration already chosen. `Copy` and
/// `Hash` so resolutions can be cached and shared across requests (see
/// [`PlanCache`]); [`instantiate`](EnginePlan::instantiate) turns a plan
/// into the runnable implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePlan {
    /// The paper's special-case (`C = 1`) constant-memory kernel, in the
    /// dtype variant and vector factor the generator derives for the
    /// planning spec ([`KernelShape::matched`] — `n = W_SMB / W_CD`).
    Special(KernelShape),
    /// The paper's general-case kernel with this tuned configuration.
    General(GeneralConfig),
    /// The cuDNN-like implicit-GEMM baseline.
    ImplicitGemm,
    /// The Caffe-like explicit `im2col` + GEMM baseline.
    ExplicitGemm,
    /// The double-buffered systolic executor with this pipeline
    /// configuration (depth, tile, staging shape).
    Systolic(PipelineConfig),
}

impl EnginePlan {
    /// Builds the runnable implementation this plan names.
    pub fn instantiate(&self) -> Box<dyn Convolution> {
        match self {
            EnginePlan::Special(shape) => Box::new(SpecialConv::for_shape(*shape)),
            EnginePlan::General(cfg) => Box::new(GeneralConv::new(*cfg)),
            EnginePlan::ImplicitGemm => Box::new(ImplicitGemmConv::default()),
            EnginePlan::ExplicitGemm => Box::new(ExplicitGemmConv::default()),
            EnginePlan::Systolic(cfg) => Box::new(SystolicConv::new(*cfg)),
        }
    }
}

/// A shared resolution cache keyed by `(engine, dtype, bank width,
/// pipeline depth, problem shape)`: the serving layer resolves each
/// distinct shape once and every later request with the same shape reuses
/// the tuned plan. The key carries the axes the generator varies a plan
/// on — the computation dtype and the spec's shared-memory bank width,
/// which together pick the kernel variant and its vector factor, plus the
/// requested staging-pipeline depth (0 = auto, the deepest schedule that
/// fits) — so one cache can serve devices with different bank widths
/// without handing a Kepler float2 plan to a 4-byte-bank part, and
/// depth-1 baseline runs never alias depth-2 pipelined plans. Errors are
/// not cached — a failed resolution is cheap and carries a fresh message.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: HashMap<(Engine, DataType, u64, usize, ConvProblem), EnginePlan>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `engine` for `problem` on `spec` in `f32`, consulting the
    /// cache. Shorthand for [`PlanCache::plan_for`] with
    /// [`DataType::F32`].
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::plan`] errors (never cached).
    pub fn plan(
        &mut self,
        engine: Engine,
        spec: &GpuSpec,
        problem: &ConvProblem,
    ) -> Result<EnginePlan, ConvError> {
        self.plan_for(engine, spec, problem, DataType::F32)
    }

    /// Resolves `engine` for `problem` on `spec` computing in `dtype`,
    /// consulting the cache.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::plan_for`] errors (never cached).
    pub fn plan_for(
        &mut self,
        engine: Engine,
        spec: &GpuSpec,
        problem: &ConvProblem,
        dtype: DataType,
    ) -> Result<EnginePlan, ConvError> {
        self.plan_with_depth(engine, spec, problem, dtype, 0)
    }

    /// Resolves `engine` with an explicit staging-pipeline depth request
    /// (`0` = auto: the deepest schedule that fits the spec's shared
    /// memory; `1`/`2` force the baseline or double-buffered schedule of
    /// systolic plans). The depth is part of the cache key, so baseline
    /// and pipelined resolutions of the same shape coexist.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::plan_with_depth`] errors (never cached).
    pub fn plan_with_depth(
        &mut self,
        engine: Engine,
        spec: &GpuSpec,
        problem: &ConvProblem,
        dtype: DataType,
        pipeline_depth: usize,
    ) -> Result<EnginePlan, ConvError> {
        let key = (
            engine,
            dtype,
            spec.bank_width.bytes(),
            pipeline_depth,
            *problem,
        );
        if let Some(plan) = self.plans.get(&key) {
            self.hits += 1;
            return Ok(*plan);
        }
        let plan = engine.plan_with_depth(spec, problem, dtype, pipeline_depth)?;
        self.misses += 1;
        self.plans.insert(key, plan);
        Ok(plan)
    }

    /// Cache hits and misses so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of distinct `(engine, problem)` resolutions cached.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

impl Engine {
    /// Resolves this engine for `problem` on `spec` computing in `f32`,
    /// returning the cacheable [`EnginePlan`]. Shorthand for
    /// [`Engine::plan_for`] with [`DataType::F32`].
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::Shape`] when a forced engine cannot run the
    /// problem ([`Engine::Auto`] always resolves in `f32`).
    pub fn plan(self, spec: &GpuSpec, problem: &ConvProblem) -> Result<EnginePlan, ConvError> {
        self.plan_for(spec, problem, DataType::F32)
    }

    /// Resolves this engine for `problem` on `spec` computing in `dtype`,
    /// without running anything. The special plan carries the kernel
    /// shape derived for the spec's bank width
    /// ([`KernelShape::matched`]), so the same engine resolves to the
    /// float2 kernel on Kepler and the scalar variant on 4-byte-bank
    /// parts; narrow dtypes resolve to the matched half2/int8 variants.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::Shape`] when a forced engine cannot run the
    /// problem, or when `dtype` is narrow and the problem has no special
    /// variant (the general and GEMM kernels compute in `f32` only).
    pub fn plan_for(
        self,
        spec: &GpuSpec,
        problem: &ConvProblem,
        dtype: DataType,
    ) -> Result<EnginePlan, ConvError> {
        self.plan_with_depth(spec, problem, dtype, 0)
    }

    /// [`Engine::plan_for`] with an explicit staging-pipeline depth
    /// request: `0` picks the deepest schedule whose staging buffers fit
    /// the spec's shared memory (depth 2, falling back to 1), `1`/`2`
    /// force that schedule for systolic plans. Non-systolic plans ignore
    /// the depth — they have no staging pipeline to configure.
    ///
    /// # Errors
    ///
    /// As [`Engine::plan_for`], plus [`ConvError::Config`] when a forced
    /// depth cannot fit the problem's staging buffers.
    pub fn plan_with_depth(
        self,
        spec: &GpuSpec,
        problem: &ConvProblem,
        dtype: DataType,
        pipeline_depth: usize,
    ) -> Result<EnginePlan, ConvError> {
        // A special plan is a promise that the kernel runs: the kernel's
        // own validator decides. The narrow-dtype kernels exist only in the
        // special family.
        let shape = KernelShape::matched(spec, dtype);
        let special_check = SpecialConv::for_shape(shape).validate(spec, problem);
        if dtype != DataType::F32 {
            return match self {
                Engine::Special | Engine::Auto if special_check.is_ok() => {
                    Ok(EnginePlan::Special(shape))
                }
                _ => Err(ConvError::Shape(format!(
                    "no {dtype} kernel variant accepts {problem} under {self:?} \
                     (narrow compute is special-case only)"
                ))),
            };
        }
        match self {
            Engine::Special => special_check.map(|()| EnginePlan::Special(shape)),
            Engine::General => {
                let cfg =
                    GeneralConfig::for_problem(spec, problem.k, problem.channels, problem.filters)
                        .ok_or_else(|| {
                            ConvError::Shape(format!(
                                "no general-kernel configuration fits {problem}"
                            ))
                        })?;
                Ok(EnginePlan::General(cfg))
            }
            Engine::ImplicitGemm => Ok(EnginePlan::ImplicitGemm),
            Engine::ExplicitGemm => Ok(EnginePlan::ExplicitGemm),
            Engine::Systolic => Ok(EnginePlan::Systolic(systolic_plan(
                spec,
                problem,
                pipeline_depth,
            )?)),
            Engine::Auto => {
                if !problem.is_dense() {
                    // Dilated and depthwise layers are outside every other
                    // engine's workload matrix; the systolic executor is
                    // the one kernel (short of the naive reference) that
                    // covers them.
                    Ok(EnginePlan::Systolic(systolic_plan(
                        spec,
                        problem,
                        pipeline_depth,
                    )?))
                } else if problem.stride != 1 {
                    // The paper's direct kernels are stride-1 specialized;
                    // strided dense layers take the universal GEMM path.
                    Ok(EnginePlan::ImplicitGemm)
                } else if special_check.is_ok() {
                    Ok(EnginePlan::Special(shape))
                } else if let Some(cfg) =
                    GeneralConfig::for_problem(spec, problem.k, problem.channels, problem.filters)
                {
                    Ok(EnginePlan::General(cfg))
                } else {
                    Ok(EnginePlan::ImplicitGemm)
                }
            }
        }
    }

    /// Resolves this engine for `problem`, returning a runnable
    /// implementation. Convenience for [`Engine::plan`] +
    /// [`EnginePlan::instantiate`].
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::Shape`] when a forced engine cannot run the
    /// problem ([`Engine::Auto`] always resolves).
    pub fn resolve(
        self,
        gpu: &Gpu,
        problem: &ConvProblem,
    ) -> Result<Box<dyn Convolution>, ConvError> {
        Ok(self.plan(gpu.spec(), problem)?.instantiate())
    }

    /// Resolves and runs in one call.
    ///
    /// # Errors
    ///
    /// Propagates resolution and launch errors.
    pub fn run(
        self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<ConvRun, ConvError> {
        self.resolve(gpu, problem)?
            .run(gpu, problem, input, filters, mode)
    }

    /// Resolves and runs with **graceful degradation**: when the chosen
    /// kernel trips a device-side fault (an out-of-bounds access, a shared
    /// memory race or barrier divergence under the sanitizer, a watchdog
    /// timeout, a contained panic — see [`kconv_sim::DeviceFault`]), the
    /// computation falls back to the implicit-GEMM baseline and finally to
    /// the [`NaiveConv`] reference, which accepts every shape. Every
    /// absorbed failure — including a failed resolution — is recorded in
    /// [`ConvRun::faults`] of the returned run, so callers still learn
    /// exactly which kernel misbehaved and where.
    ///
    /// # Errors
    ///
    /// Returns an error only when even the reference implementation fails
    /// (or a non-recoverable host-side error occurs, e.g. a failed
    /// allocation).
    pub fn run_resilient(
        self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<ConvRun, ConvError> {
        let mut resolve_fault = None;
        let mut chain: Vec<Box<dyn Convolution>> = Vec::new();
        match self.resolve(gpu, problem) {
            Ok(primary) => chain.push(primary),
            // A forced engine that cannot run the shape degrades too; the
            // rejection is recorded like any other fault.
            Err(e) => {
                resolve_fault = Some(FaultRecord {
                    engine: format!("{self:?} (resolution)"),
                    error: e,
                });
            }
        }
        for fallback in [
            Box::new(ImplicitGemmConv::default()) as Box<dyn Convolution>,
            Box::new(NaiveConv::default()),
        ] {
            if !chain.iter().any(|c| c.name() == fallback.name()) {
                chain.push(fallback);
            }
        }
        let refs: Vec<&dyn Convolution> = chain.iter().map(AsRef::as_ref).collect();
        let mut run = run_with_fallback(&refs, gpu, problem, input, filters, mode)?;
        if let Some(fault) = resolve_fault {
            run.faults.insert(0, fault);
        }
        Ok(run)
    }
}

/// Picks the pipeline configuration for a systolic plan: the staging shape
/// matched to `spec`'s bank width, at the requested depth (`0` = auto —
/// the deepest schedule whose staging buffers fit the block's shared
/// memory, preferring the double-buffered one).
fn systolic_plan(
    spec: &GpuSpec,
    problem: &ConvProblem,
    pipeline_depth: usize,
) -> Result<PipelineConfig, ConvError> {
    let base = PipelineConfig::matched_for(spec);
    let depths: &[usize] = match pipeline_depth {
        0 => &[2, 1],
        _ => &[pipeline_depth],
    };
    let mut last = String::new();
    for &depth in depths {
        let cfg = base.with_depth(depth);
        match cfg.validate(spec, problem) {
            Ok(()) => return Ok(cfg),
            Err(reason) => last = reason,
        }
    }
    Err(ConvError::Config(format!(
        "no systolic pipeline fits {problem}: {last}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_sim::GpuSpec;
    use kconv_tensor::{random_filters, random_maps, CONV_TOL};

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::kepler_k40m())
    }

    #[test]
    fn auto_picks_special_for_single_channel() {
        let g = gpu();
        let p = ConvProblem::special(64, 4, 3);
        let conv = Engine::Auto.resolve(&g, &p).unwrap();
        assert!(conv.name().contains("special"));
    }

    #[test]
    fn auto_picks_general_for_cnn_shapes() {
        let g = gpu();
        let p = ConvProblem::general(34, 64, 64, 3);
        let conv = Engine::Auto.resolve(&g, &p).unwrap();
        assert!(conv.name().contains("general"));
    }

    #[test]
    fn auto_falls_back_to_gemm_for_awkward_shapes() {
        let g = gpu();
        let p = ConvProblem::general(34, 5, 7, 3); // prime F
        let conv = Engine::Auto.resolve(&g, &p).unwrap();
        assert!(conv.name().contains("GEMM"));
    }

    #[test]
    fn auto_avoids_special_when_filters_overflow_cm() {
        let g = gpu();
        // 512 filters of 7x7 = 100 KiB > 64 KiB constant memory.
        let p = ConvProblem::special(64, 512, 7);
        let conv = Engine::Auto.resolve(&g, &p).unwrap();
        assert!(!conv.name().contains("special"));
    }

    #[test]
    fn auto_routes_strided_problems_to_gemm() {
        let g = gpu();
        let p = ConvProblem::general(34, 64, 64, 3).with_stride(2);
        let conv = Engine::Auto.resolve(&g, &p).unwrap();
        assert!(conv.name().contains("GEMM"));
    }

    #[test]
    fn forced_engines_validate() {
        let g = gpu();
        let p = ConvProblem::general(34, 2, 8, 3);
        assert!(matches!(
            Engine::Special.resolve(&g, &p),
            Err(ConvError::Shape(_))
        ));
        let p = ConvProblem::general(34, 2, 7, 3);
        assert!(matches!(
            Engine::General.resolve(&g, &p),
            Err(ConvError::Shape(_))
        ));
    }

    #[test]
    fn resilient_run_absorbs_resolution_failure() {
        // Forcing the special kernel on a multi-channel problem cannot
        // resolve; the resilient path must degrade to a working engine and
        // record why.
        let p = ConvProblem::general(20, 2, 8, 3);
        let input = random_maps(2, 20, 20, 61);
        let filters = random_filters(8, 2, 3, 63);
        let mut g = gpu();
        let run = Engine::Special
            .run_resilient(&mut g, &p, &input, &filters, SimMode::Full)
            .unwrap();
        assert_eq!(run.faults.len(), 1);
        assert!(run.faults[0].engine.contains("Special"));
        assert!(matches!(run.faults[0].error, ConvError::Shape(_)));
        run.verify_executed(&p, &input, &filters, CONV_TOL).unwrap();
    }

    #[test]
    fn resilient_run_is_faultless_on_the_happy_path() {
        let p = ConvProblem::special(64, 4, 3);
        let input = random_maps(1, 64, 64, 65);
        let filters = random_filters(4, 1, 3, 67);
        let mut g = gpu();
        let run = Engine::Auto
            .run_resilient(&mut g, &p, &input, &filters, SimMode::Full)
            .unwrap();
        assert!(run.faults.is_empty());
        run.verify_executed(&p, &input, &filters, CONV_TOL).unwrap();
    }

    #[test]
    fn plan_cache_shares_resolutions_across_requests() {
        let spec = GpuSpec::kepler_k40m();
        let mut cache = PlanCache::new();
        let p = ConvProblem::general(34, 64, 64, 3);
        let first = cache.plan(Engine::Auto, &spec, &p).unwrap();
        assert!(matches!(first, EnginePlan::General(_)));
        for _ in 0..3 {
            assert_eq!(cache.plan(Engine::Auto, &spec, &p).unwrap(), first);
        }
        assert_eq!(cache.stats(), (3, 1));
        assert_eq!(cache.len(), 1);
        // A failed resolution is not cached and keeps failing.
        let bad = ConvProblem::general(34, 2, 8, 3);
        assert!(cache.plan(Engine::Special, &spec, &bad).is_err());
        assert_eq!(cache.len(), 1);
        // The plan instantiates the same kernel `resolve` builds.
        let g = gpu();
        assert_eq!(
            first.instantiate().name(),
            Engine::Auto.resolve(&g, &p).unwrap().name()
        );
    }

    #[test]
    fn special_plan_adapts_to_the_bank_width() {
        let p = ConvProblem::special(64, 4, 3);
        let kepler = Engine::Auto.plan(&GpuSpec::kepler_k40m(), &p).unwrap();
        let maxwell = Engine::Auto.plan(&GpuSpec::maxwell_like(), &p).unwrap();
        assert!(matches!(kepler, EnginePlan::Special(s) if s.vec_width == 2));
        assert!(matches!(maxwell, EnginePlan::Special(s) if s.vec_width == 1));
        assert!(kepler.instantiate().name().contains("n=2"));
        assert!(maxwell.instantiate().name().contains("n=1"));
    }

    #[test]
    fn narrow_dtypes_resolve_to_the_matched_variant() {
        let p = ConvProblem::special(64, 4, 3);
        let spec = GpuSpec::maxwell_like();
        let plan = Engine::Auto.plan_for(&spec, &p, DataType::F16).unwrap();
        assert!(matches!(plan, EnginePlan::Special(s) if s.vec_width == 2));
        assert!(plan.instantiate().name().contains("half2"));
        // Narrow compute has no general/GEMM variant.
        assert!(matches!(
            Engine::General.plan_for(&spec, &p, DataType::F16),
            Err(ConvError::Shape(_))
        ));
        let multi = ConvProblem::general(34, 4, 8, 3);
        assert!(matches!(
            Engine::Auto.plan_for(&spec, &multi, DataType::I8),
            Err(ConvError::Shape(_))
        ));
    }

    #[test]
    fn plan_cache_keys_on_dtype_and_bank_width() {
        let mut cache = PlanCache::new();
        let p = ConvProblem::special(64, 4, 3);
        let kepler = GpuSpec::kepler_k40m();
        let maxwell = GpuSpec::maxwell_like();
        let a = cache.plan(Engine::Auto, &kepler, &p).unwrap();
        let b = cache.plan(Engine::Auto, &maxwell, &p).unwrap();
        assert_ne!(a, b, "bank widths must not share a plan");
        let c = cache
            .plan_for(Engine::Auto, &kepler, &p, DataType::F16)
            .unwrap();
        assert_ne!(a, c, "dtypes must not share a plan");
        assert_eq!(cache.stats(), (0, 3));
        // Each key replays from the cache.
        assert_eq!(cache.plan(Engine::Auto, &kepler, &p).unwrap(), a);
        assert_eq!(cache.plan(Engine::Auto, &maxwell, &p).unwrap(), b);
        assert_eq!(
            cache
                .plan_for(Engine::Auto, &kepler, &p, DataType::F16)
                .unwrap(),
            c
        );
        assert_eq!(cache.stats(), (3, 3));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn auto_routes_the_extended_workload_matrix_to_systolic() {
        let spec = GpuSpec::kepler_k40m();
        let dilated = ConvProblem::general(24, 4, 4, 3).with_dilation(2);
        let depthwise = ConvProblem::general(24, 4, 4, 3).depthwise();
        for p in [dilated, depthwise] {
            let plan = Engine::Auto.plan(&spec, &p).unwrap();
            assert!(
                matches!(plan, EnginePlan::Systolic(cfg) if cfg.depth == 2),
                "{p}: {plan:?}"
            );
            // The resolved plan actually runs and verifies.
            let input = random_maps(p.channels, p.height, p.width, 71);
            let filters = random_filters(p.filters, p.channels_per_group(), p.k, 73);
            let mut g = gpu();
            let run = plan
                .instantiate()
                .run(&mut g, &p, &input, &filters, SimMode::Full)
                .unwrap_or_else(|e| panic!("{p}: {e}"));
            run.verify_executed(&p, &input, &filters, CONV_TOL)
                .unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn plan_cache_keys_on_pipeline_depth() {
        let spec = GpuSpec::kepler_k40m();
        let mut cache = PlanCache::new();
        let p = ConvProblem::general(24, 4, 4, 3).with_dilation(2);
        let d1 = cache
            .plan_with_depth(Engine::Systolic, &spec, &p, DataType::F32, 1)
            .unwrap();
        let d2 = cache
            .plan_with_depth(Engine::Systolic, &spec, &p, DataType::F32, 2)
            .unwrap();
        assert_ne!(d1, d2, "depths must not share a plan");
        assert!(matches!(d1, EnginePlan::Systolic(cfg) if cfg.depth == 1));
        assert!(matches!(d2, EnginePlan::Systolic(cfg) if cfg.depth == 2));
        assert_eq!(cache.len(), 2);
        // Auto depth (0) is its own key and resolves to the pipelined form.
        let auto = cache
            .plan_with_depth(Engine::Systolic, &spec, &p, DataType::F32, 0)
            .unwrap();
        assert_eq!(auto, d2);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), (0, 3));
    }

    #[test]
    fn forced_systolic_engine_resolves_and_runs_dense_shapes() {
        let p = ConvProblem::general(24, 4, 4, 3);
        let g = gpu();
        let conv = Engine::Systolic.resolve(&g, &p).unwrap();
        assert!(conv.name().contains("systolic d2"), "{}", conv.name());
        // An unsatisfiable forced depth is a config error.
        assert!(matches!(
            Engine::Systolic.plan_with_depth(g.spec(), &p, DataType::F32, 3),
            Err(ConvError::Config(_))
        ));
    }

    #[test]
    fn all_engines_agree_on_a_problem_both_support() {
        let p = ConvProblem::general(20, 2, 8, 3);
        let input = random_maps(2, 20, 20, 51);
        let filters = random_filters(8, 2, 3, 53);
        for engine in [Engine::General, Engine::ImplicitGemm, Engine::ExplicitGemm] {
            let mut g = gpu();
            let run = engine
                .run(&mut g, &p, &input, &filters, SimMode::Full)
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            run.verify_executed(&p, &input, &filters, CONV_TOL)
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        }
    }
}
