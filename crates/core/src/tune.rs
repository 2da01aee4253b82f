//! Design-space exploration for the general-case kernel — the process that
//! produced the paper's Table 1.
//!
//! The tuner enumerates the cross product of the paper's tuning knobs
//! (`W, H, F_TB, W_T, F_T, C_SH`), filters out configurations that violate
//! the architectural constraints or the problem's divisibility
//! requirements, measures each survivor on a representative problem with
//! sampled execution, and ranks by achieved GFlop/s.

use kconv_sim::{Gpu, GpuSpec, Parallelism, SimMode};
use kconv_tensor::{random_filters, random_maps, ConvProblem};

use crate::config::{GeneralConfig, SpecialConfig};
use crate::dtype::DataType;
use crate::error::{ConvError, Result};
use crate::general::GeneralConv;
use crate::run::Convolution;
use crate::shape::KernelShape;
use crate::special::SpecialConv;

/// One explored configuration and its measured throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// The configuration.
    pub config: GeneralConfig,
    /// Achieved algorithmic GFlop/s on the probe problem.
    pub gflops: f64,
}

/// A candidate the tuner refused to simulate, and why.
///
/// Recorded by the `*_recorded` exploration variants so a sweep's report
/// can show what was pruned (a wrong vector factor for the target's bank
/// width, a validation failure, a device-side fault) instead of silently
/// shrinking the space.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneSkip<C> {
    /// The configuration that was skipped.
    pub config: C,
    /// Human-readable reason it was not (or could not be) measured.
    pub reason: String,
}

/// Returns `Some(reason)` if `vec_width` should not even be simulated on
/// `spec`: the architecture-adaptive generator derives exactly one matched
/// vector factor per (spec, dtype) from the paper's eq. 1, and any other
/// factor is either uninstantiable or reproduces the known n-fold bank
/// serialization — measuring it again is wasted sweep time.
fn derived_n_incompatibility(spec: &GpuSpec, vec_width: usize) -> Option<String> {
    let derived = KernelShape::derive_n(spec, DataType::F32);
    if KernelShape::forced(DataType::F32, vec_width).is_none() {
        return Some(format!(
            "vec_width {vec_width} has no instantiable f32 kernel variant"
        ));
    }
    if vec_width != derived {
        return Some(format!(
            "vec_width {vec_width} mismatches derived n={derived} for {} ({}B banks)",
            spec.name,
            spec.bank_width.bytes()
        ));
    }
    None
}

/// The candidate space explored for Table 1 (the paper's knobs with the
/// values its result table draws from), vectorized for the K40m's 8-byte
/// banks (`n = 2`). For other architectures use [`candidate_space_for`].
pub fn candidate_space() -> Vec<GeneralConfig> {
    candidate_space_for(&GpuSpec::kepler_k40m())
}

/// The Table 1 candidate space with the vector factor derived from
/// `spec`'s bank width via [`KernelShape::derive_n`] — `n = 2` on 8-byte
/// banks (Kepler), `n = 1` on 4-byte banks (Fermi/Maxwell-class).
pub fn candidate_space_for(spec: &GpuSpec) -> Vec<GeneralConfig> {
    let vec_width = KernelShape::derive_n(spec, DataType::F32);
    let mut out = Vec::new();
    for &width in &[32usize, 64] {
        for &height in &[4usize, 8] {
            for &f_tb in &[32usize, 64] {
                for &w_t in &[8usize, 16] {
                    for &f_t in &[4usize, 8] {
                        for &c_sh in &[1usize, 2] {
                            out.push(GeneralConfig {
                                width,
                                height,
                                f_tb,
                                w_t,
                                f_t,
                                c_sh,
                                vec_width,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Whether `cfg` can run `problem` at all (architecture + divisibility).
pub fn is_feasible(spec: &GpuSpec, cfg: &GeneralConfig, problem: &ConvProblem) -> bool {
    cfg.validate(spec, problem.k).is_ok()
        && problem.filters.is_multiple_of(cfg.f_tb)
        && problem.channels.is_multiple_of(cfg.c_sh)
}

/// Explores `candidates` on `problem`, returning feasible results sorted
/// by descending throughput. Uses sampled execution (`blocks` blocks per
/// candidate) — the kernels are tile-homogeneous, so the scaled counters
/// are exact for interior tiles. Launches run with
/// [`Parallelism::env_or_auto`] (serial results are bit-identical; set
/// `KCONV_THREADS=serial` to force the single-threaded path).
///
/// Candidates whose kernel trips a device-side fault (a sanitizer report
/// or a contained kernel panic — see [`kconv_sim::DeviceFault`]) are
/// skipped rather than aborting the exploration: one poisoned
/// configuration should not take down a 64-point sweep.
///
/// # Errors
///
/// Propagates host-side simulator errors (a candidate that fails
/// validation is silently skipped; a candidate that fails at launch setup
/// is a bug).
pub fn explore_general(
    spec: &GpuSpec,
    problem: &ConvProblem,
    candidates: &[GeneralConfig],
    blocks: usize,
) -> Result<Vec<TuneResult>> {
    explore_general_recorded(spec, problem, candidates, blocks).map(|(results, _)| results)
}

/// [`explore_general`] plus the list of candidates that were pruned
/// without simulation and why — a wrong derived vector factor for the
/// target's bank width, a validation/divisibility failure, or a
/// device-side fault.
///
/// # Errors
///
/// Propagates host-side simulator errors (see [`explore_general`]).
pub fn explore_general_recorded(
    spec: &GpuSpec,
    problem: &ConvProblem,
    candidates: &[GeneralConfig],
    blocks: usize,
) -> Result<(Vec<TuneResult>, Vec<TuneSkip<GeneralConfig>>)> {
    let input = random_maps(problem.channels, problem.height, problem.width, 71);
    let filters = random_filters(problem.filters, problem.channels, problem.k, 73);
    let mut results = Vec::new();
    let mut skips = Vec::new();
    for cfg in candidates {
        // Wrong-n candidates are pruned analytically: eq. 1 already tells
        // us they serialize (or cannot be built), so they are not worth a
        // simulated launch.
        if let Some(reason) = derived_n_incompatibility(spec, cfg.vec_width) {
            skips.push(TuneSkip {
                config: *cfg,
                reason,
            });
            continue;
        }
        if !is_feasible(spec, cfg, problem) {
            skips.push(TuneSkip {
                config: *cfg,
                reason: "fails architectural or divisibility validation".into(),
            });
            continue;
        }
        let mut gpu = Gpu::new(spec.clone()).with_parallelism(Parallelism::env_or_auto());
        let run = match GeneralConv::new(*cfg).run(
            &mut gpu,
            problem,
            &input,
            &filters,
            SimMode::Sampled(blocks),
        ) {
            Ok(run) => run,
            // A device-side fault poisons this candidate, not the sweep.
            Err(ConvError::Sim(e)) if e.device_fault().is_some() => {
                skips.push(TuneSkip {
                    config: *cfg,
                    reason: "device-side fault during sampled execution".into(),
                });
                continue;
            }
            Err(e) => return Err(e),
        };
        results.push(TuneResult {
            config: *cfg,
            gflops: run.effective_gflops(problem),
        });
    }
    results.sort_by(|a, b| b.gflops.partial_cmp(&a.gflops).expect("finite gflops"));
    Ok((results, skips))
}

/// Convenience: the best configuration for filter size `k` on a
/// representative problem (`N = 64`, `C = F = 64`), exploring the full
/// candidate space.
///
/// # Errors
///
/// Propagates simulator errors; fails if no candidate is feasible.
pub fn best_general_config(spec: &GpuSpec, k: usize) -> Result<GeneralConfig> {
    let problem = ConvProblem::general(64 + k - 1, 64, 64, k);
    let results = explore_general(spec, &problem, &candidate_space(), 2)?;
    results
        .first()
        .map(|r| r.config)
        .ok_or_else(|| crate::error::ConvError::Config("no feasible configuration".into()))
}

/// One explored special-case configuration and its measured throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecialTuneResult {
    /// The configuration.
    pub config: SpecialConfig,
    /// Achieved algorithmic GFlop/s on the probe problem.
    pub gflops: f64,
}

/// The candidate space for the special-case kernel's tile shape (the
/// paper: "Through design space exploration, we determined that the best
/// block size for the special case convolution kernel is W = 256 and
/// H = 8"), vectorized for Kepler's 8-byte banks. For other architectures
/// use [`special_candidate_space_for`].
pub fn special_candidate_space() -> Vec<SpecialConfig> {
    special_candidate_space_for(&GpuSpec::kepler_k40m())
}

/// The special-case tile space with the vector factor derived from
/// `spec`'s bank width via [`KernelShape::derive_n`].
pub fn special_candidate_space_for(spec: &GpuSpec) -> Vec<SpecialConfig> {
    let vec_width = KernelShape::derive_n(spec, DataType::F32);
    let mut out = Vec::new();
    for &width in &[64usize, 128, 256, 512] {
        for &height in &[2usize, 4, 8, 16] {
            out.push(SpecialConfig {
                width,
                height,
                vec_width,
            });
        }
    }
    out
}

/// Explores special-case tile shapes on `problem`, returning feasible
/// results sorted by descending throughput.
///
/// # Errors
///
/// Propagates host-side simulator errors; candidates that trip a
/// device-side fault are skipped (see [`explore_general`]).
pub fn explore_special(
    spec: &GpuSpec,
    problem: &ConvProblem,
    candidates: &[SpecialConfig],
    blocks: usize,
) -> Result<Vec<SpecialTuneResult>> {
    explore_special_recorded(spec, problem, candidates, blocks).map(|(results, _)| results)
}

/// [`explore_special`] plus the list of candidates pruned without
/// simulation and why (see [`explore_general_recorded`]).
///
/// # Errors
///
/// Propagates host-side simulator errors.
pub fn explore_special_recorded(
    spec: &GpuSpec,
    problem: &ConvProblem,
    candidates: &[SpecialConfig],
    blocks: usize,
) -> Result<(Vec<SpecialTuneResult>, Vec<TuneSkip<SpecialConfig>>)> {
    let input = random_maps(1, problem.height, problem.width, 75);
    let filters = random_filters(problem.filters, 1, problem.k, 77);
    let mut results = Vec::new();
    let mut skips = Vec::new();
    for cfg in candidates {
        if let Some(reason) = derived_n_incompatibility(spec, cfg.vec_width) {
            skips.push(TuneSkip {
                config: *cfg,
                reason,
            });
            continue;
        }
        if SpecialConv::new(*cfg).validate(spec, problem).is_err() {
            skips.push(TuneSkip {
                config: *cfg,
                reason: "fails architectural or divisibility validation".into(),
            });
            continue;
        }
        let mut gpu = Gpu::new(spec.clone()).with_parallelism(Parallelism::env_or_auto());
        let run = match SpecialConv::new(*cfg).run(
            &mut gpu,
            problem,
            &input,
            &filters,
            SimMode::Sampled(blocks),
        ) {
            Ok(run) => run,
            // A device-side fault poisons this candidate, not the sweep.
            Err(ConvError::Sim(e)) if e.device_fault().is_some() => {
                skips.push(TuneSkip {
                    config: *cfg,
                    reason: "device-side fault during sampled execution".into(),
                });
                continue;
            }
            Err(e) => return Err(e),
        };
        results.push(SpecialTuneResult {
            config: *cfg,
            gflops: run.effective_gflops(problem),
        });
    }
    results.sort_by(|a, b| b.gflops.partial_cmp(&a.gflops).expect("finite gflops"));
    Ok((results, skips))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_space_size() {
        // 2^6 knob combinations.
        assert_eq!(candidate_space().len(), 64);
    }

    #[test]
    fn feasibility_filters_divisibility() {
        let spec = GpuSpec::kepler_k40m();
        let cfg = GeneralConfig::table1_3x3(); // F_TB = 64
        let ok = ConvProblem::general(34, 2, 64, 3);
        let bad_f = ConvProblem::general(34, 2, 48, 3);
        assert!(is_feasible(&spec, &cfg, &ok));
        assert!(!is_feasible(&spec, &cfg, &bad_f));
        let bad_c = ConvProblem::general(34, 3, 64, 3); // C=3 vs C_SH=2
        assert!(!is_feasible(&spec, &cfg, &bad_c));
    }

    #[test]
    fn exploration_ranks_descending() {
        let spec = GpuSpec::kepler_k40m();
        let problem = ConvProblem::general(34, 4, 64, 3);
        // A small probe space to keep the test quick.
        let cands = [
            GeneralConfig::table1_3x3(),
            GeneralConfig {
                w_t: 8,
                ..GeneralConfig::table1_3x3()
            },
            GeneralConfig {
                c_sh: 1,
                ..GeneralConfig::table1_3x3()
            },
        ];
        let results = explore_general(&spec, &problem, &cands, 2).unwrap();
        assert!(!results.is_empty());
        for pair in results.windows(2) {
            assert!(pair[0].gflops >= pair[1].gflops);
        }
    }

    #[test]
    fn special_space_and_exploration() {
        assert_eq!(special_candidate_space().len(), 16);
        let spec = GpuSpec::kepler_k40m();
        let problem = ConvProblem::special(512, 8, 3);
        let cands = [
            SpecialConfig {
                width: 64,
                height: 4,
                vec_width: 2,
            },
            SpecialConfig {
                width: 256,
                height: 8,
                vec_width: 2,
            },
        ];
        let results = explore_special(&spec, &problem, &cands, 2).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].gflops >= results[1].gflops);
    }

    #[test]
    fn candidate_space_for_derives_the_vector_factor() {
        // Kepler's 8-byte banks want n = 2 (the historical default space).
        assert!(candidate_space().iter().all(|c| c.vec_width == 2));
        assert!(special_candidate_space().iter().all(|c| c.vec_width == 2));
        // 4-byte-bank architectures want the scalar variant.
        let maxwell = GpuSpec::maxwell_like();
        assert!(candidate_space_for(&maxwell)
            .iter()
            .all(|c| c.vec_width == 1));
        assert!(special_candidate_space_for(&maxwell)
            .iter()
            .all(|c| c.vec_width == 1));
    }

    #[test]
    fn wrong_n_candidates_are_pruned_analytically() {
        // The Kepler-tuned space (n = 2) should be pruned wholesale on a
        // 4-byte-bank target — with the reason recorded, not silently.
        let maxwell = GpuSpec::maxwell_like();
        let problem = ConvProblem::general(34, 4, 64, 3);
        let (results, skips) =
            explore_general_recorded(&maxwell, &problem, &candidate_space(), 1).unwrap();
        assert!(results.is_empty());
        assert_eq!(skips.len(), 64);
        for skip in &skips {
            assert!(
                skip.reason.contains("mismatches derived n=1"),
                "{}",
                skip.reason
            );
        }
        // The matched space simulates normally on the same target.
        let (results, skips) =
            explore_general_recorded(&maxwell, &problem, &candidate_space_for(&maxwell), 1)
                .unwrap();
        assert!(!results.is_empty());
        assert!(skips
            .iter()
            .all(|s| s.reason.contains("validation") || s.reason.contains("fault")));
    }

    #[test]
    fn special_skips_record_reasons_too() {
        let maxwell = GpuSpec::maxwell_like();
        let problem = ConvProblem::special(512, 8, 3);
        let (results, skips) =
            explore_special_recorded(&maxwell, &problem, &special_candidate_space(), 1).unwrap();
        assert!(results.is_empty());
        assert_eq!(skips.len(), 16);
        assert!(skips.iter().all(|s| s.reason.contains("4B banks")));
    }

    #[test]
    fn infeasible_candidates_are_skipped_not_fatal() {
        let spec = GpuSpec::kepler_k40m();
        let problem = ConvProblem::general(34, 4, 64, 3);
        let cands = [
            GeneralConfig {
                c_sh: 32, // shared-memory blowup: infeasible
                ..GeneralConfig::table1_3x3()
            },
            GeneralConfig::table1_3x3(),
        ];
        let results = explore_general(&spec, &problem, &cands, 1).unwrap();
        assert_eq!(results.len(), 1);
    }
}
