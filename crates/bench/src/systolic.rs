//! The `systolic` harness: the double-buffered pipeline's claims, proven
//! from captured KTRC traces.
//!
//! For every preset of the extended workload matrix (dense, strided,
//! dilated, depthwise, and a strided+dilated 5x5), the harness captures
//! the systolic kernel at pipeline depth 1 (the classic stage/sync/
//! compute/sync alternation) and depth 2 (double-buffered ping/pong
//! staging) and gates five claims:
//!
//! * **barrier halving** — the traces show every block running exactly
//!   `2R` barriers at depth 1 and `R + 1` at depth 2 (`R` staging
//!   rounds), i.e. `(d2 - 1) * 2 == d1`, with uniform per-block counts
//!   and trace arrivals equal to the live `bar_syncs` counter;
//! * **traffic bit-identity** — every GM, SM and CM counter (requests,
//!   transactions, bus and useful bytes, cycles, broadcasts, misses) and
//!   the FMA count are bit-identical between the two depths, and so is
//!   the output tensor: the pipeline reorders *time*, not *traffic*;
//! * **modeled speedup** — depth 2 strictly improves the modeled launch
//!   time on every preset (fewer barrier waits, same everything else);
//! * **replay** — each capture re-priced by `kconv-replay` under its own
//!   spec reproduces the live `KernelStats` and timing bit for bit;
//! * **clean execution** — both depths run sanitizer-clean under
//!   [`SanitizerMode::Full`], match the CPU reference, and are
//!   bit-identical between serial and threaded block execution.
//!
//! A final gate drives the tuner: the depth axis ranks the
//! double-buffered schedule first on a probe problem, and a config whose
//! doubled staging buffer exceeds the block's shared-memory capacity
//! comes back as a recorded `TuneSkip`, not a launch failure.
//!
//! [`run`] writes `BENCH_systolic.json` to the workspace root; under
//! `--check` any FAIL is exit status 1.

use std::process::ExitCode;

use kconv_core::{ConvRun, Convolution};
use kconv_replay::{replay, TargetSpec};
use kconv_sim::{Gpu, GpuSpec, KernelStats, Parallelism, SanitizerMode, SimMode, WARP_SIZE};
use kconv_systolic::{
    barrier_halving, depth_axis, explore_pipeline_recorded, PipelineConfig, SystolicConv,
};
use kconv_tensor::{random_filters, random_maps, ConvProblem, FeatureMaps, FilterSet, CONV_TOL};
use kconv_trace::TraceSummary;

use crate::cli::Args;
use crate::{fig8, print_table, Checker};

/// Input seed shared by every harness capture.
pub const INPUT_SEED: u64 = 401;
/// Filter seed shared by every harness capture.
pub const FILTER_SEED: u64 = 409;

/// One workload-matrix preset: a named layer shape the pipeline runs at
/// both depths.
#[derive(Debug)]
pub struct Preset {
    /// Stable short name (keys the JSON rows).
    pub name: &'static str,
    /// The layer shape.
    pub problem: ConvProblem,
}

/// The harness workload matrix: every axis the systolic kernel extends
/// the repo's coverage by — stride, dilation, depthwise grouping and
/// their combination — next to the dense anchor. Channel counts exceed
/// `c_sh` so every preset runs several staging rounds (`R >= 2`; the
/// single-round case degenerates to `2 == 2` and proves nothing).
pub fn presets() -> Vec<Preset> {
    vec![
        Preset {
            name: "dense-3x3",
            problem: ConvProblem::general(34, 8, 8, 3),
        },
        Preset {
            name: "strided-3x3",
            problem: ConvProblem::general(34, 8, 8, 3).with_stride(2),
        },
        Preset {
            name: "dilated-3x3",
            problem: ConvProblem::general(34, 8, 8, 3).with_dilation(2),
        },
        Preset {
            name: "depthwise-3x3",
            problem: ConvProblem::general(34, 8, 8, 3).depthwise(),
        },
        Preset {
            name: "strided-dilated-5x5",
            problem: ConvProblem::general(38, 6, 4, 5)
                .with_stride(2)
                .with_dilation(2),
        },
    ]
}

/// The seeded workload for one preset.
fn workload(problem: &ConvProblem) -> (FeatureMaps, FilterSet) {
    let input = random_maps(problem.channels, problem.height, problem.width, INPUT_SEED);
    let filters = random_filters(
        problem.filters,
        problem.channels_per_group(),
        problem.k,
        FILTER_SEED,
    );
    (input, filters)
}

/// One captured depth: the live run plus its KTRC bytes.
struct Capture {
    run: ConvRun,
    bytes: Vec<u8>,
    summary: TraceSummary,
}

/// Runs `cfg` on the Kepler anchor with a trace writer attached.
fn capture(cfg: PipelineConfig, problem: &ConvProblem) -> Capture {
    let (input, filters) = workload(problem);
    let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_sanitizer(SanitizerMode::Off);
    let (run, bytes) = kconv_trace::capture(&mut gpu, |gpu| {
        SystolicConv::new(cfg).run(gpu, problem, &input, &filters, SimMode::Full)
    });
    let run = run.unwrap_or_else(|e| panic!("systolic d{} on {problem}: {e}", cfg.depth));
    let summary = TraceSummary::from_bytes(&bytes)
        .expect("systolic capture decodes")
        .remove(0);
    Capture {
        run,
        bytes,
        summary,
    }
}

/// Memory-traffic counters that must be bit-identical across depths —
/// everything except the barrier group and the derived timing.
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
        s.gm_ro_hits,
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

/// The sanitizer/reference/determinism gate for one depth: a serial
/// [`SanitizerMode::Full`] run must finish fault-free and match the CPU
/// reference, and a threaded run must reproduce it bit for bit.
fn clean_execution(
    cfg: PipelineConfig,
    problem: &ConvProblem,
    label: &str,
    c: &mut Checker,
) -> bool {
    let (input, filters) = workload(problem);
    let run_at = |parallelism: Parallelism| {
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m())
            .with_sanitizer(SanitizerMode::Full)
            .with_parallelism(parallelism);
        SystolicConv::new(cfg)
            .run(&mut gpu, problem, &input, &filters, SimMode::Full)
            .map_err(|e| format!("{label}: {e}"))
    };
    let serial = match run_at(Parallelism::Serial) {
        Ok(run) => run,
        Err(e) => {
            c.check(&format!("{label}: sanitizer-clean"), false, &e);
            return false;
        }
    };
    let reference = serial
        .verify_executed(problem, &input, &filters, CONV_TOL)
        .map_err(|e| e.to_string());
    c.check(
        &format!("{label}: sanitizer-clean + reference"),
        serial.faults.is_empty() && reference.is_ok(),
        &format!(
            "KCONV_SANITIZE=full, {} faults, reference {}",
            serial.faults.len(),
            reference.as_ref().map_or_else(|e| e.as_str(), |_| "ok"),
        ),
    );
    let threaded = match run_at(Parallelism::Threads(4)) {
        Ok(run) => run,
        Err(e) => {
            c.check(&format!("{label}: serial == threaded"), false, &e);
            return false;
        }
    };
    let identical =
        serial.report.stats == threaded.report.stats && serial.output == threaded.output;
    c.check(
        &format!("{label}: serial == threaded"),
        identical,
        "KernelStats + output, bit-exact, 4 workers",
    );
    serial.faults.is_empty() && reference.is_ok() && identical
}

/// One measured preset row (feeds the table and the JSON).
struct PresetRow {
    name: &'static str,
    problem: ConvProblem,
    rounds: u64,
    blocks: u64,
    d1_bars: u64,
    d2_bars: u64,
    d1_ms: f64,
    d2_ms: f64,
    trace_bytes: usize,
    clean: bool,
}

/// Captures both depths of every preset, replays every gate, and writes
/// `BENCH_systolic.json` to the workspace root.
pub fn run(args: &Args) -> ExitCode {
    let mut c = Checker::default();
    let spec = GpuSpec::kepler_k40m();
    let base = PipelineConfig::matched_for(&spec);
    let warps = base.tile_w.div_ceil(WARP_SIZE) as u64;

    println!(
        "systolic — double-buffered pipeline vs baseline alternation on {} (tile_w {}, c_sh {}, n {})\n",
        spec.name, base.tile_w, base.c_sh, base.shape.vec_width
    );

    let mut rows: Vec<PresetRow> = Vec::new();
    for preset in presets() {
        let problem = &preset.problem;
        let d1_cfg = base.with_depth(1);
        let d2_cfg = base.with_depth(2);
        for cfg in [d1_cfg, d2_cfg] {
            cfg.validate(&spec, problem)
                .unwrap_or_else(|e| panic!("{} d{} invalid: {e}", preset.name, cfg.depth));
        }
        let d1 = capture(d1_cfg, problem);
        let d2 = capture(d2_cfg, problem);
        let rounds = base.rounds(problem) as u64;
        let blocks = d1.run.report.executed_blocks.len() as u64;

        // --- Gate: per-block barrier counts from the trace ---
        let uniform = d1.summary.block_bar_min == d1.summary.block_bar_max
            && d2.summary.block_bar_min == d2.summary.block_bar_max;
        c.check(
            &format!("{}: per-block barrier counts uniform", preset.name),
            uniform,
            &format!(
                "d1 [{}, {}], d2 [{}, {}] warp arrivals",
                d1.summary.block_bar_min,
                d1.summary.block_bar_max,
                d2.summary.block_bar_min,
                d2.summary.block_bar_max
            ),
        );
        c.eq_u64(
            &format!("{}: trace bar arrivals == live bar_syncs (d1)", preset.name),
            d1.summary.bar_arrivals(),
            d1.run.report.stats.bar_syncs,
        );
        c.eq_u64(
            &format!("{}: trace bar arrivals == live bar_syncs (d2)", preset.name),
            d2.summary.bar_arrivals(),
            d2.run.report.stats.bar_syncs,
        );
        let d1_bars = d1.summary.block_bar_max / warps;
        let d2_bars = d2.summary.block_bar_max / warps;
        c.eq_u64(
            &format!("{}: d1 runs 2R barriers per block", preset.name),
            d1_bars,
            2 * rounds,
        );
        c.eq_u64(
            &format!("{}: d2 runs R + 1 barriers per block", preset.name),
            d2_bars,
            rounds + 1,
        );
        c.check(
            &format!("{}: depth 2 halves the barrier rounds", preset.name),
            barrier_halving(d1_bars, d2_bars),
            &format!("(d2 {d2_bars} - 1) * 2 == d1 {d1_bars}, R = {rounds}"),
        );

        // --- Gate: traffic and output bit-identical across depths ---
        c.check(
            &format!("{}: GM/SM/CM traffic bit-identical", preset.name),
            traffic(&d1.run.report.stats) == traffic(&d2.run.report.stats),
            "19 counters compared, barriers excluded",
        );
        c.check(
            &format!("{}: outputs bit-identical", preset.name),
            d1.run.output == d2.run.output,
            "same FMA order, same bits",
        );

        // --- Gate: the saved barriers show up in the modeled time ---
        let d1_ms = d1.run.report.timing.t_total * 1e3;
        let d2_ms = d2.run.report.timing.t_total * 1e3;
        c.check(
            &format!("{}: modeled time strictly improves", preset.name),
            d2_ms < d1_ms,
            &format!("d1 {d1_ms:.4} ms -> d2 {d2_ms:.4} ms"),
        );

        // --- Gate: the captures replay to the live counters ---
        for (depth, cap) in [(1usize, &d1), (2, &d2)] {
            let r = &replay(&cap.bytes, &TargetSpec::Capture).expect("systolic capture replays")[0];
            c.check(
                &format!("{}: replay(capture) == live (d{depth})", preset.name),
                r.stats == cap.run.report.stats && r.timing == Some(cap.run.report.timing),
                "KernelStats + timing, bit-exact",
            );
        }

        // --- Gate: sanitizer-clean, reference-exact, deterministic ---
        let clean = [1usize, 2].iter().all(|&depth| {
            clean_execution(
                base.with_depth(depth),
                problem,
                &format!("{} d{depth}", preset.name),
                &mut c,
            )
        });

        rows.push(PresetRow {
            name: preset.name,
            problem: *problem,
            rounds,
            blocks,
            d1_bars,
            d2_bars,
            d1_ms,
            d2_ms,
            trace_bytes: d1.bytes.len() + d2.bytes.len(),
            clean,
        });
    }

    println!();
    print_table(
        &[
            "preset", "R", "blocks", "d1 bars", "d2 bars", "d1 (ms)", "d2 (ms)", "speedup",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    r.rounds.to_string(),
                    r.blocks.to_string(),
                    r.d1_bars.to_string(),
                    r.d2_bars.to_string(),
                    format!("{:.4}", r.d1_ms),
                    format!("{:.4}", r.d2_ms),
                    format!("{:.3}x", r.d1_ms / r.d2_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // --- Gate: the tuner ranks the depth axis and records skips ---
    println!("\n[gate] tuner: depth axis ranked, oversized staging recorded as a skip");
    let probe = ConvProblem::general(34, 8, 8, 3);
    let (results, skips) = explore_pipeline_recorded(&spec, &probe, &depth_axis(base), 4)
        .expect("depth axis explores");
    c.check(
        "tuner ranks the double-buffered schedule first",
        results.len() == 2 && skips.is_empty() && results[0].config.depth == 2,
        &format!(
            "{} results, {} skips, best depth {}",
            results.len(),
            skips.len(),
            results.first().map_or(0, |r| r.config.depth)
        ),
    );
    let oversized = PipelineConfig {
        c_sh: 64,
        tile_w: 512,
        ..base
    };
    let (fit, skipped) = explore_pipeline_recorded(&spec, &probe, &depth_axis(oversized), 4)
        .expect("oversized axis explores without launching");
    c.check(
        "oversized depth-2 staging becomes a TuneSkip",
        fit.len() < 2 && skipped.iter().any(|s| s.config.depth == 2),
        &skipped
            .iter()
            .map(|s| format!("d{}: {}", s.config.depth, s.reason))
            .collect::<Vec<_>>()
            .join("; "),
    );

    // --- JSON artifact ---
    let mut rows_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        rows_json.push_str(&format!(
            "    {{\"preset\": \"{}\", \"problem\": \"{}\", \"rounds\": {}, \"blocks\": {}, \"warps\": {warps}, \"d1_barriers_per_block\": {}, \"d2_barriers_per_block\": {}, \"d1_t_total_ms\": {:.6}, \"d2_t_total_ms\": {:.6}, \"modeled_speedup\": {:.6}, \"trace_bytes\": {}, \"clean\": {}}}{}\n",
            r.name,
            r.problem,
            r.rounds,
            r.blocks,
            r.d1_bars,
            r.d2_bars,
            r.d1_ms,
            r.d2_ms,
            r.d1_ms / r.d2_ms,
            r.trace_bytes,
            r.clean,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"systolic\",\n  \"spec\": \"{}\",\n  \"tile_w\": {},\n  \"c_sh\": {},\n  \"vec_width\": {},\n  \"presets\": [\n{rows_json}  ],\n  \"checks\": {},\n  \"failures\": {}\n}}\n",
        spec.name, base.tile_w, base.c_sh, base.shape.vec_width, c.checks, c.failures,
    );
    let path = fig8::workspace_file("BENCH_systolic.json");
    if let Err(e) = std::fs::write(&path, &json) {
        c.check(
            "BENCH_systolic.json written",
            false,
            &format!("{path}: {e}"),
        );
    } else {
        println!("\nwrote {path}");
    }

    c.summary();
    c.exit_code(args.check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_the_extended_workload_matrix() {
        let presets = presets();
        assert!(presets.iter().any(|p| p.problem.stride > 1));
        assert!(presets.iter().any(|p| p.problem.dilation > 1));
        assert!(presets.iter().any(|p| p.problem.depthwise));
        assert!(presets.iter().any(|p| p.problem.is_dense()));
        // Every preset runs at least two staging rounds; a single-round
        // pipeline satisfies the halving identity trivially (2 == 2).
        let base = PipelineConfig::matched_for(&GpuSpec::kepler_k40m());
        for p in &presets {
            assert!(base.rounds(&p.problem) >= 2, "{} degenerate", p.name);
        }
    }

    #[test]
    fn clean_execution_holds_for_the_dense_preset_at_depth_two() {
        let mut c = Checker::default();
        let base = PipelineConfig::matched_for(&GpuSpec::kepler_k40m());
        let problem = ConvProblem::general(34, 8, 8, 3);
        assert!(clean_execution(base, &problem, "dense d2", &mut c));
        assert_eq!(c.failures, 0);
    }
}
