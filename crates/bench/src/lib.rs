//! # kconv-bench — experiment harnesses for the DAC'17 reproduction
//!
//! One binary, `kconv-bench <harness> [flags]`, runs every harness: each
//! figure and table of the paper, the §5.1 tile search, the §6 ablations,
//! and the replay, generator, pipeline and serving gates. [`cli`] holds
//! the harness table and its flags; run `kconv-bench` with no arguments
//! to print it (`DESIGN.md` maps harnesses to paper artifacts).
//!
//! This library holds the harness bodies ([`paper`], [`ablation`],
//! [`fig8`], [`trace_report`], [`whatif`], [`farm`], [`arch`],
//! [`systolic`], [`serve`]) and the small shared pieces: table
//! rendering, geometric-mean helpers, the sampled launch most sweeps
//! measure ([`sampled_run`]), the PASS/FAIL [`Checker`] driving the
//! `--check` harnesses, and the synthetic Fig. 1 pattern traces
//! ([`sm_pattern_trace`]).

#![warn(missing_docs)]

pub mod ablation;
pub mod arch;
pub mod cli;
pub mod farm;
pub mod fig8;
pub mod paper;
pub mod serve;
pub mod systolic;
pub mod trace_report;
pub mod whatif;

use std::process::ExitCode;

use kconv_core::{ConvRun, Convolution};
use kconv_replay::ReplayReport;
use kconv_sim::{
    Gpu, GpuSpec, KernelStats, LaneMask, OverlapMode, Parallelism, SimMode, TraceEvent,
    TraceLaunch, TraceOp, TraceSink,
};
use kconv_tensor::{random_filters, random_maps, ConvProblem, CONV_TOL};
use kconv_trace::{SharedBuffer, TraceWriter};

/// Prints one `error:` line to stderr and exits with status 2 — the
/// harnesses' uniform answer to unusable inputs (unreadable or
/// unwritable paths, malformed traces), as [`cli`] answers bad
/// invocations. Never panics, so operator mistakes produce a one-line
/// diagnostic instead of a backtrace.
pub fn bail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Running PASS/FAIL tally for the self-checking harnesses
/// (`trace_report`, `whatif`, `farm`, ...): every check prints one line,
/// and `--check` runs exit non-zero when any failed.
#[derive(Debug, Default)]
pub struct Checker {
    /// Checks recorded so far.
    pub checks: usize,
    /// Checks that failed.
    pub failures: usize,
}

impl Checker {
    /// Records one named check, printing a `PASS`/`FAIL` line.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        self.checks += 1;
        if ok {
            println!("  PASS {name}: {detail}");
        } else {
            self.failures += 1;
            println!("  FAIL {name}: {detail}");
        }
    }

    /// Checks an exact `u64` measurement against its expected value.
    pub fn eq_u64(&mut self, name: &str, measured: u64, expected: u64) {
        self.check(
            name,
            measured == expected,
            &format!("measured {measured}, expected {expected}"),
        );
    }

    /// Checks an exact `f64` measurement against its expected value.
    pub fn eq_f64(&mut self, name: &str, measured: f64, expected: f64) {
        self.check(
            name,
            measured == expected,
            &format!("measured {measured}, expected {expected}"),
        );
    }

    /// The harness's exit status: failure (1) when `check` is set and any
    /// check failed, success otherwise.
    pub fn exit_code(&self, check: bool) -> ExitCode {
        if check && self.failures > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }

    /// Prints the closing `passed/total` summary line.
    pub fn summary(&self) {
        println!(
            "\n{}/{} checks passed{}",
            self.checks - self.failures,
            self.checks,
            if self.failures > 0 {
                " — FAILURES ABOVE"
            } else {
                ""
            }
        );
    }
}

/// One launch of `conv` on a fresh `spec` device, as the paper sweeps
/// measure it: block parallelism from `KCONV_THREADS`, two sampled
/// blocks, over `problem`'s random input and filters seeded with
/// `seeds = [input, filters]`. With `verify`, the executed blocks are
/// checked against the CPU reference.
///
/// # Panics
///
/// Panics when the launch or the verification fails: every harness
/// workload is fixed and known to run.
pub fn sampled_run(
    conv: &dyn Convolution,
    spec: &GpuSpec,
    problem: &ConvProblem,
    seeds: [u64; 2],
    verify: bool,
) -> ConvRun {
    let input = random_maps(problem.channels, problem.height, problem.width, seeds[0]);
    let filters = random_filters(problem.filters, problem.channels, problem.k, seeds[1]);
    let mut gpu = Gpu::new(spec.clone()).with_parallelism(Parallelism::env_or_auto());
    conv.run(&mut gpu, problem, &input, &filters, SimMode::Sampled(2))
        .map_err(|e| e.to_string())
        .and_then(|run| {
            if verify {
                run.verify_executed(problem, &input, &filters, CONV_TOL)?;
            }
            Ok(run)
        })
        .unwrap_or_else(|e| panic!("{} on {}: {e}", conv.name(), spec.name))
}

/// Builds a synthetic one-block KTRC trace of `events` full-mask
/// shared-memory loads with the given per-lane width and byte stride —
/// the paper's Fig. 1 access patterns distilled to their addresses.
pub fn sm_pattern_trace(name: &str, lane_bytes: u32, stride: u64, events: usize) -> Vec<u8> {
    let spec = GpuSpec::kepler_k40m();
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    w.launch_begin(&TraceLaunch {
        kernel: name,
        grid_blocks: 1,
        executed_blocks: 1,
        threads_per_block: 256,
        smem_bytes: 4096,
        regs_per_thread: 32,
        overlap: OverlapMode::Prefetch,
        spec: &spec,
    });
    let event = TraceEvent {
        op: TraceOp::SmLd,
        warp: 0,
        mask: LaneMask::ALL,
        lane_bytes,
        addrs: std::array::from_fn(|lane| lane as u64 * stride),
    };
    w.write_block(0, &vec![event; events]);
    w.launch_end(&KernelStats::default());
    buf.take()
}

/// The header of the [`replay_columns`] table.
pub fn replay_header() -> String {
    format!(
        "{:>12} {:>9} {:>12} {:>10}  bottleneck",
        "sm cycles", "waste", "gm txns", "t (ms)"
    )
}

/// The columns every re-pricing table prints for one replayed launch:
/// SM cycles, SM waste, GM transactions, modeled time and its bottleneck
/// (or why the timing model refused the launch).
pub fn replay_columns(r: &ReplayReport) -> String {
    let (ms, bottleneck) = match r.timing {
        Some(t) => (
            format!("{:.3}", t.t_total * 1e3),
            t.bottleneck().to_string(),
        ),
        None => ("n/a".into(), r.timing_error.clone().unwrap_or_default()),
    };
    format!(
        "{:>12} {:>9.3} {:>12} {ms:>10}  {bottleneck}",
        r.sm_cycles(),
        r.sm_waste(),
        r.gm_transactions(),
    )
}

/// Renders a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a table with a header, separator and rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", row(&head, &widths));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for r in rows {
        println!("{}", row(r, &widths));
    }
}

/// Geometric mean of a slice of ratios.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_mixed() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        geomean(&[]);
    }

    #[test]
    fn row_is_right_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 3]);
        assert_eq!(r, "  a   bb");
    }
}
