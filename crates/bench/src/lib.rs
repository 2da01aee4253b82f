//! # kconv-bench — experiment harnesses for the DAC'17 reproduction
//!
//! One binary per harness (see `DESIGN.md` for the index):
//!
//! | Binary | Harness |
//! |--------|---------|
//! | `fig1_patterns` | Fig. 1 — the shared-memory access-pattern model, numerically |
//! | `fig2_gemm` | Fig. 2 — SGEMM: cuBLAS-like vs MAGMA vs MAGMA-mod |
//! | `fig7_special` | Fig. 7 — special-case convolution vs cuDNN-like |
//! | `special_tune` | §5.1 — special-case tile search ("W = 256, H = 8 is best") |
//! | `table1_tune` | Table 1 — general-case design-space exploration |
//! | `fig8_general` | Fig. 8 — general-case convolution vs cuDNN-like |
//! | `bench_smoke` | CI drift check of the Fig. 8 3×3 layer against `GOLDEN_fig8.json` |
//! | `ablation_unmatched` | Fig. 7b inset — the cost of ignoring the bank-width model |
//! | `ablation_contiguous` | §4.2 — contiguous outputs vs the blocked-GEMM layout |
//! | `ablation_dtype` | §6 — short-data-type bank mismatch |
//! | `ablation_overlap` | prefetch/overlap contribution |
//! | `ablation_arch` | Kepler vs Fermi vs Maxwell-like mismatch penalty |
//! | `winograd_compare` | related work — direct vs Winograd for 3×3 |
//! | `trace_report` | traced traffic vs the analytical model, plus the replay gate |
//! | `whatif` | one capture re-priced under every preset (eq. 1 both ways) |
//! | `farm` | the replay farm: corpus × spec-grid sweep, `BENCH_farm.json` |
//! | `arch` | the architecture-adaptive generator's gates, `BENCH_arch.json` |
//! | `systolic` | the double-buffered pipeline's gates, `BENCH_systolic.json` |
//! | `serve` | the serving chaos harness, `BENCH_serve.json` |
//! | `debug_timing` | developer utility: per-engine timing breakdown |
//!
//! This library holds the small shared pieces: table rendering,
//! geometric-mean helpers, the PASS/FAIL [`Checker`] driving the
//! `--check` harnesses, the synthetic Fig. 1 pattern traces
//! ([`sm_pattern_trace`]), and the harness bodies ([`farm`], [`arch`],
//! [`systolic`], [`serve`], [`fig8`]).

#![warn(missing_docs)]

pub mod arch;
pub mod farm;
pub mod fig8;
pub mod serve;
pub mod systolic;

use kconv_sim::{
    GpuSpec, KernelStats, LaneMask, OverlapMode, TraceEvent, TraceLaunch, TraceOp, TraceSink,
};
use kconv_trace::{SharedBuffer, TraceWriter};

/// Prints one `error:` line to stderr and exits with status 2 — the
/// harness binaries' uniform answer to bad invocations and unusable
/// inputs (unknown flags or presets, unreadable paths, malformed
/// traces). Never panics, so operator mistakes produce a one-line
/// diagnostic instead of a backtrace.
pub fn bail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Rejects unrecognized command-line arguments: every argument must be
/// listed in `allowed` (flags taking a value name the value slot via
/// `takes_value`). Calls [`bail`] with a usage line on the first unknown.
pub fn reject_unknown_args(bin: &str, allowed: &[(&str, bool)]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match allowed.iter().find(|(name, _)| *name == arg) {
            Some((_, takes_value)) => i += 1 + usize::from(*takes_value),
            None => {
                let usage: Vec<String> = allowed
                    .iter()
                    .map(|(name, takes_value)| {
                        if *takes_value {
                            format!("[{name} <value>]")
                        } else {
                            format!("[{name}]")
                        }
                    })
                    .collect();
                bail(&format!(
                    "unknown argument {arg:?} (usage: {bin} {})",
                    usage.join(" ")
                ));
            }
        }
    }
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
        transactions: 0,
        cycles: 1,
        addrs: std::array::from_fn(|lane| lane as u64 * stride),
    };
    w.block_events(0, &vec![event; events]);
    w.launch_end(&KernelStats::default());
    buf.take()
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
