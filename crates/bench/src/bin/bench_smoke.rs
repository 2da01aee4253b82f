//! CI smoke check: one serial iteration of the Fig. 8 general-case 3x3
//! layer, with every `KernelStats` counter compared against the checked-in
//! golden values in `GOLDEN_fig8.json`.
//!
//! The hot-path data structures (paged write journal, constant-line bitmap,
//! stack-array dedup) are justified by being *bit-identical* to the naive
//! models they replaced; this binary is the tripwire that keeps them honest
//! on the real workload. Any counter drift fails the run with a field-level
//! diff. The workload, the canonical JSON rendering and the golden path all
//! come from [`kconv_bench::fig8`], shared with `whatif` and
//! `trace_report`.
//!
//! Usage:
//!   cargo run --release -p kconv-bench --bin bench_smoke            # verify
//!   cargo run --release -p kconv-bench --bin bench_smoke -- --write # re-bless
//!
//! `--write` regenerates the golden file; only do that when a modeling
//! change (not an optimization) intentionally moves the counters.

use kconv_bench::fig8;
use kconv_core::Convolution;
use kconv_sim::{Gpu, GpuSpec, Parallelism, SanitizerMode, SimMode};

fn main() {
    let write = std::env::args().any(|a| a == "--write");

    let (problem, input, filters) = fig8::workload();
    let mut gpu = Gpu::new(GpuSpec::kepler_k40m())
        .with_parallelism(Parallelism::Serial)
        .with_sanitizer(SanitizerMode::Off);
    let run = fig8::conv()
        .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
        .expect("fig8 layer launches");
    let current = fig8::stats_json(&run.report.stats);

    let path = fig8::workspace_file("GOLDEN_fig8.json");
    if write {
        std::fs::write(&path, &current).expect("write GOLDEN_fig8.json");
        println!("wrote {path}");
        return;
    }

    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run with --write to create it)"));
    if golden == current {
        println!("bench_smoke: all fig8 counters match {path}");
        return;
    }
    eprintln!("bench_smoke: counter drift against {path}");
    fig8::print_json_diff(&golden, &current);
    std::process::exit(1);
}
