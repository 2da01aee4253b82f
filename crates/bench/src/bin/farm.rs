//! Replay farm harness: decode-once corpus replay over a spec grid.
//!
//! Captures the farm corpus (the paper's kernels across filter sizes,
//! layouts, algorithms and data types — see `kconv_bench::farm::corpus`),
//! decodes each KTRC trace once, and re-prices every trace under a
//! 16-spec Kepler-anchored what-if grid on a scoped thread pool. Checks:
//!
//! * replay under the capture spec reproduces each live launch bit for
//!   bit (stats + timing);
//! * the serial and threaded sweeps produce bit-identical cells in
//!   deterministic `(trace, spec, launch)` order;
//! * the fused sweep prices every cell exactly as a one-spec
//!   `replay_decoded` per spec;
//! * the decode-once path prices every cell exactly as the byte path
//!   that re-decodes the stream per spec.
//!
//! Usage:
//!   cargo run --release -p kconv-bench --bin farm            # report
//!   cargo run --release -p kconv-bench --bin farm -- --check # exit 1 on FAIL
//!
//! Writes `BENCH_farm.json` to the workspace root either way.

fn main() {
    kconv_bench::reject_unknown_args("farm", &[("--check", false)]);
    let check = std::env::args().any(|a| a == "--check");
    let c = kconv_bench::farm::run();
    if check && c.failures > 0 {
        std::process::exit(1);
    }
}
