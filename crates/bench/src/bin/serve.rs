//! Serving chaos harness: mixed Table-1 workload through the resilient
//! serving layer, chaos off vs. on, with invariant checks.
//!
//! Proves the resilience policies on a seeded chaos plan (device faults,
//! latency spikes, malformed requests): every request reaches exactly one
//! terminal state, clean requests are bit-identical chaos-on vs. off, the
//! circuit breaker trips and recovers, poisoned batches re-enqueue their
//! batchmates, and admission control sheds bursts with typed errors.
//!
//! Usage:
//!   cargo run --release -p kconv-bench --bin serve            # report
//!   cargo run --release -p kconv-bench --bin serve -- --check # exit 1 on FAIL
//!
//! Writes `BENCH_serve.json` to the workspace root either way.

fn main() {
    kconv_bench::reject_unknown_args("serve", &[("--check", false)]);
    let check = std::env::args().any(|a| a == "--check");
    // Best of 5 per side: one 16-request run takes tens of milliseconds,
    // so a single timing mostly measures the process's first-run warm-up.
    let c = kconv_bench::serve::run(5);
    if check && c.failures > 0 {
        std::process::exit(1);
    }
}
