//! The replay farm: a corpus of KTRC captures swept over a spec grid.
//!
//! One simulated run per kernel/shape/dtype is captured as a binary KTRC
//! trace; everything after that is trace-driven. Each trace is decoded
//! **once** into [`Trace`] slabs and re-priced under every cell of a
//! Kepler-anchored [`GpuSpec`] grid (bank width × line size × read-only
//! cache size × SM count) by [`kconv_replay::sweep`], fanning the
//! trace×spec cells over a scoped thread pool. The output — per-cell
//! counters, modeled time and bandwidth-waste factors — is the paper's
//! what-if analysis at corpus scale: `BENCH_farm.json` is a small Pareto
//! surface of architectures over the paper's kernels.
//!
//! [`run`] times each phase best of three, writes `BENCH_farm.json` to
//! the workspace root, and under `--check` exits 1 on any FAIL. It
//! self-checks:
//!
//! * replaying each capture under its own spec reproduces the live
//!   launch's `KernelStats` and timing bit for bit;
//! * the serial and threaded sweeps produce bit-identical cells in the
//!   same deterministic `(trace, spec, launch)` order;
//! * the fused sweep, which walks each launch once for the whole grid,
//!   prices every cell exactly as a one-spec `replay_decoded` per spec;
//! * the decode-once path prices every cell exactly as the
//!   byte-stream path that re-decodes per spec — while decoding each
//!   trace `1` time instead of `specs.len()` times.

use std::process::ExitCode;
use std::time::Instant;

use kconv_core::{
    Convolution, GeneralConfig, GeneralConv, GeneralConvStrided, ImplicitGemmConv, SpecialConfig,
    SpecialConv, Storage,
};
use kconv_replay::{replay, replay_decoded, sweep, SweepCell, TargetSpec};
use kconv_sim::mem::lanes;
use kconv_sim::{BankWidth, Gpu, GpuSpec, LaunchReport, Parallelism, SanitizerMode, SimMode};
use kconv_systolic::{PipelineConfig, SystolicConv};
use kconv_tensor::{random_filters, random_maps, ConvProblem};
use kconv_trace::Trace;

use crate::cli::Args;
use crate::{fig8, Checker};

/// Input seed shared by every corpus capture.
pub const INPUT_SEED: u64 = 211;
/// Filter seed shared by every corpus capture.
pub const FILTER_SEED: u64 = 223;

/// One corpus member: a kernel and the problem it runs on.
pub struct CorpusEntry {
    /// Stable short name (keys the JSON rows).
    pub name: &'static str,
    /// The kernel under capture.
    pub conv: Box<dyn Convolution>,
    /// The layer shape it runs.
    pub problem: ConvProblem,
}

impl std::fmt::Debug for CorpusEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusEntry")
            .field("name", &self.name)
            .field("problem", &self.problem)
            .finish_non_exhaustive()
    }
}

/// The farm's capture corpus: the paper's kernels across filter sizes
/// (K ∈ {3, 5, 7}), layouts (blocked vs strided outputs), algorithms
/// (direct vs implicit GEMM) and data types (f32, fp16, int8). Shapes are
/// kept small — the value of a trace corpus is breadth, not grid size.
pub fn corpus() -> Vec<CorpusEntry> {
    fn entry(name: &'static str, conv: Box<dyn Convolution>, problem: ConvProblem) -> CorpusEntry {
        CorpusEntry {
            name,
            conv,
            problem,
        }
    }
    vec![
        entry(
            "special-3x3",
            Box::new(SpecialConv::default()),
            ConvProblem::special(130, 16, 3),
        ),
        entry(
            "special-5x5",
            Box::new(SpecialConv::default()),
            ConvProblem::special(130, 16, 5),
        ),
        entry(
            "special-7x7",
            Box::new(SpecialConv::default()),
            ConvProblem::special(130, 16, 7),
        ),
        entry(
            "general-3x3",
            Box::new(GeneralConv::table1(3)),
            ConvProblem::general(34, 4, 64, 3),
        ),
        entry(
            "general-5x5",
            Box::new(GeneralConv::table1(5)),
            ConvProblem::general(36, 4, 32, 5),
        ),
        entry(
            "general-7x7",
            Box::new(GeneralConv::table1(7)),
            ConvProblem::general(38, 2, 32, 7),
        ),
        entry(
            "general-3x3-strided",
            Box::new(GeneralConvStrided::new(GeneralConfig::table1(3))),
            ConvProblem::general(34, 4, 64, 3),
        ),
        entry(
            "implicit-gemm-3x3",
            Box::new(ImplicitGemmConv::default()),
            ConvProblem::general(34, 4, 64, 3),
        ),
        entry(
            "special-3x3-fp16",
            Box::new(SpecialConv::with_storage(Storage::F16, 4)),
            ConvProblem::special(66, 16, 3),
        ),
        entry(
            "special-3x3-int8",
            Box::new(SpecialConv::with_storage(Storage::I8, 8)),
            ConvProblem::special(66, 16, 3),
        ),
        // The generator's (kconv-arch) outputs, appended after the
        // original ten so their captures stay byte-stable: the scalar
        // f32 variant derived for 4-byte-bank parts, and the half2
        // fp16 variant. Swept over the grid they flip roles with the
        // hard-wired Kepler entries — matched on the 4B cells, the
        // mismatch case on the 8B cells.
        entry(
            "special-3x3-n1",
            Box::new(SpecialConv::new(SpecialConfig::with_vec_width(1))),
            ConvProblem::special(130, 16, 3),
        ),
        entry(
            "special-3x3-half2",
            Box::new(SpecialConv::with_storage(Storage::Half2, 2)),
            ConvProblem::special(66, 16, 3),
        ),
        // The systolic pipeline's captures, appended after the original
        // twelve so every earlier capture stays byte-stable: the
        // double-buffered (depth 2) schedule on the dense anchor, and
        // the same pipeline over the extended workload matrix (strided
        // and depthwise). Their traces carry Bar events, so the
        // sweep also prices barrier-bound launches across the grid.
        entry(
            "systolic-3x3-d2",
            Box::new(SystolicConv::new(PipelineConfig::matched_for(
                &GpuSpec::kepler_k40m(),
            ))),
            ConvProblem::general(34, 8, 8, 3),
        ),
        entry(
            "systolic-3x3-strided",
            Box::new(SystolicConv::new(PipelineConfig::matched_for(
                &GpuSpec::kepler_k40m(),
            ))),
            ConvProblem::general(34, 8, 8, 3).with_stride(2),
        ),
        entry(
            "systolic-3x3-depthwise",
            Box::new(SystolicConv::new(PipelineConfig::matched_for(
                &GpuSpec::kepler_k40m(),
            ))),
            ConvProblem::general(34, 8, 8, 3).depthwise(),
        ),
    ]
}

/// One captured corpus member: the KTRC bytes plus the live report they
/// must replay back to.
#[derive(Debug)]
pub struct Capture {
    /// Corpus entry name.
    pub name: &'static str,
    /// The kernel's self-reported name.
    pub kernel: String,
    /// The raw KTRC byte stream.
    pub bytes: Vec<u8>,
    /// The live launch the trace was captured from.
    pub live: LaunchReport,
}

/// Runs every corpus entry once on the capture spec (Kepler K40m) with a
/// trace writer attached.
pub fn capture_corpus() -> Vec<Capture> {
    corpus()
        .into_iter()
        .map(|e| {
            let input = random_maps(
                e.problem.channels,
                e.problem.height,
                e.problem.width,
                INPUT_SEED,
            );
            // `channels_per_group` collapses to `channels` on every dense
            // entry, so the original captures' filter bytes are unchanged;
            // the depthwise entry gets its one-channel-per-group filters.
            let filters = random_filters(
                e.problem.filters,
                e.problem.channels_per_group(),
                e.problem.k,
                FILTER_SEED,
            );
            let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_sanitizer(SanitizerMode::Off);
            let (run, bytes) = kconv_trace::capture(&mut gpu, |gpu| {
                e.conv.run(gpu, &e.problem, &input, &filters, SimMode::Full)
            });
            let run = run.unwrap_or_else(|err| panic!("corpus entry {} runs: {err}", e.name));
            Capture {
                name: e.name,
                kernel: e.conv.name(),
                bytes,
                live: run.report,
            }
        })
        .collect()
}

/// The farm's what-if grid: the Kepler anchor with every combination of
/// bank width (4 B vs 8 B), load-line size (64 B vs 128 B), read-only
/// cache capacity (24 KiB vs 48 KiB) and SM count (8 vs the K40m's 15) —
/// 16 specs in the deterministic nested order `SpecGrid` guarantees.
pub fn spec_grid() -> Vec<GpuSpec> {
    GpuSpec::kepler_k40m()
        .grid()
        .bank_widths(&[BankWidth::B4, BankWidth::B8])
        .line_sizes(&[64, 128])
        .ro_cache_bytes(&[24 * 1024, 48 * 1024])
        .sm_counts(&[8, 15])
        .build()
        .expect("farm grid axes are valid")
}

/// Cells priced per wall-clock second, the farm's throughput unit.
fn cells_per_s(cells: usize, seconds: f64) -> f64 {
    cells as f64 / seconds.max(1e-12)
}

/// Renders one sweep cell as a JSON object line.
fn cell_json(captures: &[Capture], specs: &[GpuSpec], cell: &SweepCell, last: bool) -> String {
    let spec = &specs[cell.spec];
    let axes = format!(
        "\"trace\": \"{}\", \"launch\": {}, \"bank_bytes\": {}, \"line_bytes\": {}, \"ro_cache_bytes\": {}, \"sm_count\": {}",
        captures[cell.trace].name,
        cell.launch,
        spec.bank_width.bytes(),
        spec.gm_transaction_bytes,
        spec.ro_cache_bytes,
        spec.sm_count,
    );
    let body = match &cell.report {
        Ok(r) => {
            let gm_useful = r.stats.gm_ld_bytes_useful + r.stats.gm_st_bytes_useful;
            let gm_bus = r.stats.gm_ld_bytes_bus + r.stats.gm_st_bytes_bus;
            let gm_waste = if gm_useful == 0 {
                0.0
            } else {
                gm_bus as f64 / gm_useful as f64
            };
            format!(
                "\"sm_cycles\": {}, \"sm_waste\": {:.6}, \"gm_transactions\": {}, \"gm_waste\": {:.6}, \"ro_hits\": {}, \"t_total_ms\": {}, \"bottleneck\": \"{}\"",
                r.sm_cycles(),
                r.sm_waste(),
                r.gm_transactions(),
                gm_waste,
                r.stats.gm_ro_hits,
                r.timing
                    .map_or("null".into(), |t| format!("{:.6}", t.t_total * 1e3)),
                r.timing.map_or("", |t| t.bottleneck()),
            )
        }
        Err(e) => format!("\"error\": \"{e}\""),
    };
    format!("    {{{axes}, {body}}}{}\n", if last { "" } else { "," })
}

/// Checks that two sweeps produced bit-identical cells in the same order.
fn sweeps_identical(a: &[SweepCell], b: &[SweepCell]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.trace, x.spec, x.launch) == (y.trace, y.spec, y.launch)
                && match (&x.report, &y.report) {
                    (Ok(rx), Ok(ry)) => rx == ry,
                    _ => false,
                }
        })
}

/// How many times [`run`] repeats each timed phase (best-of).
const ITERS: usize = 3;

/// Captures the corpus, sweeps it over [`spec_grid`], runs every
/// self-check, and writes `BENCH_farm.json` to the workspace root, each
/// timed phase best of `ITERS`.
pub fn run(args: &Args) -> ExitCode {
    let mut c = Checker::default();

    // --- Capture: one live run per corpus entry, trace attached ---
    let captures = capture_corpus();
    let corpus_bytes: usize = captures.iter().map(|cap| cap.bytes.len()).sum();
    println!(
        "farm — {} captures, {} B of KTRC traces",
        captures.len(),
        corpus_bytes
    );
    for cap in &captures {
        println!(
            "  {:<22} {:<28} {:>9} B",
            cap.name,
            cap.kernel,
            cap.bytes.len()
        );
    }

    // --- Gate: decode-once replay under the capture spec == live ---
    println!("\n[gate] replay(capture spec) must equal the live launch, bit for bit");
    let t0 = Instant::now();
    let traces: Vec<Trace> = captures
        .iter()
        .map(|cap| Trace::decode(&cap.bytes).expect("corpus trace decodes"))
        .collect();
    let decode_s = t0.elapsed().as_secs_f64();
    for (cap, trace) in captures.iter().zip(&traces) {
        let reports = replay_decoded(trace, &TargetSpec::Capture).expect("capture spec embedded");
        let ok = reports.len() == 1
            && reports[0].stats == cap.live.stats
            && reports[0].timing == Some(cap.live.timing);
        c.check(
            &format!("{}: replay(capture) == live", cap.name),
            ok,
            "KernelStats + timing, bit-exact",
        );
    }

    // --- Sweep: every trace × every grid spec, serial then threaded ---
    let specs = spec_grid();
    // A 1-core host degrades `env_or_auto` to one worker, which would turn
    // the serial ≡ threaded check into a tautology — so the threaded sweep
    // always runs at least two workers. Its wall time is only a scaling
    // measurement when `valid_scaling` below says so.
    let threads = Parallelism::env_or_auto().worker_threads().max(2);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let valid_scaling = host_cores >= 2;
    let mut serial_s = f64::INFINITY;
    let mut threaded_s = f64::INFINITY;
    let mut cells = Vec::new();
    for _ in 0..ITERS {
        let t0 = Instant::now();
        cells = sweep(&traces, &specs, Parallelism::Serial);
        serial_s = serial_s.min(t0.elapsed().as_secs_f64());
    }
    let mut threaded = Vec::new();
    for _ in 0..ITERS {
        let t0 = Instant::now();
        threaded = sweep(&traces, &specs, Parallelism::Threads(threads));
        threaded_s = threaded_s.min(t0.elapsed().as_secs_f64());
    }
    // The one-spec reference: every (trace, spec) replayed on its own, in
    // the sweep's (trace, spec, launch) order.
    let mut per_spec_s = f64::INFINITY;
    let mut per_spec = Vec::new();
    for _ in 0..ITERS {
        let t0 = Instant::now();
        per_spec = traces
            .iter()
            .flat_map(|trace| {
                specs.iter().flat_map(|s| {
                    replay_decoded(trace, &TargetSpec::Spec(s.clone()))
                        .expect("explicit spec replays")
                })
            })
            .collect::<Vec<_>>();
        per_spec_s = per_spec_s.min(t0.elapsed().as_secs_f64());
    }
    println!(
        "\n[sweep] {} traces × {} specs = {} cells",
        traces.len(),
        specs.len(),
        cells.len()
    );
    println!(
        "  serial:               {serial_s:.3} s  ({:.0} cells/s)",
        cells_per_s(cells.len(), serial_s)
    );
    println!(
        "  threaded ({threads} workers):  {threaded_s:.3} s  ({:.0} cells/s)",
        cells_per_s(threaded.len(), threaded_s)
    );
    println!(
        "  per-spec serial:      {per_spec_s:.3} s  ({:.0} cells/s, one walk per cell)",
        cells_per_s(per_spec.len(), per_spec_s)
    );
    if !valid_scaling {
        println!(
            "  NOTE: only {host_cores} host core(s) — the wall-clock ratio measures \
             scheduler noise, not scaling (valid_scaling: false)"
        );
    }
    let launches: usize = traces.iter().map(|t| t.launches().len()).sum();
    c.eq_u64(
        "sweep covers every (trace, spec, launch) cell",
        cells.len() as u64,
        (launches * specs.len()) as u64,
    );
    c.check(
        "serial and threaded sweeps bit-identical",
        sweeps_identical(&cells, &threaded),
        &format!("{} cells, {threads} workers", cells.len()),
    );
    c.check(
        "fused sweep prices every cell exactly as per-spec replay_decoded",
        cells.len() == per_spec.len()
            && cells
                .iter()
                .zip(&per_spec)
                .all(|(cell, r)| cell.report.as_ref().is_ok_and(|p| p == r)),
        &format!("{} cells compared", per_spec.len()),
    );
    c.check(
        "every cell priced",
        cells.iter().all(|cell| cell.report.is_ok()),
        "no replay errors across the grid",
    );

    // --- Decode-once amortization: byte path re-decodes per spec ---
    let mut byte_s = f64::INFINITY;
    let mut decoded_s = f64::INFINITY;
    let mut byte_reports = Vec::new();
    let mut decoded_reports = Vec::new();
    for _ in 0..ITERS {
        let t0 = Instant::now();
        byte_reports = captures
            .iter()
            .flat_map(|cap| {
                specs.iter().map(|s| {
                    replay(&cap.bytes, &TargetSpec::Spec(s.clone())).expect("byte path replays")
                })
            })
            .collect();
        byte_s = byte_s.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        decoded_reports = captures
            .iter()
            .flat_map(|cap| {
                let trace = Trace::decode(&cap.bytes).expect("corpus trace decodes");
                specs
                    .iter()
                    .map(|s| {
                        replay_decoded(&trace, &TargetSpec::Spec(s.clone()))
                            .expect("decoded path replays")
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        decoded_s = decoded_s.min(t0.elapsed().as_secs_f64());
    }
    let speedup = byte_s / decoded_s;
    println!(
        "\n[decode-once] {} replays across the grid, best of {ITERS}",
        byte_reports.len()
    );
    println!(
        "  decode per spec:      {byte_s:.3} s  ({:.0} replays/s)",
        cells_per_s(byte_reports.len(), byte_s)
    );
    println!(
        "  decode once:          {decoded_s:.3} s  ({:.0} replays/s)",
        cells_per_s(decoded_reports.len(), decoded_s)
    );
    println!(
        "  speedup:              {speedup:.2}x (one-time decode of the corpus: {decode_s:.3} s)"
    );
    c.check(
        "decode-once path prices exactly as the byte path",
        byte_reports == decoded_reports,
        &format!("{} replays compared", byte_reports.len()),
    );

    // --- JSON artifact ---
    let mut corpus_json = String::new();
    for (i, cap) in captures.iter().enumerate() {
        corpus_json.push_str(&format!(
            "    {{\"name\": \"{}\", \"kernel\": \"{}\", \"trace_bytes\": {}, \"launches\": {}}}{}\n",
            cap.name,
            cap.kernel,
            cap.bytes.len(),
            traces[i].launches().len(),
            if i + 1 < captures.len() { "," } else { "" },
        ));
    }
    let mut cells_json = String::new();
    for (i, cell) in cells.iter().enumerate() {
        cells_json.push_str(&cell_json(&captures, &specs, cell, i + 1 == cells.len()));
    }
    let json = format!(
        "{{\n  \"bench\": \"replay_farm\",\n  \"corpus_trace_bytes\": {corpus_bytes},\n  \"grid_specs\": {},\n  \"corpus\": [\n{corpus_json}  ],\n  \"cells\": [\n{cells_json}  ],\n  \"sweep\": {{\"serial_seconds\": {serial_s:.6}, \"threaded_seconds\": {threaded_s:.6}, \"per_spec_serial_seconds\": {per_spec_s:.6}, \"threads\": {threads}, \"bit_identical\": {}}},\n  \"decode_once\": {{\"decode_per_spec_seconds\": {byte_s:.6}, \"decode_once_seconds\": {decoded_s:.6}, \"speedup\": {speedup:.4}, \"corpus_decode_seconds\": {decode_s:.6}}},\n  \"lane_backend\": \"{}\",\n  \"host_cores\": {host_cores},\n  \"valid_scaling\": {valid_scaling},\n  \"iters\": {ITERS},\n  \"checks\": {},\n  \"failures\": {}\n}}\n",
        specs.len(),
        sweeps_identical(&cells, &threaded),
        lanes::active().name(),
        c.checks,
        c.failures,
    );
    let path = fig8::workspace_file("BENCH_farm.json");
    if let Err(e) = std::fs::write(&path, &json) {
        c.check("BENCH_farm.json written", false, &format!("{path}: {e}"));
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
    fn grid_is_sixteen_kepler_anchored_specs() {
        let specs = spec_grid();
        assert_eq!(specs.len(), 16);
        assert!(specs.iter().all(|s| s.name == "Kepler K40m"));
        // Every axis actually varies across the grid.
        for f in [
            |s: &GpuSpec| s.bank_width.bytes(),
            |s: &GpuSpec| s.gm_transaction_bytes,
            |s: &GpuSpec| s.ro_cache_bytes,
            |s: &GpuSpec| s.sm_count as u64,
        ] {
            let first = f(&specs[0]);
            assert!(specs.iter().any(|s| f(s) != first));
        }
    }

    #[test]
    fn grid_specs_survive_a_trace_round_trip() {
        use kconv_sim::TraceSink;
        for spec in spec_grid() {
            let buf = kconv_trace::SharedBuffer::new();
            let mut w = kconv_trace::TraceWriter::new(buf.clone());
            w.launch_begin(&kconv_sim::TraceLaunch {
                kernel: "grid",
                grid_blocks: 1,
                executed_blocks: 1,
                threads_per_block: 32,
                smem_bytes: 0,
                regs_per_thread: 16,
                overlap: kconv_sim::OverlapMode::Prefetch,
                spec: &spec,
            });
            w.launch_end(&kconv_sim::KernelStats::default());
            drop(w);
            let trace = Trace::decode(&buf.take()).expect("grid spec decodes");
            assert_eq!(trace.launches()[0].header.spec, spec);
        }
    }

    #[test]
    fn corpus_covers_kernels_shapes_and_dtypes() {
        let entries = corpus();
        assert!(entries.len() >= 15);
        let names: Vec<_> = entries.iter().map(|e| e.name).collect();
        for required in [
            "special-5x5",
            "special-7x7",
            "general-3x3-strided",
            "implicit-gemm-3x3",
            "special-3x3-fp16",
            "special-3x3-int8",
            "special-3x3-n1",
            "special-3x3-half2",
            "systolic-3x3-d2",
            "systolic-3x3-strided",
            "systolic-3x3-depthwise",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        // The corpus is append-only: the systolic entries land after the
        // original twelve, so every earlier capture stays byte-stable
        // across releases.
        for (i, required) in [
            "special-3x3",
            "special-5x5",
            "special-7x7",
            "general-3x3",
            "general-5x5",
            "general-7x7",
            "general-3x3-strided",
            "implicit-gemm-3x3",
            "special-3x3-fp16",
            "special-3x3-int8",
            "special-3x3-n1",
            "special-3x3-half2",
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(names[i], *required, "corpus prefix reordered at {i}");
        }
        // The appended entries exercise the extended workload matrix.
        assert!(entries.iter().any(|e| e.problem.stride > 1));
        assert!(entries.iter().any(|e| e.problem.depthwise));
        // Names are unique: they key the JSON rows.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
