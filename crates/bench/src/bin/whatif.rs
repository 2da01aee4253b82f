//! What-if replay: re-price the captured Fig. 8 kernel under other GPUs.
//!
//! Captures one KTRC trace of the Fig. 8 general 3x3 layer on the Kepler
//! K40m spec, then uses `kconv-replay` to answer two questions without
//! ever re-running the kernel:
//!
//! 1. **Differential gate** — replaying the trace under its own capture
//!    spec must reproduce the live launch's `KernelStats` and timing bit
//!    for bit, for both the serial and `Threads(4)` captures (whose byte
//!    streams must themselves be identical). This proves the replay
//!    engine charges with exactly the live pricing functions.
//! 2. **Spec sweep** — the same trace re-priced under every preset
//!    ([`GpuSpec::presets_all`]): coalesced GM transactions, SM conflict
//!    cycles, bandwidth waste and modeled time per architecture, with
//!    drift guards against embedded expected values. The KTRC byte
//!    stream is decoded **once** into [`Trace`] slabs; the gate and the
//!    preset sweep ([`kconv_replay::sweep`], one walk over the slabs for
//!    all presets) re-price the same decoded form.
//!
//! A second, synthetic pair of traces isolates the paper's eq. 1 claim:
//! full-warp unvectorized `float` loads (stride 4 B) replayed on 8-byte
//! banks waste exactly the mismatch factor `n = W_SMB / W_CD = 2` of the
//! SM bandwidth, and the waste vanishes (1.0) on 4-byte banks; the
//! `float2` pattern (stride 8 B) is matched on both, trading exactly 2x
//! the replay cycles on 4-byte banks.
//!
//! A closing section runs eq. 1 the other way: the vector factor
//! [`KernelShape::derive_n`] derives for `f32` on each preset must equal
//! the mismatch factor the scalar-float pattern *measures* on that
//! preset — the generator (`kconv-arch`) and the replay engine agree on
//! the same formula from opposite directions.
//!
//! Usage:
//!   cargo run --release -p kconv-bench --bin whatif            # report
//!   cargo run --release -p kconv-bench --bin whatif -- --check # exit 1 on FAIL
//!
//! Writes `BENCH_whatif.json` to the workspace root either way.

use kconv_bench::{fig8, sm_pattern_trace, Checker};
use kconv_core::{Convolution, DataType, KernelShape};
use kconv_replay::{replay_decoded, sweep, ReplayReport, TargetSpec};
use kconv_sim::{Gpu, GpuSpec, LaunchReport, Parallelism, SanitizerMode, SimMode};
use kconv_trace::{SharedBuffer, Trace, TraceWriter};

/// Expected replayed SM cycles (ld + st) of the Fig. 8 trace per sweep
/// preset (keyed by `GpuSpec::name`) — drift guards for `--check`. These
/// move only when the kernel, the workload seeds, or the bank-conflict
/// model change.
const EXPECT_SM_CYCLES: [(&str, u64); 4] = [
    ("Kepler K40m", 450_560),
    ("Kepler K40m (4B banks)", 602_112),
    ("Fermi M2090", 602_112),
    ("Maxwell-like", 602_112),
];

/// Expected replayed GM transactions (ld + st) per sweep preset. All four
/// presets share 128 B load / 32 B store segments, so the capture's
/// coalescing carries over unchanged.
const EXPECT_GM_TRANSACTIONS: [(&str, u64); 4] = [
    ("Kepler K40m", 293_888),
    ("Kepler K40m (4B banks)", 293_888),
    ("Fermi M2090", 293_888),
    ("Maxwell-like", 293_888),
];

/// Runs the Fig. 8 workload with a trace writer attached.
fn captured_fig8(parallelism: Parallelism) -> (LaunchReport, Vec<u8>) {
    let (problem, input, filters) = fig8::workload();
    let mut gpu = Gpu::new(GpuSpec::kepler_k40m())
        .with_parallelism(parallelism)
        .with_sanitizer(SanitizerMode::Off);
    let buf = SharedBuffer::new();
    gpu.set_trace_sink(Some(Box::new(TraceWriter::new(buf.clone()))));
    let run = fig8::conv()
        .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
        .expect("fig8 workload runs");
    gpu.set_trace_sink(None);
    (run.report, buf.take())
}

/// One sweep row rendered for the report and the JSON file.
struct Row {
    spec_name: String,
    bank_bytes: u64,
    report: ReplayReport,
}

fn sweep_fig8(trace: &Trace) -> Vec<Row> {
    let specs = GpuSpec::presets_all();
    sweep(std::slice::from_ref(trace), &specs, Parallelism::Serial)
        .into_iter()
        .map(|cell| {
            let spec = &specs[cell.spec];
            Row {
                spec_name: spec.name.to_string(),
                bank_bytes: spec.bank_width.bytes(),
                report: cell.report.expect("fig8 trace replays"),
            }
        })
        .collect()
}

fn expect_for(table: &[(&str, u64)], name: &str) -> u64 {
    table
        .iter()
        .find(|(a, _)| *a == name)
        .map(|(_, v)| *v)
        .expect("preset name in expectation table")
}

fn main() {
    kconv_bench::reject_unknown_args("whatif", &[("--check", false)]);
    let check = std::env::args().any(|a| a == "--check");
    println!(
        "whatif — trace-driven replay of the Fig. 8 layer under {} target specs",
        GpuSpec::presets_all().len()
    );
    let mut c = Checker::default();

    // --- Differential gate: replay(capture spec) == live, bit for bit ---
    let (live, bytes) = captured_fig8(Parallelism::Serial);
    let (live_par, bytes_par) = captured_fig8(Parallelism::Threads(4));
    println!("\n[gate] capture: {} B of KTRC trace", bytes.len());
    c.check(
        "serial and threaded captures byte-identical",
        bytes == bytes_par,
        &format!("{} B each", bytes.len()),
    );
    c.check(
        "serial and threaded live stats bit-identical",
        live.stats == live_par.stats,
        "KernelStats compared field-wise",
    );
    // Decode the byte stream exactly once; the gate and every sweep
    // preset re-price the same decoded slabs.
    let trace = Trace::decode(&bytes).expect("fig8 trace decodes");
    let under_capture = &replay_decoded(&trace, &TargetSpec::Capture).expect("replayable")[0];
    c.check(
        "replay(capture spec) == live KernelStats",
        under_capture.stats == live.stats,
        "all 23 counters + histogram, bit-exact",
    );
    c.check(
        "replay(capture spec) == live timing",
        under_capture.timing == Some(live.timing),
        &format!(
            "replayed {:.3} ms",
            under_capture.timing.map_or(f64::NAN, |t| t.t_total * 1e3)
        ),
    );

    // --- Spec sweep over the same decoded trace ---
    let rows = sweep_fig8(&trace);
    println!(
        "\n[sweep] fig8 general 3x3, one capture, {} re-pricings",
        rows.len()
    );
    println!(
        "  {:<22} {:>5} {:>12} {:>9} {:>12} {:>10}  bottleneck",
        "spec", "bank", "sm cycles", "waste", "gm txns", "t (ms)"
    );
    for row in &rows {
        let r = &row.report;
        println!(
            "  {:<22} {:>4}B {:>12} {:>9.3} {:>12} {:>10}  {}",
            row.spec_name,
            row.bank_bytes,
            r.sm_cycles(),
            r.sm_waste(),
            r.gm_transactions(),
            r.timing
                .map_or("n/a".into(), |t| format!("{:.3}", t.t_total * 1e3)),
            r.timing.map_or_else(
                || r.timing_error.clone().unwrap_or_default(),
                |t| t.bottleneck().to_string()
            ),
        );
    }
    for row in &rows {
        let name = row.spec_name.as_str();
        let r = &row.report;
        c.eq_u64(
            &format!("{name}: replayed SM cycles match expectation"),
            r.sm_cycles(),
            expect_for(&EXPECT_SM_CYCLES, name),
        );
        c.eq_u64(
            &format!("{name}: replayed GM transactions match expectation"),
            r.gm_transactions(),
            expect_for(&EXPECT_GM_TRANSACTIONS, name),
        );
        // Useful bytes are trace facts, invariant under any target spec.
        c.check(
            &format!("{name}: useful bytes invariant"),
            r.stats.sm_bytes_useful == live.stats.sm_bytes_useful
                && r.stats.gm_ld_bytes_useful == live.stats.gm_ld_bytes_useful
                && r.stats.gm_st_bytes_useful == live.stats.gm_st_bytes_useful,
            "sm/gm.ld/gm.st useful bytes equal the capture's",
        );
    }

    // --- Synthetic patterns: the eq. 1 mismatch factor, exactly ---
    println!("\n[patterns] full-warp SmLd, 10 events each; waste = moved/useful bytes");
    let b8 = TargetSpec::Spec(GpuSpec::kepler_k40m());
    let b4 = TargetSpec::Spec(GpuSpec::kepler_k40m_4b());
    let float_trace =
        Trace::decode(&sm_pattern_trace("float-stride4", 4, 4, 10)).expect("pattern trace decodes");
    let float2_trace = Trace::decode(&sm_pattern_trace("float2-stride8", 8, 8, 10))
        .expect("pattern trace decodes");
    let f_b8 = &replay_decoded(&float_trace, &b8).expect("pattern replays")[0];
    let f_b4 = &replay_decoded(&float_trace, &b4).expect("pattern replays")[0];
    let v_b8 = &replay_decoded(&float2_trace, &b8).expect("pattern replays")[0];
    let v_b4 = &replay_decoded(&float2_trace, &b4).expect("pattern replays")[0];
    println!(
        "  float  stride 4: waste {} on 8B banks, {} on 4B banks (cycles {} / {})",
        f_b8.sm_waste(),
        f_b4.sm_waste(),
        f_b8.sm_cycles(),
        f_b4.sm_cycles()
    );
    println!(
        "  float2 stride 8: waste {} on 8B banks, {} on 4B banks (cycles {} / {})",
        v_b8.sm_waste(),
        v_b4.sm_waste(),
        v_b8.sm_cycles(),
        v_b4.sm_cycles()
    );
    let n = GpuSpec::kepler_k40m().mismatch_factor(4) as f64;
    c.eq_f64(
        "float pattern wastes n = W_SMB/W_CD on 8B banks",
        f_b8.sm_waste(),
        n,
    );
    c.eq_f64(
        "float pattern waste vanishes on 4B banks",
        f_b4.sm_waste(),
        1.0,
    );
    c.eq_f64("float2 pattern matched on 8B banks", v_b8.sm_waste(), 1.0);
    c.eq_f64("float2 pattern matched on 4B banks", v_b4.sm_waste(), 1.0);
    c.eq_u64(
        "float2 pattern: 4B-bank cycles exactly n x 8B-bank cycles",
        v_b4.sm_cycles(),
        n as u64 * v_b8.sm_cycles(),
    );

    // --- Derived n: eq. 1 in reverse, cross-checked per preset ---
    // The scalar-float pattern's replayed waste on a preset IS eq. 1's
    // mismatch factor for f32 on that machine; the generator's derived
    // vector factor must equal it (the factor it exists to cancel).
    println!("\n[derive] n = W_SMB / W_CD per preset vs the measured scalar-float mismatch");
    let mut derived_rows: Vec<(String, usize, f64)> = Vec::new();
    for spec in GpuSpec::presets_all() {
        let derived = KernelShape::derive_n(&spec, DataType::F32);
        let measured = replay_decoded(&float_trace, &TargetSpec::Spec(spec.clone()))
            .expect("pattern replays")[0]
            .sm_waste();
        println!(
            "  {:<22} {:>4}B banks  derived n={derived}  measured mismatch {measured}",
            spec.name,
            spec.bank_width.bytes()
        );
        c.eq_f64(
            &format!("{}: derived n == measured f32 mismatch factor", spec.name),
            measured,
            derived as f64,
        );
        derived_rows.push((spec.name.to_string(), derived, measured));
    }

    // --- JSON artifact ---
    let mut derived_json = String::new();
    for (i, (name, derived, measured)) in derived_rows.iter().enumerate() {
        derived_json.push_str(&format!(
            "    {{\"spec\": \"{name}\", \"derived_n\": {derived}, \"measured_mismatch\": {measured}}}{}\n",
            if i + 1 < derived_rows.len() { "," } else { "" },
        ));
    }
    let mut sweep_json = String::new();
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        sweep_json.push_str(&format!(
            "    {{\"spec\": \"{}\", \"bank_bytes\": {}, \"sm_cycles\": {}, \"sm_waste\": {:.6}, \"gm_transactions\": {}, \"t_total_ms\": {}, \"bottleneck\": \"{}\"}}{}\n",
            row.spec_name,
            row.bank_bytes,
            r.sm_cycles(),
            r.sm_waste(),
            r.gm_transactions(),
            r.timing
                .map_or("null".into(), |t| format!("{:.6}", t.t_total * 1e3)),
            r.timing.map_or("", |t| t.bottleneck()),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"whatif_fig8_replay\",\n  \"trace_bytes\": {},\n  \"gate_bit_identical\": {},\n  \"sweep\": [\n{}  ],\n  \"patterns\": {{\n    \"mismatch_factor\": {n},\n    \"float_waste_8b\": {},\n    \"float_waste_4b\": {},\n    \"float2_waste_8b\": {},\n    \"float2_waste_4b\": {},\n    \"float2_cycles_ratio_4b_over_8b\": {}\n  }},\n  \"derived_n\": [\n{derived_json}  ],\n  \"checks\": {},\n  \"failures\": {}\n}}\n",
        bytes.len(),
        under_capture.stats == live.stats,
        sweep_json,
        f_b8.sm_waste(),
        f_b4.sm_waste(),
        v_b8.sm_waste(),
        v_b4.sm_waste(),
        v_b4.sm_cycles() as f64 / v_b8.sm_cycles() as f64,
        c.checks,
        c.failures,
    );
    let path = fig8::workspace_file("BENCH_whatif.json");
    if let Err(e) = std::fs::write(&path, &json) {
        c.check("BENCH_whatif.json written", false, &format!("{path}: {e}"));
    } else {
        println!("\nwrote {path}");
    }

    c.summary();
    if check && c.failures > 0 {
        std::process::exit(1);
    }
}
