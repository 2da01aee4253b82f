//! The serving chaos harness: a mixed Table-1 workload pushed through the
//! [`ServeEngine`] with and without a seeded chaos plan, gated by the
//! resilience invariants.
//!
//! [`run`] writes `BENCH_serve.json` (requests/s and p50/p99 modeled
//! latency, chaos off vs. on); under `--check` any FAIL is exit status 1.
//! The invariants:
//!
//! * every submitted request reaches **exactly one** terminal state
//!   (completed / rejected / deadline-exceeded / failed), chaos or not;
//! * chaos-off serves every well-formed request cleanly and the f32
//!   outputs match the CPU reference;
//! * requests served **cleanly under chaos** produce outputs bit-identical
//!   to the chaos-off run;
//! * the seeded fault schedule provably trips a circuit breaker and a
//!   later half-open probe recovers it;
//! * a poisoned batch re-enqueues its batchmates and they still complete;
//! * admission control sheds a burst with typed rejections, tight
//!   deadlines produce typed deadline misses;
//! * the whole chaos scenario is bit-deterministic: running it twice gives
//!   identical resolutions, latencies and metrics.

use std::process::ExitCode;
use std::time::Instant;

use kconv_core::conv_reference;
use kconv_serve::{
    ChaosConfig, ConvRequest, DType, Outcome, Resolution, ServeConfig, ServeEngine, ServeError,
    ServeEvent, ServeMetrics,
};
use kconv_sim::{FaultSchedule, GpuSpec, Parallelism};
use kconv_tensor::{all_close, random_filters, random_maps, ConvProblem, CONV_TOL};

use crate::cli::Args;
use crate::{fig8, Checker};

/// Input seed base for the workload.
pub const INPUT_SEED: u64 = 401;
/// Filter seed base for the workload.
pub const FILTER_SEED: u64 = 409;

/// Builds one request for `problem` with per-request seeded data.
fn request(problem: ConvProblem, salt: u64) -> ConvRequest {
    let input = random_maps(
        problem.channels,
        problem.height,
        problem.width,
        INPUT_SEED + salt,
    );
    let filters = random_filters(
        problem.filters,
        problem.channels,
        problem.k,
        FILTER_SEED + salt,
    );
    ConvRequest::new(problem, input, filters)
}

/// The mixed Table-1 workload: the paper's K ∈ {3, 5, 7} general shapes,
/// the special-case shape (which the chaos plan targets), narrow dtypes,
/// two malformed requests and one hopeless deadline. Deterministic.
pub fn workload() -> Vec<ConvRequest> {
    let special = ConvProblem::special(66, 8, 3);
    let g3 = ConvProblem::general(34, 4, 64, 3);
    let g5 = ConvProblem::general(36, 4, 32, 5);
    let g7 = ConvProblem::general(38, 2, 32, 7);
    let narrow = ConvProblem::special(66, 4, 3);

    let mut reqs = Vec::new();
    // The chaos plan faults the first three launches: this same-instant
    // trio forms the poisoned batch (member 0 eats the faults, members 1
    // and 2 are re-enqueued).
    for salt in 0..3 {
        reqs.push(request(special, salt).at(0.0));
    }
    // A mixed stream of general shapes while the breaker is open.
    for (i, &p) in [g3, g5, g7, g3, g5, g3].iter().enumerate() {
        reqs.push(request(p, 10 + i as u64).at(1e-4 * (i + 1) as f64));
    }
    // Narrow dtypes ride along.
    reqs.push(request(narrow, 20).with_dtype(DType::F16).at(4e-4));
    reqs.push(request(narrow, 21).with_dtype(DType::I8).at(5e-4));
    // Malformed: data that does not match the declared problem, and a
    // narrow dtype on a multi-channel shape.
    let mut bad_data = request(special, 30).at(6e-4);
    bad_data.input = random_maps(1, 20, 20, 999);
    reqs.push(bad_data);
    reqs.push(request(g3, 31).with_dtype(DType::F16).at(7e-4));
    // A deadline nothing can meet (typed miss), and a generous one.
    reqs.push(request(g5, 40).at(2e-3).with_deadline(2e-3 + 1e-9));
    reqs.push(request(g7, 41).at(2.1e-3).with_deadline(1.0));
    // The recovery probe: same shape as the poisoned trio, arriving well
    // after the breaker cooldown so it half-opens and closes the breaker.
    reqs.push(request(special, 50).at(8e-3));
    reqs
}

/// The harness serving configuration: 4 streams, small batches, a breaker
/// that cools down fast enough for the probe to recover it within the
/// modeled run.
pub fn config() -> ServeConfig {
    ServeConfig {
        breaker: kconv_serve::BreakerConfig {
            trip_after: 3,
            cooldown_s: 1e-3,
        },
        ..ServeConfig::default()
    }
}

/// The seeded chaos plan: fault every one of the first three launches
/// (deterministically poisoning the first batch and tripping the primary
/// breaker), plus latency spikes at ~20% of launches.
pub fn chaos() -> ChaosConfig {
    ChaosConfig::new(77, FaultSchedule::new(77, 1_000_000, "").with_window(0, 3))
        .with_spikes(200_000, 3e-4)
}

/// Modeled completion latencies (seconds) of completed requests, sorted.
fn latencies(res: &[Resolution]) -> Vec<f64> {
    let mut l: Vec<f64> = res
        .iter()
        .filter_map(|r| r.outcome.completion())
        .map(|c| c.latency)
        .collect();
    l.sort_by(f64::total_cmp);
    l
}

/// The `p`-th percentile of sorted samples (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// Exactly one terminal state per request, ids in submission order.
fn one_terminal_each(res: &[Resolution], n: usize) -> bool {
    res.len() == n && res.iter().enumerate().all(|(i, r)| r.id.0 == i as u64)
}

/// Terminal-state accounting matches the metrics counters.
fn accounted(m: &ServeMetrics) -> bool {
    m.completed + m.rejected + m.deadline_exceeded + m.failed == m.submitted
}

/// A K40m serving engine with `cfg` and the default host workers.
fn engine(cfg: ServeConfig) -> ServeEngine {
    ServeEngine::new(GpuSpec::kepler_k40m(), cfg)
}

/// Serves one scenario on `engine` and returns its resolutions, metrics,
/// events and wall-clock seconds.
fn scenario(
    mut engine: ServeEngine,
    reqs: Vec<ConvRequest>,
) -> (Vec<Resolution>, ServeMetrics, Vec<ServeEvent>, f64) {
    let t0 = Instant::now();
    let res = engine.run(reqs);
    let wall = t0.elapsed().as_secs_f64();
    (res, *engine.metrics(), engine.events().to_vec(), wall)
}

/// How many times [`run`] repeats the timed baseline (best-of), on the
/// engine's default host workers and serially: one 16-request run takes
/// tens of milliseconds, so a single timing mostly measures the process's
/// first-run warm-up.
const ITERS: usize = 5;

/// Serves the workload chaos-off and chaos-on, runs every invariant
/// check, and writes `BENCH_serve.json` to the workspace root.
pub fn run(args: &Args) -> ExitCode {
    let mut c = Checker::default();
    let n = workload().len();
    println!("serve — {n} mixed Table-1 requests, 4 streams, chaos off vs on\n");

    // --- Baseline: chaos off ---
    let mut baseline = None;
    let mut base_wall = f64::INFINITY;
    let mut serial_wall = f64::INFINITY;
    for _ in 0..ITERS {
        let (res, m, ev, wall) = scenario(engine(config()), workload());
        base_wall = base_wall.min(wall);
        baseline = Some((res, m, ev));
        let serial = engine(config()).with_parallelism(Parallelism::Serial);
        serial_wall = serial_wall.min(scenario(serial, workload()).3);
    }
    let (base_res, base_m, _) = baseline.expect("at least one iteration");
    println!(
        "[baseline] completed {} / rejected {} / deadline {} / failed {} — makespan {:.3} ms",
        base_m.completed,
        base_m.rejected,
        base_m.deadline_exceeded,
        base_m.failed,
        base_m.makespan * 1e3
    );
    c.check(
        "baseline: exactly one terminal state per request",
        one_terminal_each(&base_res, n) && accounted(&base_m),
        &format!("{} requests, counters add up", n),
    );
    c.eq_u64(
        "baseline: malformed requests rejected (typed)",
        base_res
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected(ServeError::Malformed(_))))
            .count() as u64,
        2,
    );
    c.eq_u64(
        "baseline: hopeless deadline misses (typed)",
        base_m.deadline_exceeded,
        1,
    );
    c.eq_u64(
        "baseline: everything else completes",
        base_m.completed,
        n as u64 - 3,
    );
    c.check(
        "baseline: zero faults, zero retries, all clean",
        base_m.retries == 0
            && base_res
                .iter()
                .filter_map(|r| r.outcome.completion())
                .all(|cm| cm.clean()),
        "no chaos, no fallbacks",
    );
    let workload_now = workload();
    let verified = base_res
        .iter()
        .filter_map(|r| {
            let cm = r.outcome.completion()?;
            let req = &workload_now[r.id.0 as usize];
            (req.dtype == DType::F32).then_some((req, cm))
        })
        .all(|(req, cm)| {
            let want = conv_reference(&req.problem, &req.input, &req.filters);
            all_close(cm.output.as_slice(), want.as_slice(), CONV_TOL)
        });
    c.check(
        "baseline: completed f32 outputs match the CPU reference",
        verified,
        "worst element within CONV_TOL",
    );
    c.check(
        "baseline: plan cache shared across same-shape requests",
        base_m.plan_hits > 0 && base_m.plan_misses < base_m.completed,
        &format!(
            "{} hits, {} distinct resolutions",
            base_m.plan_hits, base_m.plan_misses
        ),
    );

    // --- Stream overlap: a same-instant burst of distinct shapes forms
    // several batches; with 4 streams the next batch's H2D copy hides
    // under the previous batch's compute, with 1 stream everything
    // serializes in-order.
    let overlap_work = || -> Vec<ConvRequest> {
        [
            ConvProblem::special(66, 8, 3),
            ConvProblem::general(34, 4, 64, 3),
            ConvProblem::general(36, 4, 32, 5),
            ConvProblem::general(38, 2, 32, 7),
        ]
        .into_iter()
        .enumerate()
        .flat_map(|(i, p)| (0..2).map(move |j| request(p, 70 + 2 * i as u64 + j).at(0.0)))
        .collect()
    };
    let (_, four_m, _, _) = scenario(engine(config()), overlap_work());
    let (_, one_m, _, _) = scenario(
        engine(ServeConfig {
            streams: 1,
            ..config()
        }),
        overlap_work(),
    );
    println!(
        "[streams] burst makespan 1-stream {:.3} ms vs 4-stream {:.3} ms",
        one_m.makespan * 1e3,
        four_m.makespan * 1e3
    );
    c.check(
        "streams: 4-stream pipeline beats 1 stream",
        four_m.completed == one_m.completed && four_m.makespan < one_m.makespan,
        &format!(
            "copies overlap compute: {:.3} ms < {:.3} ms",
            four_m.makespan * 1e3,
            one_m.makespan * 1e3
        ),
    );

    // --- Chaos on ---
    let (chaos_res, chaos_m, chaos_ev, _) =
        scenario(engine(config()).with_chaos(chaos()), workload());
    println!(
        "[chaos]    completed {} / rejected {} / deadline {} / failed {} — {} retries, {} re-enqueued, {} trips, {} recoveries",
        chaos_m.completed,
        chaos_m.rejected,
        chaos_m.deadline_exceeded,
        chaos_m.failed,
        chaos_m.retries,
        chaos_m.re_enqueued,
        chaos_m.breaker_trips,
        chaos_m.breaker_recoveries
    );
    c.check(
        "chaos: exactly one terminal state per request",
        one_terminal_each(&chaos_res, n) && accounted(&chaos_m),
        &format!("{} requests, counters add up", n),
    );
    c.check(
        "chaos: injected faults were retried",
        chaos_m.retries >= 2,
        &format!("{} same-engine retries", chaos_m.retries),
    );
    c.check(
        "chaos: poisoned batch isolated, batchmates re-enqueued",
        chaos_m.re_enqueued >= 2
            && chaos_ev.iter().any(
                |e| matches!(e, ServeEvent::BatchPoisoned { re_enqueued, .. } if *re_enqueued >= 2),
            ),
        &format!("{} re-enqueued", chaos_m.re_enqueued),
    );
    c.check(
        "chaos: re-enqueued batchmates still complete",
        chaos_res[1].outcome.completion().is_some() && chaos_res[2].outcome.completion().is_some(),
        &format!(
            "req#1 {}, req#2 {}",
            chaos_res[1].outcome.label(),
            chaos_res[2].outcome.label()
        ),
    );
    c.check(
        "chaos: circuit breaker trips under the fault schedule",
        chaos_m.breaker_trips >= 1
            && chaos_ev
                .iter()
                .any(|e| matches!(e, ServeEvent::BreakerOpened { .. })),
        &format!("{} trips", chaos_m.breaker_trips),
    );
    c.check(
        "chaos: breaker half-opens and the probe recovers it",
        chaos_m.breaker_recoveries >= 1
            && chaos_ev
                .iter()
                .any(|e| matches!(e, ServeEvent::BreakerHalfOpened { .. }))
            && chaos_ev
                .iter()
                .any(|e| matches!(e, ServeEvent::BreakerClosed { .. })),
        &format!("{} recoveries", chaos_m.breaker_recoveries),
    );
    let clean_ids: Vec<u64> = chaos_res
        .iter()
        .filter(|r| r.outcome.completion().is_some_and(|cm| cm.clean()))
        .map(|r| r.id.0)
        .collect();
    let identical = clean_ids.iter().all(|&id| {
        let a = chaos_res[id as usize].outcome.completion().expect("clean");
        match base_res[id as usize].outcome.completion() {
            Some(b) => a.output.as_slice() == b.output.as_slice() && a.engine == b.engine,
            None => false,
        }
    });
    c.check(
        "chaos: clean-request outputs bit-identical to chaos-off",
        !clean_ids.is_empty() && identical,
        &format!("{} clean requests compared bitwise", clean_ids.len()),
    );
    c.check(
        "chaos: every served request still completes or fails typed",
        accounted(&chaos_m) && chaos_m.completed >= base_m.completed - chaos_m.failed,
        &format!("{} completed under chaos", chaos_m.completed),
    );

    // --- Determinism: the chaos scenario twice, bit for bit ---
    let (res_a, m_a, ev_a, _) = scenario(engine(config()).with_chaos(chaos()), workload());
    let same = res_a.len() == chaos_res.len()
        && res_a.iter().zip(&chaos_res).all(|(x, y)| {
            x.id == y.id
                && x.outcome.label() == y.outcome.label()
                && match (x.outcome.completion(), y.outcome.completion()) {
                    (Some(a), Some(b)) => {
                        a.latency == b.latency && a.output.as_slice() == b.output.as_slice()
                    }
                    (None, None) => true,
                    _ => false,
                }
        })
        && m_a == chaos_m
        && ev_a == chaos_ev;
    c.check(
        "chaos: rerun with the same seeds is bit-identical",
        same,
        "resolutions, latencies, metrics and events",
    );

    // --- Admission control: a same-instant burst sheds typed ---
    let burst_cfg = ServeConfig {
        queue_capacity: 4,
        ..config()
    };
    let burst: Vec<ConvRequest> = (0..12)
        .map(|i| request(ConvProblem::special(34, 4, 3), 60 + i))
        .collect();
    let (burst_res, burst_m, _, _) = scenario(engine(burst_cfg), burst);
    let shed = burst_res
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Rejected(ServeError::QueueFull { .. })))
        .count();
    c.eq_u64(
        "admission: burst above the high-water mark sheds typed",
        shed as u64,
        8,
    );
    c.check(
        "admission: shed + served accounts for the whole burst",
        accounted(&burst_m) && burst_m.completed == 4,
        &format!("{} completed, {shed} shed", burst_m.completed),
    );

    // --- Latency + throughput report ---
    let base_lat = latencies(&base_res);
    let chaos_lat = latencies(&chaos_res);
    let (p50, p99) = (percentile(&base_lat, 50.0), percentile(&base_lat, 99.0));
    let (c50, c99) = (percentile(&chaos_lat, 50.0), percentile(&chaos_lat, 99.0));
    let wall_rps = base_m.completed as f64 / base_wall.max(1e-12);
    let wall_rps_serial = base_m.completed as f64 / serial_wall.max(1e-12);
    let host_workers = engine(config()).host_workers();
    let kconv_threads = std::env::var("KCONV_THREADS").unwrap_or_else(|_| "unset".into());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n[latency]  chaos off: p50 {:.3} ms, p99 {:.3} ms",
        p50 * 1e3,
        p99 * 1e3
    );
    println!(
        "           chaos on:  p50 {:.3} ms, p99 {:.3} ms",
        c50 * 1e3,
        c99 * 1e3
    );
    println!(
        "[thruput]  wall {wall_rps:.0} req/s on {host_workers} host workers, \
         {wall_rps_serial:.0} req/s serial (best of {ITERS})"
    );
    c.check(
        "latency percentiles well-formed",
        p50 > 0.0 && p99 >= p50 && c99 >= c50 && c50 > 0.0,
        &format!(
            "off p50/p99 {:.3}/{:.3} ms, on {:.3}/{:.3} ms",
            p50 * 1e3,
            p99 * 1e3,
            c50 * 1e3,
            c99 * 1e3
        ),
    );

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"requests\": {n},\n  \"streams\": {},\n  \"chaos_off\": {{\"completed\": {}, \"rejected\": {}, \"deadline_exceeded\": {}, \"failed\": {}, \"makespan_ms\": {:.6}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}}},\n  \"chaos_on\": {{\"completed\": {}, \"rejected\": {}, \"deadline_exceeded\": {}, \"failed\": {}, \"retries\": {}, \"re_enqueued\": {}, \"breaker_trips\": {}, \"breaker_recoveries\": {}, \"makespan_ms\": {:.6}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}}},\n  \"burst\": {{\"one_stream_makespan_ms\": {:.6}, \"four_stream_makespan_ms\": {:.6}}},\n  \"wall_seconds\": {:.6},\n  \"wall_rps\": {:.1},\n  \"wall_rps_serial\": {wall_rps_serial:.1},\n  \"host_workers\": {host_workers},\n  \"kconv_threads\": \"{kconv_threads}\",\n  \"host_cores\": {host_cores},\n  \"iters\": {ITERS},\n  \"checks\": {},\n  \"failures\": {}\n}}\n",
        config().streams,
        base_m.completed,
        base_m.rejected,
        base_m.deadline_exceeded,
        base_m.failed,
        base_m.makespan * 1e3,
        p50 * 1e3,
        p99 * 1e3,
        chaos_m.completed,
        chaos_m.rejected,
        chaos_m.deadline_exceeded,
        chaos_m.failed,
        chaos_m.retries,
        chaos_m.re_enqueued,
        chaos_m.breaker_trips,
        chaos_m.breaker_recoveries,
        chaos_m.makespan * 1e3,
        c50 * 1e3,
        c99 * 1e3,
        one_m.makespan * 1e3,
        four_m.makespan * 1e3,
        base_wall,
        wall_rps,
        c.checks,
        c.failures,
    );
    let path = fig8::workspace_file("BENCH_serve.json");
    if let Err(e) = std::fs::write(&path, &json) {
        c.check("BENCH_serve.json written", false, &format!("{path}: {e}"));
    } else {
        println!("\nwrote {path}");
        c.check("BENCH_serve.json written", true, &path);
    }

    c.summary();
    c.exit_code(args.check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_mixed_and_deterministic() {
        let w = workload();
        assert!(w.len() >= 15);
        let k3 = w.iter().filter(|r| r.problem.k == 3).count();
        let k5 = w.iter().filter(|r| r.problem.k == 5).count();
        let k7 = w.iter().filter(|r| r.problem.k == 7).count();
        assert!(
            k3 >= 3 && k5 >= 2 && k7 >= 2,
            "Table-1 K mix: {k3}/{k5}/{k7}"
        );
        assert!(w.iter().any(|r| r.dtype == DType::F16));
        assert!(w.iter().any(|r| r.dtype == DType::I8));
        assert!(w.iter().any(|r| r.deadline.is_finite()));
        let again = workload();
        for (a, b) in w.iter().zip(&again) {
            assert_eq!(a.input.as_slice(), b.input.as_slice());
            assert_eq!(a.arrival, b.arrival);
        }
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
