//! `farm-sweep`: the what-if use. Set-up captures the farm corpus
//! (`kconv_bench::farm::capture_corpus`); each op decodes every trace with
//! `Trace::decode` and prices it over the 16-spec `farm::spec_grid` with
//! `kconv_replay::sweep` on two workers. No live launch runs in an op.

use std::time::Instant;

use kconv_bench::farm::{capture_corpus, corpus, spec_grid, Capture};
use kconv_replay::{replay_decoded, replay_launch, sweep, SweepCell, TargetSpec};
use kconv_sim::{GpuSpec, Parallelism};
use kconv_tensor::rng::StdRng;
use kconv_trace::Trace;

use crate::report::{peak_rss_mb, Metrics, Outcome, CORPUS};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{measure, nothing, per_op, Cfg, Run, SelfTimes, Setup, MIN_OPS};

/// Sweep workers: the host's two cores.
const WORKERS: usize = 2;

struct State {
    captures: Vec<Capture>,
    /// Seeded order in which the traces are decoded and handed to the
    /// sweep (the corpus itself is fixed by the program).
    order: Vec<usize>,
    specs: Vec<GpuSpec>,
    capture_s: f64,
    inputs_s: f64,
}

fn decode(st: &State, i: usize) -> Result<Trace, String> {
    Trace::decode(&st.captures[i].bytes).map_err(|e| format!("decode {}: {e}", st.captures[i].name))
}

fn identical(a: &[SweepCell], b: &[SweepCell]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.trace, x.spec, x.launch) == (y.trace, y.spec, y.launch)
                && matches!((&x.report, &y.report), (Ok(p), Ok(q)) if p == q)
        })
}

/// Useful conv flops per modeled second over every priced cell: the
/// sweep's kernels on the modeled clock of their target specs.
fn modeled_gflops(st: &State, cells: &[SweepCell]) -> Result<f64, String> {
    let corpus = corpus();
    let (mut flops, mut seconds) = (0.0, 0.0);
    for c in cells {
        let i = st.order[c.trace];
        debug_assert_eq!(corpus[i].name, st.captures[i].name);
        let Ok(r) = &c.report else { continue };
        let t = r
            .timing
            .as_ref()
            .ok_or_else(|| format!("{}: priced without a timing", st.captures[i].name))?;
        flops += corpus[i].problem.flops() as f64;
        seconds += t.t_total;
    }
    Ok(flops / seconds / 1e9)
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Run, String> {
    let (mut set_up, st) = Setup::new(|| {
        let t = Instant::now();
        let captures = capture_corpus();
        let capture_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..captures.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let specs = spec_grid();
        Ok(State {
            captures,
            order,
            specs,
            capture_s,
            inputs_s: t.elapsed().as_secs_f64(),
        })
    })?;
    let mut failures = Vec::new();

    // Gate: every capture replays under its own spec to the live launch.
    for cap in &st.captures {
        let trace = Trace::decode(&cap.bytes).map_err(|e| format!("decode {}: {e}", cap.name))?;
        let ok = replay_decoded(&trace, &TargetSpec::Capture).is_ok_and(|r| {
            r.len() == 1 && r[0].stats == cap.live.stats && r[0].timing == Some(cap.live.timing)
        });
        if !ok {
            failures.push(format!(
                "{}: replay(capture spec) differs from the live launch",
                cap.name
            ));
        }
    }

    let op = |st: &State| -> Result<Vec<SweepCell>, String> {
        let traces = st
            .order
            .iter()
            .map(|&i| decode(st, i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(sweep(&traces, &st.specs, Parallelism::Threads(WORKERS)))
    };
    let warm = op(&st)?;
    let cells = warm.len() as u64;
    let ok = warm.iter().filter(|c| c.report.is_ok()).count() as u64;

    let mut last = None;
    // Peak RSS of the set-up, the gates and the warm-up, read before the
    // timed set-ups between the ops hold a second set-up's data.
    let peak_rss_mb = peak_rss_mb()?;
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let walls = measure(
        secs,
        MIN_OPS,
        |t| set_up.keep_up(t),
        || {
            let t = Instant::now();
            let cells = op(&st)?;
            let wall = t.elapsed().as_secs_f64();
            last = Some(cells);
            Ok(wall)
        },
    )?;
    if !last.as_deref().is_some_and(|l| identical(l, &warm)) {
        failures.push("a measured sweep priced differently from the warm-up sweep".into());
    }

    let mut out = Outcome {
        attempted: cells * walls.len() as u64,
        failed: (cells - ok) * walls.len() as u64,
        metrics: Metrics::new(cfg.trace),
        ..Outcome::default()
    };
    let m = &mut out.metrics;
    m.put("setup_s", set_up.median()?);
    m.put("peak_rss_mb", peak_rss_mb);
    m.put("ok_frac", ok as f64 / cells as f64);
    m.put("host_items_per_s", cells as f64 / median(&walls));
    m.put("modeled_gflops", modeled_gflops(&st, &warm)?);
    for (k, v) in [
        ("cells_per_op", cells.to_string()),
        ("traces", st.captures.len().to_string()),
        ("specs", st.specs.len().to_string()),
        (
            "corpus_bytes",
            st.captures
                .iter()
                .map(|c| c.bytes.len())
                .sum::<usize>()
                .to_string(),
        ),
    ] {
        out.notes.insert(k.into(), v);
    }

    let traced = if cfg.trace {
        Some(traced(cfg, &st, median(&walls), &mut out.metrics)?)
    } else {
        None
    };
    Ok(Run {
        outcome: out,
        failures,
        traced,
        workers: WORKERS,
        spec: "farm::spec_grid (16 specs)".into(),
    })
}

/// The traced run: ops with a span per decode and one around the sweep,
/// then every cell priced serially in its own span.
fn traced(
    cfg: &Cfg,
    st: &State,
    untraced_op: f64,
    m: &mut Metrics,
) -> Result<(Recorder, SelfTimes), String> {
    let mut rec = Recorder::default();
    let mut ops = Vec::new();
    let mut traces = Vec::new();
    measure(cfg.seconds / 2.0, MIN_OPS, nothing, || {
        let op = rec.begin("bench.op", None);
        traces = st
            .order
            .iter()
            .map(|&i| rec.time("trace.decode", Some(i as u64), || decode(st, i)))
            .collect::<Result<Vec<_>, _>>()?;
        rec.time("replay.sweep", None, || {
            sweep(&traces, &st.specs, Parallelism::Threads(WORKERS))
        });
        ops.push(op);
        Ok(rec.end(op))
    })?;
    let decode_s = per_op(&rec, &ops, "trace.decode");
    let sweep_s = per_op(&rec, &ops, "replay.sweep");

    // Serial pricing of every cell, each in its own span.
    let calib = rec.begin("bench.calibrate", None);
    let mut price = vec![0.0; st.captures.len()];
    let mut events = 0usize;
    for (trace, &i) in traces.iter().zip(&st.order) {
        for spec in &st.specs {
            let target = TargetSpec::Spec(spec.clone());
            for launch in trace.launches() {
                let id = rec.begin("replay.price", Some(i as u64));
                let r = replay_launch(launch, &target);
                price[i] += rec.end(id);
                r.map_err(|e| format!("price {}: {e}", st.captures[i].name))?;
                events += launch.event_count();
            }
        }
    }
    rec.end(calib);
    let price_s: f64 = price.iter().sum();
    let bytes: usize = st.captures.iter().map(|c| c.bytes.len()).sum();

    m.put("trace.decode_s", decode_s);
    m.put("trace.decode_mb_per_s", bytes as f64 / 1e6 / decode_s);
    m.put("replay.price_s", price_s);
    m.put("replay.events_per_s", events as f64 / price_s);
    for (cap, s) in st.captures.iter().zip(&price) {
        debug_assert!(CORPUS.contains(&cap.name));
        m.put(format!("replay.price_share.{}", cap.name), s / price_s);
    }
    m.put("replay.sweep_s", sweep_s);
    m.put(
        "replay.pool_efficiency",
        price_s / (WORKERS as f64 * sweep_s),
    );
    m.put("setup.capture_s", st.capture_s);
    m.put("setup.inputs_s", st.inputs_s);
    let rows = vec![
        ("trace.decode".to_string(), decode_s),
        ("replay.sweep".to_string(), sweep_s),
    ];
    let table = SelfTimes::new(&rec, &ops, rows);
    m.put(
        "trace_overhead_frac",
        (table.op_s - untraced_op) / untraced_op,
    );
    Ok((rec, table))
}
