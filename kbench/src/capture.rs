//! `trace-capture`: one op is a forward pass of each of the three stock
//! stacks at each of three input sizes through `LayerStack::run`, on a
//! `Gpu` with `Parallelism::Threads(min(2, nproc))` and a KTRC
//! `TraceWriter` attached.

use std::time::Instant;

use kconv_apps::{max_pool2_device, relu_device, Engine, LayerStack, StackRun};
use kconv_core::conv_reference;
use kconv_replay::{replay_decoded, TargetSpec};
use kconv_sim::{Gpu, GpuSpec, LaunchReport, Parallelism, SimMode};
use kconv_tensor::rng::StdRng;
use kconv_tensor::{random_maps, ConvProblem, FeatureMaps, CONV_TOL};
use kconv_trace::{SharedBuffer, Trace, TraceWriter};

use crate::layers::{family, report_launches, Launch};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{measure, nothing, Cfg, Run, SelfTimes, Setup, MIN_OPS};

/// One stack with its seeded input.
struct Pass {
    stack: LayerStack,
    input: FeatureMaps,
}

/// Host reference forward pass: `conv_reference`, ReLU and 2×2 max
/// pooling, layer by layer.
fn host_forward(stack: &LayerStack, input: &FeatureMaps) -> FeatureMaps {
    let mut maps = input.clone();
    for l in &stack.layers {
        maps = conv_reference(&problem(&maps, l), &maps, &l.filters);
        if l.relu {
            for v in maps.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
        if l.pool && maps.height() >= 2 && maps.width() >= 2 {
            let m = &maps;
            maps = FeatureMaps::from_fn(m.channels(), m.height() / 2, m.width() / 2, |c, y, x| {
                let (y, x) = (2 * y, 2 * x);
                m.get(c, y, x)
                    .max(m.get(c, y, x + 1))
                    .max(m.get(c, y + 1, x))
                    .max(m.get(c, y + 1, x + 1))
            });
        }
    }
    maps
}

/// Whether a forward pass's output matches the host reference within
/// `CONV_TOL` of the reference's largest magnitude. Each layer after the
/// first sums `C·K²` terms of the previous layer's activations that largely
/// cancel, so rounding error scales with those terms, not with each output
/// value, and grows with depth.
fn close(got: &[f32], want: &[f32]) -> bool {
    let scale = want.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= CONV_TOL * scale)
}

fn problem(maps: &FeatureMaps, l: &kconv_apps::ConvLayer) -> ConvProblem {
    ConvProblem::new(
        maps.channels(),
        maps.height(),
        maps.width(),
        l.filters.count(),
        l.filters.k(),
    )
    .with_stride(l.stride)
}

/// Input sizes each stack runs at: its base size plus `0..SIZES` pixels.
const SIZES: usize = 3;

/// The passes of one op: each stack at every input size (its base size
/// plus 0–2 pixels), in seeded order, with seeded input maps.
fn passes(seed: u64) -> Vec<Pass> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b74_7263_6361_7074);
    let mut shapes: Vec<(usize, usize)> = (0..3)
        .flat_map(|s| (0..SIZES).map(move |g| (s, g)))
        .collect();
    for i in (1..shapes.len()).rev() {
        shapes.swap(i, rng.gen_range(0..i + 1));
    }
    shapes
        .into_iter()
        .map(|(s, g)| {
            let (stack, c, base) = match s {
                0 => (LayerStack::vgg_like(), 3, 24),
                1 => (LayerStack::alexnet_like(), 3, 39),
                _ => (LayerStack::lenet_like(), 1, 36),
            };
            let hw = base + g;
            let input = random_maps(c, hw, hw, rng.next_u64());
            Pass { stack, input }
        })
        .collect()
}

fn gpu(parallelism: Parallelism, traced: bool) -> (Gpu, SharedBuffer) {
    let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
    let buf = SharedBuffer::new();
    if traced {
        gpu.set_trace_sink(Some(Box::new(TraceWriter::new(buf.clone()))));
    }
    (gpu, buf)
}

/// One stack forward pass as `LayerStack::run` performs it, with a span
/// around every call into kconv-apps and the kernels. Returns the output,
/// every launch, and the seconds spent resolving engines.
fn forward(
    rec: &mut Recorder,
    gpu: &mut Gpu,
    stack: &LayerStack,
    input: FeatureMaps,
) -> Result<(FeatureMaps, Vec<Launch>, f64), String> {
    let mut maps = input;
    let mut launches = Vec::new();
    let mut plan_s = 0.0;
    for l in &stack.layers {
        let p = problem(&maps, l);
        let id = rec.begin("apps.plan", None);
        let conv = Engine::Auto.resolve(gpu, &p);
        plan_s += rec.end(id);
        let conv = conv.map_err(|e| format!("{}: {e}", l.name))?;
        let name = conv.name();
        let fam = family(&name).ok_or_else(|| format!("unexpected kernel {name}"))?;
        let id = rec.begin(format!("kernel.{fam}"), None);
        let run = conv.run(gpu, &p, &maps, &l.filters, SimMode::Full);
        let host_s = rec.end(id);
        let run = run.map_err(|e| format!("{}: {e}", l.name))?;
        launches.push(Launch {
            family: Some(fam),
            host_s,
            report: run.report,
        });
        maps = run.output;
        let mut post =
            |f: fn(&mut Gpu, &FeatureMaps) -> kconv_core::Result<(FeatureMaps, LaunchReport)>,
             maps: &mut FeatureMaps|
             -> Result<(), String> {
                let id = rec.begin("apps.post", None);
                let out = f(gpu, maps);
                let host_s = rec.end(id);
                let (out, report) = out.map_err(|e| format!("{} post-processing: {e}", l.name))?;
                *maps = out;
                launches.push(Launch {
                    family: None,
                    host_s,
                    report,
                });
                Ok(())
            };
        if l.relu {
            post(relu_device, &mut maps)?;
        }
        if l.pool && maps.height() >= 2 && maps.width() >= 2 {
            post(max_pool2_device, &mut maps)?;
        }
    }
    Ok((maps, launches, plan_s))
}

/// One measured op: each stack's run and trace bytes, and the wall time
/// of the forward passes.
struct Captured {
    runs: Vec<StackRun>,
    bytes: Vec<Vec<u8>>,
    wall: f64,
}

/// The measured op: every stack through `LayerStack::run` with a trace
/// writer attached.
fn op(passes: &[Pass], workers: usize) -> Result<Captured, String> {
    let inputs: Vec<FeatureMaps> = passes.iter().map(|p| p.input.clone()).collect();
    let t = Instant::now();
    let mut runs = Vec::new();
    let mut bytes = Vec::new();
    for (p, input) in passes.iter().zip(inputs) {
        let (mut gpu, buf) = gpu(Parallelism::Threads(workers), true);
        let run = p
            .stack
            .run(&mut gpu, input, Engine::Auto, SimMode::Full)
            .map_err(|e| format!("stack forward: {e}"))?;
        gpu.set_trace_sink(None);
        runs.push(run);
        bytes.push(buf.take());
    }
    Ok(Captured {
        runs,
        bytes,
        wall: t.elapsed().as_secs_f64(),
    })
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Run, String> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let (mut set_up, passes) = Setup::new(|| Ok(passes(cfg.seed)))?;
    // The gate's reference outputs, computed once outside the set-up.
    let expected: Vec<FeatureMaps> = passes
        .iter()
        .map(|p| host_forward(&p.stack, &p.input))
        .collect();
    let Captured {
        runs: warm_runs,
        bytes: warm_bytes,
        ..
    } = op(&passes, workers)?;
    let mut failures = Vec::new();

    // Gates: the instrumented forward pass is the same work (same trace
    // bytes, same output); the output matches the host reference; every
    // launch replays bit-exactly under its capture spec.
    let mut rec = Recorder::default();
    let mut live = Vec::new();
    let mut replayed = Vec::new();
    let mut events = 0usize;
    for (i, p) in passes.iter().enumerate() {
        let (mut g, buf) = gpu(Parallelism::Threads(workers), true);
        let (out, launches, _) = forward(&mut rec, &mut g, &p.stack, p.input.clone())?;
        g.set_trace_sink(None);
        if buf.take() != warm_bytes[i] || out.as_slice() != warm_runs[i].output.as_slice() {
            failures.push(format!(
                "stack {i}: instrumented forward differs from LayerStack::run"
            ));
        }
        if !close(out.as_slice(), expected[i].as_slice()) {
            failures.push(format!("stack {i}: output differs from the host reference"));
        }
        let convs: Vec<f64> = launches
            .iter()
            .filter(|l| l.family.is_some())
            .map(|l| l.report.seconds())
            .collect();
        let layer_s: Vec<f64> = warm_runs[i].layers.iter().map(|l| l.seconds).collect();
        if convs != layer_s {
            failures.push(format!("stack {i}: layer reports differ from the launches"));
        }
        live.extend(launches);
        let trace = Trace::decode(&warm_bytes[i]).map_err(|e| format!("decode stack {i}: {e}"))?;
        events += trace.total_events();
        replayed.extend(
            replay_decoded(&trace, &TargetSpec::Capture)
                .map_err(|e| format!("replay stack {i}: {e}"))?,
        );
    }
    let exact = if replayed.len() == live.len() {
        live.iter()
            .zip(&replayed)
            .filter(|(l, r)| r.stats == l.report.stats && r.timing == Some(l.report.timing))
            .count()
    } else {
        0
    };
    if exact != live.len() {
        failures.push(format!(
            "{exact} of {} launches replay bit-exactly",
            live.len()
        ));
    }
    let launches_per_op = live.len() as u64;

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
            let c = op(&passes, workers)?;
            last = Some(c.bytes);
            Ok(c.wall)
        },
    )?;
    if last.as_ref() != Some(&warm_bytes) {
        failures.push("a measured op captured different trace bytes".into());
    }

    let mut out = Outcome {
        attempted: launches_per_op * walls.len() as u64,
        failed: (launches_per_op - exact as u64) * walls.len() as u64,
        metrics: Metrics::new(cfg.trace),
        ..Outcome::default()
    };
    let modeled: f64 = warm_runs
        .iter()
        .map(|r| r.total_seconds() + r.total_post_seconds())
        .sum();
    let flops: u64 = warm_runs
        .iter()
        .flat_map(|r| &r.layers)
        .map(|l| l.problem.flops())
        .sum();
    let setup_s = set_up.median()?;
    let m = &mut out.metrics;
    m.put("setup_s", setup_s);
    m.put("peak_rss_mb", peak_rss_mb);
    m.put("ok_frac", exact as f64 / launches_per_op as f64);
    m.put("host_items_per_s", events as f64 / median(&walls));
    m.put("modeled_gflops", flops as f64 / modeled / 1e9);
    m.put("apps.forward_modeled_ms", modeled * 1e3);
    out.notes.insert(
        "apps.forward_modeled_ms".into(),
        (modeled * 1e3).to_string(),
    );
    let trace_bytes: usize = warm_bytes.iter().map(Vec::len).sum();
    for (k, v) in [
        ("launches_per_op", launches_per_op.to_string()),
        ("events_per_op", events.to_string()),
        ("trace_bytes_per_op", trace_bytes.to_string()),
        (
            "input_sizes",
            passes
                .iter()
                .map(|p| p.input.height().to_string())
                .collect::<Vec<_>>()
                .join(","),
        ),
    ] {
        out.notes.insert(k.into(), v);
    }

    let traced = if cfg.trace {
        let t = Traced {
            passes: &passes,
            workers,
            untraced_op: median(&walls),
            events,
            bytes: trace_bytes,
            setup_s,
        };
        Some(t.run(cfg, &mut out)?)
    } else {
        None
    };
    Ok(Run {
        outcome: out,
        failures,
        traced,
        workers,
        spec: GpuSpec::kepler_k40m().name.into(),
    })
}

struct Traced<'a> {
    passes: &'a [Pass],
    workers: usize,
    untraced_op: f64,
    events: usize,
    bytes: usize,
    setup_s: f64,
}

impl Traced<'_> {
    /// Every launch of one op, run by [`forward`] on fresh devices.
    fn launches(
        &self,
        rec: &mut Recorder,
        par: Parallelism,
        traced: bool,
    ) -> Result<(Vec<Launch>, f64), String> {
        let mut all = Vec::new();
        let mut plan_s = 0.0;
        for p in self.passes {
            let (mut g, _buf) = gpu(par, traced);
            let (_, launches, plan) = forward(rec, &mut g, &p.stack, p.input.clone())?;
            all.extend(launches);
            plan_s += plan;
        }
        Ok((all, plan_s))
    }

    /// The traced run: ops with a span around every plan, kernel and
    /// post-processing call. Each op is followed, outside it, by untraced
    /// passes on `Threads` and `Serial` devices, which split out trace
    /// encoding and the thread speed-up; pairing them with the ops keeps
    /// slow drifts of the host out of the differences.
    fn run(&self, cfg: &Cfg, out: &mut Outcome) -> Result<(Recorder, SelfTimes), String> {
        let mut rec = Recorder::default();
        let mut ops = Vec::new();
        let (mut traced, mut threads, mut serial) = (Vec::new(), Vec::new(), Vec::new());
        let mut plan_s = 0.0;
        measure(cfg.seconds / 2.0, MIN_OPS, nothing, || {
            let op = rec.begin("bench.op", None);
            let r = self.launches(&mut rec, Parallelism::Threads(self.workers), true);
            ops.push(op);
            let wall = rec.end(op);
            let (launches, plan) = r?;
            traced.push(launches);
            plan_s += plan;
            let calib = rec.begin("bench.calibrate", None);
            threads.push(
                self.launches(&mut rec, Parallelism::Threads(self.workers), false)?
                    .0,
            );
            serial.push(self.launches(&mut rec, Parallelism::Serial, false)?.0);
            rec.end(calib);
            Ok(wall)
        })?;
        let n = ops.len() as f64;
        let plan_s = plan_s / n;
        let mean =
            |runs: &[Vec<Launch>], i: usize| runs.iter().map(|r| r[i].host_s).sum::<f64>() / n;
        let mut launches = threads[0].clone();
        for (i, l) in launches.iter_mut().enumerate() {
            l.host_s = mean(&threads, i);
        }
        let threads_s: f64 = launches.iter().map(|l| l.host_s).sum();
        let serial_s: f64 = (0..launches.len()).map(|i| mean(&serial, i)).sum();
        let traced_s: f64 = (0..launches.len()).map(|i| mean(&traced, i)).sum();
        let encode_s = traced_s - threads_s;

        report_launches(out, &launches);
        let m = &mut out.metrics;
        let post = launches.iter().filter(|l| l.family.is_none());
        let post_s: f64 = post.clone().map(|l| l.host_s).sum();
        m.put("apps.plan_s", plan_s);
        m.put("apps.post_s", post_s);
        m.put(
            "apps.post_modeled_ms",
            post.map(|l| l.report.seconds()).sum::<f64>() * 1e3,
        );
        m.put("sim.threads_speedup", serial_s / threads_s);
        m.put("trace.encode_s", encode_s);
        m.put("trace.encode_mb_per_s", self.bytes as f64 / 1e6 / encode_s);
        m.put(
            "trace.bytes_per_event",
            self.bytes as f64 / self.events as f64,
        );
        m.put("setup.inputs_s", self.setup_s);

        let mut rows = vec![("apps.plan".to_string(), plan_s)];
        for f in crate::report::FAMILIES {
            let s: f64 = launches
                .iter()
                .filter(|l| l.family == Some(f))
                .map(|l| l.host_s)
                .sum();
            if s > 0.0 {
                rows.push((format!("kernel.{f}"), s));
            }
        }
        rows.push(("apps.post".to_string(), post_s));
        rows.push(("trace.encode".to_string(), encode_s));
        let table = SelfTimes::new(&rec, &ops, rows);
        m.put(
            "trace_overhead_frac",
            (table.op_s - self.untraced_op) / self.untraced_op,
        );
        Ok((rec, table))
    }
}
