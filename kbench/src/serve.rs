//! `cnn-serve`: a seeded stream of per-layer convolution requests through
//! `kconv_serve::ServeEngine::run` on the K40m spec.
//!
//! The mix is forward passes of the three stock stacks
//! (`LayerStack::vgg_like`, `alexnet_like`, `lenet_like`), one request per
//! layer per pass, at the shapes the pass gives each layer. Mixed in, once
//! per LeNet pass, are a dilated and a depthwise conv2 (routed to the
//! systolic pipeline) and the stem in fp16 (the half2 kernel). The stream
//! is served as [`EPISODES`] open-loop episodes of Poisson arrivals at
//! [`OFFERED_RPS`] on the modeled clock, then [`BURSTS`] burst rounds, all
//! arriving at t = 0. One measured op is one `ServeEngine::run` call,
//! cycling through the episodes and the bursts; the traced run's op is one
//! whole cycle.

use std::time::Instant;

use kconv_apps::{LayerStack, PlanCache};
use kconv_core::{conv_reference, quantize_filters_f16, quantize_maps_f16, DataType};
use kconv_serve::{Completion, ConvRequest, DType, Resolution, ServeConfig, ServeEngine};
use kconv_sim::{Gpu, GpuSpec, SimMode};
use kconv_tensor::rng::StdRng;
use kconv_tensor::{
    all_close, random_filters, random_maps, ConvProblem, FeatureMaps, FilterSet, CONV_TOL, F16_TOL,
};

use crate::layers::{family, report_launches, Launch};
use crate::report::{peak_rss_mb, Metrics, Outcome as RunOutcome};
use crate::spans::Recorder;
use crate::stats::{median, slo_frac, tail};
use crate::{measure, nothing, Cfg, Run, SelfTimes, Setup};

/// Offered load of the open-loop episodes, in requests per modeled
/// second: about half the burst capacity of seeds 1–5 (19.5k/s). Chosen
/// once; it never adapts to a run.
pub const OFFERED_RPS: f64 = 9500.0;
/// Modeled latency limit for `slo_frac`, in milliseconds: above the
/// no-wait latency of every layer (the slowest, VGG conv3, takes about
/// 0.31 ms, nearly all of it the upload of its 1.2 MB of filters), so a
/// request misses it only when it waited or its kernel got slower.
pub const SLO_MS: f64 = 0.35;
/// Open-loop episodes of one round each. Their latencies are pooled, so
/// the modeled percentiles rest on `EPISODES` rounds of requests while
/// each measured op stays short.
const EPISODES: usize = 10;
/// Forward passes of each stock stack in one round. A round of
/// `PASSES × 11` requests fits the default queue high-water mark (64), so
/// a burst round is admitted whole.
const PASSES: usize = 5;
/// Input sizes a forward pass is run at: its stack's base size plus
/// `0..SIZES` pixels. Over the open-loop episodes each stack runs every
/// size equally often (`EPISODES × PASSES` is a multiple of `SIZES`), so
/// the seed changes the order of the sizes but not how often each comes
/// up. The bursts, too, run every size of every stack equally often.
const SIZES: usize = 10;
/// Burst rounds: together they run each stack twice at every size. The
/// saturating load of a burst depends on the order its requests arrive
/// in, which the seed sets; four bursts average that out.
const BURSTS: usize = 4;

/// One request class: a layer shape, its dtype and weights.
#[derive(Debug, Clone)]
struct Class {
    problem: ConvProblem,
    dtype: DType,
    filters: FilterSet,
}

/// The conv problems of a forward pass of `stack` on a
/// `channels × hw × hw` input, with each layer's weights.
fn stack_layers(stack: &LayerStack, channels: usize, hw: usize) -> Vec<(ConvProblem, FilterSet)> {
    let (mut c, mut h, mut w) = (channels, hw, hw);
    stack
        .layers
        .iter()
        .map(|l| {
            let p =
                ConvProblem::new(c, h, w, l.filters.count(), l.filters.k()).with_stride(l.stride);
            (c, h, w) = (l.filters.count(), p.out_height(), p.out_width());
            if l.pool && h >= 2 && w >= 2 {
                (h, w) = (h / 2, w / 2);
            }
            (p, l.filters.clone())
        })
        .collect()
}

/// The three stock stacks with their input channels and base sizes, and
/// the weights of the depthwise variant of LeNet conv2.
struct Stacks {
    stacks: [(LayerStack, usize, usize); 3],
    depthwise: FilterSet,
}

impl Stacks {
    fn new() -> Self {
        let lenet = LayerStack::lenet_like();
        let conv2 = &lenet.layers[1].filters;
        let depthwise = random_filters(conv2.channels(), 1, conv2.k(), 31);
        Stacks {
            stacks: [
                (LayerStack::vgg_like(), 3, 20),
                (LayerStack::alexnet_like(), 3, 31),
                (lenet, 1, 32),
            ],
            depthwise,
        }
    }

    /// One pass set: a forward pass of each stack at its base size plus
    /// `grow[i]` pixels, one request per layer (general, strided implicit
    /// GEMM and the special C = 1 stem), plus three requests mixed in on
    /// the LeNet pass's shapes: the stem in fp16 (half2), and conv2
    /// dilated by 2 and depthwise (both systolic).
    fn pass_set(&self, grow: [usize; 3]) -> Vec<Class> {
        let f32_class = |(problem, filters): &(ConvProblem, FilterSet)| Class {
            problem: *problem,
            dtype: DType::F32,
            filters: filters.clone(),
        };
        let mut out = Vec::new();
        // The stacks end with LeNet; the variants are built on its layers.
        let mut lenet = Vec::new();
        for ((stack, channels, base), g) in self.stacks.iter().zip(grow) {
            lenet = stack_layers(stack, *channels, base + g);
            out.extend(lenet.iter().map(f32_class));
        }
        let conv2 = lenet[1].0;
        let c = conv2.channels;
        out.push(Class {
            dtype: DType::F16,
            ..f32_class(&lenet[0])
        });
        out.push(Class {
            problem: conv2.with_dilation(2),
            ..f32_class(&lenet[1])
        });
        out.push(Class {
            problem: ConvProblem::new(c, conv2.height, conv2.width, c, conv2.k).depthwise(),
            dtype: DType::F32,
            filters: self.depthwise.clone(),
        });
        out
    }

    /// One round: a pass set for each entry of `grow`, the requests in
    /// seeded order, each with seeded input.
    fn round(&self, grow: &[[usize; 3]], rng: &mut StdRng) -> Vec<ConvRequest> {
        let mut order: Vec<Class> = grow.iter().flat_map(|&g| self.pass_set(g)).collect();
        shuffle(&mut order, rng);
        order
            .into_iter()
            .map(|c| {
                let p = c.problem;
                let input = random_maps(p.channels, p.height, p.width, rng.next_u64());
                ConvRequest::new(p, input, c.filters).with_dtype(c.dtype)
            })
            .collect()
    }
}

/// The seeded inputs of one run: the open-loop episodes (each with its
/// own Poisson arrivals from t = 0), then the bursts.
#[derive(Debug, Clone)]
pub struct Streams(Vec<Vec<ConvRequest>>);

impl Streams {
    fn episodes(&self) -> &[Vec<ConvRequest>] {
        &self.0[..EPISODES]
    }

    fn bursts(&self) -> &[Vec<ConvRequest>] {
        &self.0[EPISODES..]
    }

    fn requests(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Generates the run's requests from `seed`.
pub fn generate(seed: u64) -> Streams {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b63_6f6e_7665_7276);
    let stacks = Stacks::new();
    // Input growth of every open-loop forward pass, per stack: each size
    // equally often, in seeded order.
    let sized: Vec<Vec<usize>> = (0..3)
        .map(|_| {
            let mut v: Vec<usize> = (0..EPISODES * PASSES).map(|j| j % SIZES).collect();
            shuffle(&mut v, &mut rng);
            v
        })
        .collect();
    let grow: Vec<[usize; 3]> = (0..EPISODES * PASSES)
        .map(|j| [sized[0][j], sized[1][j], sized[2][j]])
        .collect();
    let mut runs: Vec<Vec<ConvRequest>> = grow
        .chunks(PASSES)
        .map(|grow| {
            let mut episode = stacks.round(grow, &mut rng);
            let mut t = 0.0;
            for r in &mut episode {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                t += -(1.0 - u).ln() / OFFERED_RPS;
                r.arrival = t;
            }
            episode
        })
        .collect();
    // The bursts run every size of every stack equally often: burst `b`
    // the `PASSES` sizes from `(b × PASSES) mod SIZES`, its requests in
    // seeded order.
    for b in 0..BURSTS {
        let grow: Vec<[usize; 3]> = (0..PASSES).map(|j| [(b * PASSES + j) % SIZES; 3]).collect();
        runs.push(stacks.round(&grow, &mut rng));
    }
    Streams(runs)
}

fn dtype(d: DType) -> DataType {
    match d {
        DType::F32 => DataType::F32,
        DType::F16 => DataType::F16,
        DType::I8 => DataType::I8,
    }
}

/// The CPU reference output of a request. An fp16 request is compared
/// with the reference on its fp16-quantized operands, which is what
/// `F16_TOL` bounds.
fn reference(r: &ConvRequest) -> FeatureMaps {
    match r.dtype {
        DType::F16 => conv_reference(
            &r.problem,
            &quantize_maps_f16(&r.input),
            &quantize_filters_f16(&r.filters),
        ),
        _ => conv_reference(&r.problem, &r.input, &r.filters),
    }
}

/// What one `ServeEngine::run` returned, with its `ServeMetrics` deltas.
struct Served {
    res: Vec<Resolution>,
    batches: u64,
    rejected: u64,
    plan_hits: u64,
    plan_misses: u64,
    makespan: f64,
}

impl Served {
    fn completions(&self) -> impl Iterator<Item = Option<&Completion>> {
        self.res.iter().map(|r| r.outcome.completion())
    }

    fn completed(&self) -> usize {
        self.completions().flatten().count()
    }
}

fn serve(
    engine: &mut ServeEngine,
    reqs: Vec<ConvRequest>,
    mut run: impl FnMut(&mut ServeEngine, Vec<ConvRequest>) -> Vec<Resolution>,
) -> Served {
    let b = *engine.metrics();
    let res = run(engine, reqs);
    let m = engine.metrics();
    Served {
        res,
        batches: m.batches - b.batches,
        rejected: m.rejected - b.rejected,
        plan_hits: m.plan_hits - b.plan_hits,
        plan_misses: m.plan_misses - b.plan_misses,
        makespan: m.makespan,
    }
}

/// Exactly one terminal state per request, in submission order, and every
/// completed output within tolerance of the CPU reference.
fn gate(streams: &Streams, refs: &[Vec<FeatureMaps>], served: &[Served]) -> Vec<String> {
    let mut bad = Vec::new();
    for (k, ((reqs, refs), s)) in streams.0.iter().zip(refs).zip(served).enumerate() {
        if s.res.len() != reqs.len() || s.res.iter().enumerate().any(|(i, r)| r.id.0 != i as u64) {
            bad.push(format!(
                "run {k}: {} resolutions for {} requests",
                s.res.len(),
                reqs.len()
            ));
            continue;
        }
        for (i, c) in s.completions().enumerate() {
            let Some(c) = c else { continue };
            let tol = if reqs[i].dtype == DType::F16 {
                F16_TOL
            } else {
                CONV_TOL
            };
            if !all_close(c.output.as_slice(), refs[i].as_slice(), tol) {
                bad.push(format!(
                    "run {k}: request {i} ({}) differs from conv_reference",
                    c.engine
                ));
            }
        }
    }
    bad
}

/// Whether two runs served identically: same outcomes, latencies and
/// output bits.
fn same(a: &Served, b: &Served) -> bool {
    a.res.len() == b.res.len()
        && a.completions()
            .zip(b.completions())
            .zip(a.res.iter().zip(&b.res))
            .all(|((x, y), (p, q))| match (x, y) {
                (Some(c), Some(d)) => {
                    c.latency == d.latency
                        && c.engine == d.engine
                        && c.output.as_slice() == d.output.as_slice()
                }
                (None, None) => p.outcome.label() == q.outcome.label(),
                _ => false,
            })
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Run, String> {
    let spec = GpuSpec::kepler_k40m();
    // Set-up: the requests and the engine. The reference outputs are the
    // gate's, computed once outside it.
    let (mut set_up, (streams, mut engine)) = Setup::new(|| {
        Ok((
            generate(cfg.seed),
            ServeEngine::new(spec.clone(), ServeConfig::default()),
        ))
    })?;
    let refs: Vec<Vec<FeatureMaps>> = streams
        .0
        .iter()
        .map(|reqs| reqs.iter().map(reference).collect())
        .collect();
    let n_runs = streams.0.len();

    // Warm-up cycle: fills the plan cache; its results are the gated ones
    // and give the modeled metrics.
    let warm: Vec<Served> = streams
        .0
        .iter()
        .map(|reqs| serve(&mut engine, reqs.clone(), |e, r| e.run(r)))
        .collect();
    let mut failures = gate(&streams, &refs, &warm);

    let open_lat: Vec<Option<f64>> = warm[..EPISODES]
        .iter()
        .flat_map(|s| s.completions().map(|c| c.map(|c| c.latency)))
        .collect();
    let done: Vec<f64> = open_lat.iter().flatten().copied().collect();
    let bursts = &warm[EPISODES..];
    let burst_done: usize = bursts.iter().map(Served::completed).sum();
    let burst_makespan: f64 = bursts.iter().map(|b| b.makespan).sum();
    let ok: usize = warm.iter().map(Served::completed).sum();
    let t = tail(&done).ok_or("too few open-loop completions for a tail percentile")?;
    let mut out = RunOutcome {
        metrics: Metrics::new(cfg.trace),
        ..RunOutcome::default()
    };
    let m = &mut out.metrics;
    // The bursts' useful conv flops per modeled second: the saturating
    // load in GFlop/s.
    let burst_flops: u64 = streams
        .bursts()
        .iter()
        .zip(bursts)
        .flat_map(|(reqs, b)| reqs.iter().zip(b.completions()))
        .filter(|(_, c)| c.is_some())
        .map(|(r, _)| r.problem.flops())
        .sum();
    let modeled = [
        ("serve.modeled_p50_ms", median(&done) * 1e3),
        ("serve.modeled_tail_ms", t.value * 1e3),
        ("serve.slo_frac", slo_frac(&open_lat, SLO_MS * 1e-3)),
        ("serve.capacity_rps", burst_done as f64 / burst_makespan),
    ];
    m.put("ok_frac", ok as f64 / streams.requests() as f64);
    m.put("modeled_gflops", burst_flops as f64 / burst_makespan / 1e9);
    for (k, v) in modeled {
        m.put(k, v);
        out.notes.insert(k.into(), v.to_string());
    }
    for (k, v) in [
        ("offered_rps", OFFERED_RPS.to_string()),
        ("slo_ms", SLO_MS.to_string()),
        ("tail_percentile", format!("{:.2}", t.percentile)),
        ("tail_samples", t.samples.to_string()),
        ("open_loop_requests", open_lat.len().to_string()),
        ("episodes", EPISODES.to_string()),
        (
            "burst_requests",
            streams
                .bursts()
                .iter()
                .map(Vec::len)
                .sum::<usize>()
                .to_string(),
        ),
    ] {
        out.notes.insert(k.into(), v);
    }

    // Measured ops: one `run` call each, cycling through the streams.
    let mut last: Vec<Option<Served>> = (0..n_runs).map(|_| None).collect();
    let mut ops = 0;
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); n_runs];
    let (mut attempted, mut failed) = (0, 0);
    // Peak RSS of the set-up, the gates and the warm-up, read before the
    // timed set-ups between the ops hold a second set-up's data.
    let peak_rss_mb = peak_rss_mb()?;
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    measure(
        secs,
        n_runs,
        |t| set_up.keep_up(t),
        || {
            let k = ops % n_runs;
            ops += 1;
            let reqs = streams.0[k].clone();
            let n = reqs.len();
            let mut wall = 0.0;
            let served = serve(&mut engine, reqs, |e, r| {
                let t = Instant::now();
                let res = e.run(r);
                wall = t.elapsed().as_secs_f64();
                res
            });
            walls[k].push(wall);
            attempted += n as u64;
            failed += (n - served.completed()) as u64;
            last[k] = Some(served);
            Ok(wall)
        },
    )?;
    // Per cycle: each round's median wall, summed over the rounds. A run
    // ends part-way through a cycle, so a median over the ops would weigh
    // the rounds it measured twice over the others.
    let cycle: f64 = walls.iter().map(|w| median(w)).sum();
    out.metrics
        .put("host_items_per_s", streams.requests() as f64 / cycle);
    let setup_s = set_up.median()?;
    out.metrics.put("setup_s", setup_s);
    out.metrics.put("peak_rss_mb", peak_rss_mb);
    out.attempted = attempted;
    out.failed = failed;
    if !last
        .iter()
        .zip(&warm)
        .all(|(l, w)| l.as_ref().is_some_and(|l| same(l, w)))
    {
        failures.push("a measured run served differently from the warm-up run".into());
    }

    let traced = if cfg.trace {
        let t = Traced {
            streams: &streams,
            warm: &warm,
            untraced_cycle: cycle,
            setup_s,
        };
        Some(t.run(cfg, &mut engine, &mut out, &mut failures)?)
    } else {
        None
    };
    Ok(Run {
        outcome: out,
        failures,
        traced,
        workers: Gpu::new(spec.clone()).parallelism().worker_threads(),
        spec: spec.name.into(),
    })
}

struct Traced<'a> {
    streams: &'a Streams,
    warm: &'a [Served],
    untraced_cycle: f64,
    setup_s: f64,
}

impl Traced<'_> {
    /// Plans and runs every request of round `k` directly, each in its own
    /// span, the way `ServeEngine::run` does: in dispatch order, with a
    /// warm `PlanCache` and a fresh `Gpu` per launch. Returns the launches
    /// (in submission order) and the seconds spent planning. With `check`,
    /// a direct output that differs from the served one is added to it.
    fn direct(
        &self,
        rec: &mut Recorder,
        cache: &mut PlanCache,
        k: usize,
        mut check: Option<&mut Vec<String>>,
    ) -> Result<(Vec<Launch>, f64), String> {
        let spec = GpuSpec::kepler_k40m();
        let serve_cfg = ServeConfig::default();
        // Dispatch order: the shared D2H engine drains batches in the
        // order they were dispatched, so sorting the requests by finish
        // time (members of a batch by id) replays it.
        let mut order: Vec<(usize, &ConvRequest, Option<&Completion>)> = self.streams.0[k]
            .iter()
            .zip(self.warm[k].completions())
            .enumerate()
            .map(|(j, (r, c))| (j, r, c))
            .collect();
        order.sort_by(|a, b| {
            let finish = |c: Option<&Completion>| c.map_or(f64::INFINITY, |c| c.finish);
            finish(a.2).total_cmp(&finish(b.2)).then(a.0.cmp(&b.0))
        });
        let calib = rec.begin("bench.calibrate", None);
        let mut launches: Vec<Option<Launch>> = vec![None; order.len()];
        let mut plan_s = 0.0;
        for (i, r, c) in order {
            let id = rec.begin("apps.plan", Some(i as u64));
            let plan = cache.plan_with_depth(
                serve_cfg.engine,
                &spec,
                &r.problem,
                dtype(r.dtype),
                serve_cfg.pipeline_depth,
            );
            plan_s += rec.end(id);
            let conv = plan
                .map_err(|e| format!("plan {}: {e}", r.problem))?
                .instantiate();
            let name = conv.name();
            let fam = family(&name).ok_or_else(|| format!("unexpected kernel {name}"))?;
            let mut gpu = Gpu::new(spec.clone());
            let id = rec.begin(format!("kernel.{fam}"), Some(i as u64));
            let run = conv.run(&mut gpu, &r.problem, &r.input, &r.filters, SimMode::Full);
            let host_s = rec.end(id);
            let run = run.map_err(|e| format!("direct run of {name}: {e}"))?;
            if let Some(bad) = check.as_deref_mut() {
                if !c.is_some_and(|c| {
                    c.engine == name && c.output.as_slice() == run.output.as_slice()
                }) {
                    bad.push(format!(
                        "run {k}, request {i}: direct {name} run differs from the served one"
                    ));
                }
            }
            launches[i] = Some(Launch {
                family: Some(fam),
                host_s,
                report: run.report,
            });
        }
        rec.end(calib);
        Ok((launches.into_iter().flatten().collect(), plan_s))
    }

    /// The traced run: ops of one `ServeEngine::run` call each, in a span,
    /// cycling through the rounds like the untraced ops. Each op is
    /// followed, outside it, by a direct pass over the same round
    /// ([`Traced::direct`]) that splits the serve span into layers; pairing
    /// them round by round keeps drifts of the host's speed out of the
    /// difference. Host times are reported per cycle: the sum over the
    /// rounds of each round's mean.
    fn run(
        &self,
        cfg: &Cfg,
        engine: &mut ServeEngine,
        out: &mut RunOutcome,
        failures: &mut Vec<String>,
    ) -> Result<(Recorder, SelfTimes), String> {
        let mut rec = Recorder::default();
        // The engine's plan cache is warm after the warm-up cycle; so is
        // this one after planning every request once, untimed.
        let mut cache = PlanCache::new();
        let serve_cfg = ServeConfig::default();
        for r in self.streams.0.iter().flatten() {
            cache
                .plan_with_depth(
                    serve_cfg.engine,
                    &GpuSpec::kepler_k40m(),
                    &r.problem,
                    dtype(r.dtype),
                    serve_cfg.pipeline_depth,
                )
                .map_err(|e| format!("plan {}: {e}", r.problem))?;
        }
        let n_runs = self.streams.0.len();
        // Per op: its span, round and planning seconds. Per round: the
        // direct launches with their host seconds summed over its ops.
        let mut ops: Vec<(usize, usize, f64)> = Vec::new();
        let mut rounds: Vec<Vec<Launch>> = vec![Vec::new(); n_runs];
        measure(cfg.seconds / 2.0, n_runs, nothing, || {
            let k = ops.len() % n_runs;
            let reqs = self.streams.0[k].clone();
            let op = rec.begin("bench.op", None);
            rec.time("serve.run", None, || engine.run(reqs));
            let wall = rec.end(op);
            // A round's first direct pass is also the gate on its served
            // outputs.
            let first = rounds[k].is_empty();
            let check = first.then_some(&mut *failures);
            let (launches, plan) = self.direct(&mut rec, &mut cache, k, check)?;
            if first {
                rounds[k] = launches;
            } else {
                for (sum, l) in rounds[k].iter_mut().zip(&launches) {
                    sum.host_s += l.host_s;
                }
            }
            ops.push((op, k, plan));
            Ok(wall)
        })?;
        let mut runs = vec![0usize; n_runs];
        for &(_, k, _) in &ops {
            runs[k] += 1;
        }
        // Sum over the rounds of each round's mean of `f` over its ops.
        let per_cycle = |f: &dyn Fn(usize, f64) -> f64| -> f64 {
            ops.iter()
                .map(|&(op, k, plan)| f(op, plan) / runs[k] as f64)
                .sum()
        };
        let op_s = per_cycle(&|op, _| rec.spans()[op].dur());
        let unattributed = per_cycle(&|op, _| rec.self_time(op));
        let run_s = op_s - unattributed;
        let plan_s = per_cycle(&|_, plan| plan);
        let launches: Vec<Launch> = rounds
            .into_iter()
            .zip(&runs)
            .flat_map(|(round, &n)| {
                round.into_iter().map(move |mut l| {
                    l.host_s /= n as f64;
                    l
                })
            })
            .collect();

        report_launches(out, &launches);
        let kernel_s: f64 = launches.iter().map(|l| l.host_s).sum();
        let serve_s = run_s - kernel_s - plan_s;
        let sum = |f: fn(&Served) -> u64| self.warm.iter().map(f).sum::<u64>() as f64;
        let completed: usize = self.warm.iter().map(Served::completed).sum();
        let link = ServeConfig::default().transfer;
        let waits: Vec<f64> = self
            .streams
            .episodes()
            .iter()
            .flatten()
            .zip(self.warm[..EPISODES].iter().flat_map(Served::completions))
            .zip(&launches)
            .filter_map(|((r, c), l)| {
                Some(
                    c?.latency
                        - link.h2d_seconds(r.h2d_bytes())
                        - l.report.seconds()
                        - link.d2h_seconds(r.d2h_bytes()),
                )
            })
            .collect();
        // At this load most requests never wait, so the median wait is 0
        // on every seed; it is recorded in the manifest and the mean is
        // the metric.
        for (k, v) in [
            ("serve.batches", sum(|s| s.batches).to_string()),
            ("serve.wait_p50_ms", (median(&waits) * 1e3).to_string()),
        ] {
            out.notes.insert(k.into(), v);
        }
        let m = &mut out.metrics;
        m.put("serve.self_s", serve_s);
        m.put("serve.batch_mean", completed as f64 / sum(|s| s.batches));
        m.put("serve.plan_hits", sum(|s| s.plan_hits));
        m.put("serve.plan_misses", sum(|s| s.plan_misses));
        m.put("serve.shed", sum(|s| s.rejected));
        m.put(
            "serve.wait_mean_ms",
            waits.iter().sum::<f64>() / waits.len() as f64 * 1e3,
        );
        m.put(
            "serve.wait_tail_ms",
            tail(&waits)
                .ok_or("too few waits for a tail percentile")?
                .value
                * 1e3,
        );
        m.put("apps.plan_s", plan_s);
        m.put("setup.inputs_s", self.setup_s);

        let mut rows = vec![
            ("serve".to_string(), serve_s),
            ("apps.plan".to_string(), plan_s),
        ];
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
        let table = SelfTimes {
            rows,
            op_s,
            unattributed,
        };
        m.put(
            "trace_overhead_frac",
            (table.op_s - self.untraced_cycle) / self.untraced_cycle,
        );
        Ok((rec, table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &Streams) -> Vec<(String, DType, u64, u32)> {
        s.0.iter()
            .flatten()
            .map(|r| {
                (
                    r.problem.to_string(),
                    r.dtype,
                    r.arrival.to_bits(),
                    r.input.as_slice()[0].to_bits(),
                )
            })
            .collect()
    }

    /// A request's layer, whatever its input size.
    fn layer(r: &ConvRequest) -> String {
        let p = r.problem;
        format!(
            "{}->{} k{} s{} d{} dw{} {:?}",
            p.channels, p.filters, p.k, p.stride, p.dilation, p.depthwise, r.dtype
        )
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_mix() {
        let a = generate(7);
        assert_eq!(key(&a), key(&generate(7)));
        let b = generate(8);
        assert_ne!(key(&a), key(&b));
        let order = |s: &Streams| {
            s.0.iter()
                .flatten()
                .map(|r| (r.problem.to_string(), r.dtype))
                .collect::<Vec<_>>()
        };
        assert_ne!(order(&a), order(&b), "another seed changes the mix");
        assert_eq!(a.episodes().len(), EPISODES);
        for e in a.episodes() {
            assert!(e.windows(2).all(|w| w[0].arrival < w[1].arrival));
        }
        assert_eq!(a.bursts().len(), BURSTS);
        for b in a.bursts() {
            assert!(b.len() <= ServeConfig::default().queue_capacity);
            assert!(b.iter().all(|r| r.arrival == 0.0));
        }
    }

    #[test]
    fn every_round_is_forward_passes_of_every_layer() {
        for round in &generate(3).0 {
            let mut counts = std::collections::BTreeMap::new();
            for r in round {
                *counts.entry(layer(r)).or_insert(0) += 1;
            }
            // 3 + 3 + 2 stack layers and 3 mixed-in variants, each once
            // per pass; VGG conv2 and AlexNet conv3 share a layer shape.
            assert_eq!(counts.len(), 10, "{counts:?}");
            assert_eq!(counts["64->128 k3 s1 d1 dwfalse F32"], 2 * PASSES);
            assert_eq!(counts.values().sum::<usize>(), 11 * PASSES);
            assert!(counts.values().all(|&n| n % PASSES == 0), "{counts:?}");
        }
    }

    #[test]
    fn open_loop_and_bursts_run_every_input_size_equally_often() {
        let s = generate(5);
        let heights = |rounds: &[Vec<ConvRequest>]| {
            let mut h = std::collections::BTreeMap::new();
            for r in rounds.iter().flatten() {
                if layer(r) == "1->8 k5 s1 d1 dwfalse F32" {
                    *h.entry(r.problem.height).or_insert(0) += 1;
                }
            }
            h
        };
        let open = heights(s.episodes());
        assert_eq!(open.len(), SIZES);
        assert!(open.values().all(|&n| n == EPISODES * PASSES / SIZES));
        let burst = heights(s.bursts());
        assert_eq!(burst.len(), SIZES);
        assert!(burst.values().all(|&n| n == BURSTS * PASSES / SIZES));
    }

    #[test]
    fn the_mix_reaches_every_family() {
        let spec = GpuSpec::kepler_k40m();
        let mut fams: Vec<&str> = Stacks::new()
            .pass_set([0; 3])
            .iter()
            .map(|c| {
                let plan = kconv_apps::Engine::Auto
                    .plan_with_depth(&spec, &c.problem, dtype(c.dtype), 0)
                    .expect("every class resolves");
                family(&plan.instantiate().name()).expect("a known family")
            })
            .collect();
        fams.sort_unstable();
        fams.dedup();
        assert_eq!(
            fams,
            ["general", "half2", "implicit_gemm", "special", "systolic"]
        );
    }
}
