//! The serving engine: admission, batching, stream dispatch and the
//! resilience loop.

use std::collections::{BTreeMap, VecDeque};

use kconv_apps::{Engine, PlanCache};
use kconv_core::{ConvError, ConvRun, Convolution, FaultRecord, NaiveConv, RetryClass};
use kconv_sim::{FaultInjection, Gpu, GpuSpec, Parallelism, SimMode};
use kconv_tensor::rng::StdRng;

use crate::ahead::RunAhead;
use crate::chaos::ChaosConfig;
use crate::policy::{Breaker, BreakerConfig, BreakerState, RetryPolicy};
use crate::request::{Completion, ConvRequest, DType, Outcome, RequestId, Resolution, ServeError};
use crate::stream::{StreamModel, Streams};

/// Serving-engine tuning. The defaults model a 4-stream pipeline with a
/// small batch window, a 64-deep admission queue and the default retry /
/// breaker policies.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine route for `F32` requests (narrow dtypes route to the
    /// special-case kernels regardless).
    pub engine: Engine,
    /// Staging-pipeline depth requested from systolic plans: `0` = auto
    /// (the deepest schedule that fits shared memory), `1` = the
    /// stage/compute baseline, `2` = double-buffered. Part of the plan
    /// cache key, so switching it never reuses a stale resolution.
    pub pipeline_depth: usize,
    /// Number of simulated streams.
    pub streams: usize,
    /// Maximum requests batched into one dispatch (same problem + dtype).
    pub max_batch: usize,
    /// Admission high-water mark: arrivals finding this many requests
    /// queued are shed with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Retry policy per engine.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning (one breaker per engine name).
    pub breaker: BreakerConfig,
    /// Transfer-link model.
    pub transfer: StreamModel,
    /// Modeled cost of a failed kernel attempt (fault containment and
    /// teardown), charged to the serving clock.
    pub fault_penalty_s: f64,
    /// Seed for retry jitter.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: Engine::Auto,
            pipeline_depth: 0,
            streams: 4,
            max_batch: 4,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            transfer: StreamModel::default(),
            fault_penalty_s: 2e-4,
            seed: 0x5EED_5EED,
        }
    }
}

/// Counters aggregated over one [`ServeEngine::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeMetrics {
    /// Requests submitted.
    pub submitted: u64,
    /// ... that completed.
    pub completed: u64,
    /// ... that were rejected at admission (shed or malformed).
    pub rejected: u64,
    /// ... that ran out of deadline budget.
    pub deadline_exceeded: u64,
    /// ... that failed after retries (or fatally).
    pub failed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Same-engine retry attempts.
    pub retries: u64,
    /// Batchmates re-enqueued because a batch was poisoned.
    pub re_enqueued: u64,
    /// Calls skipped because an engine's breaker was open.
    pub breaker_skips: u64,
    /// Breaker trips across all engines.
    pub breaker_trips: u64,
    /// Breaker recoveries (successful half-open probes).
    pub breaker_recoveries: u64,
    /// Plan-cache hits / misses.
    pub plan_hits: u64,
    /// Plan-cache misses (distinct resolutions computed).
    pub plan_misses: u64,
    /// Modeled time at which the last scheduled work drained.
    pub makespan: f64,
}

/// Notable state transitions, in the order they happened on the serving
/// clock.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// An engine's breaker tripped open.
    BreakerOpened {
        /// Engine name.
        engine: String,
        /// Modeled time.
        at: f64,
    },
    /// An open breaker admitted a half-open probe.
    BreakerHalfOpened {
        /// Engine name.
        engine: String,
        /// Modeled time.
        at: f64,
    },
    /// A half-open probe succeeded; the breaker closed.
    BreakerClosed {
        /// Engine name.
        engine: String,
        /// Modeled time.
        at: f64,
    },
    /// A device fault poisoned a batch; the remaining members were
    /// re-enqueued.
    BatchPoisoned {
        /// The request whose execution faulted.
        faulty: RequestId,
        /// How many batchmates were sent back to the queue.
        re_enqueued: usize,
        /// Modeled time.
        at: f64,
    },
}

/// One queued request: its id, its run-ahead slot (its position in
/// arrival order) and its payload.
#[derive(Debug, Clone, Copy)]
struct Pending<'r> {
    id: RequestId,
    slot: usize,
    req: &'r ConvRequest,
}

/// How one member's execution ended, plus whether it poisoned the batch.
struct MemberEnd {
    outcome: Outcome,
    poisoned: bool,
    now: f64,
}

/// The queued, batching, fault-isolating serving engine.
///
/// Deterministic by construction: a single logical clock, seeded jitter,
/// seeded chaos, and kernel launches that are pure functions of their
/// inputs. Two runs with the same requests, config and chaos plan produce
/// identical resolutions, metrics and events — under any
/// [`Parallelism`], which sets only how many host threads compute the
/// launches. With more than one worker, the requests' primary attempts
/// run ahead on worker threads while admission, batching, streams,
/// breakers, retries and chaos stay on one sequential loop; a precomputed
/// result is used only for a request's first attempt on the plan it was
/// computed for, with no injected fault, and every other attempt runs
/// inline. Outputs, engine names, finish times, latencies, fault records,
/// metrics (plan-cache hits and misses included) and events are
/// bit-identical to the serial run.
#[derive(Debug)]
pub struct ServeEngine {
    spec: GpuSpec,
    cfg: ServeConfig,
    parallelism: Parallelism,
    cache: PlanCache,
    breakers: BTreeMap<String, Breaker>,
    rng: StdRng,
    chaos: Option<ChaosConfig>,
    launches: u64,
    events: Vec<ServeEvent>,
    metrics: ServeMetrics,
}

impl ServeEngine {
    /// An engine serving on (simulated) `spec` hardware, computing its
    /// launches on [`Parallelism::env_or_auto`] host workers.
    pub fn new(spec: GpuSpec, cfg: ServeConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        ServeEngine {
            spec,
            cfg,
            parallelism: Parallelism::env_or_auto(),
            cache: PlanCache::new(),
            breakers: BTreeMap::new(),
            rng,
            chaos: None,
            launches: 0,
            events: Vec::new(),
            metrics: ServeMetrics::default(),
        }
    }

    /// Arms a chaos plan: every launch consults it for fault injections
    /// and latency spikes.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets how many host threads compute launches. Results are
    /// bit-identical under every value; each launch itself always runs
    /// its blocks serially.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Host threads that compute launches (1 = everything inline).
    pub fn host_workers(&self) -> usize {
        self.parallelism.worker_threads()
    }

    /// Counters for the run(s) so far.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// State transitions recorded so far, in clock order.
    pub fn events(&self) -> &[ServeEvent] {
        &self.events
    }

    /// Serves a closed workload: admits `requests` in arrival order,
    /// batches compatible shapes, dispatches over the stream pipeline and
    /// drains the queue. Returns exactly one [`Resolution`] per submitted
    /// request, in submission order.
    pub fn run(&mut self, requests: Vec<ConvRequest>) -> Vec<Resolution> {
        self.metrics.submitted += requests.len() as u64;
        let mut arrivals: Vec<(RequestId, ConvRequest)> = requests
            .into_iter()
            .enumerate()
            .map(|(i, req)| (RequestId(i as u64), req))
            .collect();
        arrivals.sort_by(|a, b| a.1.arrival.total_cmp(&b.1.arrival));
        let workers = self.host_workers();
        if workers > 1 {
            let (spec, cfg) = (self.spec.clone(), self.cfg.clone());
            RunAhead::scope(spec, &cfg, &arrivals, workers, |ahead| {
                self.serve(&arrivals, Some(ahead))
            })
        } else {
            self.serve(&arrivals, None)
        }
    }

    /// The sequential serving loop over `arrivals` (sorted by arrival
    /// time): admission, dispatch and drain, with `ahead` computing
    /// primary attempts on other threads.
    fn serve<'r>(
        &mut self,
        arrivals: &'r [(RequestId, ConvRequest)],
        ahead: Option<&RunAhead<'r>>,
    ) -> Vec<Resolution> {
        let mut resolutions: Vec<Option<Resolution>> = arrivals.iter().map(|_| None).collect();
        let mut streams = Streams::new(self.cfg.streams);
        let mut queue: VecDeque<Pending<'r>> = VecDeque::new();
        for (slot, (id, req)) in arrivals.iter().enumerate() {
            let pending = Pending { id: *id, slot, req };
            // Work the queue up to this arrival: any batch that would have
            // started strictly before now has left the queue (a batch
            // starting exactly now still sees this arrival, so
            // same-instant requests batch together).
            while !queue.is_empty() && self.earliest_start(&streams, &queue) < req.arrival {
                self.dispatch(&mut streams, &mut queue, &mut resolutions, ahead);
            }
            if let Some(reason) = malformed(req) {
                self.resolve(
                    &mut resolutions,
                    *id,
                    Outcome::Rejected(ServeError::Malformed(reason)),
                );
            } else if queue.len() >= self.cfg.queue_capacity {
                if let Some(ahead) = ahead {
                    ahead.release(slot);
                }
                self.resolve(
                    &mut resolutions,
                    *id,
                    Outcome::Rejected(ServeError::QueueFull {
                        capacity: self.cfg.queue_capacity,
                    }),
                );
            } else {
                queue.push_back(pending);
            }
            if let Some(ahead) = ahead {
                ahead.admitted(slot + 1);
            }
        }
        while !queue.is_empty() {
            self.dispatch(&mut streams, &mut queue, &mut resolutions, ahead);
        }
        self.metrics.makespan = streams.makespan();
        let (hits, misses) = self.cache.stats();
        self.metrics.plan_hits = hits;
        self.metrics.plan_misses = misses;
        resolutions
            .into_iter()
            .map(|r| r.expect("every request reaches exactly one terminal state"))
            .collect()
    }

    /// The time the head-of-queue batch would start its H2D copy.
    fn earliest_start(&self, streams: &Streams, queue: &VecDeque<Pending<'_>>) -> f64 {
        let head = queue[0];
        let mut s = streams.clone();
        let lane = s.pick();
        s.h2d(lane, head.req.arrival, 0.0)
    }

    /// Records a terminal state (exactly once per id) and tallies it.
    fn resolve(&mut self, resolutions: &mut [Option<Resolution>], id: RequestId, outcome: Outcome) {
        match &outcome {
            Outcome::Completed(_) => self.metrics.completed += 1,
            Outcome::Rejected(_) => self.metrics.rejected += 1,
            Outcome::DeadlineExceeded(_) => self.metrics.deadline_exceeded += 1,
            Outcome::Failed(_) => self.metrics.failed += 1,
        }
        let slot = &mut resolutions[id.0 as usize];
        assert!(slot.is_none(), "{id} resolved twice");
        *slot = Some(Resolution { id, outcome });
    }

    /// Forms a batch from the queue head, runs it on the best stream, and
    /// resolves (or re-enqueues) its members.
    fn dispatch<'r>(
        &mut self,
        streams: &mut Streams,
        queue: &mut VecDeque<Pending<'r>>,
        resolutions: &mut [Option<Resolution>],
        ahead: Option<&RunAhead<'r>>,
    ) {
        let head = queue.pop_front().expect("dispatch on non-empty queue");
        let mut batch = vec![head];
        let key = (batch[0].req.problem, batch[0].req.dtype);
        let mut i = 0;
        while i < queue.len() && batch.len() < self.cfg.max_batch {
            if (queue[i].req.problem, queue[i].req.dtype) == key {
                batch.push(queue.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        self.metrics.batches += 1;

        let lane = streams.pick();
        let ready = batch
            .iter()
            .map(|p| p.req.arrival)
            .fold(f64::NEG_INFINITY, f64::max);
        let h2d_bytes: u64 = batch.iter().map(|p| p.req.h2d_bytes()).sum();
        let h2d_end = streams.h2d(lane, ready, self.cfg.transfer.h2d_seconds(h2d_bytes));

        let mut now = streams.compute_start(lane).max(h2d_end);
        // (id, arrival, deadline, outcome) of every member that reached a
        // terminal state in this dispatch.
        let mut ended: Vec<(RequestId, f64, f64, Outcome)> = Vec::new();
        let mut d2h_bytes = 0u64;
        let mut members = batch.into_iter();
        for pending in members.by_ref() {
            let end = self.execute(pending.req, now, ahead.map(|a| (a, pending.slot)));
            if let Some(ahead) = ahead {
                ahead.release(pending.slot);
            }
            now = end.now;
            if let Outcome::Completed(_) = &end.outcome {
                d2h_bytes += pending.req.d2h_bytes();
            }
            let poisoned = end.poisoned;
            ended.push((
                pending.id,
                pending.req.arrival,
                pending.req.deadline,
                end.outcome,
            ));
            if poisoned {
                // Fault isolation: the faulty request alone owns its fate;
                // untouched batchmates go back to the front of the queue
                // (in order) to be re-batched.
                let rest: Vec<Pending<'r>> = members.collect();
                self.events.push(ServeEvent::BatchPoisoned {
                    faulty: pending.id,
                    re_enqueued: rest.len(),
                    at: now,
                });
                self.metrics.re_enqueued += rest.len() as u64;
                for p in rest.into_iter().rev() {
                    queue.push_front(p);
                }
                break;
            }
        }
        streams.commit_compute(lane, now);
        let d2h_end = streams.d2h(lane, self.cfg.transfer.d2h_seconds(d2h_bytes));

        for (id, arrival, deadline, outcome) in ended {
            let finalized = match outcome {
                Outcome::Completed(mut c) => {
                    c.finish = d2h_end;
                    c.latency = d2h_end - arrival;
                    if d2h_end > deadline {
                        // The output exists but landed too late: the
                        // deadline is on delivery, not on compute.
                        Outcome::DeadlineExceeded(ServeError::DeadlineExceeded {
                            deadline,
                            at: d2h_end,
                        })
                    } else {
                        Outcome::Completed(c)
                    }
                }
                other => other,
            };
            self.resolve(resolutions, id, finalized);
        }
    }

    /// Runs one request's resilience loop starting at modeled time `now`:
    /// engine chain with per-engine breakers, bounded retry with seeded
    /// backoff on transient faults, deadline checks before every attempt.
    /// With `ahead`, the first attempt on the resolved plan takes its
    /// run-ahead result when chaos injects no fault into it.
    fn execute(
        &mut self,
        req: &ConvRequest,
        mut now: f64,
        ahead: Option<(&RunAhead<'_>, usize)>,
    ) -> MemberEnd {
        let mut faults: Vec<FaultRecord> = Vec::new();
        let mut chain: Vec<Box<dyn Convolution>> = Vec::new();
        // All dtypes resolve through the dtype/bank-width-aware plan
        // cache, so narrow requests get the variant matched to the
        // serving spec (e.g. half2 n=2 on a 4-byte-bank part) instead of
        // a hard-wired Kepler kernel.
        let plan = match self.cache.plan_with_depth(
            self.cfg.engine,
            &self.spec,
            &req.problem,
            req.dtype.data_type(),
            self.cfg.pipeline_depth,
        ) {
            Ok(plan) => {
                chain.push(plan.instantiate());
                Some(plan)
            }
            Err(e) => {
                faults.push(FaultRecord {
                    engine: format!("{:?} (resolution)", self.cfg.engine),
                    error: e,
                });
                None
            }
        };
        for fallback in [
            Engine::ImplicitGemm
                .plan(&self.spec, &req.problem)
                .expect("implicit GEMM accepts every shape")
                .instantiate(),
            Box::new(NaiveConv::default()) as Box<dyn Convolution>,
        ] {
            if !chain.iter().any(|c| c.name() == fallback.name()) {
                chain.push(fallback);
            }
        }

        let mut poisoned = false;
        let mut attempts = 0u32;
        let mut skips = 0u32;
        let mut last_error = None;
        for (position, conv) in chain.iter().enumerate() {
            let name = conv.name();
            let breaker = self
                .breakers
                .entry(name.clone())
                .or_insert_with(|| Breaker::new(self.cfg.breaker));
            let was = breaker.state();
            if !breaker.allow(now) {
                self.metrics.breaker_skips += 1;
                skips += 1;
                continue;
            }
            if was == BreakerState::Open {
                self.events.push(ServeEvent::BreakerHalfOpened {
                    engine: name.clone(),
                    at: now,
                });
            }
            let mut engine_retries = 0u32;
            loop {
                if now >= req.deadline {
                    return MemberEnd {
                        outcome: Outcome::DeadlineExceeded(ServeError::DeadlineExceeded {
                            deadline: req.deadline,
                            at: now,
                        }),
                        poisoned,
                        now,
                    };
                }
                let index = self.launches;
                self.launches += 1;
                let (injection, spike) = match &self.chaos {
                    Some(c) => (c.injection_for(index), c.spike_for(index)),
                    None => (None, 0.0),
                };
                attempts += 1;
                let primary = match (ahead, plan) {
                    (Some((ahead, slot)), Some(plan))
                        if position == 0 && attempts == 1 && injection.is_none() =>
                    {
                        ahead.take(slot, plan)
                    }
                    _ => None,
                };
                let run =
                    primary.unwrap_or_else(|| launch(&self.spec, conv.as_ref(), req, injection));
                match run {
                    Ok(run) => {
                        now += run.report.seconds() + spike;
                        let breaker = self.breakers.get_mut(&name).expect("breaker exists");
                        let was_half = breaker.state() == BreakerState::HalfOpen;
                        breaker.record_success();
                        if was_half {
                            self.metrics.breaker_recoveries += 1;
                            self.events.push(ServeEvent::BreakerClosed {
                                engine: name.clone(),
                                at: now,
                            });
                        }
                        return MemberEnd {
                            outcome: Outcome::Completed(Completion {
                                output: run.output,
                                engine: name,
                                finish: now,
                                latency: 0.0,
                                retries: engine_retries,
                                breaker_skips: skips,
                                faults,
                            }),
                            poisoned,
                            now,
                        };
                    }
                    Err(e) => {
                        now += spike + self.cfg.fault_penalty_s;
                        let class = e.retry_class();
                        faults.push(FaultRecord {
                            engine: name.clone(),
                            error: e.clone(),
                        });
                        let breaker = self.breakers.get_mut(&name).expect("breaker exists");
                        let tripped = breaker.record_failure(now);
                        let open = breaker.state() == BreakerState::Open;
                        if tripped {
                            self.metrics.breaker_trips += 1;
                            self.events.push(ServeEvent::BreakerOpened {
                                engine: name.clone(),
                                at: now,
                            });
                        }
                        match class {
                            RetryClass::Transient => {
                                poisoned = true;
                                if engine_retries + 1 < self.cfg.retry.max_attempts && !open {
                                    engine_retries += 1;
                                    self.metrics.retries += 1;
                                    now += self.cfg.retry.backoff(engine_retries, &mut self.rng);
                                    continue;
                                }
                                last_error = Some(e);
                                break;
                            }
                            RetryClass::Fallback => {
                                last_error = Some(e);
                                break;
                            }
                            RetryClass::Fatal => {
                                return MemberEnd {
                                    outcome: Outcome::Failed(ServeError::Fatal(e)),
                                    poisoned,
                                    now,
                                };
                            }
                        }
                    }
                }
            }
        }
        MemberEnd {
            outcome: Outcome::Failed(ServeError::FailedAfterRetries {
                attempts,
                last: last_error
                    .unwrap_or(kconv_core::ConvError::Config("no engine available".into())),
            }),
            poisoned,
            now,
        }
    }
}

/// Runs `conv` for `req` on a fresh serial [`Gpu`] with `injection`
/// armed. The serving engine's worker threads are its only host
/// concurrency, so launches never thread their blocks.
pub(crate) fn launch(
    spec: &GpuSpec,
    conv: &dyn Convolution,
    req: &ConvRequest,
    injection: Option<FaultInjection>,
) -> Result<ConvRun, ConvError> {
    let mut gpu = Gpu::new(spec.clone()).with_parallelism(Parallelism::Serial);
    gpu.set_fault_injection(injection);
    conv.run(
        &mut gpu,
        &req.problem,
        &req.input,
        &req.filters,
        SimMode::Full,
    )
}

/// Why a request cannot be admitted, when it cannot.
pub(crate) fn malformed(req: &ConvRequest) -> Option<String> {
    if !req.problem.matches(&req.input, &req.filters) {
        return Some(format!(
            "data does not match {} (input {}x{}x{}, filters {}x{}x{}x{})",
            req.problem,
            req.input.channels(),
            req.input.height(),
            req.input.width(),
            req.filters.count(),
            req.filters.channels(),
            req.filters.k(),
            req.filters.k(),
        ));
    }
    if req.dtype != DType::F32 && req.problem.channels != 1 {
        return Some(format!(
            "{:?} routes to the special-case kernels, which require C = 1 (got C = {})",
            req.dtype, req.problem.channels
        ));
    }
    if !req.deadline.is_nan() && req.deadline < req.arrival {
        return Some(format!(
            "deadline {:.6}s predates arrival {:.6}s",
            req.deadline, req.arrival
        ));
    }
    None
}
