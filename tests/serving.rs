//! Facade-level tests of the resilient serving layer and the retry
//! classification it shares with the fallback chains.
//!
//! 1. End-to-end serving through `kconv::serve`: a mixed workload with a
//!    chaos plan reaches exactly one typed terminal state per request and
//!    replays bit-identically.
//! 2. Fault-record determinism: the multi-engine fallback chain records
//!    the same faults, in the same order, with bit-identical output,
//!    whether the simulator runs serially or on a thread pool.
//! 3. The retryable-vs-terminal partition of `ConvError` is exhaustive
//!    and matches the documented policy (transient device faults retry,
//!    shape/config rejections fall through, host errors abort).
//! 4. Run-ahead differential: serving on 2 or 4 host workers gives the
//!    serial run's resolutions, metrics and events bit for bit, on mixed,
//!    chaotic, shedding and malformed/expiring streams.

use kconv::core::{ConvError, RetryClass};
use kconv::prelude::Engine;
use kconv::serve::{
    BreakerConfig, ChaosConfig, ConvRequest, DType, Outcome, Resolution, ServeConfig, ServeEngine,
    ServeError, ServeEvent, ServeMetrics,
};
use kconv::sim::SimError;
use kconv::sim::{
    AccessKind, DeviceFault, FaultInjection, FaultKind, FaultSchedule, Gpu, GpuSpec, MemSpace,
    Parallelism, SimMode,
};
use kconv::tensor::{random_filters, random_maps, ConvProblem};

fn request(problem: ConvProblem, salt: u64) -> ConvRequest {
    let input = random_maps(problem.channels, problem.height, problem.width, 500 + salt);
    let filters = random_filters(problem.filters, problem.channels, problem.k, 600 + salt);
    ConvRequest::new(problem, input, filters)
}

/// The serving layer, driven purely through the facade: typed terminal
/// states under chaos, fault isolation, and bit-exact replays.
#[test]
fn serving_facade_end_to_end_under_chaos() {
    let special = ConvProblem::special(40, 4, 3);
    let general = ConvProblem::general(20, 2, 8, 3);
    let workload = || -> Vec<ConvRequest> {
        let mut reqs: Vec<ConvRequest> = (0..3).map(|s| request(special, s).at(0.0)).collect();
        reqs.push(request(general, 10).at(1e-4));
        reqs.push(request(special, 11).with_dtype(DType::F16).at(2e-4));
        // Malformed: problem says C=1 but the data is 2-channel.
        let mut bad = request(special, 12).at(3e-4);
        bad.input = random_maps(2, 40, 40, 777);
        reqs.push(bad);
        reqs.push(request(general, 13).at(4e-4).with_deadline(4e-4 + 1e-9));
        reqs
    };
    // Fault the first two launches: the first batch member retries, its
    // batchmates are re-enqueued and complete cleanly later.
    let chaos = ChaosConfig::new(9, FaultSchedule::new(9, 1_000_000, "").with_window(0, 2));
    let run = |chaos: Option<ChaosConfig>| {
        let mut engine = ServeEngine::new(GpuSpec::kepler_k40m(), ServeConfig::default());
        if let Some(c) = chaos {
            engine = engine.with_chaos(c);
        }
        let res = engine.run(workload());
        (res, *engine.metrics(), engine.events().to_vec())
    };

    let (res, metrics, events) = run(Some(chaos.clone()));
    assert_eq!(res.len(), 7, "one resolution per request");
    assert_eq!(
        metrics.completed + metrics.rejected + metrics.deadline_exceeded + metrics.failed,
        metrics.submitted,
        "every request reaches exactly one terminal state"
    );
    assert!(matches!(
        res[5].outcome,
        Outcome::Rejected(ServeError::Malformed(_))
    ));
    assert!(matches!(
        res[6].outcome,
        Outcome::DeadlineExceeded(ServeError::DeadlineExceeded { .. })
    ));
    assert!(metrics.retries > 0, "injected faults retried");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ServeEvent::BatchPoisoned { .. })),
        "poisoned batch recorded"
    );
    for id in [1, 2] {
        let done = res[id].outcome.completion().expect("batchmate completes");
        assert!(done.clean(), "re-enqueued batchmates complete cleanly");
    }

    // Clean completions are bit-identical to a chaos-free run.
    let (quiet, _, _) = run(None);
    for r in &res {
        if let Some(c) = r.outcome.completion().filter(|c| c.clean()) {
            let q = quiet[r.id.0 as usize]
                .outcome
                .completion()
                .expect("clean request completes without chaos");
            assert_eq!(c.output.as_slice(), q.output.as_slice());
            assert_eq!(c.engine, q.engine);
        }
    }

    // Same seeds, same everything.
    let (res2, metrics2, events2) = run(Some(chaos));
    assert_eq!(metrics, metrics2);
    assert_eq!(events, events2);
    for (a, b) in res.iter().zip(&res2) {
        assert_eq!(a.outcome.label(), b.outcome.label());
        if let (Some(x), Some(y)) = (a.outcome.completion(), b.outcome.completion()) {
            assert_eq!(x.output.as_slice(), y.output.as_slice());
            assert_eq!(x.latency, y.latency);
        }
    }
}

/// A two-fault fallback chain — forced `Special` rejects the multi-channel
/// shape at resolution, then sabotaged implicit GEMM faults on device —
/// must record its `FaultRecord`s in deterministic engine order with a
/// bit-identical answer, serial or threaded.
#[test]
fn fault_records_are_deterministic_across_parallelism() {
    let p = ConvProblem::general(20, 2, 8, 3);
    let input = random_maps(2, 20, 20, 41);
    let filters = random_filters(8, 2, 3, 43);
    let sabotage = FaultInjection {
        kernel_substr: "implicit-gemm".into(),
        block: 0,
        op_index: 0,
        lane: 0,
        addr_xor: 1 << 44,
    };
    let run_with = |par: Parallelism| {
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m())
            .with_parallelism(par)
            .with_fault_injection(sabotage.clone());
        Engine::Special
            .run_resilient(&mut gpu, &p, &input, &filters, SimMode::Full)
            .expect("naive reference still answers")
    };

    let serial = run_with(Parallelism::Serial);
    assert_eq!(
        serial.faults.len(),
        2,
        "resolution rejection + device fault"
    );
    assert!(
        serial.faults[0].engine.contains("Special"),
        "first fault is the forced engine's resolution rejection: {}",
        serial.faults[0].engine
    );
    assert!(
        serial.faults[1].engine.contains("implicit GEMM"),
        "second fault is the sabotaged fallback: {}",
        serial.faults[1].engine
    );
    assert_eq!(serial.faults[0].error.retry_class(), RetryClass::Fallback);
    assert_eq!(serial.faults[1].error.retry_class(), RetryClass::Transient);

    let threaded = run_with(Parallelism::Threads(4));
    assert_eq!(serial.faults.len(), threaded.faults.len());
    for (a, b) in serial.faults.iter().zip(&threaded.faults) {
        assert_eq!(a.engine, b.engine, "fault order independent of threading");
        assert_eq!(a.error.to_string(), b.error.to_string());
    }
    assert_eq!(
        serial.output.as_slice(),
        threaded.output.as_slice(),
        "the absorbed-fault answer is bit-identical under threading"
    );
}

/// Every `ConvError` falls in exactly one retry class, and the partition
/// matches the documented policy. The `match` below is exhaustive without
/// a wildcard: adding an error variant without classifying it breaks this
/// test at compile time.
#[test]
fn retry_classification_partitions_every_error() {
    let device_fault = || {
        SimError::KernelFault(Box::new(DeviceFault {
            kernel: "k".into(),
            block: 0,
            warp: 0,
            lane: 0,
            kind: FaultKind::OutOfBounds {
                space: MemSpace::Global,
                access: AccessKind::Load,
                addr: 1 << 44,
                width: 4,
                limit: 1024,
            },
        }))
    };
    let cases: Vec<(ConvError, RetryClass)> = vec![
        (ConvError::Sim(device_fault()), RetryClass::Transient),
        (
            ConvError::Sim(SimError::AllocTooLarge {
                requested: 2,
                available: 1,
                space: "global",
            }),
            RetryClass::Fatal,
        ),
        (
            ConvError::Sim(SimError::InvalidLaunch("zero threads".into())),
            RetryClass::Fatal,
        ),
        (
            ConvError::Sim(SimError::HostTransferOutOfBounds {
                offset: 8,
                len: 8,
                buffer: 4,
            }),
            RetryClass::Fatal,
        ),
        (
            ConvError::Sim(SimError::Internal("bug".into())),
            RetryClass::Fatal,
        ),
        (ConvError::Config("bad tile".into()), RetryClass::Fallback),
        (ConvError::Shape("C mismatch".into()), RetryClass::Fallback),
    ];
    for (err, want) in &cases {
        assert_eq!(err.retry_class(), *want, "{err}");
        // The recoverable() predicate is derived, not independent.
        assert_eq!(
            err.retry_class().recoverable(),
            *want != RetryClass::Fatal,
            "{err}"
        );
        // Exhaustiveness guard: every constructed case must match one of
        // the three classes (the compiler enforces the enum is covered).
        match err.retry_class() {
            RetryClass::Transient | RetryClass::Fallback | RetryClass::Fatal => {}
        }
    }
    // Both sides of the partition are inhabited.
    assert!(cases.iter().any(|(_, c)| c.recoverable()));
    assert!(cases.iter().any(|(_, c)| !c.recoverable()));
}

/// What one `ServeEngine::run` returned and recorded.
struct Served {
    res: Vec<Resolution>,
    metrics: ServeMetrics,
    events: Vec<ServeEvent>,
}

fn serve_on(
    parallelism: Parallelism,
    cfg: &ServeConfig,
    chaos: Option<&ChaosConfig>,
    reqs: Vec<ConvRequest>,
) -> Served {
    let mut engine =
        ServeEngine::new(GpuSpec::kepler_k40m(), cfg.clone()).with_parallelism(parallelism);
    if let Some(c) = chaos {
        engine = engine.with_chaos(c.clone());
    }
    let res = engine.run(reqs);
    Served {
        res,
        metrics: *engine.metrics(),
        events: engine.events().to_vec(),
    }
}

/// Serves `workload` serially and on 2 and 4 host workers, asserts the
/// three runs are bit-identical, and returns the serial one.
fn assert_run_ahead_matches_serial(
    stream: &str,
    cfg: ServeConfig,
    chaos: Option<ChaosConfig>,
    workload: impl Fn() -> Vec<ConvRequest>,
) -> Served {
    let serial = serve_on(Parallelism::Serial, &cfg, chaos.as_ref(), workload());
    for n in [2, 4] {
        let ahead = serve_on(Parallelism::Threads(n), &cfg, chaos.as_ref(), workload());
        let at = format!("{stream}, Threads({n})");
        assert_eq!(ahead.res.len(), serial.res.len(), "{at}");
        for (a, s) in ahead.res.iter().zip(&serial.res) {
            assert_eq!(a.id, s.id, "{at}");
            match (&a.outcome, &s.outcome) {
                (Outcome::Completed(a), Outcome::Completed(s)) => {
                    let bits = |c: &kconv::serve::Completion| {
                        c.output
                            .as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>()
                    };
                    assert!(bits(a) == bits(s), "{at}: output bits differ");
                    assert_eq!(a.engine, s.engine, "{at}");
                    assert_eq!(a.finish.to_bits(), s.finish.to_bits(), "{at}");
                    assert_eq!(a.latency.to_bits(), s.latency.to_bits(), "{at}");
                    assert_eq!(a.retries, s.retries, "{at}");
                    assert_eq!(a.breaker_skips, s.breaker_skips, "{at}");
                    assert_eq!(format!("{:?}", a.faults), format!("{:?}", s.faults), "{at}");
                }
                // Every float in a typed error prints in its shortest
                // round-trip form, so equal text means equal bits.
                (a, s) => assert_eq!(format!("{a:?}"), format!("{s:?}"), "{at}"),
            }
        }
        assert_eq!(
            format!("{:?}", ahead.metrics),
            format!("{:?}", serial.metrics),
            "{at}"
        );
        assert_eq!(ahead.events, serial.events, "{at}");
    }
    serial
}

fn depthwise(c: usize, hw: usize, salt: u64) -> ConvRequest {
    let p = ConvProblem::new(c, hw, hw, c, 3).depthwise();
    ConvRequest::new(
        p,
        random_maps(c, hw, hw, 500 + salt),
        random_filters(c, 1, 3, 600 + salt),
    )
}

#[test]
fn run_ahead_matches_serial_on_a_mixed_stream() {
    let special = ConvProblem::special(24, 4, 3);
    let general = ConvProblem::general(20, 2, 8, 3);
    let served = assert_run_ahead_matches_serial("mixed", ServeConfig::default(), None, || {
        vec![
            request(special, 1).at(0.0),
            request(general, 2).at(0.0),
            request(general, 3).at(0.0),
            request(special, 4).with_dtype(DType::F16).at(1e-5),
            request(special, 5).with_dtype(DType::I8).at(1e-5),
            request(ConvProblem::general(21, 2, 8, 3).with_stride(2), 6).at(2e-5),
            request(ConvProblem::general(22, 3, 4, 3).with_dilation(2), 7).at(3e-5),
            depthwise(4, 16, 8).at(4e-5),
            request(general, 9).at(4e-5),
            request(special, 10).at(2e-3),
        ]
    });
    assert_eq!(served.metrics.completed, 10);
    assert!(served.metrics.plan_hits > 0, "{:?}", served.metrics);
}

#[test]
fn run_ahead_matches_serial_under_chaos() {
    // The first three launches fault: the same-instant trio is poisoned,
    // the special kernel's breaker trips, and the probe at 8 ms closes it.
    let special = ConvProblem::special(24, 4, 3);
    let cfg = ServeConfig {
        breaker: BreakerConfig {
            trip_after: 3,
            cooldown_s: 1e-3,
        },
        ..ServeConfig::default()
    };
    let chaos = ChaosConfig::new(77, FaultSchedule::new(77, 1_000_000, "").with_window(0, 3))
        .with_spikes(200_000, 3e-4);
    let served = assert_run_ahead_matches_serial("chaos", cfg, Some(chaos), || {
        let mut reqs: Vec<ConvRequest> = (0..3).map(|s| request(special, 20 + s)).collect();
        for (i, p) in [
            ConvProblem::general(20, 2, 8, 3),
            ConvProblem::general(18, 2, 4, 5),
        ]
        .into_iter()
        .enumerate()
        {
            reqs.push(request(p, 30 + i as u64).at(1e-4 * (i + 1) as f64));
        }
        reqs.push(request(special, 40).at(8e-3));
        reqs
    });
    let m = served.metrics;
    assert!(m.breaker_trips >= 1 && m.breaker_recoveries >= 1, "{m:?}");
    assert!(m.retries >= 2 && m.re_enqueued >= 2, "{m:?}");
    assert!(served
        .events
        .iter()
        .any(|e| matches!(e, ServeEvent::BatchPoisoned { .. })));
}

#[test]
fn run_ahead_matches_serial_on_a_shed_burst() {
    let cfg = ServeConfig {
        queue_capacity: 3,
        ..ServeConfig::default()
    };
    let served = assert_run_ahead_matches_serial("burst", cfg, None, || {
        [
            ConvProblem::special(20, 2, 3),
            ConvProblem::general(16, 2, 4, 3),
        ]
        .into_iter()
        .cycle()
        .take(9)
        .enumerate()
        .map(|(i, p)| request(p, 50 + i as u64))
        .collect()
    });
    assert_eq!(served.metrics.rejected, 6, "{:?}", served.metrics);
    assert_eq!(served.metrics.completed, 3);
}

#[test]
fn run_ahead_matches_serial_on_malformed_and_expired_requests() {
    let special = ConvProblem::special(24, 4, 3);
    let general = ConvProblem::general(20, 2, 8, 3);
    let served = assert_run_ahead_matches_serial("malformed", ServeConfig::default(), None, || {
        let mut bad = request(special, 60);
        bad.input = random_maps(2, 24, 24, 61);
        vec![
            request(general, 62),
            request(ConvProblem::general(18, 2, 4, 5), 63),
            bad,
            request(general, 64).with_dtype(DType::F16),
            // Lands in time but waits behind the first two kernels.
            request(ConvProblem::general(16, 2, 4, 3), 65).with_deadline(2e-6),
            // Cannot even finish its upload.
            request(special, 66).at(1e-4).with_deadline(1e-4 + 1e-9),
        ]
    });
    let malformed = served
        .res
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Rejected(ServeError::Malformed(_))))
        .count();
    assert_eq!(malformed, 2);
    assert_eq!(served.metrics.deadline_exceeded, 2, "{:?}", served.metrics);
}
