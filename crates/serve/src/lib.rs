//! Resilient conv-serving layer over the kconv kernels.
//!
//! Turns the per-launch building blocks — [`Engine`](kconv_apps::Engine)
//! resolution, fallback chains, contained device faults — into a
//! request-level serving engine:
//!
//! - **Admission**: arrivals above a queue high-water mark are shed with a
//!   typed [`ServeError::QueueFull`]; self-inconsistent requests are
//!   rejected as [`ServeError::Malformed`] before touching the device.
//! - **Batching**: queued requests with the same problem shape and dtype
//!   are dispatched together, sharing one resolution from a
//!   [`PlanCache`](kconv_apps::PlanCache) and one modeled transfer.
//! - **Streams**: dispatches ride N simulated in-order streams sharing an
//!   H2D engine, a compute engine and a D2H engine ([`Streams`]), so
//!   transfers overlap compute exactly as in the CUDA multi-stream
//!   pipeline the snippet corpus measures.
//! - **Resilience**: per-request deadline budgets, bounded retry with
//!   seeded-jitter backoff ([`RetryPolicy`]), a circuit breaker per engine
//!   ([`Breaker`]), and per-request fault isolation — a poisoned batch
//!   re-enqueues its untouched members and only the faulty request pays.
//! - **Chaos**: a seeded [`ChaosConfig`] injects device faults (via
//!   [`FaultSchedule`](kconv_sim::FaultSchedule)) and latency spikes;
//!   the engine stays deterministic under chaos, which is what the
//!   `serve --check` harness exploits to prove clean requests are
//!   bit-identical with chaos on and off.
//! - **Host concurrency**: the loop above runs on one thread while the
//!   requests' primary kernel launches run ahead on
//!   [`ServeEngine::host_workers`] threads; the loop uses such a result
//!   only for a first, fault-free attempt on the same plan, so every
//!   resolution, metric and event is bit-identical to a serial run.
//!
//! Every submitted request reaches **exactly one** terminal state
//! ([`Outcome`]): completed, rejected, deadline-exceeded or failed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ahead;
mod chaos;
mod engine;
mod policy;
mod request;
mod stream;

pub use chaos::ChaosConfig;
pub use engine::{ServeConfig, ServeEngine, ServeEvent, ServeMetrics};
pub use policy::{Breaker, BreakerConfig, BreakerState, RetryPolicy};
pub use request::{Completion, ConvRequest, DType, Outcome, RequestId, Resolution, ServeError};
pub use stream::{StreamModel, Streams};

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_sim::{FaultSchedule, GpuSpec, Parallelism};
    use kconv_tensor::{random_filters, random_maps, ConvProblem};

    fn request(seed: u64) -> ConvRequest {
        let p = ConvProblem::special(20, 2, 3);
        ConvRequest::new(
            p,
            random_maps(1, 20, 20, seed),
            random_filters(2, 1, 3, seed + 1),
        )
    }

    #[test]
    fn happy_path_completes_every_request_cleanly() {
        let mut engine = ServeEngine::new(GpuSpec::kepler_k40m(), ServeConfig::default());
        let reqs: Vec<ConvRequest> = (0..3)
            .map(|i| request(100 + i).at(i as f64 * 1e-4))
            .collect();
        let res = engine.run(reqs);
        assert_eq!(res.len(), 3);
        for r in &res {
            let c = r.outcome.completion().expect("completed");
            assert!(c.clean(), "{}: {:?}", r.id, c.faults);
            assert!(c.latency > 0.0 && c.finish >= c.latency);
        }
        let m = engine.metrics();
        assert_eq!(m.completed, 3);
        assert_eq!(m.submitted, 3);
        assert!(m.makespan > 0.0);
    }

    #[test]
    fn batching_shares_one_plan_across_same_shape_requests() {
        let mut engine = ServeEngine::new(GpuSpec::kepler_k40m(), ServeConfig::default());
        let reqs: Vec<ConvRequest> = (0..4).map(request).collect();
        engine.run(reqs);
        let m = engine.metrics();
        assert_eq!(m.plan_misses, 1, "one shape, one resolution");
        assert_eq!(m.plan_hits, 3);
        assert_eq!(m.batches, 1, "same shape and instant arrivals: one batch");
    }

    #[test]
    fn malformed_and_expired_requests_get_typed_outcomes() {
        let mut engine = ServeEngine::new(GpuSpec::kepler_k40m(), ServeConfig::default());
        let good = request(1);
        let mut bad = request(2);
        bad.input = random_maps(1, 8, 8, 9); // shape mismatch
        let hopeless = request(3).with_deadline(1e-12);
        let res = engine.run(vec![good, bad, hopeless]);
        assert!(matches!(res[0].outcome, Outcome::Completed(_)));
        assert!(matches!(
            res[1].outcome,
            Outcome::Rejected(ServeError::Malformed(_))
        ));
        assert!(matches!(
            res[2].outcome,
            Outcome::DeadlineExceeded(ServeError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn admission_control_sheds_a_burst() {
        let cfg = ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(GpuSpec::kepler_k40m(), cfg);
        let reqs: Vec<ConvRequest> = (0..6).map(request).collect();
        let res = engine.run(reqs);
        let shed = res
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected(ServeError::QueueFull { .. })))
            .count();
        assert!(shed > 0, "burst above high-water mark must shed");
        let m = engine.metrics();
        assert_eq!(m.completed + m.rejected, 6);
    }

    #[test]
    fn chaos_faults_are_retried_and_isolated() {
        // Fault every launch in a window: the first dispatch is poisoned,
        // batchmates re-enqueue, and the faulty request either retries to
        // success (once the window passes) or fails typed.
        let chaos = ChaosConfig::new(7, FaultSchedule::new(7, 1_000_000, "").with_window(0, 2));
        let mut engine =
            ServeEngine::new(GpuSpec::kepler_k40m(), ServeConfig::default()).with_chaos(chaos);
        let reqs: Vec<ConvRequest> = (0..3).map(request).collect();
        let res = engine.run(reqs);
        let m = *engine.metrics();
        assert_eq!(m.completed, 3, "chaos window passes, everyone completes");
        assert!(m.retries > 0, "the faulted request retried");
        assert!(m.re_enqueued > 0, "batchmates were re-enqueued");
        assert!(engine
            .events()
            .iter()
            .any(|e| matches!(e, ServeEvent::BatchPoisoned { .. })));
        // The poisoned request carries its fault records.
        let dirty = res
            .iter()
            .filter_map(|r| r.outcome.completion())
            .filter(|c| !c.clean())
            .count();
        assert!(dirty >= 1);
    }

    #[test]
    fn pipeline_depth_selects_the_systolic_schedule_bit_identically() {
        // A dilated request is outside the dense engines' matrix, so Auto
        // routes it to the systolic pipeline. Forcing depth 1 vs depth 2
        // must change the schedule (engine label) but not a single output
        // bit -- the serving layer inherits the kernel's bit-identity
        // guarantee across pipeline depths.
        let p = ConvProblem::general(22, 3, 4, 3).with_dilation(2);
        let serve_at = |depth: usize| {
            let cfg = ServeConfig {
                pipeline_depth: depth,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(GpuSpec::kepler_k40m(), cfg);
            let req =
                ConvRequest::new(p, random_maps(3, 22, 22, 901), random_filters(4, 3, 3, 903));
            let res = engine.run(vec![req]);
            let c = res[0].outcome.completion().expect("completed").clone();
            assert!(c.clean(), "{:?}", c.faults);
            c
        };
        let d1 = serve_at(1);
        let d2 = serve_at(2);
        let auto = serve_at(0);
        assert!(d1.engine.contains("systolic d1"), "{}", d1.engine);
        assert!(d2.engine.contains("systolic d2"), "{}", d2.engine);
        assert!(auto.engine.contains("systolic d2"), "{}", auto.engine);
        assert_eq!(d1.output.as_slice(), d2.output.as_slice());
        assert_eq!(d2.output.as_slice(), auto.output.as_slice());
    }

    #[test]
    fn same_seed_same_resolutions() {
        let chaos = ChaosConfig::new(11, FaultSchedule::new(11, 400_000, "").with_window(0, 6))
            .with_spikes(300_000, 5e-4);
        let run = |chaos: ChaosConfig| {
            let mut engine =
                ServeEngine::new(GpuSpec::kepler_k40m(), ServeConfig::default()).with_chaos(chaos);
            let reqs: Vec<ConvRequest> = (0..5).map(|i| request(i).at(i as f64 * 2e-4)).collect();
            let res = engine.run(reqs);
            (
                res.iter()
                    .map(|r| (r.id, r.outcome.label().to_string()))
                    .collect::<Vec<_>>(),
                *engine.metrics(),
            )
        };
        assert_eq!(run(chaos.clone()), run(chaos));
    }

    #[test]
    fn run_ahead_serves_bit_identically_to_serial() {
        // A burst above the high-water mark whose first batch is poisoned
        // by the chaos window, latency spikes, and narrow, malformed,
        // expired and multi-channel requests behind it.
        let chaos = ChaosConfig::new(3, FaultSchedule::new(3, 1_000_000, "").with_window(0, 2))
            .with_spikes(300_000, 2e-4);
        let serve = |parallelism: Parallelism| {
            let cfg = ServeConfig {
                queue_capacity: 6,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(GpuSpec::kepler_k40m(), cfg)
                .with_parallelism(parallelism)
                .with_chaos(chaos.clone());
            assert_eq!(engine.host_workers(), parallelism.worker_threads());
            let mut reqs: Vec<ConvRequest> = (0..8).map(request).collect();
            reqs.push(request(20).with_dtype(DType::F16).at(1e-4));
            let mut bad = request(21).at(2e-4);
            bad.input = random_maps(1, 8, 8, 9);
            reqs.push(bad);
            reqs.push(request(22).at(3e-4).with_deadline(3e-4 + 1e-9));
            let p = ConvProblem::general(12, 2, 4, 3);
            reqs.push(
                ConvRequest::new(p, random_maps(2, 12, 12, 23), random_filters(4, 2, 3, 24))
                    .at(4e-4),
            );
            let res = engine.run(reqs);
            // Debug prints every float in its shortest round-trip form,
            // so equal text means equal bits.
            format!("{res:?}\n{:?}\n{:?}", engine.metrics(), engine.events())
        };
        let serial = serve(Parallelism::Serial);
        assert!(serial.contains("QueueFull") && serial.contains("BatchPoisoned"));
        for n in [2, 4] {
            assert!(
                serve(Parallelism::Threads(n)) == serial,
                "Threads({n}) served differently from Serial"
            );
        }
    }
}
