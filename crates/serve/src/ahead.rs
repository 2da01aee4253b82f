//! Run-ahead: the requests' primary kernel launches, computed on host
//! worker threads while the serving loop itself stays sequential.
//!
//! A launch on a fresh [`Gpu`] is a pure function of the plan, the
//! problem, the input, the filters, the spec and the sanitizer /
//! step-budget environment, so its result is bit-identical whichever
//! thread computed it and whenever. Workers therefore compute each
//! well-formed request's *primary attempt* — the plan
//! [`Engine::plan_with_depth`] resolves, run without an injected fault —
//! in arrival order, at most a window of arrivals past the point the
//! serving loop has admitted. The loop takes a primary attempt only for a
//! request's first attempt, on that same plan, when chaos injects no
//! fault into the launch (running it itself if no worker has claimed it
//! yet); every other attempt runs inline. Which attempts take the primary
//! is thus fixed by the modeled loop, never by thread timing, and nothing
//! the loop models (clock, counters, events) depends on which thread ran
//! a launch.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use kconv_apps::{Engine, EnginePlan};
use kconv_core::{ConvError, ConvRun};
use kconv_sim::GpuSpec;

use crate::engine::{launch, malformed, ServeConfig};
use crate::request::{ConvRequest, RequestId};

/// Arrivals each worker may run ahead of the serving loop's admission
/// point. Work past that point is speculative: an arrival the loop then
/// sheds was computed for nothing, so the window bounds that waste.
const WINDOW_PER_WORKER: usize = 16;

/// One request's run-ahead state.
enum Slot {
    /// Not started: a worker may claim it.
    Open,
    /// A worker is computing it.
    Running,
    /// The primary attempt's plan and result.
    Ready(EnginePlan, Box<Result<ConvRun, ConvError>>),
    /// Taken, released, or never to be computed ahead.
    Gone,
}

struct State {
    slots: Vec<Slot>,
    /// The next slot (arrival position) a worker looks at.
    next: usize,
    /// Arrivals whose admission the serving loop has decided.
    admitted: usize,
    /// The serving loop is done: workers stop.
    closed: bool,
}

/// The run-ahead of one [`ServeEngine::run`](crate::ServeEngine::run)
/// call over its arrivals (sorted by arrival time; a slot is a position
/// in that order).
pub(crate) struct RunAhead<'r> {
    spec: GpuSpec,
    engine: Engine,
    depth: usize,
    arrivals: &'r [(RequestId, ConvRequest)],
    window: usize,
    state: Mutex<State>,
    changed: Condvar,
}

impl<'r> RunAhead<'r> {
    /// Runs `serve` on the calling thread while `workers` scoped threads
    /// compute primary attempts ahead of it. The workers stop and are
    /// joined when `serve` returns or unwinds.
    pub(crate) fn scope<T>(
        spec: GpuSpec,
        cfg: &ServeConfig,
        arrivals: &'r [(RequestId, ConvRequest)],
        workers: usize,
        serve: impl FnOnce(&RunAhead<'r>) -> T,
    ) -> T {
        let slots: Vec<Slot> = arrivals
            .iter()
            .map(|(_, req)| {
                // A request the loop will reject, or whose deadline
                // passes before its input can land, never launches.
                let hopeless =
                    req.deadline <= req.arrival + cfg.transfer.h2d_seconds(req.h2d_bytes());
                if malformed(req).is_some() || hopeless {
                    Slot::Gone
                } else {
                    Slot::Open
                }
            })
            .collect();
        let open = slots.iter().filter(|s| matches!(s, Slot::Open)).count();
        let ahead = RunAhead {
            spec,
            engine: cfg.engine,
            depth: cfg.pipeline_depth,
            arrivals,
            window: WINDOW_PER_WORKER * workers,
            state: Mutex::new(State {
                slots,
                next: 0,
                admitted: 0,
                closed: false,
            }),
            changed: Condvar::new(),
        };
        std::thread::scope(|s| {
            for _ in 0..workers.min(open) {
                s.spawn(|| ahead.work());
            }
            let _close = Close(&ahead);
            serve(&ahead)
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("run-ahead state is valid after every update")
    }

    /// Records that the loop has decided the admission of the first
    /// `admitted` arrivals, widening the workers' window.
    pub(crate) fn admitted(&self, admitted: usize) {
        self.lock().admitted = admitted;
        self.changed.notify_all();
    }

    /// The primary attempt of `slot` on `plan`: a worker's result
    /// (waiting while one computes it) or, when no worker has claimed the
    /// slot yet, the same launch run here. `None` when the slot was never
    /// to run ahead or a worker resolved another plan.
    pub(crate) fn take(&self, slot: usize, plan: EnginePlan) -> Option<Result<ConvRun, ConvError>> {
        let mut st = self.lock();
        while matches!(st.slots[slot], Slot::Running) {
            st = self
                .changed
                .wait(st)
                .expect("run-ahead state is valid after every update");
        }
        match std::mem::replace(&mut st.slots[slot], Slot::Gone) {
            Slot::Ready(ran, run) => (ran == plan).then_some(*run),
            Slot::Open => {
                drop(st);
                let req = &self.arrivals[slot].1;
                Some(launch(&self.spec, plan.instantiate().as_ref(), req, None))
            }
            Slot::Running | Slot::Gone => None,
        }
    }

    /// Drops whatever `slot` holds or would compute: the loop will not
    /// ask for it. A result still being computed is dropped with the
    /// run-ahead.
    pub(crate) fn release(&self, slot: usize) {
        let mut st = self.lock();
        if !matches!(st.slots[slot], Slot::Running) {
            st.slots[slot] = Slot::Gone;
        }
    }

    /// A worker: claims open slots in arrival order within the window and
    /// computes their primary attempts.
    fn work(&self) {
        loop {
            let slot = {
                let mut st = self.lock();
                loop {
                    if st.closed || st.next == st.slots.len() {
                        return;
                    }
                    if st.next >= st.admitted + self.window {
                        st = self
                            .changed
                            .wait(st)
                            .expect("run-ahead state is valid after every update");
                        continue;
                    }
                    let slot = st.next;
                    st.next += 1;
                    if matches!(st.slots[slot], Slot::Open) {
                        st.slots[slot] = Slot::Running;
                        break slot;
                    }
                }
            };
            let run = panic::catch_unwind(AssertUnwindSafe(|| self.primary(slot)));
            let (done, panicked) = match run {
                Ok(run) => (
                    run.map_or(Slot::Gone, |(p, r)| Slot::Ready(p, Box::new(r))),
                    None,
                ),
                // Hand the slot back, so the loop reruns it inline (and
                // meets the same panic there) instead of waiting for it.
                Err(payload) => (Slot::Gone, Some(payload)),
            };
            self.lock().slots[slot] = done;
            self.changed.notify_all();
            if let Some(payload) = panicked {
                panic::resume_unwind(payload);
            }
        }
    }

    /// The primary attempt of `slot`: `None` when the engine cannot
    /// resolve a plan (the loop then walks the fallback chain inline).
    fn primary(&self, slot: usize) -> Option<(EnginePlan, Result<ConvRun, ConvError>)> {
        let req = &self.arrivals[slot].1;
        let plan = self
            .engine
            .plan_with_depth(&self.spec, &req.problem, req.dtype.data_type(), self.depth)
            .ok()?;
        let run = launch(&self.spec, plan.instantiate().as_ref(), req, None);
        Some((plan, run))
    }
}

/// Stops the workers when the serving loop ends, also by unwinding, so
/// the scope can join them.
struct Close<'a, 'r>(&'a RunAhead<'r>);

impl Drop for Close<'_, '_> {
    fn drop(&mut self) {
        let ahead = self.0;
        ahead
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        ahead.changed.notify_all();
    }
}
