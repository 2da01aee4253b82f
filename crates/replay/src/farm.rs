//! The replay farm's sweep engine: fan pure trace×spec replay cells over
//! a scoped thread pool.
//!
//! A sweep cell — "re-price launch L of trace T under spec S" — touches
//! only immutable inputs ([`Trace`] slabs and a [`GpuSpec`]) and produces
//! an owned [`ReplayReport`], so cells are embarrassingly parallel. The
//! unit of work is one launch with every spec requested for its trace,
//! priced in a single walk over the launch's slabs (once per pricing key,
//! see the crate docs). The engine distributes units over
//! `std::thread::scope` workers (no external dependencies, an atomic work
//! index, per-worker result buffers) and then places every result into
//! its pre-assigned slot, so the output is **bit-identical and
//! deterministically ordered** — ascending `(trace, spec, launch)` — no
//! matter the thread count or the order cells were requested in. The
//! farm harness and the serial ≡ threaded tests pin that invariant.

use std::ops::Range;

use kconv_sim::{GpuSpec, Parallelism, TraceOp};
use kconv_trace::{DecodedLaunch, Trace};

use crate::{price_launch, ReplayError, ReplayReport};

/// One completed cell of a sweep: the replay of `trace`'s `launch`-th
/// launch under `spec`, with the indices that place it in the grid.
#[derive(Debug)]
pub struct SweepCell {
    /// Index into the sweep's trace list.
    pub trace: usize,
    /// Index of the launch within that trace.
    pub launch: usize,
    /// Index into the sweep's spec list.
    pub spec: usize,
    /// The re-priced launch, or why this cell could not be priced.
    pub report: Result<ReplayReport, ReplayError>,
}

/// Sweeps the full cartesian product: every launch of every trace under
/// every spec, in ascending `(trace, spec, launch)` order.
///
/// Results are bit-identical across [`Parallelism::Serial`] and any
/// [`Parallelism::Threads`] count.
pub fn sweep(traces: &[Trace], specs: &[GpuSpec], parallelism: Parallelism) -> Vec<SweepCell> {
    let cells: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..specs.len()).map(move |s| (t, s)))
        .collect();
    sweep_cells(traces, specs, &cells, parallelism)
}

/// Sweeps an explicit cell list, where each entry names a
/// `(trace index, spec index)` pair. Duplicates are priced once; the
/// output is canonicalized to ascending `(trace, spec, launch)` order
/// regardless of the order `cells` arrived in, so a shuffled request and
/// a sorted one produce identical output.
///
/// # Panics
///
/// Panics if a cell indexes outside `traces` or `specs` — the farm
/// builds cell lists from the same slices it passes here, so an
/// out-of-range index is a caller bug, not data-dependent input.
pub fn sweep_cells(
    traces: &[Trace],
    specs: &[GpuSpec],
    cells: &[(usize, usize)],
    parallelism: Parallelism,
) -> Vec<SweepCell> {
    let mut work: Vec<(usize, usize)> = cells.to_vec();
    for &(t, s) in &work {
        assert!(t < traces.len(), "cell trace index {t} out of range");
        assert!(s < specs.len(), "cell spec index {s} out of range");
    }
    work.sort_unstable();
    work.dedup();

    // Output slots: pair `work[i]` owns `base[i]..base[i] + launches`, so
    // the slot order is ascending (trace, spec, launch).
    let mut base = Vec::with_capacity(work.len());
    let mut slot_count = 0;
    for &(t, _) in &work {
        base.push(slot_count);
        slot_count += traces[t].launches().len();
    }

    let units = units(traces, &work);
    let (work, base) = (&work, &base);
    let price = |(t, l, run): &(usize, usize, Range<usize>)| -> Vec<(usize, SweepCell)> {
        let unit_specs = work[run.clone()].iter().map(|&(_, s)| specs[s].clone());
        let reports = price_launch(&traces[*t].launches()[*l], unit_specs.collect());
        run.clone()
            .zip(reports)
            .map(|(i, report)| {
                let cell = SweepCell {
                    trace: *t,
                    launch: *l,
                    spec: work[i].1,
                    report: Ok(report),
                };
                (base[i] + l, cell)
            })
            .collect()
    };

    let workers = parallelism.worker_threads().min(units.len().max(1));
    let finished: Vec<(usize, SweepCell)> = if workers <= 1 {
        units.iter().flat_map(price).collect()
    } else {
        // Scoped pool: an atomic cursor hands out unit indices and each
        // worker collects (slot, cell) pairs; the merge below writes
        // every cell into its slot, so output order never depends on
        // scheduling.
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(unit) = units.get(i) else {
                                break;
                            };
                            local.extend(price(unit));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    };
    let mut slots: Vec<Option<SweepCell>> = (0..slot_count).map(|_| None).collect();
    for (slot, cell) in finished {
        debug_assert!(slots[slot].is_none());
        slots[slot] = Some(cell);
    }
    slots
        .into_iter()
        .map(|c| c.expect("every cell priced exactly once"))
        .collect()
}

/// Pricing weight of one event of each op, indexed by
/// [`TraceOp::index`], in units of about 200 ns of serial pricing over
/// the 16-spec grid. Fitted (non-negative least squares over the 15
/// corpus captures) to the per-capture serial pricing times of kbench's
/// `farm-sweep` (`replay.price_share` × `replay.price_s`, seed 1, 2-core
/// host): about 400 ns per constant load, 700 per global load or store,
/// 580 per shared-memory access and 6,400 per read-only load, which
/// walks a FIFO per key; barriers fit no weight.
const OP_COST: [usize; TraceOp::COUNT] = [4, 4, 32, 3, 3, 2, 0];
/// Further weight of one explicit event, whose lanes the lane engine
/// reads one by one under every key: about 6,600 ns in the same fit.
const EXPLICIT_COST: usize = 33;

/// A launch's estimated pricing cost: the sweep schedules its units by
/// it. Event count alone misorders them: `special-7x7`'s warp-uniform
/// constant loads price several times cheaper each than `general-7x7`'s
/// shared-memory and explicit events.
fn pricing_cost(launch: &DecodedLaunch) -> usize {
    let by_op: usize = TraceOp::ALL
        .into_iter()
        .map(|op| launch.op_events(op) * OP_COST[op.index()])
        .sum();
    by_op + launch.explicit_events() * EXPLICIT_COST
}

/// The units of work the pool schedules: each (trace, launch) with the
/// contiguous run of `work` pairs that request that trace, priced under
/// all of their specs in one walk over the launch's slabs. Costliest
/// first ([`pricing_cost`]), so the long units do not straggle at the
/// end; ties keep (trace, launch) order.
fn units(traces: &[Trace], work: &[(usize, usize)]) -> Vec<(usize, usize, Range<usize>)> {
    let mut units: Vec<(usize, usize, Range<usize>)> = Vec::new();
    let mut start = 0;
    for run in work.chunk_by(|a, b| a.0 == b.0) {
        let (t, pairs) = (run[0].0, start..start + run.len());
        start = pairs.end;
        units.extend((0..traces[t].launches().len()).map(|l| (t, l, pairs.clone())));
    }
    units.sort_by_key(|&(t, l, _)| std::cmp::Reverse(pricing_cost(&traces[t].launches()[l])));
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TargetSpec;
    use kconv_sim::{lane_addrs, BankWidth, Gpu, LaneMask, LaunchConfig, SimMode};

    /// Captures a small two-block launch touching GM + SM + CM.
    fn capture(seed: u64) -> Trace {
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let src = gpu.alloc_f32(256).unwrap();
        gpu.upload_f32(src, &vec![1.0; 256]).unwrap();
        gpu.write_const_f32(0, &[2.0; 32]).unwrap();
        let cfg = LaunchConfig::new("farm-cell", 2, 64).with_smem(2048);
        let (result, bytes) = kconv_trace::capture(&mut gpu, |gpu| {
            gpu.launch(&cfg, SimMode::Full, |blk| {
                let id = blk.dims.block_id as u64;
                blk.each_warp(|w| {
                    let a = lane_addrs(src.f32_addr((seed % 2) * 32 + id * 64), 4);
                    let x = w.ld_global::<1>(&a, LaneMask::ALL);
                    let s = lane_addrs(w.warp_id() as u64 * 128, 4);
                    w.st_shared::<1>(&s, &x, LaneMask::ALL);
                    let _ = w.ld_const(
                        &kconv_sim::lane_addrs_uniform(4 * (seed % 8)),
                        LaneMask::ALL,
                    );
                });
                blk.sync();
            })
        });
        result.unwrap();
        Trace::decode(&bytes).unwrap()
    }

    fn grid() -> Vec<GpuSpec> {
        GpuSpec::kepler_k40m()
            .grid()
            .bank_widths(&[BankWidth::B4, BankWidth::B8])
            .line_sizes(&[64, 128])
            .build()
            .unwrap()
    }

    /// xorshift for the shuffle — deterministic, dependency-free.
    fn shuffle<T>(items: &mut [T], mut state: u64) {
        for i in (1..items.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            items.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }

    #[test]
    fn serial_and_threaded_sweeps_are_bit_identical_under_shuffled_cells() {
        let traces = vec![capture(0), capture(1), capture(2)];
        let specs = grid();
        let mut cells: Vec<(usize, usize)> = (0..traces.len())
            .flat_map(|t| (0..specs.len()).map(move |s| (t, s)))
            .collect();
        let baseline = sweep(&traces, &specs, Parallelism::Serial);
        assert_eq!(baseline.len(), traces.len() * specs.len());
        // Canonical order: ascending (trace, spec, launch).
        for (i, cell) in baseline.iter().enumerate() {
            assert_eq!(cell.trace, i / specs.len());
            assert_eq!(cell.spec, i % specs.len());
            assert_eq!(cell.launch, 0);
        }
        for threads in [2, 3, 7] {
            for shuffle_seed in [1u64, 99] {
                shuffle(&mut cells, shuffle_seed * 7 + threads as u64);
                let got = sweep_cells(&traces, &specs, &cells, Parallelism::Threads(threads));
                assert_eq!(got.len(), baseline.len(), "threads {threads}");
                for (g, b) in got.iter().zip(&baseline) {
                    assert_eq!(
                        (g.trace, g.spec, g.launch),
                        (b.trace, b.spec, b.launch),
                        "threads {threads}"
                    );
                    assert_eq!(
                        g.report.as_ref().unwrap(),
                        b.report.as_ref().unwrap(),
                        "threads {threads}"
                    );
                }
            }
        }
    }

    /// A one-launch trace of `events` full-warp `op` events, every one
    /// affine or every one explicit.
    fn synthetic(op: TraceOp, events: usize, affine: bool) -> Trace {
        use kconv_sim::{KernelStats, OverlapMode, TraceEvent, TraceLaunch, TraceSink};
        let spec = GpuSpec::kepler_k40m();
        let buf = kconv_trace::SharedBuffer::new();
        let mut w = kconv_trace::TraceWriter::new(buf.clone());
        w.launch_begin(&TraceLaunch {
            kernel: "synthetic",
            grid_blocks: 1,
            executed_blocks: 1,
            threads_per_block: 32,
            smem_bytes: 4096,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        let mut addrs = lane_addrs(0, 4);
        if !affine {
            addrs[31] = 0; // breaks the progression and any tile
        }
        let event = TraceEvent {
            op,
            warp: 0,
            mask: LaneMask::ALL,
            lane_bytes: 4,
            transactions: 0,
            cycles: 1,
            addrs,
        };
        w.write_block(0, &vec![event; events]);
        w.launch_end(&KernelStats::default());
        Trace::decode(&buf.take()).unwrap()
    }

    /// Units are ordered by pricing cost, not event count: by op and by
    /// lane form. 700 affine shared-memory loads (cost 2,100) tie with
    /// 1,050 constant loads and go first by trace order, ahead of 1,000
    /// constant loads (2,000) and 55 explicit shared-memory loads
    /// (1,980).
    #[test]
    fn units_run_costliest_first() {
        let traces = vec![
            synthetic(TraceOp::CmLd, 1000, true),
            synthetic(TraceOp::SmLd, 700, true),
            synthetic(TraceOp::SmLd, 55, false),
            synthetic(TraceOp::CmLd, 1050, true),
        ];
        assert_eq!(traces[2].launches()[0].explicit_events(), 55);
        assert_eq!(traces[1].launches()[0].explicit_events(), 0);
        assert_eq!(traces[3].launches()[0].op_events(TraceOp::CmLd), 1050);
        let work: Vec<(usize, usize)> = (0..traces.len()).map(|t| (t, 0)).collect();
        let order: Vec<usize> = units(&traces, &work).iter().map(|u| u.0).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn duplicate_cells_price_once() {
        let traces = vec![capture(0)];
        let specs = grid();
        let got = sweep_cells(
            &traces,
            &specs,
            &[(0, 1), (0, 1), (0, 0), (0, 1)],
            Parallelism::Serial,
        );
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].trace, got[0].spec), (0, 0));
        assert_eq!((got[1].trace, got[1].spec), (0, 1));
    }

    #[test]
    fn sweep_matches_direct_replay() {
        let traces = vec![capture(4)];
        let specs = GpuSpec::presets_all();
        let cells = sweep(&traces, &specs, Parallelism::Threads(2));
        for cell in &cells {
            let direct = crate::replay_decoded(
                &traces[cell.trace],
                &TargetSpec::Spec(specs[cell.spec].clone()),
            )
            .unwrap();
            assert_eq!(cell.report.as_ref().unwrap(), &direct[cell.launch]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cells_panic() {
        let traces = vec![capture(0)];
        let specs = grid();
        sweep_cells(&traces, &specs, &[(1, 0)], Parallelism::Serial);
    }
}
