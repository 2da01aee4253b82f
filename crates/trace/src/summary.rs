//! Per-launch roll-ups of a binary trace.
//!
//! A [`TraceSummary`] is what the event heads alone give, with O(1) state
//! per launch: per-op totals (events, lane accesses, useful bytes) and
//! barrier arrivals. A trace records no costs: transactions and conflict
//! cycles are in the launch's [`KernelStats`](kconv_sim::KernelStats) —
//! live, or re-priced from the addresses by `kconv-replay`. Anything that
//! needs per-address state (distinct lines, read multiplicity) lives in
//! [`crate::analyze`].

use kconv_sim::TraceOp;

use crate::decoded::{DecodedLaunch, EventHead, Trace};
use crate::TraceError;

/// Totals for one [`TraceOp`] kind within a launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Warp instructions of this kind.
    pub events: u64,
    /// Active lanes summed over those instructions.
    pub lane_accesses: u64,
    /// Bytes the active lanes requested (`mask.count() * lane_bytes`).
    pub useful_bytes: u64,
}

/// One launch's trace rolled up to totals.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Kernel name from the launch header.
    pub kernel: String,
    /// Blocks whose events are in the trace.
    pub blocks: u64,
    /// Total events across all ops.
    pub events: u64,
    /// Totals per op kind, indexed by [`TraceOp::index`].
    pub per_op: [OpTotals; TraceOp::COUNT],
    /// `fma_lane_ops` from the launch-end record (0 if aborted).
    pub fma_lane_ops: u64,
    /// Whether the launch aborted (faulted or truncated trace).
    pub aborted: bool,
    /// Fewest barrier-arrival events recorded by any single block in the
    /// trace (0 when the trace holds no blocks). With one
    /// [`TraceOp::Bar`] event per warp per `__syncthreads()`, a block of
    /// `w` warps running `b` barriers records `w * b` arrivals.
    pub block_bar_min: u64,
    /// Most barrier-arrival events recorded by any single block.
    pub block_bar_max: u64,
}

impl TraceSummary {
    /// Rolls up one decoded launch from its events' heads.
    pub(crate) fn of(launch: &DecodedLaunch) -> Self {
        let mut s = TraceSummary {
            kernel: launch.header.kernel.clone(),
            blocks: launch.block_count() as u64,
            events: 0,
            per_op: [OpTotals::default(); TraceOp::COUNT],
            fma_lane_ops: launch.end.fma_lane_ops,
            aborted: launch.end.aborted,
            block_bar_min: 0,
            block_bar_max: 0,
        };
        for (i, block) in launch.blocks().enumerate() {
            let mut bars = 0;
            block.for_each(|head, _| {
                s.absorb(head);
                bars += u64::from(head.op == TraceOp::Bar);
            });
            s.block_bar_min = if i == 0 {
                bars
            } else {
                s.block_bar_min.min(bars)
            };
            s.block_bar_max = s.block_bar_max.max(bars);
        }
        s
    }

    fn absorb(&mut self, head: &EventHead) {
        self.events += 1;
        let t = &mut self.per_op[head.op.index()];
        t.events += 1;
        t.lane_accesses += u64::from(head.mask.count());
        t.useful_bytes += u64::from(head.mask.count()) * u64::from(head.lane_bytes);
    }

    /// Summarizes every launch in a binary trace, in file order.
    ///
    /// # Errors
    ///
    /// Propagates [`Trace::decode`]'s errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<Vec<TraceSummary>, TraceError> {
        Ok(Trace::decode(bytes)?
            .launches()
            .iter()
            .map(TraceSummary::of)
            .collect())
    }

    /// Totals for one op kind.
    pub fn op(&self, op: TraceOp) -> &OpTotals {
        &self.per_op[op.index()]
    }

    /// Useful bytes loaded from global memory (plain + read-only path).
    pub fn gm_ld_useful_bytes(&self) -> u64 {
        self.op(TraceOp::GmLd).useful_bytes + self.op(TraceOp::GmLdRo).useful_bytes
    }

    /// Useful bytes stored to global memory.
    pub fn gm_st_useful_bytes(&self) -> u64 {
        self.op(TraceOp::GmSt).useful_bytes
    }

    /// Shared-memory warp accesses (loads + stores).
    pub fn sm_accesses(&self) -> u64 {
        self.op(TraceOp::SmLd).events + self.op(TraceOp::SmSt).events
    }

    /// Barrier-arrival events across the launch (one per warp per
    /// `__syncthreads()`) — the trace-side counterpart of
    /// [`KernelStats::bar_syncs`](kconv_sim::KernelStats::bar_syncs).
    pub fn bar_arrivals(&self) -> u64 {
        self.op(TraceOp::Bar).events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceWriter;
    use crate::SharedBuffer;
    use crate::{EfficiencyReport, KernelMeta};
    use kconv_sim::{
        GpuSpec, KernelStats, LaneMask, OverlapMode, TraceEvent, TraceLaunch, TraceSink, WARP_SIZE,
    };

    fn ev(op: TraceOp, lanes: usize) -> TraceEvent {
        TraceEvent {
            op,
            warp: 0,
            mask: LaneMask::first(lanes),
            lane_bytes: 4,
            addrs: [0; WARP_SIZE],
        }
    }

    #[test]
    fn per_op_totals() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = GpuSpec::kepler_k40m();
        w.launch_begin(&TraceLaunch {
            kernel: "k",
            grid_blocks: 2,
            executed_blocks: 2,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        w.write_block(
            0,
            &[
                ev(TraceOp::GmLd, 32),
                ev(TraceOp::SmLd, 32),
                ev(TraceOp::SmSt, 16),
            ],
        );
        w.write_block(1, &[ev(TraceOp::SmLd, 32), ev(TraceOp::CmLd, 8)]);
        w.launch_end(&KernelStats {
            fma_lane_ops: 1000,
            ..Default::default()
        });
        let summaries = TraceSummary::from_bytes(&buf.take()).unwrap();
        assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        assert_eq!(s.kernel, "k");
        assert_eq!(s.blocks, 2);
        assert_eq!(s.events, 5);
        assert!(!s.aborted);
        assert_eq!(s.gm_ld_useful_bytes(), 32 * 4);
        assert_eq!(s.op(TraceOp::SmLd).lane_accesses, 64);
        assert_eq!(s.op(TraceOp::SmSt).useful_bytes, 16 * 4);
        assert_eq!(s.sm_accesses(), 3);
        assert_eq!(s.op(TraceOp::CmLd).events, 1);
        assert_eq!(s.fma_lane_ops, 1000);
        // No Bar events in this trace: zero arrivals everywhere.
        assert_eq!(s.bar_arrivals(), 0);
        assert_eq!((s.block_bar_min, s.block_bar_max), (0, 0));
    }

    fn bar() -> TraceEvent {
        TraceEvent {
            op: TraceOp::Bar,
            warp: 0,
            mask: LaneMask(0),
            lane_bytes: 0,
            addrs: [0; WARP_SIZE],
        }
    }

    #[test]
    fn per_block_bar_counts_roll_into_min_max() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = GpuSpec::kepler_k40m();
        w.launch_begin(&TraceLaunch {
            kernel: "k",
            grid_blocks: 3,
            executed_blocks: 3,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        // Blocks with 2, 4 and 0 barrier arrivals.
        w.write_block(0, &[bar(), ev(TraceOp::GmLd, 32), bar()]);
        w.write_block(1, &[bar(), bar(), bar(), bar()]);
        w.write_block(2, &[ev(TraceOp::SmLd, 32)]);
        w.launch_end(&KernelStats::default());
        let summaries = TraceSummary::from_bytes(&buf.take()).unwrap();
        let s = &summaries[0];
        assert_eq!(s.bar_arrivals(), 6);
        assert_eq!(s.block_bar_min, 0);
        assert_eq!(s.block_bar_max, 4);
        // Bar events move no bytes.
        assert_eq!(s.op(TraceOp::Bar).useful_bytes, 0);
        assert_eq!(s.op(TraceOp::Bar).lane_accesses, 0);
    }

    /// A trace that ends inside its last launch: both roll-ups report
    /// that launch aborted, with only the blocks delivered before the cut.
    #[test]
    fn launch_cut_off_mid_stream_is_aborted_with_delivered_blocks() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = GpuSpec::kepler_k40m();
        let launch = |kernel| TraceLaunch {
            kernel,
            grid_blocks: 4,
            executed_blocks: 4,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        };
        w.launch_begin(&launch("whole"));
        for block in 0..4 {
            w.write_block(block, &[ev(TraceOp::GmLd, 32)]);
        }
        w.launch_end(&KernelStats {
            fma_lane_ops: 64,
            ..Default::default()
        });
        w.launch_begin(&launch("cut"));
        w.write_block(0, &[ev(TraceOp::GmLd, 32), bar()]);
        w.write_block(1, &[ev(TraceOp::SmLd, 16)]);
        drop(w); // the stream stops before blocks 2 and 3
        let bytes = buf.take();

        let summaries = TraceSummary::from_bytes(&bytes).unwrap();
        let reports = EfficiencyReport::analyze(&bytes, &KernelMeta::default()).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(summaries.len(), 2);
        for (s, r) in summaries.iter().zip(&reports) {
            assert_eq!(&r.summary, s, "{}", s.kernel);
        }
        let (whole, cut) = (&summaries[0], &summaries[1]);
        assert!(!whole.aborted);
        assert_eq!((whole.blocks, whole.events, whole.fma_lane_ops), (4, 4, 64));
        assert!(cut.aborted);
        assert_eq!(cut.kernel, "cut");
        assert_eq!((cut.blocks, cut.events, cut.fma_lane_ops), (2, 3, 0));
        assert_eq!((cut.block_bar_min, cut.block_bar_max), (0, 1));
        assert_eq!(cut.op(TraceOp::SmLd).lane_accesses, 16);
        // Every GmLd lane reads word 0: 4 blocks' worth of reads in the
        // whole launch, only the delivered block's in the cut one.
        assert_eq!(reports[0].gm_ld_word_reads_max, 4 * 32);
        assert_eq!(reports[1].gm_ld_word_reads_max, 32);
    }
}
