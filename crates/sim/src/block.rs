//! Cooperative thread-block execution.
//!
//! A kernel is a Rust closure invoked once per thread block with a
//! [`BlockCtx`]. Inside, code is written in the warp-synchronous style: the
//! block's warps are iterated with [`BlockCtx::each_warp`] between
//! [`BlockCtx::sync`] barriers. Because warps execute *sequentially* between
//! barriers, any kernel that is race-free under CUDA semantics (no
//! inter-warp communication without a barrier) computes exactly the same
//! result here, while every warp-level access is observed by the memory
//! models.
//!
//! Per-thread "registers" are ordinary host arrays owned by the kernel
//! closure and indexed by thread id; the launch configuration's
//! `regs_per_thread` declares their architectural footprint for the
//! occupancy model.
//!
//! A `BlockCtx` is fully self-contained: it owns its block's ports to the
//! device memories ([`GmPlane`], [`CmPlane`]), its shared memory, its
//! read-only cache, and its own [`KernelStats`]. That is what lets the
//! launcher run blocks on worker threads and merge their statistics in
//! block-id order — see [`Gpu::launch`](crate::Gpu::launch).
//!
//! ## Fault containment
//!
//! Every warp operation carries its *site* (warp id + barrier phase) into
//! the memory models, so an out-of-bounds access or sanitizer finding
//! raises a typed [`DeviceFault`](crate::DeviceFault) naming the exact
//! warp/lane, contained at the block boundary by the launcher. The block
//! also hosts the watchdog (a step budget against runaway kernels), the
//! synccheck barrier-participation counters, and the test-only fault
//! injector.

use crate::fault::{self, FaultKind, Site};
use crate::mem::plane::{CmPlane, GmPlane};
use crate::mem::{Lanes, SharedMemory};
use crate::pricing::{RoCache, WarpAccess};
use crate::spec::WARP_SIZE;
use crate::stats::KernelStats;
use crate::trace::{BlockTrace, EventEncoder, TraceEvent, TraceOp};
use crate::warp::{LaneMask, WarpAddrs};

/// Geometry of the executing block within its launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDims {
    /// Linear index of this block in the grid.
    pub block_id: usize,
    /// Total number of blocks in the grid.
    pub grid_blocks: usize,
    /// Threads in this block.
    pub threads: usize,
}

impl BlockDims {
    /// Number of warps in the block (`ceil(threads / 32)`).
    pub fn warps(&self) -> usize {
        self.threads.div_ceil(WARP_SIZE)
    }
}

/// Block-scoped slice of a [`FaultInjection`](crate::FaultInjection): flip
/// one lane's address on the `op_index`-th warp memory operation of this
/// block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inject {
    pub(crate) op_index: u64,
    pub(crate) lane: usize,
    pub(crate) addr_xor: u64,
}

/// Execution context for one thread block.
///
/// Holds the block's ports to the device memories, this block's shared
/// memory, and the block-local statistics. All device traffic flows through
/// [`WarpCtx`] methods obtained from [`BlockCtx::each_warp`].
pub struct BlockCtx<'a> {
    /// Block geometry.
    pub dims: BlockDims,
    pub(crate) gm: GmPlane<'a>,
    pub(crate) cm: CmPlane<'a>,
    pub(crate) ro: RoCache,
    pub(crate) smem: SharedMemory,
    pub(crate) stats: KernelStats,
    /// Barrier interval index: incremented by [`BlockCtx::sync`]. Accesses
    /// in the same phase by different warps are unordered (racecheck's
    /// hazard window).
    phase: u32,
    /// Per-warp count of `bar_sync()` calls (synccheck).
    bar_counts: Vec<u64>,
    synccheck: bool,
    /// Watchdog: warp operations executed so far / allowed budget.
    steps: u64,
    step_budget: u64,
    /// Test-only fault injector and its per-block memory-op counter.
    inj: Option<Inject>,
    op_counter: u64,
    /// Encoded trace: `Some` when the launcher armed tracing; every warp
    /// memory instruction encodes one event onto it at the access,
    /// harvested at block end and flushed to the
    /// [`TraceSink`](crate::TraceSink) in block-id order.
    pub(crate) trace: Option<BlockTrace>,
}

impl std::fmt::Debug for BlockCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCtx")
            .field("dims", &self.dims)
            .field("smem_bytes", &self.smem.len_bytes())
            .finish_non_exhaustive()
    }
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(
        dims: BlockDims,
        gm: GmPlane<'a>,
        cm: CmPlane<'a>,
        ro: RoCache,
        smem: SharedMemory,
    ) -> Self {
        let warps = dims.warps();
        BlockCtx {
            dims,
            gm,
            cm,
            ro,
            smem,
            stats: KernelStats::default(),
            phase: 0,
            bar_counts: vec![0; warps],
            synccheck: false,
            steps: 0,
            step_budget: u64::MAX,
            inj: None,
            op_counter: 0,
            trace: None,
        }
    }

    /// Arms per-instruction tracing: warp memory ops encode one event each
    /// with `encode` instead of running counter-only.
    pub(crate) fn with_tracing(mut self, encode: EventEncoder) -> Self {
        self.trace = Some(BlockTrace::new(encode));
        self
    }

    /// Enables synccheck: warps' `bar_sync()` participation counts are
    /// verified at every [`BlockCtx::sync`] and at block end.
    pub(crate) fn with_synccheck(mut self) -> Self {
        self.synccheck = true;
        self
    }

    /// Sets the watchdog budget (total warp operations per block).
    pub(crate) fn with_step_budget(mut self, budget: u64) -> Self {
        self.step_budget = budget;
        self
    }

    /// Arms the test-only fault injector for this block.
    pub(crate) fn with_injection(mut self, inj: Inject) -> Self {
        self.inj = Some(inj);
        self
    }

    /// Watchdog tick: one warp operation. Past the budget, the block is
    /// presumed hung (the simulator equivalent of a kernel timeout). With
    /// the default unlimited budget the tick is a single compare — the
    /// step counter is only observable through the `Timeout` fault, so
    /// not maintaining it then is free.
    fn step(&mut self, warp: usize) {
        if self.step_budget == u64::MAX {
            return;
        }
        self.steps += 1;
        if self.steps > self.step_budget {
            fault::raise(FaultKind::Timeout { steps: self.steps }, warp, 0);
        }
    }

    /// Fault injector: returns patched addresses when this is the armed
    /// memory operation, else `None`.
    fn inject(&mut self, addrs: &WarpAddrs) -> Option<WarpAddrs> {
        let inj = self.inj.as_ref()?;
        let idx = self.op_counter;
        self.op_counter += 1;
        if idx != inj.op_index {
            return None;
        }
        let mut patched = *addrs;
        patched[inj.lane] ^= inj.addr_xor;
        Some(patched)
    }

    /// Verifies synccheck's barrier-participation counters: every warp
    /// must have executed the same number of `bar_sync()` calls.
    fn verify_barriers(&self) {
        if !self.synccheck || self.bar_counts.is_empty() {
            return;
        }
        let (warp_min, &count_min) = self
            .bar_counts
            .iter()
            .enumerate()
            .min_by_key(|&(_, c)| c)
            .unwrap();
        let (warp_max, &count_max) = self
            .bar_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .unwrap();
        if count_min != count_max {
            fault::raise(
                FaultKind::BarrierDivergence {
                    warp_min,
                    count_min,
                    warp_max,
                    count_max,
                },
                warp_max,
                0,
            );
        }
    }

    /// End-of-block hook run by the launcher before the block's results
    /// are harvested (final synccheck verification).
    pub(crate) fn finish(&self) {
        self.verify_barriers();
    }

    /// Runs `f` for every warp of the block, in warp-id order.
    ///
    /// Call this between barriers for each program phase; warps may keep
    /// per-thread state in arrays captured by the closure.
    pub fn each_warp(&mut self, mut f: impl FnMut(&mut WarpCtx<'_, 'a>)) {
        for wid in 0..self.dims.warps() {
            self.step(wid);
            let mut warp = WarpCtx { block: self, wid };
            f(&mut warp);
        }
    }

    /// A `__syncthreads()` barrier: records the barrier for the timing
    /// model and advances the racecheck phase. (Warps are already
    /// serialized, so no scheduling is needed.) Under synccheck it also
    /// verifies that every warp reached the barrier the same number of
    /// times.
    pub fn sync(&mut self) {
        self.verify_barriers();
        self.stats.barriers += 1;
        let warps = self.dims.warps();
        self.stats.bar_syncs += warps as u64;
        if let Some(trace) = self.trace.as_mut() {
            // One arrival event per warp, in warp-id order, so offline
            // consumers can count per-warp barrier work positionally.
            let mut bar = TraceEvent {
                op: TraceOp::Bar,
                warp: 0,
                mask: LaneMask(0),
                lane_bytes: 0,
                addrs: [0; WARP_SIZE],
            };
            for warp in 0..warps {
                bar.warp = warp as u32;
                trace.push(&bar);
            }
        }
        self.phase += 1;
    }

    /// The block's shared-memory size in bytes.
    pub fn smem_bytes(&self) -> usize {
        self.smem.len_bytes()
    }
}

/// Warp-level operations for one warp of a block.
///
/// Every memory method takes the access's lane addresses as a
/// [`WarpAccess`] — an affine or two-level lane form, or explicit
/// addresses (`&WarpAddrs` converts) — and an active-lane mask; the mask
/// is automatically intersected with the warp's population (the last warp
/// of a block may be partial). The memory models price a form in closed
/// form where it has one (see [`WarpAccess::prepare`]), so a kernel that
/// knows its access's shape passes the form.
pub struct WarpCtx<'b, 'a> {
    block: &'b mut BlockCtx<'a>,
    wid: usize,
}

impl std::fmt::Debug for WarpCtx<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpCtx").field("wid", &self.wid).finish()
    }
}

impl WarpCtx<'_, '_> {
    /// Warp index within the block.
    pub fn warp_id(&self) -> usize {
        self.wid
    }

    /// Global (block-local) thread id of `lane`.
    pub fn thread_id(&self, lane: usize) -> usize {
        self.wid * WARP_SIZE + lane
    }

    /// Mask of lanes that correspond to real threads (all 32 except in a
    /// trailing partial warp).
    pub fn population(&self) -> LaneMask {
        let first = self.wid * WARP_SIZE;
        let remaining = self.block.dims.threads.saturating_sub(first);
        LaneMask::first(remaining.min(WARP_SIZE))
    }

    fn live(&self, mask: LaneMask) -> LaneMask {
        LaneMask(mask.0 & self.population().0)
    }

    /// This warp's current site (warp id + barrier phase) for the memory
    /// models' fault reports.
    fn site(&self) -> Site {
        Site {
            warp: self.wid,
            phase: self.block.phase,
        }
    }

    /// Shared prologue/epilogue for every warp memory instruction: watchdog
    /// tick, population masking, lane expansion, fault injection — and,
    /// when the launcher armed tracing, a [`TraceEvent`] of the access's
    /// op, mask, bytes per lane and lane addresses, encoded on the spot by
    /// the sink's [`EventEncoder`].
    ///
    /// The models price the access from its lane form and move data
    /// through its lanes, so a form is expanded here once; an explicit
    /// access is borrowed as given. An injected fault patches the
    /// expanded lanes, and the patched access is explicit. With tracing
    /// off the extra work is a single `Option` discriminant check.
    #[inline(always)]
    fn mem_op<R>(
        &mut self,
        form: WarpAccess<'_>,
        mask: LaneMask,
        op: TraceOp,
        lane_bytes: u32,
        access: impl FnOnce(&mut BlockCtx<'_>, Site, Lanes<'_>) -> R,
    ) -> R {
        self.block.step(self.wid);
        let mask = self.live(mask);
        let site = self.site();
        let expanded;
        let addrs = match form {
            WarpAccess::Explicit(addrs) => addrs,
            form => {
                expanded = form.addrs(mask);
                &expanded
            }
        };
        let patched;
        let lanes = match self.block.inject(addrs) {
            Some(p) => {
                patched = p;
                Lanes::explicit(&patched, mask)
            }
            None => Lanes { form, addrs, mask },
        };
        if self.block.trace.is_none() {
            return access(self.block, site, lanes);
        }
        let out = access(self.block, site, lanes);
        let ev = TraceEvent {
            op,
            warp: self.wid as u32,
            mask,
            lane_bytes,
            addrs: *lanes.addrs,
        };
        self.block.trace.as_mut().expect("tracing armed").push(&ev);
        out
    }

    /// Records this warp's arrival at a barrier for synccheck. The
    /// repository's kernels call [`BlockCtx::sync`] uniformly from block
    /// scope, which is inherently convergent; a kernel that makes barrier
    /// participation warp-dependent calls this from inside `each_warp` so
    /// that synccheck can observe (and flag) the divergence.
    pub fn bar_sync(&mut self) {
        self.block.step(self.wid);
        self.block.bar_counts[self.wid] += 1;
    }

    /// Global-memory warp load of `V` consecutive `f32`s per lane.
    pub fn ld_global<'x, const V: usize>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        mask: LaneMask,
    ) -> [[f32; V]; WARP_SIZE] {
        self.mem_op(
            access.into(),
            mask,
            TraceOp::GmLd,
            4 * V as u32,
            |b, site, l| b.gm.warp_ld::<V>(&mut b.stats, site, l),
        )
    }

    /// Global-memory warp store of `V` consecutive `f32`s per lane.
    pub fn st_global<'x, const V: usize>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        values: &[[f32; V]; WARP_SIZE],
        mask: LaneMask,
    ) {
        self.mem_op(
            access.into(),
            mask,
            TraceOp::GmSt,
            4 * V as u32,
            |b, site, l| b.gm.warp_st::<V>(&mut b.stats, site, l, values),
        )
    }

    /// Shared-memory warp load of `V` consecutive `f32`s per lane
    /// (block-local byte offsets).
    pub fn ld_shared<'x, const V: usize>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        mask: LaneMask,
    ) -> [[f32; V]; WARP_SIZE] {
        self.mem_op(
            access.into(),
            mask,
            TraceOp::SmLd,
            4 * V as u32,
            |b, site, l| b.smem.warp_ld::<V>(&mut b.stats, site, l),
        )
    }

    /// Shared-memory warp store of `V` consecutive `f32`s per lane.
    pub fn st_shared<'x, const V: usize>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        values: &[[f32; V]; WARP_SIZE],
        mask: LaneMask,
    ) {
        self.mem_op(
            access.into(),
            mask,
            TraceOp::SmSt,
            4 * V as u32,
            |b, site, l| b.smem.warp_st::<V>(&mut b.stats, site, l, values),
        )
    }

    /// Global-memory warp load through the read-only (texture) cache path:
    /// lines this block already touched are served without bus traffic.
    pub fn ld_global_ro<'x, const V: usize>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        mask: LaneMask,
    ) -> [[f32; V]; WARP_SIZE] {
        self.mem_op(
            access.into(),
            mask,
            TraceOp::GmLdRo,
            4 * V as u32,
            |b, site, l| b.gm.warp_ld_ro::<V>(&mut b.stats, &mut b.ro, site, l),
        )
    }

    /// Constant-memory warp load of one `f32` per lane (broadcast-optimized).
    pub fn ld_const<'x>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        mask: LaneMask,
    ) -> [f32; WARP_SIZE] {
        self.mem_op(access.into(), mask, TraceOp::CmLd, 4, |b, site, l| {
            b.cm.warp_ld_f32(&mut b.stats, site, l)
        })
    }

    /// Global-memory warp load of `W` raw bytes per lane (short data types).
    pub fn ld_global_bytes<'x, const W: usize>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        mask: LaneMask,
    ) -> [[u8; W]; WARP_SIZE] {
        self.mem_op(
            access.into(),
            mask,
            TraceOp::GmLd,
            W as u32,
            |b, site, l| b.gm.warp_ld_bytes::<W>(&mut b.stats, site, l),
        )
    }

    /// Global-memory warp store of `W` raw bytes per lane.
    pub fn st_global_bytes<'x, const W: usize>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        values: &[[u8; W]; WARP_SIZE],
        mask: LaneMask,
    ) {
        self.mem_op(
            access.into(),
            mask,
            TraceOp::GmSt,
            W as u32,
            |b, site, l| b.gm.warp_st_bytes::<W>(&mut b.stats, site, l, values),
        )
    }

    /// Shared-memory warp load of `W` raw bytes per lane (short data types).
    pub fn ld_shared_bytes<'x, const W: usize>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        mask: LaneMask,
    ) -> [[u8; W]; WARP_SIZE] {
        self.mem_op(
            access.into(),
            mask,
            TraceOp::SmLd,
            W as u32,
            |b, site, l| b.smem.warp_ld_bytes::<W>(&mut b.stats, site, l),
        )
    }

    /// Shared-memory warp store of `W` raw bytes per lane.
    pub fn st_shared_bytes<'x, const W: usize>(
        &mut self,
        access: impl Into<WarpAccess<'x>>,
        values: &[[u8; W]; WARP_SIZE],
        mask: LaneMask,
    ) {
        self.mem_op(
            access.into(),
            mask,
            TraceOp::SmSt,
            W as u32,
            |b, site, l| b.smem.warp_st_bytes::<W>(&mut b.stats, site, l, values),
        )
    }

    /// Records `lane_ops` fused multiply-adds (the arithmetic itself is done
    /// on the kernel's register arrays in plain Rust).
    pub fn count_fma(&mut self, lane_ops: u64) {
        self.block.step(self.wid);
        self.block.stats.fma_lane_ops += lane_ops;
    }

    /// Records `lane_ops` non-FMA arithmetic operations (index math,
    /// predicates, ...). On real hardware these share issue slots with
    /// FMAs, which is how the implicit-GEMM baselines pay for their index
    /// decoding.
    pub fn count_alu(&mut self, lane_ops: u64) {
        self.block.step(self.wid);
        self.block.stats.alu_lane_ops += lane_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{install_quiet_hook, FaultPayload};
    use crate::mem::{ConstantMemory, GlobalMemory, SharedMemory};
    use crate::spec::BankWidth;
    use crate::trace::tests::{raw_decode, raw_encode};
    use crate::warp::lane_addrs;

    fn harness(threads: usize) -> (GlobalMemory, ConstantMemory, BlockDims) {
        (
            GlobalMemory::new(1 << 20, 128, 32, 48 * 1024),
            ConstantMemory::new(1 << 16, 256),
            BlockDims {
                block_id: 0,
                grid_blocks: 1,
                threads,
            },
        )
    }

    fn ctx<'a>(
        dims: BlockDims,
        gm: &'a mut GlobalMemory,
        cm: &'a mut ConstantMemory,
        smem: SharedMemory,
    ) -> BlockCtx<'a> {
        let ro = RoCache::new(gm.ro_capacity_lines());
        BlockCtx::new(dims, GmPlane::Direct(gm), CmPlane::Direct(cm), ro, smem)
    }

    /// Runs `f`, which must raise a device fault, and returns the payload.
    fn trap(f: impl FnOnce() + std::panic::UnwindSafe) -> FaultPayload {
        install_quiet_hook();
        let payload = std::panic::catch_unwind(f).unwrap_err();
        *payload
            .downcast::<FaultPayload>()
            .expect("expected a typed device fault")
    }

    #[test]
    fn warps_rounds_up() {
        let d = BlockDims {
            block_id: 0,
            grid_blocks: 1,
            threads: 33,
        };
        assert_eq!(d.warps(), 2);
    }

    #[test]
    fn each_warp_visits_all_warps_in_order() {
        let (mut gm, mut cm, dims) = harness(96);
        let smem = SharedMemory::new(0, 32, BankWidth::B8);
        let mut blk = ctx(dims, &mut gm, &mut cm, smem);
        let mut seen = Vec::new();
        blk.each_warp(|w| seen.push(w.warp_id()));
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn partial_warp_population() {
        let (mut gm, mut cm, dims) = harness(40);
        let smem = SharedMemory::new(0, 32, BankWidth::B8);
        let mut blk = ctx(dims, &mut gm, &mut cm, smem);
        let mut pops = Vec::new();
        blk.each_warp(|w| pops.push(w.population().count()));
        assert_eq!(pops, vec![32, 8]);
    }

    #[test]
    fn population_masks_device_traffic() {
        let (mut gm, mut cm, dims) = harness(8);
        let buf = gm.alloc_f32(32).unwrap();
        let smem = SharedMemory::new(0, 32, BankWidth::B8);
        let mut blk = ctx(dims, &mut gm, &mut cm, smem);
        blk.each_warp(|w| {
            // Lanes beyond thread 8 must be suppressed even with ALL mask.
            w.ld_global::<1>(&lane_addrs(buf.f32_addr(0), 4), LaneMask::ALL);
        });
        assert_eq!(blk.stats.gm_ld_bytes_useful, 8 * 4);
    }

    #[test]
    fn shared_memory_roundtrip_through_warp_ctx() {
        let (mut gm, mut cm, dims) = harness(32);
        let smem = SharedMemory::new(256, 32, BankWidth::B8);
        let mut blk = ctx(dims, &mut gm, &mut cm, smem);
        blk.each_warp(|w| {
            let addrs = lane_addrs(0, 4);
            let vals: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32 + 0.25]);
            w.st_shared::<1>(&addrs, &vals, LaneMask::ALL);
            let back = w.ld_shared::<1>(&addrs, LaneMask::ALL);
            assert_eq!(back[3][0], 3.25);
        });
        blk.sync();
        assert_eq!(blk.stats.barriers, 1);
        assert_eq!(blk.stats.sm_ld_requests, 1);
        assert_eq!(blk.stats.sm_st_requests, 1);
    }

    #[test]
    fn fma_and_alu_counters() {
        let (mut gm, mut cm, dims) = harness(32);
        let smem = SharedMemory::new(0, 32, BankWidth::B8);
        let mut blk = ctx(dims, &mut gm, &mut cm, smem);
        blk.each_warp(|w| {
            w.count_fma(64);
            w.count_alu(3);
        });
        assert_eq!(blk.stats.fma_lane_ops, 64);
        assert_eq!(blk.stats.alu_lane_ops, 3);
        assert_eq!(blk.stats.flops(), 131);
    }

    #[test]
    fn thread_ids_are_block_local() {
        let (mut gm, mut cm, dims) = harness(64);
        let smem = SharedMemory::new(0, 32, BankWidth::B8);
        let mut blk = ctx(dims, &mut gm, &mut cm, smem);
        let mut ids = Vec::new();
        blk.each_warp(|w| ids.push(w.thread_id(5)));
        assert_eq!(ids, vec![5, 37]);
    }

    #[test]
    fn watchdog_trips_past_step_budget() {
        let p = trap(|| {
            let (mut gm, mut cm, dims) = harness(32);
            let smem = SharedMemory::new(0, 32, BankWidth::B8);
            let mut blk = ctx(dims, &mut gm, &mut cm, smem).with_step_budget(100);
            loop {
                blk.each_warp(|w| w.count_alu(1));
            }
        });
        assert!(matches!(p.kind, FaultKind::Timeout { steps } if steps > 100));
    }

    #[test]
    fn injection_flips_one_lane_address() {
        let p = trap(|| {
            let (mut gm, mut cm, dims) = harness(32);
            let buf = gm.alloc_f32(64).unwrap();
            let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
            gm.write_f32s(buf, 0, &vals).unwrap();
            let smem = SharedMemory::new(0, 32, BankWidth::B8);
            let mut blk = ctx(dims, &mut gm, &mut cm, smem).with_injection(Inject {
                op_index: 1,
                lane: 7,
                addr_xor: 1 << 41,
            });
            blk.each_warp(|w| {
                // Op 0: untouched. Op 1: lane 7's address is flipped OOB.
                w.ld_global::<1>(&lane_addrs(buf.f32_addr(0), 4), LaneMask::ALL);
                w.ld_global::<1>(&lane_addrs(buf.f32_addr(0), 4), LaneMask::ALL);
            });
        });
        assert_eq!(p.lane, 7);
        assert!(matches!(p.kind, FaultKind::OutOfBounds { addr, .. } if addr >= 1 << 41));
    }

    #[test]
    fn synccheck_flags_divergent_barrier_counts() {
        let p = trap(|| {
            let (mut gm, mut cm, dims) = harness(64);
            let smem = SharedMemory::new(0, 32, BankWidth::B8);
            let mut blk = ctx(dims, &mut gm, &mut cm, smem).with_synccheck();
            // Only warp 0 participates in the barrier: divergence.
            blk.each_warp(|w| {
                if w.warp_id() == 0 {
                    w.bar_sync();
                }
            });
            blk.finish();
        });
        match p.kind {
            FaultKind::BarrierDivergence {
                warp_min,
                count_min,
                warp_max,
                count_max,
            } => {
                assert_eq!((warp_min, count_min), (1, 0));
                assert_eq!((warp_max, count_max), (0, 1));
            }
            other => panic!("expected BarrierDivergence, got {other:?}"),
        }
    }

    #[test]
    fn tracing_records_one_event_per_memory_op_in_issue_order() {
        let (mut gm, mut cm, dims) = harness(40);
        let buf = gm.alloc_f32(1024).unwrap();
        let vals: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        gm.write_f32s(buf, 0, &vals).unwrap();
        let smem = SharedMemory::new(8192, 32, BankWidth::B8);
        let mut blk = ctx(dims, &mut gm, &mut cm, smem).with_tracing(raw_encode);
        blk.each_warp(|w| {
            let gaddrs = lane_addrs(buf.f32_addr(0), 4);
            let got = w.ld_global::<1>(&gaddrs, LaneMask::ALL);
            let saddrs = lane_addrs(0, 256); // every lane hits bank 0: replays
            w.st_shared::<1>(&saddrs, &got, LaneMask::ALL);
        });
        let trace = blk.trace.take().unwrap();
        assert_eq!(trace.events, 4); // 2 warps x (1 gm.ld + 1 sm.st)
        let events = raw_decode(&trace.bytes);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].op, TraceOp::GmLd);
        assert_eq!(events[1].op, TraceOp::SmSt);
        assert_eq!(events[2].warp, 1);
        // Partial warp (threads=40): warp 1 has 8 live lanes.
        assert_eq!(events[2].mask.count(), 8);
        assert_eq!(events[0].mask.count(), 32);
        assert_eq!(events[0].lane_bytes, 4);
        assert_eq!(events[0].addrs[5], buf.f32_addr(0) + 20);
        assert_eq!(events[1].addrs[5], 5 * 256);
    }

    #[test]
    fn untraced_block_buffers_no_events() {
        let (mut gm, mut cm, dims) = harness(32);
        let buf = gm.alloc_f32(32).unwrap();
        let smem = SharedMemory::new(0, 32, BankWidth::B8);
        let mut blk = ctx(dims, &mut gm, &mut cm, smem);
        blk.each_warp(|w| {
            w.ld_global::<1>(&lane_addrs(buf.f32_addr(0), 4), LaneMask::ALL);
        });
        assert!(blk.trace.is_none());
        assert_eq!(blk.stats.gm_ld_requests, 1);
    }

    #[test]
    fn synccheck_accepts_uniform_barrier_counts() {
        let (mut gm, mut cm, dims) = harness(64);
        let smem = SharedMemory::new(0, 32, BankWidth::B8);
        let mut blk = ctx(dims, &mut gm, &mut cm, smem).with_synccheck();
        blk.each_warp(|w| w.bar_sync());
        blk.sync();
        blk.each_warp(|w| w.bar_sync());
        blk.finish();
    }
}
