//! Per-block views of the shared device memories.
//!
//! The parallel launch path (see [`crate::Gpu::launch`]) runs many thread
//! blocks concurrently against one [`GlobalMemory`] and one
//! [`ConstantMemory`]. The types here make that safe **and** keep every
//! counter bit-identical to serial execution:
//!
//! * [`GmPlane`] — a block's access port to global memory. In serial mode
//!   it writes through (`Direct`); in parallel mode it reads the shared
//!   base and records stores into a private [`WriteJournal`] (`Journaled`)
//!   that the launcher replays into the base in block-id order after all
//!   workers join. A journaled block observes its *own* stores (paged
//!   overlay) but never another in-flight block's — the disjoint-write
//!   contract that CUDA grids already obey (blocks may not communicate
//!   through global memory within one launch without a device-wide sync,
//!   which this simulator does not provide).
//! * [`RoCache`] — the per-SM read-only (texture) cache. Its residency was
//!   always reset per block, so under parallelism it simply becomes a
//!   per-block value; counts are unchanged by construction.
//! * [`CmPlane`] — the constant-cache model. Serially, first-touch misses
//!   accumulate in a launch-scoped line bitmap; in parallel mode each block
//!   records the lines it touched and the launcher counts
//!   `|union of all bitmaps|` at merge time, which equals the serial miss
//!   count exactly because the cache model never evicts within a launch.
//!
//! Transaction/coalescing counts, bank conflicts, broadcast serializations
//! and arithmetic counters are all per-warp functions of addresses alone,
//! so sharding them per block and summing (`KernelStats::merge`) is exact.
//!
//! ## Hot-path layout
//!
//! These types sit on the interpreter's innermost loop, so every structure
//! is flat and allocation-free per access (see DESIGN.md §9): the store
//! journal is a short sorted vector of 4 KiB pages (data + a 1-bit-per-byte
//! written mask) with an `[lo, hi)` range reject so reads that never touch
//! journaled bytes cost two compares; constant-line tracking is a bitmap
//! over the constant segment's ≤ 256 lines; and every distinct-unit count
//! prices through [`PreparedAccess`]: in closed form for affine and
//! two-level accesses, by the lane engine's stack bitmaps for the rest.
//!
//! Every access is bounds-checked against the owning memory; violations
//! raise a typed [`DeviceFault`](crate::DeviceFault) that unwinds to the
//! per-block containment boundary instead of panicking the process (see
//! [`crate::fault`]). With memcheck enabled, loads additionally verify that
//! every byte read was written at some point — in journaled mode a byte
//! counts as initialized if either the shared base's shadow marks it or
//! this block's own journal covers it. When no sanitizer tool is attached,
//! a single warp-level bounds check replaces the per-lane checks; any
//! violation re-runs the per-lane path so faults name the same lane, in
//! the same order, with the same partially-applied stores as before.

use crate::fault::{self, AccessKind, FaultKind, MemSpace, Site};
use crate::mem::constant::{ConstantMemory, LineBitmap};
use crate::mem::global::GlobalMemory;
use crate::mem::Lanes;
use crate::pricing::{PreparedAccess, RoCache};
use crate::spec::WARP_SIZE;
use crate::stats::KernelStats;

/// Widest single-lane access in the ISA modeled here: a `float4` load/store
/// (the byte paths use at most 8 bytes per lane).
const MAX_LANE_BYTES: usize = 16;

/// Journal page granularity. 4 KiB balances per-page overhead (4.5 KiB
/// resident per touched page) against page-table length — a block's output
/// tile spans a handful of pages.
const PAGE_BYTES: usize = 4096;
/// Words in a page's 1-bit-per-byte written mask.
const PAGE_WORDS: usize = PAGE_BYTES / 64;

/// One page of journaled stores: the block's bytes plus a bitmask of which
/// of them were actually written.
#[derive(Debug)]
struct JournalPage {
    /// Page-aligned device base address.
    base: u64,
    data: Box<[u8; PAGE_BYTES]>,
    /// 1 bit per byte of `data`: set iff this block wrote that byte.
    written: Box<[u64; PAGE_WORDS]>,
}

impl JournalPage {
    fn fresh(base: u64) -> Self {
        JournalPage {
            base,
            data: Box::new([0u8; PAGE_BYTES]),
            written: Box::new([0u64; PAGE_WORDS]),
        }
    }

    fn has_byte(&self, off: usize) -> bool {
        self.written[off / 64] >> (off % 64) & 1 == 1
    }
}

/// Index of the first bit at or after `from` whose value equals `target`
/// (`true` = set), or `None` if no such bit exists in the mask.
fn next_bit(words: &[u64; PAGE_WORDS], from: usize, target: bool) -> Option<usize> {
    let mut w = from / 64;
    let select = |x: u64| if target { x } else { !x };
    let mut masked = select(words[w]) & (!0u64 << (from % 64));
    loop {
        if masked != 0 {
            return Some(w * 64 + masked.trailing_zeros() as usize);
        }
        w += 1;
        if w >= PAGE_WORDS {
            return None;
        }
        masked = select(words[w]);
    }
}

/// A block-private journal of global-memory stores, kept as sorted 4 KiB
/// pages.
///
/// The launcher replays it into the shared [`GlobalMemory`] with
/// [`GlobalMemory::apply_journal`] once per block, in block-id order. Pages
/// hold each byte's **last** value, so replaying maximal written runs in
/// address order leaves memory identical to an issue-order replay — while
/// touching each byte once instead of once per store. The written mask
/// doubles as the read-your-own-writes overlay for the owning block, with
/// an `[lo, hi)` range reject so loads outside everything the block ever
/// stored (the common case: conv kernels read inputs and write outputs in
/// disjoint ranges) cost two compares.
#[derive(Debug, Default)]
pub(crate) struct WriteJournal {
    /// Touched pages, sorted by base address.
    pages: Vec<JournalPage>,
    /// Most recently written page index: stores are spatially local, so
    /// this usually skips the binary search.
    mru: usize,
    /// Smallest address written so far (fast-path reject for reads).
    lo: u64,
    /// One past the largest address written so far.
    hi: u64,
}

impl WriteJournal {
    pub(crate) fn new() -> Self {
        WriteJournal {
            pages: Vec::new(),
            mru: 0,
            lo: u64::MAX,
            hi: 0,
        }
    }

    /// Whether the block stored anything at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The page with base address `base`, created (keeping `pages` sorted)
    /// if the block has not touched it yet.
    fn page_for_write(&mut self, base: u64) -> &mut JournalPage {
        if let Some(p) = self.pages.get(self.mru) {
            if p.base == base {
                return &mut self.pages[self.mru];
            }
        }
        let idx = match self.pages.binary_search_by_key(&base, |p| p.base) {
            Ok(i) => i,
            Err(i) => {
                self.pages.insert(i, JournalPage::fresh(base));
                i
            }
        };
        self.mru = idx;
        &mut self.pages[idx]
    }

    fn page(&self, base: u64) -> Option<&JournalPage> {
        self.pages
            .binary_search_by_key(&base, |p| p.base)
            .ok()
            .map(|i| &self.pages[i])
    }

    fn record(&mut self, addr: u64, bytes: &[u8]) {
        debug_assert!(bytes.len() <= MAX_LANE_BYTES);
        self.lo = self.lo.min(addr);
        self.hi = self.hi.max(addr + bytes.len() as u64);
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let base = addr & !(PAGE_BYTES as u64 - 1);
            let off = (addr - base) as usize;
            let take = rest.len().min(PAGE_BYTES - off);
            let page = self.page_for_write(base);
            page.data[off..off + take].copy_from_slice(&rest[..take]);
            let mut b = off;
            while b < off + take {
                let span = (64 - b % 64).min(off + take - b);
                let mask = (!0u64 >> (64 - span)) << (b % 64);
                page.written[b / 64] |= mask;
                b += span;
            }
            addr += take as u64;
            rest = &rest[take..];
        }
    }

    /// Patches `out` (a copy of base memory at `addr`) with any bytes this
    /// journal has overwritten.
    fn patch(&self, addr: u64, out: &mut [u8]) {
        let end = addr + out.len() as u64;
        if end <= self.lo || addr >= self.hi {
            return; // conv kernels read inputs / write outputs in disjoint ranges
        }
        let mut done = 0usize;
        while done < out.len() {
            let a = addr + done as u64;
            let base = a & !(PAGE_BYTES as u64 - 1);
            let off = (a - base) as usize;
            let take = (out.len() - done).min(PAGE_BYTES - off);
            if let Some(page) = self.page(base) {
                for i in 0..take {
                    if page.has_byte(off + i) {
                        out[done + i] = page.data[off + i];
                    }
                }
            }
            done += take;
        }
    }

    /// Whether this block already stored byte `addr` (used by memcheck:
    /// a journaled byte is initialized for the owning block).
    fn has_byte(&self, addr: u64) -> bool {
        if addr < self.lo || addr >= self.hi {
            return false;
        }
        let base = addr & !(PAGE_BYTES as u64 - 1);
        self.page(base)
            .is_some_and(|p| p.has_byte((addr - base) as usize))
    }

    /// Visits every maximal run of journaled bytes as `(addr, bytes)`, in
    /// ascending address order. Each byte appears exactly once, holding the
    /// last value the block stored to it.
    pub(crate) fn for_each_run(&self, mut f: impl FnMut(u64, &[u8])) {
        for page in &self.pages {
            let mut b = 0usize;
            while let Some(start) = next_bit(&page.written, b, true) {
                let end = next_bit(&page.written, start, false).unwrap_or(PAGE_BYTES);
                f(page.base + start as u64, &page.data[start..end]);
                if end >= PAGE_BYTES {
                    break;
                }
                b = end;
            }
        }
    }
}

/// A thread block's port to global memory.
///
/// All warp-level global traffic flows through here; the instrumentation
/// (requests, coalesced transactions, bus/useful bytes) is identical in
/// both variants because it depends only on the addresses.
#[derive(Debug)]
pub(crate) enum GmPlane<'a> {
    /// Serial execution: reads and writes go straight to the device memory.
    Direct(&'a mut GlobalMemory),
    /// Parallel execution: reads come from the shared base (patched with
    /// this block's own stores), writes go to the private journal.
    Journaled {
        base: &'a GlobalMemory,
        journal: WriteJournal,
    },
}

impl<'a> GmPlane<'a> {
    fn base(&self) -> &GlobalMemory {
        match self {
            GmPlane::Direct(gm) => gm,
            GmPlane::Journaled { base, .. } => base,
        }
    }

    /// Consumes a journaled plane, returning its journal (`None` for
    /// direct planes, whose writes already landed).
    pub(crate) fn into_journal(self) -> Option<WriteJournal> {
        match self {
            GmPlane::Direct(_) => None,
            GmPlane::Journaled { journal, .. } => Some(journal),
        }
    }

    /// Raises a typed fault unless `[addr, addr + width)` is device-valid.
    fn check(&self, addr: u64, width: u64, access: AccessKind, site: Site, lane: usize) {
        let limit = self.base().device_limit();
        if addr.checked_add(width).is_none_or(|end| end > limit) {
            fault::raise(
                FaultKind::OutOfBounds {
                    space: MemSpace::Global,
                    access,
                    addr,
                    width,
                    limit,
                },
                site.warp,
                lane,
            );
        }
    }

    /// True when this is a direct plane with memcheck off and every active
    /// lane's `[addr, addr + width)` fits device memory — the precondition
    /// for the check-free copy loops in the warp accessors. Journaled
    /// planes always take the general path (loads must consult the store
    /// overlay). The warp-level bound saturates, so a wrapping address
    /// still fails into the faulting path.
    #[inline]
    fn plain_in_bounds(&self, access: &PreparedAccess<'_>) -> bool {
        let GmPlane::Direct(gm) = self else {
            return false;
        };
        if gm.shadow().is_some() {
            return false;
        }
        access.max_end() <= gm.device_limit()
    }

    fn read_into(&self, addr: u64, out: &mut [u8], site: Site, lane: usize) {
        self.check(addr, out.len() as u64, AccessKind::Load, site, lane);
        let base = self.base();
        out.copy_from_slice(base.bytes(addr, out.len()));
        if let GmPlane::Journaled { journal, .. } = self {
            journal.patch(addr, out);
        }
        // memcheck: every byte read must have been written by someone —
        // the base shadow (host transfers, earlier blocks in serial mode)
        // or, in journaled mode, this block's own store journal.
        if let Some(shadow) = base.shadow() {
            let journal = match self {
                GmPlane::Direct(_) => None,
                GmPlane::Journaled { journal, .. } => Some(journal),
            };
            for b in addr..addr + out.len() as u64 {
                if !shadow.is_marked(b) && !journal.is_some_and(|j| j.has_byte(b)) {
                    fault::raise(
                        FaultKind::UninitializedRead {
                            space: MemSpace::Global,
                            addr: b,
                            width: out.len() as u64,
                        },
                        site.warp,
                        lane,
                    );
                }
            }
        }
    }

    fn write(&mut self, addr: u64, bytes: &[u8], site: Site, lane: usize) {
        self.check(addr, bytes.len() as u64, AccessKind::Store, site, lane);
        match self {
            GmPlane::Direct(gm) => {
                gm.bytes_mut(addr, bytes.len()).copy_from_slice(bytes);
                gm.mark_init(addr, bytes.len() as u64);
            }
            GmPlane::Journaled { journal, .. } => {
                journal.record(addr, bytes);
            }
        }
    }

    /// Reads `V` consecutive `f32`s per active lane.
    #[inline]
    fn load_f32s<const V: usize>(
        &self,
        site: Site,
        lanes: &Lanes<'_>,
        access: &PreparedAccess<'_>,
    ) -> [[f32; V]; WARP_SIZE] {
        let mut out = [[0.0f32; V]; WARP_SIZE];
        if self.plain_in_bounds(access) {
            let base = self.base();
            for lane in lanes.mask.iter() {
                let raw = base.bytes(lanes.addrs[lane], V * 4);
                for (v, slot) in out[lane].iter_mut().enumerate() {
                    *slot = f32::from_le_bytes(raw[v * 4..v * 4 + 4].try_into().unwrap());
                }
            }
        } else {
            let mut raw = [0u8; MAX_LANE_BYTES];
            for lane in lanes.mask.iter() {
                self.read_into(lanes.addrs[lane], &mut raw[..V * 4], site, lane);
                for (v, slot) in out[lane].iter_mut().enumerate() {
                    *slot = f32::from_le_bytes(raw[v * 4..v * 4 + 4].try_into().unwrap());
                }
            }
        }
        out
    }

    /// Charges one load request of `transactions` segments of `seg` bytes.
    fn charge_ld(
        stats: &mut KernelStats,
        lanes: &Lanes<'_>,
        width: u64,
        transactions: u64,
        seg: u64,
    ) {
        stats.gm_ld_requests += 1;
        stats.gm_ld_transactions += transactions;
        stats.gm_ld_bytes_bus += transactions * seg;
        stats.gm_ld_bytes_useful += u64::from(lanes.mask.count()) * width;
    }

    /// Charges one store request: its coalesced segments.
    fn charge_st(
        &self,
        stats: &mut KernelStats,
        lanes: &Lanes<'_>,
        access: &PreparedAccess<'_>,
        width: u64,
    ) {
        let seg = self.base().st_transaction_bytes();
        let segs = access.segment_count(seg);
        stats.gm_st_requests += 1;
        stats.gm_st_transactions += segs;
        stats.gm_st_bytes_bus += segs * seg;
        stats.gm_st_bytes_useful += u64::from(lanes.mask.count()) * width;
    }

    /// Device warp load of `V` consecutive `f32`s per lane (a
    /// `float`/`float2`/`float4` load for `V` = 1/2/4). Records one request
    /// and the coalesced transaction count.
    ///
    /// An out-of-bounds active lane (or, under memcheck, a read of
    /// never-written bytes) raises a [`DeviceFault`](crate::DeviceFault)
    /// contained at the block boundary.
    pub(crate) fn warp_ld<const V: usize>(
        &self,
        stats: &mut KernelStats,
        site: Site,
        lanes: Lanes<'_>,
    ) -> [[f32; V]; WARP_SIZE] {
        let width = (V * 4) as u64;
        let access = lanes.prepare(width);
        let out = self.load_f32s::<V>(site, &lanes, &access);
        let seg = self.base().ld_transaction_bytes();
        Self::charge_ld(stats, &lanes, width, access.segment_count(seg), seg);
        out
    }

    /// Device warp load of `V` consecutive `f32`s per lane through the
    /// **read-only (texture) path**: lines already touched by this thread
    /// block are served from the per-SM read-only cache without bus
    /// traffic. This is how cuDNN streams its implicit-`im2col` patches,
    /// whose `K*K`-fold overlap would otherwise all hit DRAM.
    ///
    /// Faults like [`GmPlane::warp_ld`].
    pub(crate) fn warp_ld_ro<const V: usize>(
        &self,
        stats: &mut KernelStats,
        ro: &mut RoCache,
        site: Site,
        lanes: Lanes<'_>,
    ) -> [[f32; V]; WARP_SIZE] {
        let width = (V * 4) as u64;
        let access = lanes.prepare(width);
        let out = self.load_f32s::<V>(site, &lanes, &access);
        // Count transactions only for lines missing from the block cache;
        // lines are touched in first-visit order, preserving the FIFO's
        // insertion order.
        let seg = self.base().ld_transaction_bytes();
        let mut misses = 0u64;
        access.for_each_new_unit(seg, |line| {
            if ro.touch(line) {
                stats.gm_ro_hits += 1;
            } else {
                misses += 1;
            }
        });
        Self::charge_ld(stats, &lanes, width, misses, seg);
        out
    }

    /// Device warp store of `V` consecutive `f32`s per lane.
    ///
    /// An out-of-bounds active lane raises a
    /// [`DeviceFault`](crate::DeviceFault) contained at the block boundary.
    pub(crate) fn warp_st<const V: usize>(
        &mut self,
        stats: &mut KernelStats,
        site: Site,
        lanes: Lanes<'_>,
        values: &[[f32; V]; WARP_SIZE],
    ) {
        let width = (V * 4) as u64;
        let access = lanes.prepare(width);
        let (addrs, mask) = (lanes.addrs, lanes.mask);
        let mut raw = [0u8; MAX_LANE_BYTES];
        if self.plain_in_bounds(&access) {
            let GmPlane::Direct(gm) = self else {
                unreachable!("plain_in_bounds only holds for direct planes")
            };
            for lane in mask.iter() {
                for (v, val) in values[lane].iter().enumerate() {
                    raw[v * 4..v * 4 + 4].copy_from_slice(&val.to_le_bytes());
                }
                gm.bytes_mut(addrs[lane], V * 4)
                    .copy_from_slice(&raw[..V * 4]);
            }
        } else {
            for lane in mask.iter() {
                for (v, val) in values[lane].iter().enumerate() {
                    raw[v * 4..v * 4 + 4].copy_from_slice(&val.to_le_bytes());
                }
                self.write(addrs[lane], &raw[..V * 4], site, lane);
            }
        }
        self.charge_st(stats, &lanes, &access, width);
    }

    /// Device warp load of `W` raw bytes per lane (used by the short-data-
    /// type extension: `W` = 2 models `fp16`, `W` = 1 models `int8`).
    ///
    /// Faults like [`GmPlane::warp_ld`].
    pub(crate) fn warp_ld_bytes<const W: usize>(
        &self,
        stats: &mut KernelStats,
        site: Site,
        lanes: Lanes<'_>,
    ) -> [[u8; W]; WARP_SIZE] {
        let width = W as u64;
        let access = lanes.prepare(width);
        let (addrs, mask) = (lanes.addrs, lanes.mask);
        let mut out = [[0u8; W]; WARP_SIZE];
        if self.plain_in_bounds(&access) {
            let base = self.base();
            for lane in mask.iter() {
                out[lane].copy_from_slice(base.bytes(addrs[lane], W));
            }
        } else {
            for lane in mask.iter() {
                self.read_into(addrs[lane], &mut out[lane], site, lane);
            }
        }
        let seg = self.base().ld_transaction_bytes();
        Self::charge_ld(stats, &lanes, width, access.segment_count(seg), seg);
        out
    }

    /// Device warp store of `W` raw bytes per lane.
    ///
    /// Faults like [`GmPlane::warp_st`].
    pub(crate) fn warp_st_bytes<const W: usize>(
        &mut self,
        stats: &mut KernelStats,
        site: Site,
        lanes: Lanes<'_>,
        values: &[[u8; W]; WARP_SIZE],
    ) {
        let width = W as u64;
        let access = lanes.prepare(width);
        let (addrs, mask) = (lanes.addrs, lanes.mask);
        if self.plain_in_bounds(&access) {
            let GmPlane::Direct(gm) = self else {
                unreachable!("plain_in_bounds only holds for direct planes")
            };
            for lane in mask.iter() {
                gm.bytes_mut(addrs[lane], W).copy_from_slice(&values[lane]);
            }
        } else {
            for lane in mask.iter() {
                self.write(addrs[lane], &values[lane], site, lane);
            }
        }
        self.charge_st(stats, &lanes, &access, width);
    }
}

/// A thread block's port to constant memory.
#[derive(Debug)]
pub(crate) enum CmPlane<'a> {
    /// Serial execution: first-touch misses are counted against the
    /// launch-scoped cache state inside [`ConstantMemory`] as they happen.
    Direct(&'a mut ConstantMemory),
    /// Parallel execution: the block records which lines it touched in a
    /// bitmap; misses are counted at merge time as the union of all
    /// blocks' bitmaps (exactly the serial count, since the cache model
    /// never evicts within a launch).
    Shared {
        base: &'a ConstantMemory,
        touched: LineBitmap,
    },
}

impl<'a> CmPlane<'a> {
    /// A parallel-mode plane for one block, with its touched-line bitmap
    /// sized to `base`'s line range.
    pub(crate) fn shared(base: &'a ConstantMemory) -> Self {
        CmPlane::Shared {
            touched: LineBitmap::new(base.num_lines()),
            base,
        }
    }

    fn base(&self) -> &ConstantMemory {
        match self {
            CmPlane::Direct(cm) => cm,
            CmPlane::Shared { base, .. } => base,
        }
    }

    /// Consumes a shared plane, returning the touched-line bitmap (`None`
    /// for direct planes, whose misses were counted inline).
    pub(crate) fn into_touched_lines(self) -> Option<LineBitmap> {
        match self {
            CmPlane::Direct(_) => None,
            CmPlane::Shared { touched, .. } => Some(touched),
        }
    }

    /// Device warp load of one `f32` per lane.
    ///
    /// Cost model: `d` distinct active addresses cost `d - 1` serialization
    /// cycles (a fully-uniform read is free); each first-touched cache line
    /// counts one miss (deferred to merge time in `Shared` mode).
    ///
    /// An active lane reading outside constant memory (or, under memcheck,
    /// reading never-written constants) raises a
    /// [`DeviceFault`](crate::DeviceFault) contained at the block boundary.
    pub(crate) fn warp_ld_f32(
        &mut self,
        stats: &mut KernelStats,
        site: Site,
        lanes: Lanes<'_>,
    ) -> [f32; WARP_SIZE] {
        let mut out = [0.0f32; WARP_SIZE];
        for lane in lanes.mask.iter() {
            out[lane] = self.base().read_f32(lanes.addrs[lane], site, lane);
        }
        // Constant loads are priced at byte granularity: one distinct
        // address past the first is one cycle. Line touching is
        // idempotent (`touch_line` / `LineBitmap::set` only report the
        // first touch), so the first visits of each line charge the
        // misses; a power-of-two line is a unit of its own, any other
        // line size divides each distinct address.
        let access = lanes.prepare(1);
        let line_bytes = self.base().line_bytes();
        let mut touch = |line: u64| match self {
            CmPlane::Direct(cm) => {
                if cm.touch_line(line) {
                    stats.cm_misses += 1;
                }
            }
            CmPlane::Shared { touched, .. } => {
                touched.set(line);
            }
        };
        if line_bytes.is_power_of_two() {
            access.for_each_new_unit(line_bytes, touch);
        } else {
            access.for_each_new_unit(1, |addr| touch(addr / line_bytes));
        }
        stats.cm_requests += 1;
        stats.cm_cycles += access.segment_count(1).saturating_sub(1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPayload;
    use crate::testrng::Xoshiro;
    use crate::warp::LaneMask;
    use crate::warp::{lane_addrs, lane_addrs_uniform};
    use std::collections::HashMap;

    fn gm() -> GlobalMemory {
        GlobalMemory::new(1 << 20, 128, 32, 48 * 1024)
    }

    fn seeded(gm: &mut GlobalMemory, n: u64) -> crate::mem::GmBuf {
        let buf = gm.alloc_f32(n).unwrap();
        let vals: Vec<f32> = (0..n).map(|i| i as f32).collect();
        gm.write_f32s(buf, 0, &vals).unwrap();
        buf
    }

    #[test]
    fn journaled_reads_see_base_data() {
        let mut m = gm();
        let buf = seeded(&mut m, 64);
        let plane = GmPlane::Journaled {
            base: &m,
            journal: WriteJournal::new(),
        };
        let mut stats = KernelStats::default();
        let out = plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs(buf.f32_addr(0), 4), LaneMask::ALL),
        );
        assert_eq!(out[5][0], 5.0);
        assert_eq!(stats.gm_ld_transactions, 1);
    }

    #[test]
    fn journaled_block_reads_its_own_writes() {
        let mut m = gm();
        let buf = seeded(&mut m, 64);
        let mut plane = GmPlane::Journaled {
            base: &m,
            journal: WriteJournal::new(),
        };
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(buf.f32_addr(0), 4);
        let vals: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32 + 100.0]);
        plane.warp_st::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        let back = plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(back[7][0], 107.0);
        // The base is untouched until the journal is replayed.
        assert_eq!(m.read_f32s(buf, 7, 1).unwrap()[0], 7.0);
    }

    #[test]
    fn journal_replay_matches_direct_execution() {
        // Same store sequence through Direct and Journaled planes must
        // leave identical memory and counters.
        let run = |journaled: bool| -> (Vec<f32>, KernelStats) {
            let mut m = gm();
            let buf = seeded(&mut m, 64);
            let mut stats = KernelStats::default();
            let addrs = lane_addrs(buf.f32_addr(0), 4);
            let v1: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32 * 2.0]);
            let v2: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32 * 3.0]);
            if journaled {
                let mut plane = GmPlane::Journaled {
                    base: &m,
                    journal: WriteJournal::new(),
                };
                plane.warp_st::<1>(
                    &mut stats,
                    Site::ZERO,
                    Lanes::explicit(&addrs, LaneMask::ALL),
                    &v1,
                );
                plane.warp_st::<1>(
                    &mut stats,
                    Site::ZERO,
                    Lanes::explicit(&addrs, LaneMask::first(8)),
                    &v2,
                );
                let journal = plane.into_journal().unwrap();
                m.apply_journal(&journal);
            } else {
                let mut plane = GmPlane::Direct(&mut m);
                plane.warp_st::<1>(
                    &mut stats,
                    Site::ZERO,
                    Lanes::explicit(&addrs, LaneMask::ALL),
                    &v1,
                );
                plane.warp_st::<1>(
                    &mut stats,
                    Site::ZERO,
                    Lanes::explicit(&addrs, LaneMask::first(8)),
                    &v2,
                );
            }
            (m.read_f32s(buf, 0, 64).unwrap(), stats)
        };
        let (direct_mem, direct_stats) = run(false);
        let (journal_mem, journal_stats) = run(true);
        assert_eq!(direct_mem, journal_mem);
        assert_eq!(direct_stats, journal_stats);
    }

    #[test]
    fn journaled_uninit_check_honors_own_writes() {
        let mut m = gm();
        m.enable_uninit_tracking(false);
        let buf = m.alloc_f32(32).unwrap();
        let mut plane = GmPlane::Journaled {
            base: &m,
            journal: WriteJournal::new(),
        };
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(buf.f32_addr(0), 4);
        let vals: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32]);
        // Nothing in the base shadow, but the block's own journal covers
        // the bytes: the read-back is clean.
        plane.warp_st::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        let back = plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(back[9][0], 9.0);
    }

    #[test]
    fn journaled_uninit_read_raises() {
        crate::fault::install_quiet_hook();
        let payload = std::panic::catch_unwind(|| {
            let mut m = gm();
            m.enable_uninit_tracking(false);
            let buf = m.alloc_f32(32).unwrap();
            let plane = GmPlane::Journaled {
                base: &m,
                journal: WriteJournal::new(),
            };
            let mut stats = KernelStats::default();
            plane.warp_ld::<1>(
                &mut stats,
                Site::ZERO,
                Lanes::explicit(&lane_addrs(buf.f32_addr(0), 4), LaneMask::ALL),
            );
        })
        .unwrap_err();
        let p = payload.downcast::<FaultPayload>().unwrap();
        assert!(matches!(p.kind, FaultKind::UninitializedRead { .. }));
    }

    #[test]
    fn paged_journal_matches_byte_map_reference() {
        // Differential property test: the paged overlay must agree with a
        // naive byte map (the structure it replaced) on random store/load
        // sequences, including journaled read-your-own-writes.
        let mut rng = Xoshiro::seeded(0xC0FFEE);
        let mut journal = WriteJournal::new();
        let mut reference: HashMap<u64, u8> = HashMap::new();
        // Several pages with gaps, plus stores straddling page boundaries.
        const SPAN: u64 = 40_000;
        for _ in 0..4000 {
            let r = rng.next();
            let addr = r % SPAN;
            let len = 1 + (r >> 32) as usize % MAX_LANE_BYTES;
            let mut bytes = [0u8; MAX_LANE_BYTES];
            for (i, b) in bytes[..len].iter_mut().enumerate() {
                *b = (rng.next() >> (i % 8)) as u8;
            }
            journal.record(addr, &bytes[..len]);
            for (i, &b) in bytes[..len].iter().enumerate() {
                reference.insert(addr + i as u64, b);
            }
            // Read-your-own-writes probe through patch().
            let raddr = rng.next() % SPAN;
            let rlen = 1 + (rng.next() % 24) as usize;
            let mut got = vec![0xA5u8; rlen];
            journal.patch(raddr, &mut got);
            for (i, &g) in got.iter().enumerate() {
                let want = reference.get(&(raddr + i as u64)).copied().unwrap_or(0xA5);
                assert_eq!(g, want, "patched byte at {raddr}+{i}");
            }
            let probe = rng.next() % SPAN;
            assert_eq!(journal.has_byte(probe), reference.contains_key(&probe));
        }
        assert!(!journal.is_empty());
        // Replay: ascending disjoint runs covering exactly the written
        // bytes, each holding its last-stored value.
        let mut replayed: HashMap<u64, u8> = HashMap::new();
        let mut last_end = 0u64;
        journal.for_each_run(|addr, bytes| {
            assert!(addr >= last_end, "runs must be disjoint and ascending");
            last_end = addr + bytes.len() as u64;
            for (i, &b) in bytes.iter().enumerate() {
                replayed.insert(addr + i as u64, b);
            }
        });
        assert_eq!(replayed, reference);
    }

    #[test]
    fn journal_run_spans_page_boundary_writes() {
        // A store straddling two pages must replay as its exact bytes.
        let mut journal = WriteJournal::new();
        let addr = PAGE_BYTES as u64 - 7;
        let bytes: Vec<u8> = (1..=14).collect();
        journal.record(addr, &bytes);
        let mut runs = Vec::new();
        journal.for_each_run(|a, b| runs.push((a, b.to_vec())));
        assert_eq!(runs.len(), 2); // one run per page
        assert_eq!(runs[0], (addr, bytes[..7].to_vec()));
        assert_eq!(runs[1], (PAGE_BYTES as u64, bytes[7..].to_vec()));
    }

    #[test]
    fn ro_cache_hits_do_not_count_bus_traffic() {
        let mut m = gm();
        let buf = seeded(&mut m, 64);
        let plane = GmPlane::Direct(&mut m);
        let mut ro = RoCache::new(16);
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(buf.f32_addr(0), 4);
        plane.warp_ld_ro::<1>(
            &mut stats,
            &mut ro,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        plane.warp_ld_ro::<1>(
            &mut stats,
            &mut ro,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(stats.gm_ld_transactions, 1); // second read fully cached
        assert_eq!(stats.gm_ro_hits, 1);
    }

    #[test]
    fn shared_cm_plane_defers_miss_counting() {
        let mut cm = ConstantMemory::new(1 << 16, 256);
        cm.write_f32s(0, &[1.0, 2.0]).unwrap();
        let mut plane = CmPlane::shared(&cm);
        let mut stats = KernelStats::default();
        plane.warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs_uniform(0), LaneMask::ALL),
        );
        plane.warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs_uniform(4), LaneMask::ALL),
        );
        assert_eq!(stats.cm_misses, 0); // deferred
        assert_eq!(stats.cm_requests, 2);
        let touched = plane.into_touched_lines().unwrap();
        assert_eq!(touched.count(), 1); // both addresses in line 0
        assert_eq!(cm.absorb_lines(&touched), 1);
        assert_eq!(cm.absorb_lines(&touched), 0); // union: no double count
    }
}
