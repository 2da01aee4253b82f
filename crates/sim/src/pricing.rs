//! Spec-parameterized pricing primitives shared by the live memory models
//! and the offline trace replayer.
//!
//! Every counter the simulator charges for a warp memory instruction is a
//! pure function of *(per-lane addresses, active mask, bytes per lane)* and
//! a handful of [`GpuSpec`](crate::GpuSpec) parameters — transaction
//! (segment) size for global-memory coalescing, bank count and
//! [`BankWidth`](crate::BankWidth) for shared-memory replays, line sizes
//! for the read-only and constant caches. This module exposes those
//! functions directly, with the spec parameters as plain arguments, so that
//! a consumer holding only recorded addresses (the `kconv-replay` crate
//! re-pricing a binary trace under a foreign `GpuSpec`) charges **exactly**
//! the same counters as the live memory models in [`crate::mem`] — the two
//! paths share this code, which is what makes
//! replay-under-capture-spec bit-identical to the live counters by
//! construction rather than by coincidence.
//!
//! What lives here:
//!
//! * [`WarpAccess`] — one access's lane addresses in the form they were
//!   recorded in: affine ([`affine_lanes`], [`affine_addrs`]), two-level
//!   ([`TwoLevel`]) or explicit, with [`WarpAccess::addrs`] expanding it;
//! * [`PreparedAccess`] ([`WarpAccess::prepare`]) — form-taking pricing:
//!   segments, distinct units in first-visit order and bank conflicts of
//!   the common affine and two-level shapes in closed form, the lane
//!   engine below for the rest (DESIGN.md §12 lists which shapes take
//!   which path);
//! * [`for_each_unit`] — the distinct-unit scan under all dedup-based
//!   counters (segments, cache lines, distinct constant addresses);
//! * [`segment_count`] — global-memory transactions for one warp access;
//! * [`RoCache`] — the per-block FIFO residency model of the read-only
//!   (texture) cache, with [`ro_capacity_lines`] giving its line capacity
//!   for a given transaction size;
//! * re-exports of [`bank_conflict_cycles`] / [`BankAccessOutcome`], the
//!   shared-memory bank model (defined in [`crate::mem`], already
//!   spec-parameterized by bank count and width).
//!
//! What deliberately does *not* live here: anything that needs the data
//! values or the kernel itself — functional outputs, sanitizer shadows,
//! fault checks. A trace records addresses, not bytes, so replay can
//! recompute costs but never results (see DESIGN.md §11).

use std::collections::{HashSet, VecDeque};
use std::hash::BuildHasherDefault;

use crate::mem::lanes;
use crate::warp::{LaneMask, WarpAddrs};

mod closed;
mod form;

pub use crate::mem::lanes::for_each_unit;
pub use crate::mem::{bank_conflict_cycles, BankAccessOutcome};
pub use closed::PreparedAccess;
pub use form::{affine_addrs, affine_lanes, TwoLevel, WarpAccess, TWO_LEVEL_PERIODS};

/// Size of the per-SM read-only (texture) cache modeled by [`RoCache`]:
/// Kepler's 48 KiB.
pub const RO_CACHE_BYTES: u64 = 48 * 1024;

/// Number of distinct aligned segments of `seg` bytes covered by the active
/// lanes' `[addr, addr + width)` ranges — the global-memory transaction
/// count for one warp instruction on a part with `seg`-byte transactions.
///
/// # Examples
///
/// ```
/// use kconv_sim::{lane_addrs, pricing, LaneMask};
/// // A fully coalesced warp of floats: one 128-byte transaction.
/// assert_eq!(pricing::segment_count(&lane_addrs(0, 4), 4, LaneMask::ALL, 128), 1);
/// // The same addresses on a 32-byte-sector part: four transactions.
/// assert_eq!(pricing::segment_count(&lane_addrs(0, 4), 4, LaneMask::ALL, 32), 4);
/// ```
pub fn segment_count(addrs: &WarpAddrs, width: u64, mask: LaneMask, seg: u64) -> u64 {
    lanes::distinct_units(addrs, width, mask, seg)
}

/// Line capacity of a per-SM read-only (texture) cache of `ro_cache_bytes`
/// on a part whose load transactions (= cache lines) are
/// `ld_transaction_bytes` wide. Pass [`RO_CACHE_BYTES`] for the 48 KiB cache
/// every real part here carries, or a swept
/// [`GpuSpec::ro_cache_bytes`](crate::GpuSpec::ro_cache_bytes) for what-if
/// grids.
///
/// Clamped to at least one line: a swept `ro_cache_bytes` smaller than the
/// transaction size would otherwise build a capacity-0 cache in which every
/// touch misses *and* immediately evicts its own insertion — a degenerate
/// model no hardware corresponds to. (`GpuSpec::grid` additionally rejects
/// such sweeps at validation time; the clamp covers hand-built specs.)
pub fn ro_capacity_lines(ro_cache_bytes: u64, ld_transaction_bytes: u64) -> usize {
    ((ro_cache_bytes / ld_transaction_bytes) as usize).max(1)
}

/// Multiplicative mixer for cache-line indices. Line numbers are small,
/// dense integers; the std `HashSet` default (SipHash) costs more than the
/// rest of the cache probe combined, and no untrusted input reaches these
/// sets.
#[derive(Default)]
struct LineHasher(u64);

impl std::hash::Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, v: u64) {
        let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }
}

type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;

/// Per-block residency model of the 48 KiB per-SM read-only (texture)
/// cache, FIFO-evicted at line granularity.
///
/// Only intra-block reuse is dependable on real hardware, so the serial
/// launcher always reset this state per block; making it a per-block value
/// changes nothing about the counts.
#[derive(Debug)]
pub struct RoCache {
    lines: LineSet,
    fifo: VecDeque<u64>,
    capacity: usize,
}

impl RoCache {
    /// An empty cache holding at most `capacity_lines` lines (see
    /// [`ro_capacity_lines`]).
    pub fn new(capacity_lines: usize) -> Self {
        RoCache {
            lines: LineSet::default(),
            fifo: VecDeque::new(),
            capacity: capacity_lines,
        }
    }

    /// Empties the cache, keeping its allocations for the next block.
    pub fn clear(&mut self) {
        self.lines.clear();
        self.fifo.clear();
    }

    /// Returns whether `line` was resident, inserting it (with FIFO
    /// eviction) if not. One hash probe per touch: `insert`'s return value
    /// doubles as the residency test.
    pub fn touch(&mut self, line: u64) -> bool {
        if !self.lines.insert(line) {
            return true;
        }
        self.fifo.push_back(line);
        if self.fifo.len() > self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                self.lines.remove(&old);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::lane_addrs;

    #[test]
    fn segment_count_is_spec_parameterized() {
        let a = lane_addrs(0, 4);
        assert_eq!(segment_count(&a, 4, LaneMask::ALL, 128), 1);
        assert_eq!(segment_count(&a, 4, LaneMask::ALL, 32), 4);
        assert_eq!(segment_count(&a, 4, LaneMask::NONE, 128), 0);
        // Strided by a full line: one segment per active lane.
        assert_eq!(
            segment_count(&lane_addrs(0, 128), 4, LaneMask::first(7), 128),
            7
        );
    }

    #[test]
    fn ro_cache_fifo_evicts_in_insertion_order() {
        let mut ro = RoCache::new(2);
        assert!(!ro.touch(1)); // miss
        assert!(!ro.touch(2)); // miss
        assert!(ro.touch(1)); // hit
        assert!(!ro.touch(3)); // miss, evicts 1 (FIFO ignores the re-touch)
        assert!(!ro.touch(1)); // miss again
        assert!(ro.touch(3)); // still resident
    }

    #[test]
    fn ro_capacity_tracks_line_size_and_cache_size() {
        assert_eq!(ro_capacity_lines(RO_CACHE_BYTES, 128), 384);
        assert_eq!(ro_capacity_lines(RO_CACHE_BYTES, 32), 1536);
        assert_eq!(ro_capacity_lines(24 * 1024, 128), 192);
    }

    #[test]
    fn ro_capacity_clamps_to_one_line_for_tiny_caches() {
        // A swept cache smaller than one transaction must not build a
        // capacity-0 cache (every touch would evict its own insertion).
        assert_eq!(ro_capacity_lines(64, 128), 1);
        assert_eq!(ro_capacity_lines(0, 128), 1);
        let mut ro = RoCache::new(ro_capacity_lines(64, 128));
        assert!(!ro.touch(7)); // miss
        assert!(ro.touch(7)); // the one line is actually resident
    }

    #[test]
    fn ro_cache_single_probe_touch_keeps_fifo_semantics() {
        // Regression for the contains-then-insert double probe: hits must
        // not re-enqueue a line, so the FIFO never outgrows the set and
        // eviction order stays pure insertion order under heavy re-touching.
        let mut ro = RoCache::new(3);
        assert!(!ro.touch(10));
        assert!(!ro.touch(20));
        assert!(!ro.touch(30));
        for _ in 0..100 {
            assert!(ro.touch(10)); // hits; must not push FIFO entries
        }
        assert_eq!(ro.fifo.len(), 3);
        assert_eq!(ro.lines.len(), 3);
        assert!(!ro.touch(40)); // evicts 10 — oldest insertion, despite hits
        assert!(ro.touch(20)); // 20/30 untouched by the churn
        assert!(ro.touch(30));
        assert!(!ro.touch(10)); // 10 really was evicted
    }
}
