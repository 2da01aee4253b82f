//! Form-taking pricing: the counters of an affine or two-level warp access
//! in closed form, with the lane engine for every other shape.
//!
//! For a strided access the paper's costs follow from the stride and the
//! unit (Fig. 1, eq. 1), so [`PreparedAccess`] prices the common shapes
//! without expanding 32 lanes. Each closed form equals the lane engine on
//! the expanded lanes for every input; `closed/tests.rs` pins that on
//! seeded random accesses.
//!
//! A shape prices in closed form when its distinct lane addresses are a
//! *run*: `n` addresses `first + k·step` in lane order that neither wrap
//! nor saturate (the highest lane's last byte fits in `u64`), with lanes
//! 1–16 bytes wide. That covers
//!
//! * an affine access of any mask (step 0 included: a warp-uniform
//!   load is a run of one distinct address read `n` times);
//! * a two-level access with `s1 = 0` whose active rows are rows
//!   `0..m`: the run of its `m` row addresses;
//! * a two-level access with `s2 = 0` whose row 0 holds lanes `0..m` and
//!   whose other rows hold no other column: the run of its `m` column
//!   addresses.
//!
//! In the two-level cases lanes past the run re-read its addresses, so the
//! access broadcasts.
//!
//! A full-warp two-level access with both strides nonzero is a *tile*
//! when its lanes, walked row by row or column by column, never step
//! down (a register tile's loads, a transposed store): one pass over its
//! 32 lanes then finds each lane's new units without a bitmap. Its
//! first-visit order is known only for the row walk, which is lane
//! order.
//!
//! Every other shape — explicit lanes, partial or descending tiles,
//! wrapping progressions — is expanded and priced by the lane engine
//! exactly as the live memory models price it.
//!
//! Per unit size `u` (a power of two), a lane at `a` covers units
//! `a/u ..= (a + width − 1)/u`, and with `d = |step|` a run is
//!
//! * *contiguous* when `d < width + u`: neighbouring lanes leave no whole
//!   unit between them, so the run covers every unit from its lowest to
//!   its highest, `hi − lo + 1` of them;
//! * *disjoint* otherwise (`d ≥ width + u − 1` also makes it disjoint):
//!   no two lanes share a unit, and the distinct count is the sum of
//!   the lanes' spans.
//!
//! Bank-conflict cycles on `banks` banks of `bw`-byte words then follow:
//! a contiguous run of `c` words costs `⌈c / banks⌉`; a disjoint run of
//! single-word lanes whose step is a multiple of the bank width steps
//! through the banks by `q = (d / bw) mod banks` and costs
//! `⌈n · gcd(q, banks) / banks⌉`; other disjoint runs fill a bank
//! histogram lane by lane, which needs no dedup. The access broadcasts
//! when some unit is visited twice: when the lanes' spans add up to more
//! than the distinct count, or when further lanes re-read the run.

use super::form::{TwoLevel, WarpAccess, TWO_LEVEL_PERIODS};
use super::{for_each_unit, segment_count};
use crate::mem::{bank_conflict_cycles, BankAccessOutcome};
use crate::spec::{BankWidth, WARP_SIZE};
use crate::warp::{LaneMask, WarpAddrs};

/// The widest lane the closed forms take, in bytes: the lane engine's
/// domain (its wide-scatter fallback holds 17 units per lane).
const MAX_WIDTH: u64 = 16;

/// The most banks the closed forms take: the lane engine's histogram
/// width.
const MAX_BANKS: u64 = 64;

impl<'a> WarpAccess<'a> {
    /// Readies the access of `width`-byte lanes under `mask` for pricing
    /// under many specs: finds its closed form when it has one (an
    /// affine access, a two-level one with a zero stride, or a full-warp
    /// two-level tile whose rows or columns ascend); other shapes are
    /// expanded for the lane engine when priced.
    #[inline(always)]
    pub fn prepare(self, mask: LaneMask, width: u64) -> PreparedAccess<'a> {
        let lanes = u64::from(mask.count());
        let shape = match self {
            _ if lanes == 0 => Shape::Empty,
            WarpAccess::Affine { first, step } => {
                Run::new(first, step, lanes, lanes, width).map_or(Shape::Lanes, Shape::Run)
            }
            WarpAccess::TwoLevel(form) => form.shape(mask, lanes, width),
            WarpAccess::Explicit(_) => Shape::Lanes,
        };
        PreparedAccess {
            access: self,
            shape,
            width,
            mask,
        }
    }
}

/// A warp access readied for pricing (see [`WarpAccess::prepare`]). Each
/// method returns exactly what the lane engine returns on the expanded
/// lanes.
#[derive(Debug, Clone, Copy)]
pub struct PreparedAccess<'a> {
    access: WarpAccess<'a>,
    shape: Shape,
    width: u64,
    mask: LaneMask,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// No active lane.
    Empty,
    Run(Run),
    Tile(Tile),
    /// Priced by the lane engine.
    Lanes,
}

impl PreparedAccess<'_> {
    /// Distinct aligned `unit`s covered by the active lanes — what
    /// [`segment_count`] returns: global-memory transactions for a
    /// segment size, distinct constant addresses for unit 1 and width 1.
    /// `unit` must be a power of two.
    #[inline]
    pub fn segment_count(&self, unit: u64) -> u64 {
        match &self.shape {
            Shape::Empty => 0,
            Shape::Run(run) => run.units(self.width, unit).distinct,
            Shape::Tile(tile) => tile.distinct(self.width, unit),
            Shape::Lanes => self.lanes_segment_count(unit),
        }
    }

    /// Calls `visit` on every distinct aligned `unit` covered by the
    /// active lanes, in first-visit order: the units [`for_each_unit`]
    /// visits with its `first_occurrence` flag set, the order the
    /// read-only cache's FIFO inserts lines in. `unit` must be a power of
    /// two.
    #[inline]
    pub fn for_each_new_unit(&self, unit: u64, visit: impl FnMut(u64)) {
        match &self.shape {
            Shape::Empty => {}
            Shape::Run(run) => run.for_each_new_unit(self.width, unit, visit),
            Shape::Tile(tile) if tile.lane_order == 1 => tile.new_units(self.width, unit, visit),
            Shape::Tile(_) | Shape::Lanes => self.lanes_new_units(unit, visit),
        }
    }

    /// Shared-memory bank-conflict cycles and the broadcast flag on
    /// `banks` banks of `bank_width` — what [`bank_conflict_cycles`]
    /// returns.
    #[inline]
    pub fn bank_conflict_cycles(&self, banks: u32, bank_width: BankWidth) -> BankAccessOutcome {
        let closed = match &self.shape {
            Shape::Empty => Some(BankAccessOutcome {
                cycles: 1,
                broadcast: false,
            }),
            Shape::Run(run) => run.bank_outcome(self.width, banks, bank_width),
            Shape::Tile(tile) => tile.bank_outcome(self.width, banks, bank_width),
            Shape::Lanes => None,
        };
        closed.unwrap_or_else(|| self.lanes_bank_conflict_cycles(banks, bank_width))
    }

    // The lane-engine paths stay out of line: the engine's kilobytes of
    // stack bitmaps would otherwise be set up on every closed-form call.

    /// Calls `f` on the canonical lane addresses: borrowed when
    /// explicit, expanded on the stack otherwise.
    #[inline]
    fn with_lanes<R>(&self, f: impl FnOnce(&WarpAddrs) -> R) -> R {
        match self.access {
            WarpAccess::Explicit(addrs) => f(addrs),
            access => f(&access.addrs(self.mask)),
        }
    }

    #[inline(never)]
    fn lanes_segment_count(&self, unit: u64) -> u64 {
        self.with_lanes(|addrs| segment_count(addrs, self.width, self.mask, unit))
    }

    #[inline(never)]
    fn lanes_new_units(&self, unit: u64, mut visit: impl FnMut(u64)) {
        self.with_lanes(|addrs| {
            for_each_unit(addrs, self.width, self.mask, unit, |u, new| {
                if new {
                    visit(u);
                }
            })
        });
    }

    #[inline(never)]
    fn lanes_bank_conflict_cycles(&self, banks: u32, bank_width: BankWidth) -> BankAccessOutcome {
        self.with_lanes(|addrs| {
            bank_conflict_cycles(addrs, self.width, self.mask, banks, bank_width)
        })
    }
}

/// `n ≥ 1` distinct lane addresses `first + k·step` in lane order that
/// neither wrap nor saturate (see the module docs), read by `lanes ≥ n`
/// active lanes. Plain words, no flags: the run is copied on every
/// event, and flag bytes packed into an enum's spare bits cost more to
/// copy than the words.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The lowest address.
    lo: u64,
    /// The first address in lane order: `lo` unless the run descends.
    first: u64,
    /// `|step|`; 0 for a one-address run.
    d: u64,
    n: u64,
    /// Active lanes; more than `n` when lanes re-read the run's
    /// addresses.
    lanes: u64,
}

/// A run's units of one size.
struct Units {
    /// Distinct units covered.
    distinct: u64,
    /// Units visited, summed over the run's lanes.
    visits: u64,
    /// Whether the run covers every unit from its lowest to its highest.
    contiguous: bool,
}

impl Run {
    /// The run `first + k·step`, `k < n`, of `width`-byte lanes read by
    /// `lanes` active lanes, or `None` when it wraps, saturates or has a
    /// width outside 1–16.
    #[inline(always)]
    fn new(first: u64, step: u64, n: u64, lanes: u64, width: u64) -> Option<Run> {
        if n == 0 || !(1..=MAX_WIDTH).contains(&width) {
            return None;
        }
        let descending = (step as i64) < 0 && n > 1;
        let d = match n {
            1 => 0,
            _ if descending => step.wrapping_neg(),
            _ => step,
        };
        let extent = d.checked_mul(n - 1)?;
        let lo = if descending {
            first.checked_sub(extent)?
        } else {
            first
        };
        // The highest lane's last byte must fit: no span saturates.
        lo.checked_add(extent)?.checked_add(width - 1)?;
        Some(Run {
            lo,
            first,
            d,
            n,
            lanes,
        })
    }

    #[inline]
    fn descending(&self) -> bool {
        self.first != self.lo
    }

    /// The `k`-th address in lane order.
    #[inline]
    fn addr(&self, k: u64) -> u64 {
        if self.descending() {
            self.first - k * self.d
        } else {
            self.first + k * self.d
        }
    }

    #[inline]
    fn units(&self, width: u64, unit: u64) -> Units {
        debug_assert!(unit.is_power_of_two());
        let s = unit.trailing_zeros();
        let hi_addr = self.lo + self.d * (self.n - 1);
        let (lo, hi) = (self.lo >> s, (hi_addr + (width - 1)) >> s);
        let span = |a: u64| ((a + (width - 1)) >> s) - (a >> s) + 1;
        let visits = if self.d & (unit - 1) == 0 {
            // Every lane sits at the same offset in its unit.
            self.n * span(self.lo)
        } else if width.is_power_of_two() && width <= unit && (self.lo | self.d) & (width - 1) == 0
        {
            // Width-aligned lanes of a power-of-two width no wider than
            // the unit never straddle a unit boundary.
            self.n
        } else {
            (0..self.n).map(|k| span(self.lo + k * self.d)).sum()
        };
        let contiguous = self.d < width + unit;
        Units {
            distinct: if contiguous { hi - lo + 1 } else { visits },
            visits,
            contiguous,
        }
    }

    /// The units in first-visit order: lane by lane, each lane's units
    /// that no earlier lane covered, ascending. Lane spans move
    /// monotonically, so those are the units past the previous lane's
    /// last (ascending runs) or before its first (descending ones).
    #[inline]
    fn for_each_new_unit(&self, width: u64, unit: u64, visit: impl FnMut(u64)) {
        debug_assert!(unit.is_power_of_two());
        if !self.descending() && self.d < width + unit {
            // Ascending and contiguous: every unit in order.
            let s = unit.trailing_zeros();
            let hi_addr = self.lo + self.d * (self.n - 1);
            (self.lo >> s..=(hi_addr + (width - 1)) >> s).for_each(visit);
        } else {
            self.walk_new_units(width, unit, visit);
        }
    }

    /// [`Run::for_each_new_unit`] lane by lane.
    #[inline(never)]
    fn walk_new_units(&self, width: u64, unit: u64, mut visit: impl FnMut(u64)) {
        let s = unit.trailing_zeros();
        let span = |a: u64| (a >> s, (a + (width - 1)) >> s);
        let descending = self.descending();
        let (mut prev_first, mut prev_last) = span(self.first);
        (prev_first..=prev_last).for_each(&mut visit);
        for k in 1..self.n {
            let (first, last) = span(self.addr(k));
            if !descending {
                (first.max(prev_last + 1)..=last).for_each(&mut visit);
            } else if let Some(below) = prev_first.checked_sub(1) {
                (first..=last.min(below)).for_each(&mut visit);
            }
            (prev_first, prev_last) = (first, last);
        }
    }

    /// Bank-conflict cycles and broadcast flag (see the module docs), or
    /// `None` for a bank count outside 1–64.
    #[inline]
    fn bank_outcome(
        &self,
        width: u64,
        banks: u32,
        bank_width: BankWidth,
    ) -> Option<BankAccessOutcome> {
        let nb = u64::from(banks);
        if !(1..=MAX_BANKS).contains(&nb) {
            return None;
        }
        let bw = bank_width.bytes();
        let u = self.units(width, bw);
        let cycles = if u.contiguous {
            u.distinct.div_ceil(nb)
        } else if u.visits == self.n && self.d & (bw - 1) == 0 {
            // One word per lane, `q` words apart: the lanes cycle through
            // `nb / g` banks, `g = gcd(q mod nb, nb)`, each hit every
            // `nb / g` lanes.
            let g = gcd((self.d / bw) % nb, nb);
            (self.n * g).div_ceil(nb)
        } else {
            self.bank_histogram(width, nb, bw)
        };
        Some(BankAccessOutcome {
            cycles: cycles.max(1),
            broadcast: self.lanes > self.n || u.visits > u.distinct,
        })
    }

    /// The busiest bank's word count for a disjoint run, whose lanes
    /// touch distinct words.
    #[inline(never)]
    fn bank_histogram(&self, width: u64, nb: u64, bw: u64) -> u64 {
        let s = bw.trailing_zeros();
        let mut per_bank = [0u64; MAX_BANKS as usize];
        let mut max_words = 0;
        for k in 0..self.n {
            let a = self.lo + k * self.d;
            for w in a >> s..=(a + (width - 1)) >> s {
                let b = &mut per_bank[(w % nb) as usize];
                *b += 1;
                max_words = max_words.max(*b);
            }
        }
        max_words
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A full-warp two-level access walked row by row (lane order) or
/// column by column, whichever never steps down: `outer_n` groups
/// `outer` bytes apart of `inner_n` lanes `inner` bytes apart. Walking
/// lanes in ascending address order, a lane's new units are those past
/// the previous lane's last, so one pass counts the distinct units
/// without a bitmap.
#[derive(Debug, Clone, Copy)]
struct Tile {
    base: u64,
    outer: u64,
    outer_n: u64,
    inner: u64,
    inner_n: u64,
    /// 1 when the walk is lane order, so its new units come in first-visit
    /// order; 0 for a column walk. (A byte, not a flag, for the reason
    /// [`Run`] has none.)
    lane_order: u8,
}

/// What [`Tile::walk`] counts.
struct Walked {
    distinct: u64,
    visits: u64,
}

impl Tile {
    /// The walk of `(outer, outer_n)` groups of `(inner, inner_n)` lanes
    /// from `base`, when addresses never decrease along it and the last
    /// lane's span does not saturate.
    #[inline]
    fn new(
        base: u64,
        (outer, outer_n): (u64, u64),
        (inner, inner_n): (u64, u64),
        width: u64,
        lane_order: u8,
    ) -> Option<Tile> {
        let row = inner.checked_mul(inner_n - 1)?;
        if (inner as i64) < 0 || outer < row || (outer as i64) < 0 {
            return None;
        }
        base.checked_add(outer.checked_mul(outer_n - 1)?)?
            .checked_add(row)?
            .checked_add(width - 1)?;
        Some(Tile {
            base,
            outer,
            outer_n,
            inner,
            inner_n,
            lane_order,
        })
    }

    // The tile walks stay out of line, keeping the run forms' callers
    // small.

    #[inline(never)]
    fn distinct(&self, width: u64, unit: u64) -> u64 {
        self.walk(width, unit, |_| {}).distinct
    }

    #[inline(never)]
    fn new_units(&self, width: u64, unit: u64, visit: impl FnMut(u64)) {
        self.walk(width, unit, visit);
    }

    /// Calls `new_unit` on each distinct unit once, ascending.
    #[inline]
    fn walk(&self, width: u64, unit: u64, mut new_unit: impl FnMut(u64)) -> Walked {
        debug_assert!(unit.is_power_of_two());
        let s = unit.trailing_zeros();
        let (mut distinct, mut visits) = (0, 0);
        // Units up to `seen` are visited; none before the first lane.
        let mut seen: Option<u64> = None;
        for i in 0..self.outer_n {
            let group = self.base + i * self.outer;
            for j in 0..self.inner_n {
                let a = group + j * self.inner;
                let (first, last) = (a >> s, (a + (width - 1)) >> s);
                visits += last - first + 1;
                let from = match seen {
                    Some(seen) if last <= seen => continue,
                    Some(seen) => first.max(seen + 1),
                    None => first,
                };
                distinct += last - from + 1;
                (from..=last).for_each(&mut new_unit);
                seen = Some(last);
            }
        }
        Walked { distinct, visits }
    }

    /// Bank-conflict cycles and broadcast flag: a bank histogram of the
    /// walk's distinct words, or `None` for a bank count outside 1–64.
    #[inline(never)]
    fn bank_outcome(
        &self,
        width: u64,
        banks: u32,
        bank_width: BankWidth,
    ) -> Option<BankAccessOutcome> {
        let nb = u64::from(banks);
        if !(1..=MAX_BANKS).contains(&nb) {
            return None;
        }
        let mut per_bank = [0u64; MAX_BANKS as usize];
        let mut max_words = 1;
        let walked = self.walk(width, bank_width.bytes(), |w| {
            let b = &mut per_bank[(w % nb) as usize];
            *b += 1;
            max_words = max_words.max(*b);
        });
        Some(BankAccessOutcome {
            cycles: max_words,
            broadcast: walked.visits > walked.distinct,
        })
    }
}

impl TwoLevel {
    /// How a two-level access with `lanes` active lanes prices: a run
    /// when a stride is zero, a tile walk when the warp is full and its
    /// rows or columns never step down, the lane engine otherwise.
    #[inline(never)]
    fn shape(&self, mask: LaneMask, lanes: u64, width: u64) -> Shape {
        if let Some(run) = self.run(mask, lanes, width) {
            return Shape::Run(run);
        }
        if !mask.is_all()
            || !TWO_LEVEL_PERIODS.contains(&self.p)
            || !(1..=MAX_WIDTH).contains(&width)
        {
            return Shape::Lanes;
        }
        let (p, rows) = (u64::from(self.p), (WARP_SIZE / usize::from(self.p)) as u64);
        Tile::new(self.base, (self.s2, rows), (self.s1, p), width, 1)
            .or_else(|| Tile::new(self.base, (self.s1, p), (self.s2, rows), width, 0))
            .map_or(Shape::Lanes, Shape::Tile)
    }

    /// The run of distinct addresses of a two-level access with a zero
    /// stride and `lanes` active lanes (see the module docs), or `None`.
    #[inline]
    fn run(&self, mask: LaneMask, lanes: u64, width: u64) -> Option<Run> {
        if !TWO_LEVEL_PERIODS.contains(&self.p) {
            return None;
        }
        let p = usize::from(self.p);
        let row_bits = (1u32 << p) - 1;
        let row = |r: usize| mask.0 >> (r * p) & row_bits;
        let rows = WARP_SIZE / p;
        let (first, step, n) = if self.s1 == 0 {
            // Each row reads one address; the active rows must be 0..m.
            let active = (0..rows).fold(0u32, |a, r| a | u32::from(row(r) != 0) << r);
            if active & active.wrapping_add(1) != 0 {
                return None;
            }
            (self.base, self.s2, active.count_ones())
        } else if self.s2 == 0 {
            // Every row re-reads row 0's columns; row 0 must hold 0..m.
            let first = row(0);
            if first & first.wrapping_add(1) != 0 || (1..rows).any(|r| row(r) & !first != 0) {
                return None;
            }
            (self.base, self.s1, first.count_ones())
        } else {
            return None;
        };
        Run::new(first, step, u64::from(n), lanes, width)
    }
}

#[cfg(test)]
mod tests;
