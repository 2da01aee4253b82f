//! The lane forms a warp access is recorded in, and their expansion to
//! lane addresses.
//!
//! A warp instruction's 32 lane addresses nearly always follow one of two
//! closed shapes: the paper's strided access (Fig. 1, eq. 1), an
//! arithmetic progression over the active lanes, and the 2-D thread tile,
//! a progression of rows. [`WarpAccess`] names the form; KTRC stores
//! events in it, and [`WarpAccess::prepare`] prices the common shapes
//! from it without expanding the lanes.

use crate::spec::WARP_SIZE;
use crate::warp::{LaneMask, WarpAddrs};

/// One warp access's lane addresses, in the form they were recorded.
/// [`WarpAccess::addrs`] expands it; [`WarpAccess::prepare`] readies it
/// for pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpAccess<'a> {
    /// The `k`-th active lane (lowest first) reads `first + k·step`,
    /// wrapping (see [`affine_lanes`]).
    Affine {
        /// The lowest active lane's address.
        first: u64,
        /// The address step between successive active lanes.
        step: u64,
    },
    /// The two-level tile form (see [`TwoLevel`]).
    TwoLevel(TwoLevel),
    /// Any other shape: the canonical lane addresses (inactive lanes
    /// zero).
    Explicit(&'a WarpAddrs),
}

impl WarpAccess<'_> {
    /// The canonical lane addresses under `mask`: inactive lanes are zero
    /// (an explicit access is returned as given).
    #[inline]
    pub fn addrs(&self, mask: LaneMask) -> WarpAddrs {
        match *self {
            WarpAccess::Affine { first, step } => affine_addrs(mask, first, step),
            WarpAccess::TwoLevel(form) => form.addrs(mask),
            WarpAccess::Explicit(addrs) => *addrs,
        }
    }
}

/// The `(first, step)` of an event's active-lane addresses when they form
/// an arithmetic progression — the `k`-th active lane (lowest first)
/// reads `first + k·step`, wrapping — or `None`. Every 0- and 1-lane
/// event qualifies, with step 0 (and `first` 0 when no lane is active).
#[inline]
pub fn affine_lanes(mask: LaneMask, addrs: &WarpAddrs) -> Option<(u64, u64)> {
    if mask.is_all() {
        // Closed form over all 32 lanes: every successive delta equals
        // lane 1's. Branch-free, so it vectorizes.
        let (first, step) = (addrs[0], addrs[1].wrapping_sub(addrs[0]));
        let diff = (1..WARP_SIZE).fold(0, |d, l| d | (addrs[l].wrapping_sub(addrs[l - 1]) ^ step));
        return (diff == 0).then_some((first, step));
    }
    let mut lanes = mask.0;
    if lanes == 0 {
        return Some((0, 0));
    }
    let first = addrs[lanes.trailing_zeros() as usize];
    lanes &= lanes - 1;
    if lanes == 0 {
        return Some((first, 0));
    }
    let step = addrs[lanes.trailing_zeros() as usize].wrapping_sub(first);
    let mut prev = first.wrapping_add(step);
    lanes &= lanes - 1;
    while lanes != 0 {
        let addr = addrs[lanes.trailing_zeros() as usize];
        if addr.wrapping_sub(prev) != step {
            return None;
        }
        prev = addr;
        lanes &= lanes - 1;
    }
    Some((first, step))
}

/// The canonical lane addresses of an affine event: the `k`-th active
/// lane (lowest first) reads `first + k·step`, wrapping; inactive lanes
/// are zero. The inverse of [`affine_lanes`].
#[inline]
pub fn affine_addrs(mask: LaneMask, first: u64, step: u64) -> WarpAddrs {
    // A full warp needs no mask walk, and its fill vectorizes.
    if mask == LaneMask::ALL {
        return std::array::from_fn(|k| first.wrapping_add(step.wrapping_mul(k as u64)));
    }
    let mut addrs = [0u64; WARP_SIZE];
    let (mut lanes, mut addr) = (mask.0, first);
    while lanes != 0 {
        addrs[lanes.trailing_zeros() as usize] = addr;
        addr = addr.wrapping_add(step);
        lanes &= lanes - 1;
    }
    addrs
}

/// The periods a [`TwoLevel`] event may have, smallest first.
pub const TWO_LEVEL_PERIODS: [u8; 4] = [2, 4, 8, 16];

/// The two-level lane form: lane `l` reads `base + (l mod p)·s1 +
/// (l div p)·s2`, wrapping — the shape a 2-D thread tile of `p` columns
/// gives a warp (the general kernel's `t % tx_count`, `t / tx_count`).
/// Unlike the affine form it is indexed by lane, not by active-lane rank.
///
/// The form is canonical: `p` is 2, 4, 8 or 16, lanes 0, 1 and `p` are
/// active, and `base`, `s1` and `s2` are lane 0's address and
/// the deltas from it to lanes 1 and `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevel {
    /// Lanes per row.
    pub p: u8,
    /// Lane 0's address.
    pub base: u64,
    /// Step between neighbouring lanes of a row.
    pub s1: u64,
    /// Step between rows.
    pub s2: u64,
}

impl TwoLevel {
    /// The canonical two-level form of an event's addresses with the
    /// smallest period that fits, or `None`. It does not try the affine
    /// form first: KTRC's writer does.
    #[inline]
    pub fn of(mask: LaneMask, addrs: &WarpAddrs) -> Option<TwoLevel> {
        if mask.0 & 0b11 != 0b11 {
            return None;
        }
        let (base, s1) = (addrs[0], addrs[1].wrapping_sub(addrs[0]));
        let form = |p: u8| TwoLevel {
            p,
            base,
            s1,
            s2: addrs[usize::from(p)].wrapping_sub(base),
        };
        if mask.is_all() {
            // Row 0 steps by `s1` up to the first lane that breaks the
            // step. A tile of period `p` breaks it first at lane `p` unless
            // it is affine (then period 2 fits), so that lane is the only
            // period to check, and lanes `1..p` already fit.
            let pl = (2..WARP_SIZE)
                .find(|&l| addrs[l].wrapping_sub(addrs[l - 1]) != s1)
                .unwrap_or(2);
            let p = pl as u8;
            if !TWO_LEVEL_PERIODS.contains(&p) {
                return None;
            }
            let form = form(p);
            let diff = (pl..WARP_SIZE).fold(0, |d, l| {
                d | (addrs[l].wrapping_sub(addrs[l - pl]) ^ form.s2)
            });
            return (diff == 0).then_some(form);
        }
        TWO_LEVEL_PERIODS
            .into_iter()
            .filter(|&p| mask.is_active(usize::from(p)))
            .map(form)
            .find(|form| form.fits(mask, addrs))
    }

    /// Whether every active lane of `addrs` reads what this form gives it:
    /// a closed-form compare over all 32 lanes, branch-free.
    fn fits(&self, mask: LaneMask, addrs: &WarpAddrs) -> bool {
        let want = self.fill();
        let diff = (0..WARP_SIZE).fold(0, |d, l| d | ((addrs[l] ^ want[l]) & lane_bits(mask, l)));
        diff == 0
    }

    /// Every lane's address, active or not: row 0 steps by `s1`, and each
    /// later lane sits `s2` past the lane a row above. A literal period
    /// per arm lets each copy unroll and vectorize.
    fn fill(&self) -> WarpAddrs {
        match self.p {
            2 => self.fill_rows(2),
            4 => self.fill_rows(4),
            8 => self.fill_rows(8),
            16 => self.fill_rows(16),
            p => self.fill_rows(usize::from(p).clamp(1, WARP_SIZE)),
        }
    }

    #[inline(always)]
    fn fill_rows(&self, p: usize) -> WarpAddrs {
        let mut out = [0u64; WARP_SIZE];
        let mut a = self.base;
        for slot in &mut out[..p] {
            *slot = a;
            a = a.wrapping_add(self.s1);
        }
        for l in p..WARP_SIZE {
            out[l] = out[l - p].wrapping_add(self.s2);
        }
        out
    }

    /// The canonical lane addresses under `mask`: inactive lanes are zero.
    /// The inverse of [`TwoLevel::of`].
    pub fn addrs(&self, mask: LaneMask) -> WarpAddrs {
        let mut out = self.fill();
        if !mask.is_all() {
            for (l, a) in out.iter_mut().enumerate() {
                *a &= lane_bits(mask, l);
            }
        }
        out
    }
}

/// All ones when `lane` is active in `mask`, zero otherwise.
#[inline]
fn lane_bits(mask: LaneMask, lane: usize) -> u64 {
    0u64.wrapping_sub(u64::from(mask.0 >> lane & 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_follows_the_form() {
        let mask = LaneMask(0b1011);
        let affine = WarpAccess::Affine { first: 8, step: 4 };
        assert_eq!(&affine.addrs(mask)[..4], &[8, 12, 0, 16]);
        let form = TwoLevel {
            p: 2,
            base: 100,
            s1: 1,
            s2: 10,
        };
        assert_eq!(
            &WarpAccess::TwoLevel(form).addrs(mask)[..4],
            &[100, 101, 0, 111]
        );
        let addrs = form.addrs(LaneMask::ALL);
        assert_eq!(WarpAccess::Explicit(&addrs).addrs(mask), addrs);
    }
}
