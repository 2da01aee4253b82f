//! The 32-lane pricing engine: the warp kernels behind every counter the
//! simulator charges.
//!
//! Every counter the simulator charges — global-memory segments,
//! shared-memory bank words, constant-cache lines — is an integer function
//! of one warp's 32 lane addresses. Closed forms ([`crate::pricing`]) price
//! the affine and two-level shapes; this engine prices what is left and is
//! the reference those forms are tested against. It is scalar code, with
//! one exception:
//!
//! * [`for_each_unit`] — the ordered distinct-unit walk: a pre-pass finds
//!   the warp's unit range ([`unit_bounds`]), then membership is one
//!   test-and-set in a two-word register bitmap, a 2 KiB stack bitmap for
//!   wider ranges, and a linear scan for a scatter wider than that;
//! * [`distinct_units`] — the same walk's first visits, counted;
//! * [`max_end`] — the warp bounds predicate of the check-free copy loops;
//! * [`occupancy`] — the shared-memory bank model's fast path. It is the
//!   one kernel with an x86_64 AVX2 body, chosen by CPU detection
//!   ([`active`]): the bank model runs it on nearly every shared-memory
//!   access the closed forms leave, and the vector body is worth about
//!   11% of `cnn-serve` throughput. The other kernels measured no gain
//!   from AVX2 (DESIGN.md §14).
//!
//! ## Span semantics
//!
//! Every kernel takes a lane's covered span as
//! `addr >> shift ..= addr.saturating_add(width - 1) >> shift`. An
//! unchecked `addr + width - 1` would overflow on inputs no real kernel
//! produces but a replayed hostile trace could; saturation keeps the span
//! non-empty and ordered for any address. `tests/lane_engine.rs` checks
//! the kernels against a plain set model, and the AVX2 `occupancy`
//! against the scalar one, over random and adversarial warps.
//!
//! Alignment note: `WarpAddrs` stays a plain `[u64; 32]` (8-byte aligned).
//! The AVX2 path uses unaligned loads, which cost nothing on any AVX2-era
//! part, so every producer feeds the engine zero-copy.

use crate::spec::WARP_SIZE;
use crate::warp::{LaneMask, WarpAddrs};

/// Units representable by the stack bitmap tier: 16384 bits = 2 KiB.
/// Large enough for any block-local space (48 KiB of shared memory is
/// 12288 four-byte bank words) and any coalesced global pattern.
pub(crate) const BITMAP_UNITS: u64 = 16384;

/// Worst-case distinct units for the wide-scatter linear fallback:
/// 32 lanes, at most 16 bytes per lane, over units as small as one byte,
/// misaligned — `32 * (16 / 1 + 1)`.
pub(crate) const MAX_UNITS: usize = WARP_SIZE * 17;

/// A body of [`occupancy`]: the portable scalar one, or AVX2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar code.
    Scalar,
    /// x86_64 AVX2 intrinsics; requires runtime AVX2 detection.
    Simd,
}

impl Backend {
    /// Stable lowercase name, as the bench artifacts record it.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }
}

/// The body [`occupancy`] runs on this host: `Simd` exactly when the CPU
/// has AVX2.
#[inline]
pub fn active() -> Backend {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Backend::Simd;
    }
    Backend::Scalar
}

/// Distinct-unit occupancy bitmap for a warp whose unit span fits 128
/// units, anchored at the warp's minimum covered unit (see
/// [`occupancy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Occupancy {
    /// The warp's minimum covered unit index — bit 0 of `words[0]`.
    pub lo: u64,
    /// One bit per covered unit in `lo..lo + 128`, low bits first.
    pub words: [u64; 2],
}

/// A lane's covered unit span under the engine's saturating semantics.
#[inline]
fn lane_span(a: u64, width: u64, shift: u32) -> (u64, u64) {
    (a >> shift, a.saturating_add(width - 1) >> shift)
}

/// Minimum and maximum `unit`-aligned indices covered by the active
/// lanes' `[addr, addr.saturating_add(width - 1)]` spans, or `None` for
/// an empty mask. `unit` must be a power of two.
#[inline]
pub fn unit_bounds(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> Option<(u64, u64)> {
    debug_assert!(unit.is_power_of_two());
    debug_assert!(width >= 1);
    if mask.is_empty() {
        return None;
    }
    let shift = unit.trailing_zeros();
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    // The full-mask loop spares the sparse iterator's serial dependency
    // chain (DESIGN.md §9).
    let mut fold = |a: u64| {
        let (first, last) = lane_span(a, width, shift);
        lo = lo.min(first);
        hi = hi.max(last);
    };
    if mask.is_all() {
        addrs.iter().for_each(|&a| fold(a));
    } else {
        mask.iter().for_each(|lane| fold(addrs[lane]));
    }
    Some((lo, hi))
}

/// Visits every `unit`-sized aligned index covered by the active lanes'
/// `[addr, addr + width)` byte ranges (the end saturating at `u64::MAX`),
/// in lane order (ascending within one lane's span), calling
/// `visit(unit_index, first_occurrence)` for each. `unit` must be a power
/// of two.
///
/// This is the one distinct-unit walk behind every dedup-based counter:
/// global-memory segments, read-only/constant cache lines, distinct
/// constant addresses, bank words off the bank model's fast path. Visit
/// order is part of the contract — the read-only cache's FIFO inserts
/// lines in first-visit order.
#[inline]
pub fn for_each_unit(
    addrs: &WarpAddrs,
    width: u64,
    mask: LaneMask,
    unit: u64,
    mut visit: impl FnMut(u64, bool),
) {
    // `unit` is a power of two, so unit arithmetic is a shift — a hardware
    // divide here would cost more than the rest of the routine combined
    // (up to 128 of them per warp access).
    let shift = unit.trailing_zeros();
    let Some((lo, hi)) = unit_bounds(addrs, width, mask, unit) else {
        return; // no active lanes
    };
    if hi - lo < 128 {
        // The common case by far — a full warp of `float2`s spans 64 bank
        // words, a coalesced global access a handful of segments — fits in
        // two registers, with no bitmap to clear.
        walk_bitmap::<2>(addrs, width, mask, shift, lo, &mut visit);
    } else if hi - lo < BITMAP_UNITS {
        walk_bitmap::<{ (BITMAP_UNITS / 64) as usize }>(addrs, width, mask, shift, lo, &mut visit);
    } else {
        // Scatter wider than the bitmap: a linear scan of the units seen.
        let mut units = [u64::MAX; MAX_UNITS];
        let mut n = 0usize;
        for lane in mask.iter() {
            let (first, last) = lane_span(addrs[lane], width, shift);
            for u in first..=last {
                let new = !units[..n].contains(&u);
                if new {
                    units[n] = u;
                    n += 1;
                }
                visit(u, new);
            }
        }
    }
}

/// [`for_each_unit`]'s bitmap tiers: membership of units `lo..lo + 64 *
/// WORDS` as one test-and-set each.
#[inline]
fn walk_bitmap<const WORDS: usize>(
    addrs: &WarpAddrs,
    width: u64,
    mask: LaneMask,
    shift: u32,
    lo: u64,
    visit: &mut impl FnMut(u64, bool),
) {
    let mut seen = [0u64; WORDS];
    for lane in mask.iter() {
        let (first, last) = lane_span(addrs[lane], width, shift);
        // A counted loop rather than `first..=last`, whose exhaustion
        // flag costs a compare per unit on the hottest loop here.
        let mut u = first;
        loop {
            let idx = (u - lo) as usize;
            let bit = 1u64 << (idx % 64);
            let word = &mut seen[idx / 64];
            let new = *word & bit == 0;
            *word |= bit;
            visit(u, new);
            if u == last {
                break;
            }
            u += 1;
        }
    }
}

/// Number of distinct `unit`-aligned indices covered by the active lanes'
/// spans — the transaction count for global memory: the first visits of
/// [`for_each_unit`]. `unit` must be a power of two.
#[inline]
pub fn distinct_units(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> u64 {
    let mut count = 0u64;
    for_each_unit(addrs, width, mask, unit, |_, new| count += u64::from(new));
    count
}

/// Maximum over active lanes of `addr.saturating_add(width)` — the
/// warp-level bounds predicate behind the check-free copy loops (a lane
/// whose address would wrap saturates and correctly fails any
/// `<= limit` test). Returns 0 for an empty mask.
#[inline]
pub fn max_end(addrs: &WarpAddrs, width: u64, mask: LaneMask) -> u64 {
    let mut max_end = 0u64;
    if mask.is_all() {
        for &a in addrs.iter() {
            max_end = max_end.max(a.saturating_add(width));
        }
    } else {
        for lane in mask.iter() {
            max_end = max_end.max(addrs[lane].saturating_add(width));
        }
    }
    max_end
}

/// Distinct-unit occupancy bitmap for the bank-model fast-path shape:
/// `Some` exactly when the mask is non-empty, **every active lane's span
/// lies in a single unit**, and the warp's unit range fits the 128-bit
/// bitmap. One fused call both *proves* the shape and hands back the
/// distinct units themselves, anchored at the warp minimum — so the
/// caller walks only the set bits (a coalesced float warp touches 4–8
/// distinct words, not 32), and the set-bit population equals
/// [`distinct_units`]. `None` means "take the general visiting path".
/// `unit` must be a power of two.
#[inline]
pub fn occupancy(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> Option<Occupancy> {
    occupancy_on(active(), addrs, width, mask, unit)
}

/// [`occupancy`] on an explicit body (`Simd` runs the scalar body when
/// the host has no AVX2).
pub fn occupancy_on(
    backend: Backend,
    addrs: &WarpAddrs,
    width: u64,
    mask: LaneMask,
    unit: u64,
) -> Option<Occupancy> {
    debug_assert!(unit.is_power_of_two());
    debug_assert!(width >= 1);
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` returned `Simd`, so AVX2 was detected at
        // runtime on this host.
        Backend::Simd if active() == Backend::Simd => unsafe {
            simd::occupancy(addrs, width, mask, unit)
        },
        _ => scalar_occupancy(addrs, width, mask, unit),
    }
}

/// The scalar body of [`occupancy`].
fn scalar_occupancy(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> Option<Occupancy> {
    if mask.is_empty() {
        return None;
    }
    let shift = unit.trailing_zeros();
    let mut firsts = [0u64; WARP_SIZE];
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    let mut single = true;
    {
        let mut classify = |lane: usize| {
            let (first, last) = lane_span(addrs[lane], width, shift);
            single &= first == last;
            firsts[lane] = first;
            lo = lo.min(first);
            hi = hi.max(last);
        };
        // As in `unit_bounds`, the full mask skips the sparse iterator.
        if mask.is_all() {
            for lane in 0..WARP_SIZE {
                classify(lane);
            }
        } else {
            for lane in mask.iter() {
                classify(lane);
            }
        }
    }
    if !single || hi - lo >= 128 {
        return None;
    }
    let mut words = [0u64; 2];
    let mut set_bit = |lane: usize| {
        let idx = (firsts[lane] - lo) as usize;
        words[idx / 64] |= 1u64 << (idx % 64);
    };
    if mask.is_all() {
        for lane in 0..WARP_SIZE {
            set_bit(lane);
        }
    } else {
        for lane in mask.iter() {
            set_bit(lane);
        }
    }
    Some(Occupancy { lo, words })
}

/// The AVX2 body of [`occupancy`]: four 64-bit lanes per vector, eight
/// vectors per warp. Every function here carries
/// `#[target_feature(enable = "avx2")]` and is only reachable through
/// [`occupancy_on`] after `is_x86_feature_detected!("avx2")` returned
/// true — that runtime check is the safety invariant for every intrinsic
/// call in this module.
///
/// AVX2 has no unsigned 64-bit compare, min, or max; all of them are
/// built from the sign-flip idiom (`x ^ (1 << 63)` turns an unsigned
/// order into the signed order `_mm256_cmpgt_epi64` implements) plus
/// byte blends, and saturating addition detects wrap with the same
/// flipped compare (`a > a + w` unsigned means the add wrapped) and ORs
/// the compare's all-ones result into the sum to pin it at `u64::MAX`.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::*;
    use std::arch::x86_64::*;

    /// One `1 << lane` constant per lane, in load order for each 4-lane
    /// chunk: the mask-expansion compare needs the lane's bit in its slot.
    const LANE_BITS: [u64; WARP_SIZE] = {
        let mut bits = [0u64; WARP_SIZE];
        let mut lane = 0;
        while lane < WARP_SIZE {
            bits[lane] = 1 << lane;
            lane += 1;
        }
        bits
    };

    /// Sign-flip constant for unsigned comparisons via signed compares.
    const SIGN: i64 = i64::MIN;

    /// Unsigned `a > b` per 64-bit lane.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (module invariant).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmpgt_epu64(a: __m256i, b: __m256i) -> __m256i {
        let s = _mm256_set1_epi64x(SIGN);
        _mm256_cmpgt_epi64(_mm256_xor_si256(a, s), _mm256_xor_si256(b, s))
    }

    /// Per-lane `a.saturating_add(w)` for a uniform addend vector `w`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (module invariant).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn saturating_add(a: __m256i, w: __m256i) -> __m256i {
        let sum = _mm256_add_epi64(a, w);
        // Wrapped lanes satisfy `a > sum` unsigned; the compare result is
        // all-ones there, so OR-ing pins them at u64::MAX.
        _mm256_or_si256(sum, cmpgt_epu64(a, sum))
    }

    /// Unsigned per-lane minimum.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (module invariant).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn min_epu64(a: __m256i, b: __m256i) -> __m256i {
        // blendv picks `b` where the (per-64-bit-lane all-ones) compare
        // says `a > b`.
        _mm256_blendv_epi8(a, b, cmpgt_epu64(a, b))
    }

    /// Unsigned per-lane maximum.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (module invariant).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn max_epu64(a: __m256i, b: __m256i) -> __m256i {
        _mm256_blendv_epi8(b, a, cmpgt_epu64(a, b))
    }

    /// The active-lane blend vector for one 4-lane chunk: all-ones where
    /// the mask bit is set.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (module invariant); `chunk < 8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn chunk_mask(mask: LaneMask, chunk: usize) -> __m256i {
        // SAFETY: `LANE_BITS` has 32 entries; `chunk < 8` keeps the 4-wide
        // unaligned load in bounds.
        let bits = unsafe { _mm256_loadu_si256(LANE_BITS.as_ptr().add(chunk * 4).cast()) };
        let bcast = _mm256_set1_epi64x(i64::from(mask.0));
        _mm256_cmpeq_epi64(_mm256_and_si256(bcast, bits), bits)
    }

    /// Horizontal unsigned min/max over the four u64 lanes of `v`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (module invariant).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold(lo_v: __m256i, hi_v: __m256i) -> (u64, u64) {
        let mut lo4 = [0u64; 4];
        let mut hi4 = [0u64; 4];
        // SAFETY: both arrays are 32 bytes; the stores are unaligned.
        unsafe {
            _mm256_storeu_si256(lo4.as_mut_ptr().cast(), lo_v);
            _mm256_storeu_si256(hi4.as_mut_ptr().cast(), hi_v);
        }
        let lo = lo4.iter().copied().fold(u64::MAX, u64::min);
        let hi = hi4.iter().copied().fold(0u64, u64::max);
        (lo, hi)
    }

    /// AVX2 classification core: masked lo/hi unit bounds and the
    /// "every active lane covers exactly one unit" predicate, with no
    /// stores — eight 4-lane rounds of shift/saturate/min/max folds.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (module invariant).
    #[target_feature(enable = "avx2")]
    unsafe fn classify(
        addrs: &WarpAddrs,
        width: u64,
        mask: LaneMask,
        shift: u32,
    ) -> (u64, u64, bool) {
        let cnt = _mm_cvtsi64_si128(i64::from(shift));
        let w1 = _mm256_set1_epi64x((width - 1) as i64);
        let ones = _mm256_set1_epi64x(-1);
        let mut lo_v = ones;
        let mut hi_v = _mm256_setzero_si256();
        let mut multi_v = _mm256_setzero_si256();
        if mask.is_all() {
            // Full warp — the dominant shape by far: no lane blending at
            // all, eight pure shift/saturate/fold rounds.
            for chunk in 0..WARP_SIZE / 4 {
                // SAFETY: `addrs` has 32 u64s; `chunk < 8` keeps the
                // 4-wide unaligned load in bounds. `WarpAddrs` is only
                // 8-byte aligned, hence loadu.
                let a = unsafe { _mm256_loadu_si256(addrs.as_ptr().add(chunk * 4).cast()) };
                let first = _mm256_srl_epi64(a, cnt);
                let last = _mm256_srl_epi64(saturating_add(a, w1), cnt);
                lo_v = min_epu64(lo_v, first);
                hi_v = max_epu64(hi_v, last);
                multi_v = _mm256_or_si256(multi_v, _mm256_sub_epi64(last, first));
            }
        } else {
            for chunk in 0..WARP_SIZE / 4 {
                // SAFETY: as above.
                let a = unsafe { _mm256_loadu_si256(addrs.as_ptr().add(chunk * 4).cast()) };
                let first = _mm256_srl_epi64(a, cnt);
                let last = _mm256_srl_epi64(saturating_add(a, w1), cnt);
                let active = chunk_mask(mask, chunk);
                // Inactive lanes blend to the fold identities (MAX for
                // the min, 0 for the max) and contribute no span bits.
                lo_v = min_epu64(
                    lo_v,
                    _mm256_or_si256(first, _mm256_andnot_si256(active, ones)),
                );
                hi_v = max_epu64(hi_v, _mm256_and_si256(last, active));
                multi_v = _mm256_or_si256(
                    multi_v,
                    _mm256_and_si256(_mm256_sub_epi64(last, first), active),
                );
            }
        }
        let (lo, hi) = fold(lo_v, hi_v);
        let single = _mm256_testz_si256(multi_v, multi_v) == 1;
        (lo, hi, single)
    }

    /// # Safety
    ///
    /// AVX2 must be available (module invariant).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn occupancy(
        addrs: &WarpAddrs,
        width: u64,
        mask: LaneMask,
        unit: u64,
    ) -> Option<Occupancy> {
        if mask.is_empty() {
            return None;
        }
        let shift = unit.trailing_zeros();
        let (lo, hi, single) = classify(addrs, width, mask, shift);
        if !single || hi - lo >= 128 {
            return None;
        }
        let cnt = _mm_cvtsi64_si128(i64::from(shift));
        if hi - lo < 64 {
            // Proven single-unit lanes, so each lane contributes exactly
            // one bit: `1 << (first - lo)`, with both the word index and
            // the shift computed per lane by AVX2 variable shifts. Shift
            // counts >= 64 yield 0 by definition of sllv, so inactive
            // lanes whose garbage `first` lands far away vanish even
            // before the active-mask AND.
            let one = _mm256_set1_epi64x(1);
            let lo_v = _mm256_set1_epi64x(lo as i64);
            let mut seen_v = _mm256_setzero_si256();
            if mask.is_all() {
                for chunk in 0..WARP_SIZE / 4 {
                    // SAFETY: `addrs` has 32 u64s; `chunk < 8` keeps the
                    // 4-wide unaligned load in bounds.
                    let a = unsafe { _mm256_loadu_si256(addrs.as_ptr().add(chunk * 4).cast()) };
                    let first = _mm256_srl_epi64(a, cnt);
                    let bit = _mm256_sllv_epi64(one, _mm256_sub_epi64(first, lo_v));
                    seen_v = _mm256_or_si256(seen_v, bit);
                }
            } else {
                for chunk in 0..WARP_SIZE / 4 {
                    // SAFETY: as above.
                    let a = unsafe { _mm256_loadu_si256(addrs.as_ptr().add(chunk * 4).cast()) };
                    let first = _mm256_srl_epi64(a, cnt);
                    let bit = _mm256_sllv_epi64(one, _mm256_sub_epi64(first, lo_v));
                    seen_v =
                        _mm256_or_si256(seen_v, _mm256_and_si256(bit, chunk_mask(mask, chunk)));
                }
            }
            let folded = _mm_or_si128(
                _mm256_castsi256_si128(seen_v),
                _mm256_extracti128_si256(seen_v, 1),
            );
            let seen = (_mm_cvtsi128_si64(folded) as u64) | (_mm_extract_epi64(folded, 1) as u64);
            return Some(Occupancy {
                lo,
                words: [seen, 0],
            });
        }
        // Two-word tier (rare: a bank-word span of 64..128 units): store
        // the vector-classified units once, then a scalar bit-set pass.
        let mut firsts = [0u64; WARP_SIZE];
        for chunk in 0..WARP_SIZE / 4 {
            // SAFETY: `addrs` and `firsts` both have 32 u64s; `chunk < 8`
            // keeps the 4-wide unaligned accesses in bounds.
            unsafe {
                let a = _mm256_loadu_si256(addrs.as_ptr().add(chunk * 4).cast());
                let first = _mm256_srl_epi64(a, cnt);
                _mm256_storeu_si256(firsts.as_mut_ptr().add(chunk * 4).cast(), first);
            }
        }
        let mut words = [0u64; 2];
        for lane in mask.iter() {
            let idx = (firsts[lane] - lo) as usize;
            words[idx / 64] |= 1u64 << (idx % 64);
        }
        Some(Occupancy { lo, words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{lane_addrs, lane_addrs_from, lane_addrs_uniform};

    /// Both `occupancy` bodies; `Simd` runs the scalar body off AVX2.
    const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Simd];

    /// Reference model: the plain scan over every covered unit.
    fn reference(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> Vec<(u64, bool)> {
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for lane in mask.iter() {
            let a = addrs[lane];
            for u in a / unit..=a.saturating_add(width - 1) / unit {
                let new = !seen.contains(&u);
                if new {
                    seen.push(u);
                }
                out.push((u, new));
            }
        }
        out
    }

    fn check(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) {
        let mut got = Vec::new();
        for_each_unit(addrs, width, mask, unit, |u, new| got.push((u, new)));
        let want = reference(addrs, width, mask, unit);
        let firsts = want.iter().filter(|&&(_, new)| new).count() as u64;
        assert_eq!(got, want);
        assert_eq!(distinct_units(addrs, width, mask, unit), firsts);
    }

    #[test]
    fn matches_reference_on_common_patterns() {
        check(&lane_addrs(0, 4), 4, LaneMask::ALL, 128);
        check(&lane_addrs(0, 8), 8, LaneMask::ALL, 8);
        check(&lane_addrs(64, 256), 4, LaneMask::ALL, 128);
        check(&lane_addrs_uniform(40), 4, LaneMask::ALL, 8);
        check(&lane_addrs(0, 16), 16, LaneMask::first(7), 4);
        check(&lane_addrs(0, 4), 4, LaneMask::NONE, 128);
    }

    #[test]
    fn mid_range_spans_take_the_stack_bitmap_and_still_match() {
        // ~4096 units between the register tier (128) and the bitmap cap
        // (16384): strided lanes with duplicates.
        let addrs = lane_addrs_from(|l| (l as u64 % 16) * 1024);
        check(&addrs, 8, LaneMask::ALL, 4);
        check(&addrs, 16, LaneMask::from_fn(|l| l % 3 != 0), 8);
    }

    #[test]
    fn wide_scatter_takes_the_fallback_and_still_matches() {
        // Lanes spread over ~2^21 bytes: far wider than the bitmap range.
        let addrs = lane_addrs_from(|l| (l as u64) * 65536 + (l as u64 % 3));
        check(&addrs, 16, LaneMask::ALL, 128);
        check(&addrs, 4, LaneMask::from_fn(|l| l % 2 == 0), 32);
    }

    #[test]
    fn wide_scatter_small_unit_does_not_overflow_fallback() {
        // 32 lanes * 17 units per lane (width 16, unit 1), scattered far
        // beyond the bitmap tier: exercises the MAX_UNITS fallback bound.
        let addrs = lane_addrs_from(|l| l as u64 * (BITMAP_UNITS + 64));
        check(&addrs, 16, LaneMask::ALL, 1);
        assert_eq!(distinct_units(&addrs, 16, LaneMask::ALL, 1), 32 * 16);
    }

    #[test]
    fn spans_adjacent_to_u64_max_saturate_instead_of_wrapping() {
        // `a + width - 1` would overflow here; the engine's saturating
        // span semantics keep the covered range well-defined.
        let addrs = lane_addrs_uniform(u64::MAX - 2);
        check(&addrs, 16, LaneMask::ALL, 128);
        check(&addrs, 4, LaneMask::first(3), 32);
    }

    #[test]
    fn saturating_span_semantics_near_u64_max() {
        // A lane at u64::MAX - 2 reading 16 bytes would overflow the naive
        // `addr + width - 1`; saturation pins the span end at u64::MAX.
        let a = lane_addrs_uniform(u64::MAX - 2);
        let unit = (u64::MAX - 2) >> 7;
        assert_eq!(
            unit_bounds(&a, 16, LaneMask::ALL, 128),
            Some((unit, u64::MAX >> 7))
        );
        assert_eq!(distinct_units(&a, 16, LaneMask::ALL, 128), 1);
        assert_eq!(max_end(&a, 16, LaneMask::ALL), u64::MAX);
        for b in BACKENDS {
            let occ = occupancy_on(b, &a, 16, LaneMask::ALL, 128);
            assert_eq!(
                occ,
                Some(Occupancy {
                    lo: unit,
                    words: [1, 0]
                }),
                "{b:?}"
            );
        }
    }

    #[test]
    fn misaligned_spans_cover_two_units() {
        // 16-byte access starting 4 bytes into a 4-byte unit grid covers 4
        // units per lane; every boundary case must match the scan.
        let addrs = lane_addrs_from(|l| 4 * l as u64 + 2);
        check(&addrs, 16, LaneMask::ALL, 4);
        check(&addrs, 16, LaneMask::ALL, 8);
    }

    #[test]
    fn empty_mask_is_none_or_zero_on_every_backend() {
        let a = lane_addrs(0, 4);
        assert_eq!(unit_bounds(&a, 4, LaneMask::NONE, 128), None);
        assert_eq!(distinct_units(&a, 4, LaneMask::NONE, 128), 0);
        assert_eq!(max_end(&a, 4, LaneMask::NONE), 0);
        for b in BACKENDS {
            assert_eq!(occupancy_on(b, &a, 4, LaneMask::NONE, 8), None, "{b:?}");
        }
    }

    #[test]
    fn coalesced_warp_counts_one_segment_on_every_backend() {
        let a = lane_addrs(0, 4);
        assert_eq!(distinct_units(&a, 4, LaneMask::ALL, 128), 1);
        assert_eq!(distinct_units(&a, 4, LaneMask::ALL, 32), 4);
        assert_eq!(unit_bounds(&a, 4, LaneMask::ALL, 128), Some((0, 0)));
        assert_eq!(max_end(&a, 4, LaneMask::ALL), 128);
        for b in BACKENDS {
            let occ = occupancy_on(b, &a, 4, LaneMask::ALL, 128);
            assert_eq!(
                occ,
                Some(Occupancy {
                    lo: 0,
                    words: [1, 0]
                }),
                "{b:?}"
            );
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Simd.name(), "simd");
    }
}
