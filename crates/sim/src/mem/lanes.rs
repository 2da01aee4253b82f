//! The 32-lane pricing engine: vectorized warp kernels with runtime
//! dispatch.
//!
//! Every counter the simulator charges — global-memory segments,
//! shared-memory bank words, constant-cache lines — is an integer function
//! of one warp's 32 lane addresses. PR 3 flattened those functions into
//! branch-light scalar loops ([`super::dedup`], `bank_conflict_cycles`);
//! this module is the next step the ROADMAP named: the same computations
//! expressed over whole 32-lane spans, in two interchangeable backends:
//!
//! * **`scalar`** — the reference and the portable path: the
//!   sparse-iterator loops the rest of the crate shipped with, kept
//!   verbatim as the semantics oracle.
//! * **`simd`** — `std::arch` x86_64 AVX2: four lanes per instruction for
//!   the word/min/max/predicate passes, with distinct-unit counting done
//!   by OR-ing per-lane *range masks* into a `u128`/word bitmap and
//!   popcounting. Selected only when `is_x86_feature_detected!("avx2")`
//!   holds; everywhere else (including non-x86 targets) it degrades to
//!   `scalar`.
//!
//! ## Dispatch
//!
//! The backend is resolved once and cached in an atomic: `KCONV_LANES`
//! (`auto` | `scalar` | `simd`) overrides, `auto` (and unset) picks
//! `simd` when AVX2 is available and `scalar` otherwise. An unknown
//! value warns on stderr and falls back to `auto` rather than silently
//! changing what a bench measured. [`force`] re-points the cached choice
//! at runtime — that exists for the farm bench's per-backend sweep and
//! the differential suite, which time or compare every backend inside
//! one process.
//!
//! ## The bit-exactness contract
//!
//! Both backends must produce **identical results for every input**,
//! including hostile ones — any mask density, widths 1–16, spans crossing
//! unit boundaries, duplicate-heavy and fully-divergent warps, and
//! addresses adjacent to `u64::MAX`. To make the last case well-defined,
//! every backend computes a lane's covered span as
//! `addr >> shift ..= addr.saturating_add(width - 1) >> shift`: the old
//! scalar code's unchecked `addr + width - 1` overflowed (debug panic,
//! release wrap) on inputs no real kernel produces but a replayed hostile
//! trace could. Saturation keeps the span non-empty and ordered for any
//! address, and all backends share the definition, so the differential
//! suite (`tests/lane_engine.rs`) can pin scalar ≡ simd over
//! random and adversarial warps with zero drift.
//!
//! Because `sim/pricing.rs` and the live memory models both route through
//! these kernels, the replay engine and the farm sweeps inherit whatever
//! backend wins — one dispatch decision accelerates the live simulator,
//! `trace_report`, `whatif`, and `farm` simultaneously (DESIGN.md §14).
//!
//! Alignment note: `WarpAddrs` stays a plain `[u64; 32]` (8-byte aligned).
//! The AVX2 path uses unaligned loads, which cost nothing on any AVX2-era
//! part, so every existing producer — stack-built address vectors, the
//! trace arena's 32-stride slices — feeds the engine zero-copy.

use std::sync::atomic::{AtomicU8, Ordering};

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

/// One lane-engine implementation. See the module docs for what each
/// backend is and when it is eligible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The original sparse-iterator scalar loops (the reference and the
    /// portable path).
    Scalar,
    /// x86_64 AVX2 intrinsics; requires runtime AVX2 detection.
    Simd,
}

impl Backend {
    /// Stable lowercase name: what `KCONV_LANES` accepts and what the
    /// bench JSON records.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }

    /// The backends that can actually run on this host, in dispatch-
    /// preference order (`simd` is absent when AVX2 is not detected).
    pub fn available() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        if simd_available() {
            v.push(Backend::Simd);
        }
        v
    }
}

/// True when the AVX2 lane path can run on this host.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Cached dispatch decision: 0 = unresolved, else `Backend` + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Simd => 2,
    }
}

fn decode(v: u8) -> Option<Backend> {
    match v {
        1 => Some(Backend::Scalar),
        2 => Some(Backend::Simd),
        _ => None,
    }
}

/// `simd` only when it can actually run; otherwise the portable scalar
/// path.
fn clamp_available(b: Backend) -> Backend {
    if b == Backend::Simd && !simd_available() {
        Backend::Scalar
    } else {
        b
    }
}

/// The `auto` choice: the fastest backend this host supports.
fn auto_backend() -> Backend {
    clamp_available(Backend::Simd)
}

/// Resolves a `KCONV_LANES` value (see the module docs); the caller reads
/// the environment, so the parse table is testable without mutating it.
/// Values are trimmed but otherwise exact. Unlike a thread count, a typo
/// here would change what a bench silently measures, so unknown values
/// warn once on stderr and fall back to `auto`.
fn resolve(value: Option<&str>) -> Backend {
    match value.map(str::trim) {
        Some("scalar") => Backend::Scalar,
        Some("simd") => clamp_available(Backend::Simd),
        None | Some("auto") | Some("") => auto_backend(),
        Some(other) => {
            eprintln!("kconv: unknown KCONV_LANES value {other:?}; using auto");
            auto_backend()
        }
    }
}

/// The backend every dispatching kernel in this module currently uses.
/// Resolved once from `KCONV_LANES` / CPU detection and cached; see
/// [`force`] for re-pointing it.
#[inline]
pub fn active() -> Backend {
    if let Some(b) = decode(ACTIVE.load(Ordering::Relaxed)) {
        return b;
    }
    let b = resolve(std::env::var("KCONV_LANES").ok().as_deref());
    ACTIVE.store(encode(b), Ordering::Relaxed);
    b
}

/// Re-points the cached dispatch at `backend` (clamped to what the host
/// supports) and returns the backend actually installed. Every counter is
/// bit-identical across backends by contract, so this is safe to call at
/// any time; it exists for the farm bench and the differential suite,
/// which exercise every backend inside one process.
pub fn force(backend: Backend) -> Backend {
    let b = clamp_available(backend);
    ACTIVE.store(encode(b), Ordering::Relaxed);
    b
}

/// Per-warp word classification for the shared-memory bank model: the
/// active lanes' minimum and maximum bank-word index, and whether every
/// active lane's span fits a single word (the conflict-count fast-path
/// predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordSpan {
    /// Minimum word index over active lanes.
    pub lo: u64,
    /// Maximum word index covered by any active lane.
    pub hi: u64,
    /// Whether every active lane's `[addr, addr + width)` span lies in
    /// exactly one word.
    pub single: bool,
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

/// Minimum and maximum `unit`-aligned indices covered by the active
/// lanes' `[addr, addr.saturating_add(width - 1)]` spans, or `None` for
/// an empty mask. `unit` must be a power of two.
#[inline]
pub fn unit_bounds(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> Option<(u64, u64)> {
    unit_bounds_on(active(), addrs, width, mask, unit)
}

/// [`unit_bounds`] on an explicit backend (`Simd` degrades to `Scalar` when
/// AVX2 is unavailable, like the dispatcher would).
pub fn unit_bounds_on(
    backend: Backend,
    addrs: &WarpAddrs,
    width: u64,
    mask: LaneMask,
    unit: u64,
) -> Option<(u64, u64)> {
    debug_assert!(unit.is_power_of_two());
    debug_assert!(width >= 1);
    match clamp_available(backend) {
        Backend::Scalar => scalar::unit_bounds(addrs, width, mask, unit),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_available` returned `Simd`, so AVX2 was detected
        // at runtime on this host.
        Backend::Simd => unsafe { simd::unit_bounds(addrs, width, mask, unit) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Simd => unreachable!("clamp_available never yields Simd off x86_64"),
    }
}

/// Number of distinct `unit`-aligned indices covered by the active lanes'
/// spans — the transaction count for global memory, the distinct-address
/// count for constant memory. Order-insensitive, so fully vectorizable;
/// order-sensitive consumers (the read-only cache's FIFO) use
/// [`super::dedup::for_each_unit`] instead. `unit` must be a power of two.
#[inline]
pub fn distinct_units(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> u64 {
    distinct_units_on(active(), addrs, width, mask, unit)
}

/// [`distinct_units`] on an explicit backend.
pub fn distinct_units_on(
    backend: Backend,
    addrs: &WarpAddrs,
    width: u64,
    mask: LaneMask,
    unit: u64,
) -> u64 {
    debug_assert!(unit.is_power_of_two());
    debug_assert!(width >= 1);
    match clamp_available(backend) {
        Backend::Scalar => scalar::distinct_units(addrs, width, mask, unit),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_available` returned `Simd`, so AVX2 was detected
        // at runtime on this host.
        Backend::Simd => unsafe { simd::distinct_units(addrs, width, mask, unit) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Simd => unreachable!("clamp_available never yields Simd off x86_64"),
    }
}

/// Distinct-unit occupancy bitmap for the bank-model fast-path shape:
/// `Some` exactly when the mask is non-empty, **every active lane's span
/// lies in a single unit**, and the warp's unit range fits the 128-bit
/// bitmap. One fused kernel call both *proves* the shape (the same
/// predicate as [`WordSpan::single`]) and hands back the distinct units
/// themselves, anchored at the warp minimum — so the caller walks only
/// the set bits (a coalesced float warp touches 4–8 distinct words, not
/// 32), and the set-bit population equals [`distinct_units`]. `None`
/// means "take the general visiting path". `unit` must be a power of
/// two.
#[inline]
pub fn occupancy(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> Option<Occupancy> {
    occupancy_on(active(), addrs, width, mask, unit)
}

/// [`occupancy`] on an explicit backend.
pub fn occupancy_on(
    backend: Backend,
    addrs: &WarpAddrs,
    width: u64,
    mask: LaneMask,
    unit: u64,
) -> Option<Occupancy> {
    debug_assert!(unit.is_power_of_two());
    debug_assert!(width >= 1);
    match clamp_available(backend) {
        Backend::Scalar => scalar::occupancy(addrs, width, mask, unit),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_available` returned `Simd`, so AVX2 was detected
        // at runtime on this host.
        Backend::Simd => unsafe { simd::occupancy(addrs, width, mask, unit) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Simd => unreachable!("clamp_available never yields Simd off x86_64"),
    }
}

/// Word-span classification for the bank model (see [`WordSpan`]), or
/// `None` for an empty mask. `unit` (the bank width) must be a power of
/// two.
#[inline]
pub fn word_span(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> Option<WordSpan> {
    word_span_on(active(), addrs, width, mask, unit)
}

/// [`word_span`] on an explicit backend.
pub fn word_span_on(
    backend: Backend,
    addrs: &WarpAddrs,
    width: u64,
    mask: LaneMask,
    unit: u64,
) -> Option<WordSpan> {
    debug_assert!(unit.is_power_of_two());
    debug_assert!(width >= 1);
    match clamp_available(backend) {
        Backend::Scalar => scalar::word_span(addrs, width, mask, unit),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_available` returned `Simd`, so AVX2 was detected
        // at runtime on this host.
        Backend::Simd => unsafe { simd::word_span(addrs, width, mask, unit) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Simd => unreachable!("clamp_available never yields Simd off x86_64"),
    }
}

/// Maximum over active lanes of `addr.saturating_add(width)` — the
/// warp-level bounds predicate behind the check-free copy loops (a lane
/// whose address would wrap saturates and correctly fails any
/// `<= limit` test). Returns 0 for an empty mask.
#[inline]
pub fn max_end(addrs: &WarpAddrs, width: u64, mask: LaneMask) -> u64 {
    max_end_on(active(), addrs, width, mask)
}

/// [`max_end`] on an explicit backend.
pub fn max_end_on(backend: Backend, addrs: &WarpAddrs, width: u64, mask: LaneMask) -> u64 {
    match clamp_available(backend) {
        Backend::Scalar => scalar::max_end(addrs, width, mask),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_available` returned `Simd`, so AVX2 was detected
        // at runtime on this host.
        Backend::Simd => unsafe { simd::max_end(addrs, width, mask) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Simd => unreachable!("clamp_available never yields Simd off x86_64"),
    }
}

/// Expands a [`LaneMask`] into one word per lane: `!0` for an active
/// lane, `0` for an inactive one — the blend masks the AVX2 backend
/// uses in place of sparse bit iteration.
#[inline]
pub fn expand_mask(mask: LaneMask) -> [u64; WARP_SIZE] {
    expand_mask_on(active(), mask)
}

/// [`expand_mask`] on an explicit backend.
pub fn expand_mask_on(backend: Backend, mask: LaneMask) -> [u64; WARP_SIZE] {
    match clamp_available(backend) {
        Backend::Scalar => scalar::expand_mask(mask),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_available` returned `Simd`, so AVX2 was detected
        // at runtime on this host.
        Backend::Simd => unsafe { simd::expand_mask(mask) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Simd => unreachable!("clamp_available never yields Simd off x86_64"),
    }
}

/// A lane's covered unit span under the engine's saturating semantics.
#[inline]
fn lane_span(a: u64, width: u64, shift: u32) -> (u64, u64) {
    (a >> shift, a.saturating_add(width - 1) >> shift)
}

/// Finishing pass for the AVX2 backend: given every lane's absolute
/// `[first, last]` unit span (garbage in inactive lanes) and the active
/// bounds, count the distinct covered units.
#[cfg(target_arch = "x86_64")]
fn count_distinct(
    firsts: &[u64; WARP_SIZE],
    lasts: &[u64; WARP_SIZE],
    mask: LaneMask,
    lo: u64,
    hi: u64,
) -> u64 {
    let span = hi - lo;
    if span < 128 {
        // Two registers of unit-occupancy bits: each lane contributes one
        // shifted range mask, the popcount is the distinct count — no
        // per-unit test-and-set at all.
        let mut seen: u128 = 0;
        for lane in mask.iter() {
            let first = firsts[lane] - lo;
            let len = lasts[lane] - firsts[lane]; // <= span < 128
            seen |= (u128::MAX >> (127 - len)) << first;
        }
        u64::from(seen.count_ones())
    } else if span < BITMAP_UNITS {
        // Stack bitmap, filled a word-range at a time (not bit-by-bit).
        let mut seen = [0u64; (BITMAP_UNITS / 64) as usize];
        for lane in mask.iter() {
            let first = (firsts[lane] - lo) as usize;
            let last = (lasts[lane] - lo) as usize;
            let (w0, w1) = (first / 64, last / 64);
            if w0 == w1 {
                seen[w0] |= (!0u64 >> (63 - (last - first))) << (first % 64);
            } else {
                seen[w0] |= !0u64 << (first % 64);
                for w in &mut seen[w0 + 1..w1] {
                    *w = !0;
                }
                seen[w1] |= !0u64 >> (63 - last % 64);
            }
        }
        seen.iter().map(|w| u64::from(w.count_ones())).sum()
    } else {
        // Pathological scatter: the original linear-scan dedup, in lane
        // order (identical count by definition of "distinct").
        let mut units = [u64::MAX; MAX_UNITS];
        let mut n = 0usize;
        for lane in mask.iter() {
            for u in firsts[lane]..=lasts[lane] {
                if !units[..n].contains(&u) {
                    units[n] = u;
                    n += 1;
                }
            }
        }
        n as u64
    }
}

/// The reference backend: the sparse-iterator loops the crate shipped
/// with, kept as the semantics oracle for the differential suite.
mod scalar {
    use super::*;

    pub(super) fn unit_bounds(
        addrs: &WarpAddrs,
        width: u64,
        mask: LaneMask,
        unit: u64,
    ) -> Option<(u64, u64)> {
        if mask.is_empty() {
            return None;
        }
        let shift = unit.trailing_zeros();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for lane in mask.iter() {
            let (first, last) = lane_span(addrs[lane], width, shift);
            lo = lo.min(first);
            hi = hi.max(last);
        }
        Some((lo, hi))
    }

    pub(super) fn distinct_units(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> u64 {
        let Some((lo, hi)) = unit_bounds(addrs, width, mask, unit) else {
            return 0;
        };
        let shift = unit.trailing_zeros();
        let mut count = 0u64;
        if hi - lo < 128 {
            let mut seen = [0u64; 2];
            for lane in mask.iter() {
                let (first, last) = lane_span(addrs[lane], width, shift);
                for u in first..=last {
                    let idx = (u - lo) as usize;
                    let bit = 1u64 << (idx % 64);
                    let word = &mut seen[idx / 64];
                    count += u64::from(*word & bit == 0);
                    *word |= bit;
                }
            }
        } else if hi - lo < BITMAP_UNITS {
            let mut seen = [0u64; (BITMAP_UNITS / 64) as usize];
            for lane in mask.iter() {
                let (first, last) = lane_span(addrs[lane], width, shift);
                for u in first..=last {
                    let idx = (u - lo) as usize;
                    let bit = 1u64 << (idx % 64);
                    let word = &mut seen[idx / 64];
                    count += u64::from(*word & bit == 0);
                    *word |= bit;
                }
            }
        } else {
            let mut units = [u64::MAX; MAX_UNITS];
            let mut n = 0usize;
            for lane in mask.iter() {
                let (first, last) = lane_span(addrs[lane], width, shift);
                for u in first..=last {
                    if !units[..n].contains(&u) {
                        units[n] = u;
                        n += 1;
                    }
                }
            }
            count = n as u64;
        }
        count
    }

    pub(super) fn occupancy(
        addrs: &WarpAddrs,
        width: u64,
        mask: LaneMask,
        unit: u64,
    ) -> Option<Occupancy> {
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
            // The full-mask specialization mirrors the pre-engine fast
            // path this backend preserves (see DESIGN.md §9 on the sparse
            // iterator's serial dependency chain).
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

    pub(super) fn word_span(
        addrs: &WarpAddrs,
        width: u64,
        mask: LaneMask,
        unit: u64,
    ) -> Option<WordSpan> {
        if mask.is_empty() {
            return None;
        }
        let shift = unit.trailing_zeros();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut single = true;
        let mut collect = |a: u64| {
            let (first, last) = lane_span(a, width, shift);
            single &= first == last;
            lo = lo.min(first);
            hi = hi.max(last);
        };
        if mask.is_all() {
            for &a in addrs.iter() {
                collect(a);
            }
        } else {
            for lane in mask.iter() {
                collect(addrs[lane]);
            }
        }
        Some(WordSpan { lo, hi, single })
    }

    pub(super) fn max_end(addrs: &WarpAddrs, width: u64, mask: LaneMask) -> u64 {
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

    pub(super) fn expand_mask(mask: LaneMask) -> [u64; WARP_SIZE] {
        std::array::from_fn(|lane| if mask.is_active(lane) { !0 } else { 0 })
    }
}

/// x86_64 AVX2 backend: four 64-bit lanes per vector, eight vectors per
/// warp. Every function here carries `#[target_feature(enable = "avx2")]`
/// and is only reachable through the dispatchers above after
/// `is_x86_feature_detected!("avx2")` returned true — that runtime check
/// is the safety invariant for every intrinsic call in this module.
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
    /// Caller must be executing with AVX2 available (guaranteed by the
    /// dispatcher's runtime detection).
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
    /// AVX2 must be available (dispatcher invariant).
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
    /// AVX2 must be available (dispatcher invariant).
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
    /// AVX2 must be available (dispatcher invariant).
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
    /// AVX2 must be available (dispatcher invariant); `chunk < 8`.
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
    /// AVX2 must be available (dispatcher invariant).
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
    /// AVX2 must be available (dispatcher invariant).
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
    /// AVX2 must be available (dispatcher invariant).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unit_bounds(
        addrs: &WarpAddrs,
        width: u64,
        mask: LaneMask,
        unit: u64,
    ) -> Option<(u64, u64)> {
        if mask.is_empty() {
            return None;
        }
        let (lo, hi, _) = classify(addrs, width, mask, unit.trailing_zeros());
        Some((lo, hi))
    }

    /// # Safety
    ///
    /// AVX2 must be available (dispatcher invariant).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn distinct_units(
        addrs: &WarpAddrs,
        width: u64,
        mask: LaneMask,
        unit: u64,
    ) -> u64 {
        if mask.is_empty() {
            return 0;
        }
        let shift = unit.trailing_zeros();
        let (lo, hi, _) = classify(addrs, width, mask, shift);
        if hi - lo < 64 {
            // Fully vectorized occupancy: each lane's range mask is
            // `(!0 >> (63 - len)) << (first - lo)`, both shifts computed
            // per lane with AVX2 variable shifts. Shift counts >= 64
            // yield 0 by definition of sllv/srlv, so inactive lanes
            // (whose garbage `len`/`first` wrap to huge counts) vanish
            // even before the active-mask AND.
            let cnt = _mm_cvtsi64_si128(i64::from(shift));
            let w1 = _mm256_set1_epi64x((width - 1) as i64);
            let ones = _mm256_set1_epi64x(-1);
            let lo_v = _mm256_set1_epi64x(lo as i64);
            let c63 = _mm256_set1_epi64x(63);
            let mut seen_v = _mm256_setzero_si256();
            if mask.is_all() {
                for chunk in 0..WARP_SIZE / 4 {
                    // SAFETY: `addrs` has 32 u64s; `chunk < 8` keeps the
                    // 4-wide unaligned load in bounds.
                    let a = unsafe { _mm256_loadu_si256(addrs.as_ptr().add(chunk * 4).cast()) };
                    let first = _mm256_srl_epi64(a, cnt);
                    let last = _mm256_srl_epi64(saturating_add(a, w1), cnt);
                    let len = _mm256_sub_epi64(last, first);
                    let range = _mm256_sllv_epi64(
                        _mm256_srlv_epi64(ones, _mm256_sub_epi64(c63, len)),
                        _mm256_sub_epi64(first, lo_v),
                    );
                    seen_v = _mm256_or_si256(seen_v, range);
                }
            } else {
                for chunk in 0..WARP_SIZE / 4 {
                    // SAFETY: as above.
                    let a = unsafe { _mm256_loadu_si256(addrs.as_ptr().add(chunk * 4).cast()) };
                    let first = _mm256_srl_epi64(a, cnt);
                    let last = _mm256_srl_epi64(saturating_add(a, w1), cnt);
                    let len = _mm256_sub_epi64(last, first);
                    let range = _mm256_sllv_epi64(
                        _mm256_srlv_epi64(ones, _mm256_sub_epi64(c63, len)),
                        _mm256_sub_epi64(first, lo_v),
                    );
                    seen_v =
                        _mm256_or_si256(seen_v, _mm256_and_si256(range, chunk_mask(mask, chunk)));
                }
            }
            let folded = _mm_or_si128(
                _mm256_castsi256_si128(seen_v),
                _mm256_extracti128_si256(seen_v, 1),
            );
            let seen = (_mm_cvtsi128_si64(folded) as u64) | (_mm_extract_epi64(folded, 1) as u64);
            u64::from(seen.count_ones())
        } else {
            // Wider spans: store the spans once and finish with the shared
            // packed-bitmap counters.
            let cnt = _mm_cvtsi64_si128(i64::from(shift));
            let w1 = _mm256_set1_epi64x((width - 1) as i64);
            let mut firsts = [0u64; WARP_SIZE];
            let mut lasts = [0u64; WARP_SIZE];
            for chunk in 0..WARP_SIZE / 4 {
                // SAFETY: `addrs`, `firsts` and `lasts` all have 32 u64s;
                // `chunk < 8` keeps the 4-wide unaligned accesses in
                // bounds.
                unsafe {
                    let a = _mm256_loadu_si256(addrs.as_ptr().add(chunk * 4).cast());
                    let first = _mm256_srl_epi64(a, cnt);
                    let last = _mm256_srl_epi64(saturating_add(a, w1), cnt);
                    _mm256_storeu_si256(firsts.as_mut_ptr().add(chunk * 4).cast(), first);
                    _mm256_storeu_si256(lasts.as_mut_ptr().add(chunk * 4).cast(), last);
                }
            }
            count_distinct(&firsts, &lasts, mask, lo, hi)
        }
    }

    /// # Safety
    ///
    /// AVX2 must be available (dispatcher invariant).
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

    /// # Safety
    ///
    /// AVX2 must be available (dispatcher invariant).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn word_span(
        addrs: &WarpAddrs,
        width: u64,
        mask: LaneMask,
        unit: u64,
    ) -> Option<WordSpan> {
        if mask.is_empty() {
            return None;
        }
        let (lo, hi, single) = classify(addrs, width, mask, unit.trailing_zeros());
        Some(WordSpan { lo, hi, single })
    }

    /// # Safety
    ///
    /// AVX2 must be available (dispatcher invariant).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn max_end(addrs: &WarpAddrs, width: u64, mask: LaneMask) -> u64 {
        let w = _mm256_set1_epi64x(width as i64);
        let mut hi_v = _mm256_setzero_si256();
        for chunk in 0..WARP_SIZE / 4 {
            // SAFETY: `addrs` has 32 u64s; `chunk < 8` keeps the 4-wide
            // unaligned load in bounds.
            let a = unsafe { _mm256_loadu_si256(addrs.as_ptr().add(chunk * 4).cast()) };
            let end = saturating_add(a, w);
            hi_v = max_epu64(hi_v, _mm256_and_si256(end, chunk_mask(mask, chunk)));
        }
        let (_, hi) = fold(_mm256_set1_epi64x(-1), hi_v);
        hi
    }

    /// # Safety
    ///
    /// AVX2 must be available (dispatcher invariant).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn expand_mask(mask: LaneMask) -> [u64; WARP_SIZE] {
        let mut out = [0u64; WARP_SIZE];
        for chunk in 0..WARP_SIZE / 4 {
            let m = chunk_mask(mask, chunk);
            // SAFETY: `out` has 32 u64s; `chunk < 8` keeps the 4-wide
            // unaligned store in bounds.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(chunk * 4).cast(), m) };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{lane_addrs, lane_addrs_from, lane_addrs_uniform};

    fn backends() -> Vec<Backend> {
        Backend::available()
    }

    #[test]
    fn dispatch_clamps_simd_to_host_support() {
        let host_best = if simd_available() {
            Backend::Simd
        } else {
            Backend::Scalar
        };
        assert_eq!(force(Backend::Simd), host_best);
        assert_eq!(force(Backend::Scalar), Backend::Scalar);
        assert_eq!(active(), Backend::Scalar);
        force(auto_backend());
    }

    #[test]
    fn lanes_env_parse_table() {
        let host_best = auto_backend();
        assert_eq!(host_best == Backend::Simd, simd_available());
        for (value, want) in [
            (None, host_best),
            (Some(""), host_best),
            (Some("auto"), host_best),
            (Some(" auto "), host_best),
            (Some("scalar"), Backend::Scalar),
            (Some("simd"), host_best),
            // Retired and misspelled values take the warn-then-auto path.
            (Some("swar"), host_best),
            (Some("scalr"), host_best),
        ] {
            assert_eq!(resolve(value), want, "KCONV_LANES={value:?}");
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::available() {
            assert_eq!(resolve(Some(b.name())), b);
        }
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Simd.name(), "simd");
        assert_eq!(Backend::available()[0], Backend::Scalar);
    }

    #[test]
    fn empty_mask_is_none_or_zero_on_every_backend() {
        let a = lane_addrs(0, 4);
        for b in backends() {
            assert_eq!(unit_bounds_on(b, &a, 4, LaneMask::NONE, 128), None);
            assert_eq!(distinct_units_on(b, &a, 4, LaneMask::NONE, 128), 0);
            assert_eq!(word_span_on(b, &a, 4, LaneMask::NONE, 8), None);
            assert_eq!(max_end_on(b, &a, 4, LaneMask::NONE), 0);
        }
    }

    #[test]
    fn coalesced_warp_counts_one_segment_on_every_backend() {
        let a = lane_addrs(0, 4);
        for b in backends() {
            assert_eq!(distinct_units_on(b, &a, 4, LaneMask::ALL, 128), 1);
            assert_eq!(distinct_units_on(b, &a, 4, LaneMask::ALL, 32), 4);
            assert_eq!(unit_bounds_on(b, &a, 4, LaneMask::ALL, 128), Some((0, 0)));
            assert_eq!(max_end_on(b, &a, 4, LaneMask::ALL), 128);
        }
    }

    #[test]
    fn word_span_flags_multi_word_lanes() {
        // float2 on 8-byte words: single. float on 8-byte words,
        // misaligned by 4: lanes straddle words.
        let aligned = lane_addrs(0, 8);
        let straddling = lane_addrs_from(|l| l as u64 * 8 + 4);
        for b in backends() {
            let s = word_span_on(b, &aligned, 8, LaneMask::ALL, 8).unwrap();
            assert!(s.single, "{b:?}");
            assert_eq!((s.lo, s.hi), (0, 31));
            let s = word_span_on(b, &straddling, 8, LaneMask::ALL, 8).unwrap();
            assert!(!s.single, "{b:?}");
        }
    }

    #[test]
    fn saturating_span_semantics_near_u64_max() {
        // A lane at u64::MAX - 2 reading 16 bytes would overflow the naive
        // `addr + width - 1`; saturation pins the span end at u64::MAX.
        let a = lane_addrs_uniform(u64::MAX - 2);
        for b in backends() {
            assert_eq!(
                unit_bounds_on(b, &a, 16, LaneMask::ALL, 128),
                Some(((u64::MAX - 2) >> 7, u64::MAX >> 7)),
                "{b:?}"
            );
            assert_eq!(distinct_units_on(b, &a, 16, LaneMask::ALL, 128), 1, "{b:?}");
            assert_eq!(max_end_on(b, &a, 16, LaneMask::ALL), u64::MAX, "{b:?}");
        }
    }

    #[test]
    fn expand_mask_matches_bits_on_every_backend() {
        for bits in [0u32, 1, 0x8000_0001, 0xAAAA_5555, u32::MAX] {
            let mask = LaneMask(bits);
            for b in backends() {
                let m = expand_mask_on(b, mask);
                for (lane, &w) in m.iter().enumerate() {
                    let want = if mask.is_active(lane) { !0 } else { 0 };
                    assert_eq!(w, want, "{b:?} lane {lane} bits {bits:#x}");
                }
            }
        }
    }

    #[test]
    fn wide_scatter_small_unit_does_not_overflow_fallback() {
        // 32 lanes * 17 units per lane (width 16, unit 1), scattered far
        // beyond the bitmap tier: exercises the MAX_UNITS fallback bound.
        let a = lane_addrs_from(|l| l as u64 * (BITMAP_UNITS + 64));
        for b in backends() {
            assert_eq!(
                distinct_units_on(b, &a, 16, LaneMask::ALL, 1),
                32 * 16,
                "{b:?}"
            );
        }
    }
}
