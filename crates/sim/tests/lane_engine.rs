//! Differential gate for the 32-lane pricing engine: every backend in
//! `kconv_sim::mem::lanes` must be bit-identical to the scalar reference
//! for every kernel, on every input — including hostile ones no real
//! kernel produces.
//!
//! The random-warp generator sweeps mask densities (empty, single-lane,
//! sparse, dense, full), widths 1/2/4/8/16, and address regimes from
//! fully-uniform through coalesced strides and duplicate-heavy shuffles to
//! scatters wide enough to force the linear fallback, plus addresses
//! adjacent to `u64::MAX` that would overflow naive `addr + width` math.
//! Seeds are fixed, so a divergence is a reproducible failure, not a
//! flake.

use kconv_sim::mem::lanes::{
    self, distinct_units_on, expand_mask_on, max_end_on, occupancy_on, unit_bounds_on,
    word_span_on, Backend,
};
use kconv_sim::pricing::{bank_conflict_cycles, segment_count};
use kconv_sim::{lane_addrs_from, BankWidth, LaneMask, WarpAddrs};

/// xoshiro256++ seeded by splitmix64 — a copy of the sim crate's
/// test-build-only PRNG (`src/testrng.rs`), which integration tests cannot
/// reach.
struct Xoshiro([u64; 4]);

impl Xoshiro {
    fn seeded(seed: u64) -> Self {
        let mut s = seed;
        let mut split = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro([split(), split(), split(), split()])
    }

    fn next(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.0;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }
}

const WIDTHS: [u64; 5] = [1, 2, 4, 8, 16];
const UNITS: [u64; 6] = [1, 4, 8, 32, 128, 256];

/// One random warp: a mask of the requested flavor and addresses from one
/// of several regimes, chosen by the generator itself.
fn random_warp(rng: &mut Xoshiro) -> (WarpAddrs, LaneMask) {
    let mask = match rng.next() % 6 {
        0 => LaneMask::ALL,
        1 => LaneMask::NONE,
        2 => LaneMask(1 << (rng.next() % 32)), // single lane
        3 => LaneMask((rng.next() % (1 << 16)) as u32), // low-half sparse
        _ => LaneMask(rng.next() as u32),
    };
    let regime = rng.next() % 8;
    let base = match rng.next() % 4 {
        // Pin some warps right below u64::MAX so spans and ends saturate.
        0 => u64::MAX - rng.next() % 64,
        1 => rng.next() % (1 << 20),
        _ => rng.next() >> (rng.next() % 40),
    };
    let stride = [0u64, 1, 4, 8, 32, 129, 65536, 1 << 20][(rng.next() % 8) as usize];
    let addrs = match regime {
        // Uniform: every lane at the same address.
        0 => lane_addrs_from(|_| base),
        // Coalesced / strided (includes stride 0 = uniform again).
        1 | 2 => lane_addrs_from(|l| base.wrapping_add(stride.wrapping_mul(l as u64))),
        // Duplicate-heavy: a handful of distinct values shuffled over lanes.
        3 => {
            let pool: [u64; 4] = [
                base,
                base.wrapping_add(stride),
                base.wrapping_add(2 * stride),
                base.wrapping_add(rng.next() % 256),
            ];
            let picks: [usize; 32] = std::array::from_fn(|_| (rng.next() % 4) as usize);
            lane_addrs_from(|l| pool[picks[l]])
        }
        // Small scatter around the base (register-bitmap tier).
        4 => {
            let offs: [u64; 32] = std::array::from_fn(|_| rng.next() % 4096);
            lane_addrs_from(|l| base.wrapping_add(offs[l]))
        }
        // Mid scatter (stack-bitmap tier for small units).
        5 => {
            let offs: [u64; 32] = std::array::from_fn(|_| rng.next() % (1 << 20));
            lane_addrs_from(|l| base.wrapping_add(offs[l]))
        }
        // Wide scatter (linear fallback for every unit size).
        6 => {
            let offs: [u64; 32] = std::array::from_fn(|_| rng.next() >> 4);
            lane_addrs_from(|l| offs[l])
        }
        // Fully random, full range.
        _ => {
            let raw: [u64; 32] = std::array::from_fn(|_| rng.next());
            lane_addrs_from(|l| raw[l])
        }
    };
    (addrs, mask)
}

/// Asserts every kernel agrees with the scalar reference on `warp` for one
/// (width, unit) combination, on every backend this host supports.
fn assert_backends_agree(addrs: &WarpAddrs, mask: LaneMask, width: u64, unit: u64) {
    let bounds = unit_bounds_on(Backend::Scalar, addrs, width, mask, unit);
    let distinct = distinct_units_on(Backend::Scalar, addrs, width, mask, unit);
    let occ = occupancy_on(Backend::Scalar, addrs, width, mask, unit);
    let span = word_span_on(Backend::Scalar, addrs, width, mask, unit);
    // Cross-kernel invariants the scalar reference itself must satisfy:
    // the occupancy bitmap exists exactly for the bank fast-path shape
    // (non-empty mask, single-unit lanes, span under 128 units), is
    // anchored at the bounds minimum, and its population is the distinct
    // count.
    match (occ, bounds, span) {
        (Some(o), Some((lo, hi)), Some(s)) => {
            assert!(s.single && hi - lo < 128);
            assert_eq!(o.lo, lo);
            assert_eq!(
                u64::from(o.words[0].count_ones() + o.words[1].count_ones()),
                distinct
            );
        }
        (None, Some((lo, hi)), Some(s)) => assert!(!s.single || hi - lo >= 128),
        (None, None, None) => {}
        _ => panic!("kernel Some/None shapes diverged on one warp"),
    }
    let end = max_end_on(Backend::Scalar, addrs, width, mask);
    let expanded = expand_mask_on(Backend::Scalar, mask);
    for backend in lanes::Backend::available() {
        let ctx = format!(
            "backend {backend:?}, width {width}, unit {unit}, mask {:#x}",
            mask.0
        );
        assert_eq!(
            unit_bounds_on(backend, addrs, width, mask, unit),
            bounds,
            "unit_bounds diverged: {ctx}"
        );
        assert_eq!(
            distinct_units_on(backend, addrs, width, mask, unit),
            distinct,
            "distinct_units diverged: {ctx}"
        );
        assert_eq!(
            occupancy_on(backend, addrs, width, mask, unit),
            occ,
            "occupancy diverged: {ctx}"
        );
        assert_eq!(
            word_span_on(backend, addrs, width, mask, unit),
            span,
            "word_span diverged: {ctx}"
        );
        assert_eq!(
            max_end_on(backend, addrs, width, mask),
            end,
            "max_end diverged: {ctx}"
        );
        assert_eq!(
            expand_mask_on(backend, mask),
            expanded,
            "expand_mask diverged: {ctx}"
        );
    }
}

#[test]
fn backends_agree_on_ten_thousand_random_warps() {
    let mut rng = Xoshiro::seeded(0x1A5E_5EED);
    for i in 0..10_000 {
        let (addrs, mask) = random_warp(&mut rng);
        let width = WIDTHS[(rng.next() % WIDTHS.len() as u64) as usize];
        let unit = UNITS[(rng.next() % UNITS.len() as u64) as usize];
        assert_backends_agree(&addrs, mask, width, unit);
        // Spot-extra: every width for a slice of the stream, to cover
        // width × regime combinations densely without 5×-ing the runtime.
        if i % 16 == 0 {
            for w in WIDTHS {
                assert_backends_agree(&addrs, mask, w, unit);
            }
        }
    }
}

#[test]
fn backends_agree_on_edge_cases() {
    let uniform_max = lane_addrs_from(|_| u64::MAX);
    let near_max = lane_addrs_from(|l| u64::MAX - l as u64);
    let below_max = lane_addrs_from(|l| u64::MAX - 16 * l as u64);
    let zeros = lane_addrs_from(|_| 0);
    let coalesced = lane_addrs_from(|l| 4 * l as u64);
    let cases: [&WarpAddrs; 5] = [&uniform_max, &near_max, &below_max, &zeros, &coalesced];
    let masks = [
        LaneMask::NONE,
        LaneMask(1),       // one lane
        LaneMask(1 << 31), // the last lane
        LaneMask(0x8000_0001),
        LaneMask::first(7),
        LaneMask::ALL,
    ];
    for addrs in cases {
        for mask in masks {
            for width in WIDTHS {
                for unit in UNITS {
                    assert_backends_agree(addrs, mask, width, unit);
                }
            }
        }
    }
}

/// The dispatched public pricing functions — `segment_count` and
/// `bank_conflict_cycles`, the two every live model and the replayer call —
/// must price identical counters under every forced backend. Runs all
/// backends inside one test body (forcing is process-global) and restores
/// auto dispatch afterwards.
#[test]
fn forced_backend_pricing_is_bit_identical() {
    let mut rng = Xoshiro::seeded(0xD1FF_F00D);
    let mut warps = Vec::new();
    for _ in 0..2_000 {
        let (addrs, mask) = random_warp(&mut rng);
        let width = WIDTHS[(rng.next() % WIDTHS.len() as u64) as usize];
        warps.push((addrs, mask, width));
    }
    let price = |warps: &[(WarpAddrs, LaneMask, u64)]| -> Vec<(u64, u64, u64, bool)> {
        warps
            .iter()
            .map(|&(ref addrs, mask, width)| {
                let segs128 = segment_count(addrs, width, mask, 128);
                let segs32 = segment_count(addrs, width, mask, 32);
                let bank = bank_conflict_cycles(addrs, width, mask, 32, BankWidth::B8);
                (segs128, segs32, bank.cycles, bank.broadcast)
            })
            .collect()
    };
    lanes::force(Backend::Scalar);
    let reference = price(&warps);
    for backend in Backend::available()
        .into_iter()
        .filter(|&b| b != Backend::Scalar)
    {
        let installed = lanes::force(backend);
        let got = price(&warps);
        assert_eq!(got, reference, "forced {installed:?} diverged from scalar");
    }
    // Leave the process on auto dispatch for whatever runs next.
    lanes::force(Backend::Simd);
}
