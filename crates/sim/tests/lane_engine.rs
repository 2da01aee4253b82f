//! The 32-lane pricing engine against a plain set model: every kernel in
//! `kconv_sim::mem::lanes` — unit bounds, the ordered distinct-unit walk
//! and its count, the bounds predicate and the bank-model occupancy —
//! must equal what a naive walk over every covered unit says, on every
//! input, including hostile ones no real kernel produces. The AVX2
//! `occupancy` body must equal the scalar one.
//!
//! The random-warp generator sweeps mask densities (empty, single-lane,
//! sparse, dense, full), widths 1/2/4/8/16, and address regimes from
//! fully-uniform through coalesced strides and duplicate-heavy shuffles to
//! scatters wide enough to force the linear fallback, plus addresses
//! adjacent to `u64::MAX` that would overflow naive `addr + width` math.
//! Seeds are fixed, so a divergence is a reproducible failure, not a
//! flake.

use std::collections::{HashMap, HashSet};

use kconv_sim::mem::lanes::{
    distinct_units, max_end, occupancy_on, unit_bounds, Backend, Occupancy,
};
use kconv_sim::pricing::{bank_conflict_cycles, for_each_unit, segment_count, BankAccessOutcome};
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

/// The set model: every unit each active lane covers, in lane order
/// (ascending within a lane), with whether it is the unit's first visit.
/// Spans end at `addr + width - 1`, saturating at `u64::MAX`.
fn set_model(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> Vec<(u64, bool)> {
    let mut seen = HashSet::new();
    let mut visits = Vec::new();
    for lane in (0..32).filter(|&l| mask.is_active(l)) {
        let a = addrs[lane];
        for u in a / unit..=a.saturating_add(width - 1) / unit {
            visits.push((u, seen.insert(u)));
        }
    }
    visits
}

/// Asserts every kernel equals the set model on one warp for one
/// (width, unit) combination, and both `occupancy` bodies agree.
fn assert_engine_matches_model(addrs: &WarpAddrs, mask: LaneMask, width: u64, unit: u64) {
    let ctx = format!("width {width}, unit {unit}, mask {:#x}", mask.0);
    let visits = set_model(addrs, width, mask, unit);
    let units = || visits.iter().map(|&(u, _)| u);
    let bounds = units().min().zip(units().max());
    let distinct = visits.iter().filter(|&&(_, new)| new).count() as u64;
    let active: Vec<usize> = (0..32).filter(|&l| mask.is_active(l)).collect();
    let single = active
        .iter()
        .all(|&l| addrs[l] / unit == addrs[l].saturating_add(width - 1) / unit);
    let occ = bounds
        .filter(|&(lo, hi)| single && hi - lo < 128)
        .map(|(lo, _)| {
            let mut words = [0u64; 2];
            for u in units() {
                let idx = u - lo;
                words[(idx / 64) as usize] |= 1 << (idx % 64);
            }
            Occupancy { lo, words }
        });
    let end = active
        .iter()
        .map(|&l| addrs[l].saturating_add(width))
        .max()
        .unwrap_or(0);

    let mut walked = Vec::new();
    for_each_unit(addrs, width, mask, unit, |u, new| walked.push((u, new)));
    assert_eq!(walked, visits, "for_each_unit: {ctx}");
    assert_eq!(
        unit_bounds(addrs, width, mask, unit),
        bounds,
        "unit_bounds: {ctx}"
    );
    assert_eq!(
        distinct_units(addrs, width, mask, unit),
        distinct,
        "distinct_units: {ctx}"
    );
    assert_eq!(max_end(addrs, width, mask), end, "max_end: {ctx}");
    for backend in [Backend::Scalar, Backend::Simd] {
        assert_eq!(
            occupancy_on(backend, addrs, width, mask, unit),
            occ,
            "occupancy on {backend:?}: {ctx}"
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
        assert_engine_matches_model(&addrs, mask, width, unit);
        // Spot-extra: every width for a slice of the stream, to cover
        // width × regime combinations densely without 5×-ing the runtime.
        if i % 16 == 0 {
            for w in WIDTHS {
                assert_engine_matches_model(&addrs, mask, w, unit);
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
                    assert_engine_matches_model(addrs, mask, width, unit);
                }
            }
        }
    }
}

/// The bank model from the set model: distinct words counted per bank,
/// the worst bank's count in cycles (at least one), and a broadcast when
/// some word is visited twice.
fn bank_model(
    addrs: &WarpAddrs,
    width: u64,
    mask: LaneMask,
    banks: u32,
    bw: u64,
) -> BankAccessOutcome {
    let visits = set_model(addrs, width, mask, bw);
    let mut per_bank: HashMap<u64, u64> = HashMap::new();
    for &(w, _) in visits.iter().filter(|&&(_, new)| new) {
        *per_bank.entry(w % u64::from(banks)).or_default() += 1;
    }
    BankAccessOutcome {
        cycles: per_bank.values().copied().max().unwrap_or(1),
        broadcast: visits.iter().any(|&(_, new)| !new),
    }
}

/// The public pricing functions every live model and the replayer call —
/// `segment_count` and `bank_conflict_cycles` — against the set model.
#[test]
fn pricing_matches_the_set_model() {
    let mut rng = Xoshiro::seeded(0xD1FF_F00D);
    for _ in 0..2_000 {
        let (addrs, mask) = random_warp(&mut rng);
        let width = WIDTHS[(rng.next() % WIDTHS.len() as u64) as usize];
        let ctx = format!("width {width}, mask {:#x}", mask.0);
        for seg in [32, 128] {
            let distinct = set_model(&addrs, width, mask, seg)
                .iter()
                .filter(|&&(_, new)| new)
                .count() as u64;
            assert_eq!(
                segment_count(&addrs, width, mask, seg),
                distinct,
                "{seg}-B segments: {ctx}"
            );
        }
        for banks in [16, 24, 32, 64] {
            for bank_width in [BankWidth::B4, BankWidth::B8] {
                assert_eq!(
                    bank_conflict_cycles(&addrs, width, mask, banks, bank_width),
                    bank_model(&addrs, width, mask, banks, bank_width.bytes()),
                    "{banks} banks of {bank_width:?}: {ctx}"
                );
            }
        }
    }
}
