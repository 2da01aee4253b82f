//! Closed form ≡ lane engine: every closed form against the lane engine on
//! the expanded lanes, over seeded random affine and two-level accesses.

use super::*;
use crate::testrng::Xoshiro;
use crate::GpuSpec;

/// Unit sizes priced: bank words, segments and cache lines, and the byte
/// unit of distinct constant addresses.
const UNITS: [u64; 8] = [1, 4, 8, 16, 32, 64, 128, 256];

/// Every `(banks, bank width)` of the preset parts, plus 16 and 64 banks
/// and a bank count that is not a power of two.
fn bank_keys() -> Vec<(u32, BankWidth)> {
    let mut keys: Vec<(u32, BankWidth)> = GpuSpec::presets_all()
        .iter()
        .map(|s| (s.smem_banks, s.bank_width))
        .collect();
    for banks in [16, 24, 64] {
        keys.extend([(banks, BankWidth::B4), (banks, BankWidth::B8)]);
    }
    keys.sort_by_key(|&(b, w)| (b, w.bytes()));
    keys.dedup();
    keys
}

/// The first visits of the lane engine's ordered unit scan.
fn engine_new_units(addrs: &WarpAddrs, width: u64, mask: LaneMask, unit: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for_each_unit(addrs, width, mask, unit, |u, new| {
        if new {
            out.push(u);
        }
    });
    out
}

/// Constant-cache lines a load touches, in first-visit order, the way
/// the replayer derives them: line units for a power-of-two line, each
/// distinct address divided by the line size otherwise.
fn cm_lines(visit: impl FnOnce(u64, &mut dyn FnMut(u64)), line: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if line.is_power_of_two() {
        visit(line, &mut |l| out.push(l));
    } else {
        visit(1, &mut |a| out.push(a / line));
    }
    out
}

/// Compares every priced quantity of `access` with the lane engine;
/// returns the shape it priced as.
fn check(access: WarpAccess<'_>, mask: LaneMask, width: u64, banks: &[(u32, BankWidth)]) -> Shape {
    let addrs = access.addrs(mask);
    let prepared = access.prepare(mask, width);
    let ctx = || format!("{access:?} mask {:#010x} width {width}", mask.0);
    for unit in UNITS {
        assert_eq!(
            prepared.segment_count(unit),
            segment_count(&addrs, width, mask, unit),
            "segments of {unit} B: {}",
            ctx()
        );
        let mut got = Vec::new();
        prepared.for_each_new_unit(unit, |u| got.push(u));
        assert_eq!(
            got,
            engine_new_units(&addrs, width, mask, unit),
            "unit visits of {unit} B: {}",
            ctx()
        );
    }
    for &(nb, bw) in banks {
        assert_eq!(
            prepared.bank_conflict_cycles(nb, bw),
            bank_conflict_cycles(&addrs, width, mask, nb, bw),
            "{nb} banks of {} B: {}",
            bw.bytes(),
            ctx()
        );
    }
    // The constant cache prices lanes of one byte.
    let cm = access.prepare(mask, 1);
    assert_eq!(
        cm.segment_count(1),
        segment_count(&addrs, 1, mask, 1),
        "distinct constant addresses: {}",
        ctx()
    );
    for line in [32, 48, 64, 256] {
        assert_eq!(
            cm_lines(|u, f| cm.for_each_new_unit(u, f), line),
            cm_lines(
                |u, f| engine_new_units(&addrs, 1, mask, u).into_iter().for_each(f),
                line
            ),
            "constant lines of {line} B: {}",
            ctx()
        );
    }
    prepared.shape
}

fn closed(shape: Shape) -> bool {
    matches!(shape, Shape::Run(_) | Shape::Tile(_))
}

/// A random mask: full, empty, one lane, a low run, or gapped.
fn mask(rng: &mut Xoshiro) -> LaneMask {
    LaneMask(match rng.next() % 6 {
        0 | 1 => u32::MAX,
        2 => 0,
        3 => 1 << (rng.next() % 32),
        4 => u32::MAX >> (rng.next() % 32),
        _ => rng.next() as u32,
    })
}

/// A step: zero, small of either sign, a multiple of a bank word or a
/// segment, huge, or one that wraps.
fn step(rng: &mut Xoshiro) -> u64 {
    let small = rng.next() % 40;
    match rng.next() % 9 {
        0 => 0,
        1 => small,
        2 => small.wrapping_neg(),
        3 => 4 * (rng.next() % 80),
        4 => 8 * (rng.next() % 80),
        5 => 128 * (1 + rng.next() % 8),
        6 => (4 * (1 + rng.next() % 70)).wrapping_neg(),
        7 => 1 << (20 + rng.next() % 43),
        _ => rng.next(),
    }
}

/// A base address: near 0, small and aligned or not, random, or close
/// enough to `u64::MAX` that spans saturate or progressions wrap.
fn address(rng: &mut Xoshiro) -> u64 {
    match rng.next() % 5 {
        0 => rng.next() % 64,
        1 => 4096 + 4 * (rng.next() % 1024),
        2 => rng.next() % (1 << 20),
        3 => u64::MAX - rng.next() % 2048,
        _ => rng.next(),
    }
}

#[test]
fn affine_closed_forms_equal_the_lane_engine() {
    let banks = bank_keys();
    let mut rng = Xoshiro::seeded(0xC105_ED00);
    let mut closed = 0;
    let cases = 4000;
    for _ in 0..cases {
        let width = 1 + rng.next() % 16;
        let access = WarpAccess::Affine {
            first: address(&mut rng),
            step: step(&mut rng),
        };
        closed += usize::from(self::closed(check(access, mask(&mut rng), width, &banks)));
    }
    // Most draws neither wrap nor saturate: the suite tests the closed
    // forms, not only the fallback.
    assert!(closed > cases / 2, "{closed} of {cases} took a closed form");
}

#[test]
fn two_level_closed_forms_equal_the_lane_engine() {
    let banks = bank_keys();
    let mut rng = Xoshiro::seeded(0x0021_E7E1_C105);
    let (mut runs, mut tiles) = (0, 0);
    let cases = 4000;
    for _ in 0..cases {
        let p = TWO_LEVEL_PERIODS[(rng.next() % 4) as usize];
        // Zero strides, random ones, and tiles whose rows (a 2-D
        // register tile) or columns (a transposed store) ascend.
        let small = 1 + rng.next() % 16;
        let gap = rng.next() % 300;
        let (s1, s2) = match rng.next() % 6 {
            0 => (0, step(&mut rng)),
            1 => (step(&mut rng), 0),
            2 => (0, 0),
            3 => (step(&mut rng), step(&mut rng)),
            4 => (small, small * u64::from(p - 1) + gap),
            _ => (small * 32 / u64::from(p) + gap, small),
        };
        let form = TwoLevel {
            p,
            base: address(&mut rng),
            s1,
            s2,
        };
        // Canonical masks keep lanes 0, 1 and `p`; some drop whole rows
        // or columns, some leave one row holding a column row 0 lacks.
        let needed = 0b11 | 1u32 << p;
        let row = (1u32 << p) - 1;
        let mask = LaneMask(match rng.next() % 5 {
            0 | 1 => u32::MAX,
            2 => row | row << p | (rng.next() as u32 & !(row | row << p)),
            3 => (u32::MAX >> (rng.next() % 32)) | needed,
            _ => rng.next() as u32 | needed,
        });
        let width = 1 + rng.next() % 16;
        match check(WarpAccess::TwoLevel(form), mask, width, &banks) {
            Shape::Run(_) => runs += 1,
            Shape::Tile(_) => tiles += 1,
            _ => {}
        }
    }
    assert!(runs > cases / 4, "{runs} of {cases} priced as runs");
    assert!(tiles > cases / 20, "{tiles} of {cases} priced as tiles");
}

/// The shapes the module docs name, one by one, each on the closed path.
#[test]
fn named_shapes_take_the_closed_forms() {
    let banks = bank_keys();
    let all = LaneMask::ALL;
    let shapes = [
        // A warp-uniform constant load.
        (
            WarpAccess::Affine {
                first: 4096,
                step: 0,
            },
            4,
        ),
        // Consecutive floats (the paper's Fig. 1) and float2s.
        (WarpAccess::Affine { first: 0, step: 4 }, 4),
        (WarpAccess::Affine { first: 64, step: 8 }, 8),
        // A gap of less than one unit between lanes, and a descending run.
        (WarpAccess::Affine { first: 2, step: 12 }, 4),
        (
            WarpAccess::Affine {
                first: 1 << 20,
                step: 4u64.wrapping_neg(),
            },
            4,
        ),
        // Bank-width multiples: a stride of a full bank row, and 136 B.
        (
            WarpAccess::Affine {
                first: 0,
                step: 256,
            },
            4,
        ),
        (
            WarpAccess::Affine {
                first: 0,
                step: 136,
            },
            4,
        ),
        // Multi-word lanes at a disjoint stride.
        (
            WarpAccess::Affine {
                first: 4,
                step: 100,
            },
            16,
        ),
        // The general kernel's filter and image-window loads.
        (
            WarpAccess::TwoLevel(TwoLevel {
                p: 16,
                base: 0,
                s1: 0,
                s2: 64,
            }),
            8,
        ),
        (
            WarpAccess::TwoLevel(TwoLevel {
                p: 4,
                base: 512,
                s1: 32,
                s2: 0,
            }),
            8,
        ),
        // Tiles walked row by row (a read-only load) and column by
        // column (a transposed store).
        (
            WarpAccess::TwoLevel(TwoLevel {
                p: 8,
                base: 0,
                s1: 4,
                s2: 144,
            }),
            4,
        ),
        (
            WarpAccess::TwoLevel(TwoLevel {
                p: 16,
                base: 0,
                s1: 16384,
                s2: 64,
            }),
            8,
        ),
    ];
    for (access, width) in shapes {
        assert!(
            closed(check(access, all, width, &banks)),
            "{access:?} took the lane engine"
        );
    }
    // Shapes the closed forms leave to the lane engine: a tile whose
    // rows and columns both step down, wrapping and wide lanes, and
    // explicit lanes.
    let tile = TwoLevel {
        p: 16,
        base: 1 << 20,
        s1: 136,
        s2: 1220u64.wrapping_neg(),
    };
    let addrs = lane_addrs_wrapping();
    for (access, width) in [
        (WarpAccess::TwoLevel(tile), 4),
        (
            WarpAccess::Affine {
                first: u64::MAX - 8,
                step: 4,
            },
            4,
        ),
        (WarpAccess::Affine { first: 0, step: 4 }, 17),
        (WarpAccess::Explicit(&addrs), 4),
    ] {
        assert!(
            !closed(check(access, all, width, &banks)),
            "{access:?} took a closed form"
        );
    }
}

fn lane_addrs_wrapping() -> WarpAddrs {
    std::array::from_fn(|l| (l as u64 * 40) % 96)
}

#[test]
fn bank_cycles_follow_the_gcd_rule() {
    // 32 single-word lanes `q` words apart on 32 banks cost
    // gcd(q mod 32, 32) cycles.
    for (q, cycles) in [
        (1, 1),
        (2, 2),
        (3, 1),
        (4, 4),
        (6, 2),
        (16, 16),
        (32, 32),
        (33, 1),
    ] {
        let out = WarpAccess::Affine {
            first: 0,
            step: 4 * q,
        }
        .prepare(LaneMask::ALL, 4)
        .bank_conflict_cycles(32, BankWidth::B4);
        assert_eq!(out.cycles, cycles, "q = {q}");
        assert!(!out.broadcast);
    }
}
