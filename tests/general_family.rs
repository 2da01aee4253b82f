//! Golden differential for the general-case kernel family: every vector
//! factor and Table 1 filter size on a Kepler-class (8-byte banks) and a
//! Maxwell-class (4-byte banks) part, the serving engine's adapted
//! configurations (one per `T_X`), the tuner's `W_T = 8` candidate and
//! the blocked-GEMM-layout ablation, pinned to constants.
//!
//! Each case pins four things, so any change to the kernel body, its
//! setup or its launch resources shows up here:
//!
//! * an FNV-1a-64 digest of the decoded trace (launch name, geometry and
//!   resources, and every warp-level memory event's op, warp, mask,
//!   bytes/lane and lane addresses, in order), independent of the wire
//!   format;
//! * the kernel's [`Convolution::name`];
//! * an FNV-1a-64 digest of the output's `f32` bit patterns;
//! * an FNV-1a-64 digest of the `Debug` rendering of the launch's
//!   `KernelStats` (every counter).

use kconv::core::{Convolution, GeneralConvStrided};
use kconv::prelude::*;
use kconv::trace::capture;

mod common;
use common::{decoded_digest, fnv1a};

fn spec_named(name: &str) -> GpuSpec {
    match name {
        "kepler" => GpuSpec::kepler_k40m(),
        "maxwell" => GpuSpec::maxwell_like(),
        other => panic!("unknown spec {other}"),
    }
}

/// `(trace digest, name, output digest, stats digest)`.
type Observed = (u64, String, u64, u64);

/// Runs `conv` on a ragged `size × size` problem with `channels` inputs
/// and `filters` outputs and returns its four pinned values.
fn observe(
    spec: &str,
    conv: &dyn Convolution,
    size: usize,
    (channels, filters, k): (usize, usize, usize),
) -> Observed {
    let problem = ConvProblem::general(size, channels, filters, k);
    let input = random_maps(channels, size, size, 2301 + k as u64);
    let filters_set = random_filters(filters, channels, k, 2303 + k as u64);
    let mut gpu = Gpu::new(spec_named(spec));
    let (run, trace) = capture(&mut gpu, |gpu| {
        conv.run(gpu, &problem, &input, &filters_set, SimMode::Full)
    });
    let run = run.unwrap_or_else(|e| panic!("{spec} {}: {e}", conv.name()));
    run.verify_executed(&problem, &input, &filters_set, CONV_TOL)
        .unwrap_or_else(|e| panic!("{spec} {}: {e}", conv.name()));
    let out = run.output.as_slice().iter().flat_map(|v| v.to_le_bytes());
    (
        decoded_digest(&trace),
        conv.name(),
        fnv1a(out),
        fnv1a(format!("{:?}", run.report.stats).into_bytes()),
    )
}

fn check(at: &str, got: Observed, want: (u64, &str, u64, u64)) {
    assert_eq!(got.1, want.1, "{at}: name");
    assert_eq!(got.0, want.0, "{at}: decoded events");
    assert_eq!(got.2, want.2, "{at}: output bits");
    assert_eq!(got.3, want.3, "{at}: KernelStats");
}

/// `(spec, n, K, trace digest, name, output digest, stats digest)`.
type Golden = (&'static str, usize, usize, u64, &'static str, u64, u64);

#[rustfmt::skip]
const TABLE1: &[Golden] = &[
    ("kepler", 1, 3, 0xf6d624bf2c90daad, "general (n=1)", 0xd80aee0bea59b18a, 0xd55f4ab5853b9022),
    ("kepler", 1, 5, 0x0ca9a20a6e6d4e29, "general (n=1)", 0xb835d94e6d63a877, 0xdf26597f77e23a85),
    ("kepler", 1, 7, 0x2487e724cf852835, "general (n=1)", 0x2af17a6d5be0f146, 0xfea8e4c346fa83d1),
    ("kepler", 2, 3, 0xff42352431e1c55a, "general (n=2)", 0xd80aee0bea59b18a, 0xe2ed51338e369175),
    ("kepler", 2, 5, 0xbc87cb681c41c652, "general (n=2)", 0xb835d94e6d63a877, 0x736c906d982944e2),
    ("kepler", 2, 7, 0x475ea4a647d4c7d2, "general (n=2)", 0x2af17a6d5be0f146, 0x76bf1ec57c1ba431),
    ("kepler", 4, 3, 0x7bcb8da866f5c997, "general (n=4)", 0xd80aee0bea59b18a, 0x04dc97200eb75d4e),
    ("kepler", 4, 5, 0x279bf723d362c294, "general (n=4)", 0xb835d94e6d63a877, 0x7c263ed6fa414432),
    ("kepler", 4, 7, 0xadd10dc7b8c714f8, "general (n=4)", 0x2af17a6d5be0f146, 0x709f20abb09d863f),
    ("maxwell", 1, 3, 0xf6d624bf2c90daad, "general (n=1)", 0xd80aee0bea59b18a, 0xd541e59180ecda85),
    ("maxwell", 1, 5, 0x0ca9a20a6e6d4e29, "general (n=1)", 0xb835d94e6d63a877, 0x0ca1d7a736fd8060),
    ("maxwell", 1, 7, 0x2487e724cf852835, "general (n=1)", 0x2af17a6d5be0f146, 0x0763e194e96433ef),
    ("maxwell", 2, 3, 0xff42352431e1c55a, "general (n=2)", 0xd80aee0bea59b18a, 0x0e718fe4ff5b246e),
    ("maxwell", 2, 5, 0xbc87cb681c41c652, "general (n=2)", 0xb835d94e6d63a877, 0x907de5d0ec83d24f),
    ("maxwell", 2, 7, 0x475ea4a647d4c7d2, "general (n=2)", 0x2af17a6d5be0f146, 0xb3f75a14727f00a7),
    ("maxwell", 4, 3, 0x7bcb8da866f5c997, "general (n=4)", 0xd80aee0bea59b18a, 0x3c2e9858794a69de),
    ("maxwell", 4, 5, 0x279bf723d362c294, "general (n=4)", 0xb835d94e6d63a877, 0xf76cd5fdda617ffd),
    ("maxwell", 4, 7, 0xadd10dc7b8c714f8, "general (n=4)", 0x2af17a6d5be0f146, 0x623ad2a2ce618d05),
];

/// The Table 1 configuration for every `n ∈ {1, 2, 4}` and `K ∈ {3, 5,
/// 7}` on both parts: one filter group, two channels, ragged tiles.
#[test]
fn table1_factors_and_sizes_are_pinned() {
    let mut cases = Vec::new();
    for spec in ["kepler", "maxwell"] {
        for n in [1usize, 2, 4] {
            for k in [3usize, 5, 7] {
                cases.push((spec, n, k));
            }
        }
    }
    assert_eq!(TABLE1.len(), cases.len(), "one golden row per case");
    for (&(spec, n, k), golden) in cases.iter().zip(TABLE1) {
        assert_eq!((spec, n, k), (golden.0, golden.1, golden.2));
        let cfg = GeneralConfig {
            vec_width: n,
            ..GeneralConfig::table1(k)
        };
        let size = cfg.width + k + 2;
        let got = observe(spec, &GeneralConv::new(cfg), size, (2, cfg.f_tb, k));
        check(
            &format!("{spec} n={n} K={k}"),
            got,
            (golden.3, golden.4, golden.5, golden.6),
        );
    }
}

/// `(filters, T_X, trace digest, output digest, stats digest)`.
type Adapted = (usize, usize, u64, u64, u64);

#[rustfmt::skip]
const ADAPTED: &[Adapted] = &[
    (8, 2, 0x035d243bedb76b82, 0x25a26ebae95e6d7d, 0x6ef777ca4780aa7d),
    (16, 4, 0xcb13eef8f3afc607, 0x561f1d04a0c84ec0, 0xc61a7bb4a3042b2e),
    (32, 8, 0x135363b56de296b9, 0xf148b5da99adfc3a, 0x2f4f382b001583f4),
    (64, 16, 0xe39119918221073e, 0x8dc5ed6c54db750a, 0xf5663c55dee250c1),
];

/// `GeneralConfig::for_problem` on a three-channel 3×3 layer (so
/// `C_SH = 1`) with 8, 16, 32 and 64 filters: `T_X` = 2, 4, 8 and 16.
#[test]
fn adapted_configs_are_pinned() {
    let spec = GpuSpec::kepler_k40m();
    assert_eq!(ADAPTED.len(), 4, "one golden row per case");
    for (&filters, golden) in [8usize, 16, 32, 64].iter().zip(ADAPTED) {
        let cfg = GeneralConfig::for_problem(&spec, 3, 3, filters).expect("adapts");
        assert_eq!((filters, cfg.threads_x()), (golden.0, golden.1));
        let got = observe("kepler", &GeneralConv::new(cfg), 37, (3, filters, 3));
        check(
            &format!("adapted F={filters}"),
            got,
            (golden.2, "general (n=2)", golden.3, golden.4),
        );
    }
}

/// The tuner's `W_T = 8` variant of the 3×3 preset and the
/// blocked-GEMM-layout ablation, on Kepler.
#[test]
fn tuner_and_ablation_variants_are_pinned() {
    let w_t8 = GeneralConfig {
        w_t: 8,
        ..GeneralConfig::table1_3x3()
    };
    let got = observe("kepler", &GeneralConv::new(w_t8), 36, (2, 64, 3));
    check(
        "W_T=8",
        got,
        (
            0xcf431b184e99d5b7,
            "general (n=2)",
            0x8b3028fda3c56ff1,
            0x63c7e0332ef6e409,
        ),
    );
    let got = observe(
        "kepler",
        &GeneralConvStrided::new(GeneralConfig::table1_3x3()),
        36,
        (2, 64, 3),
    );
    check(
        "strided layout",
        got,
        (
            0x9f921236488dd902,
            "general (strided outputs, GEMM layout)",
            0x8b3028fda3c56ff1,
            0x8011fe5f92d47ed6,
        ),
    );
}
