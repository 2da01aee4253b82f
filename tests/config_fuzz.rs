//! Randomized fuzzing over *kernel configurations*: any configuration
//! that passes validation must produce correct output. This hunts for
//! address-arithmetic bugs in corners the presets never reach (odd tile
//! shapes, extreme register tiles, every vector width).
//!
//! Formerly `proptest` properties; now seeded loops over the workspace
//! PRNG so the suite builds offline. Invalid draws are skipped the same
//! way `prop_assume!` discarded them.

use kconv::core::{
    i8_input_scale, i8_output_scale, quantize_maps, Encoding, Storage, F16_TOL, I8_TOL,
};
use kconv::prelude::*;
use kconv::tensor::rng::StdRng;

/// Random valid special-case configurations compute the reference.
#[test]
fn special_config_fuzz() {
    let mut rng = StdRng::seed_from_u64(0x5BEC);
    let mut ran = 0;
    for _ in 0..16 {
        let width_pow = rng.gen_range(4..8); // W in {16..128}
        let height = *rng.choose(&[1usize, 2, 3, 4, 8]);
        let vec_width = *rng.choose(&[1usize, 2, 4]);
        let k = *rng.choose(&[1usize, 3, 5]);
        let f = rng.gen_range(1..4);
        let extra = rng.gen_range(0..9);
        let cfg = SpecialConfig {
            width: 1 << width_pow,
            height,
            vec_width,
        };
        let spec = GpuSpec::kepler_k40m();
        let n = (1 << width_pow) + k + extra; // at least one full tile column
        let problem = ConvProblem::special(n, f, k);
        if SpecialConv::new(cfg).validate(&spec, &problem).is_err() {
            continue;
        }
        let input = random_maps(1, n, n, (width_pow * 31 + extra) as u64);
        let filters = random_filters(f, 1, k, 71);
        let mut gpu = Gpu::new(spec);
        let run = SpecialConv::new(cfg)
            .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
            .unwrap();
        run.verify_executed(&problem, &input, &filters, CONV_TOL)
            .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        ran += 1;
    }
    assert!(ran >= 4, "too few valid draws: {ran}");
}

/// Random valid general-case configurations compute the reference.
/// `W_T` ∈ {2, 4, 8} runs the kernel's compile-time register tiles; the
/// second loop draws `W_T` ∈ {6, 12}, which have none and run the same
/// kernel body at run-time width.
#[test]
fn general_config_fuzz() {
    let mut rng = StdRng::seed_from_u64(0x6E4E);
    let ran = (0..16)
        .filter(|_| general_draw(&mut rng, &[8, 16, 32], &[2, 4, 8]))
        .count();
    assert!(ran >= 4, "too few valid draws: {ran}");
    let ran = (0..8)
        .filter(|_| general_draw(&mut rng, &[12, 24, 36], &[6, 12]))
        .count();
    assert!(ran >= 2, "too few valid run-time-width draws: {ran}");
}

/// Draws a general-case configuration with its width from `widths` and
/// its `W_T` from `w_ts` and, when it validates, checks one ragged
/// problem against the reference. Returns whether it ran.
fn general_draw(rng: &mut StdRng, widths: &[usize], w_ts: &[usize]) -> bool {
    let width = *rng.choose(widths);
    let height = *rng.choose(&[2usize, 4]);
    let w_t = *rng.choose(w_ts);
    let f_t = *rng.choose(&[2usize, 4]);
    let f_groups = rng.gen_range(1..3);
    let c_sh = *rng.choose(&[1usize, 2]);
    let c_mult = rng.gen_range(1..3);
    let k = *rng.choose(&[1usize, 3, 5]);
    let f_tb = f_t * 2;
    let cfg = GeneralConfig {
        width,
        height,
        f_tb,
        w_t,
        f_t,
        c_sh,
        vec_width: 2,
    };
    let spec = GpuSpec::kepler_k40m();
    if cfg.validate(&spec, k).is_err() || !width.is_multiple_of(w_t) {
        return false;
    }
    let c = c_sh * c_mult;
    let f = f_tb * f_groups;
    let n = width + k + 3; // ragged tiles on purpose
    let problem = ConvProblem::general(n, c, f, k);
    let input = random_maps(c, n, n, (width * 7 + k) as u64);
    let filters = random_filters(f, c, k, 73);
    let mut gpu = Gpu::new(spec);
    let run = GeneralConv::new(cfg)
        .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
        .unwrap();
    run.verify_executed(&problem, &input, &filters, CONV_TOL)
        .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    true
}

/// Random narrow-storage configurations compute the quantized
/// reference, for both encodings.
#[test]
fn narrow_config_fuzz() {
    let mut rng = StdRng::seed_from_u64(0x0A44);
    for _ in 0..16 {
        let vec_width = *rng.choose(&[1usize, 2, 4]);
        let k = *rng.choose(&[1usize, 3, 5]);
        let f = rng.gen_range(1..3);
        let extra = rng.gen_range(0..7);
        let cfg = SpecialConfig {
            width: 32,
            height: 4,
            vec_width,
        };
        let n = 32 + k + extra;
        let problem = ConvProblem::special(n, f, k);
        let input = random_maps(1, n, n, 91 + extra as u64);
        let filters = random_filters(f, 1, k, 93);

        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let f16 = SpecialConv {
            config: cfg,
            storage: Storage::F16,
        };
        let run = f16
            .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
            .unwrap();
        let q = quantize_maps(&input, Encoding::F16);
        run.verify_executed(&problem, &q, &filters, F16_TOL)
            .unwrap_or_else(|e| panic!("f16 {cfg:?}: {e}"));

        let i8cfg = SpecialConfig {
            vec_width: vec_width * 2,
            ..cfg
        };
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let i8 = SpecialConv {
            config: i8cfg,
            storage: Storage::I8,
        };
        let run = i8
            .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
            .unwrap();
        let enc = Encoding::I8 {
            scale_in: i8_input_scale(&input),
            scale_out: i8_output_scale(&input, &filters),
        };
        let q = quantize_maps(&input, enc);
        run.verify_executed(&problem, &q, &filters, I8_TOL)
            .unwrap_or_else(|e| panic!("i8 {i8cfg:?}: {e}"));
    }
}
