//! Golden differential for the special-case kernel family: every
//! instantiable `(storage, n)` pair on a Kepler-class (8-byte banks) and
//! a Maxwell-class (4-byte banks) part, pinned to constants.
//!
//! Each case pins four things, so any change to the kernel body, its
//! setup or its launch resources shows up here:
//!
//! * an FNV-1a-64 digest of the KTRC trace bytes (launch name, resources
//!   and every warp-level memory event, in order);
//! * the kernel's [`Convolution::name`];
//! * an FNV-1a-64 digest of the output's `f32` bit patterns;
//! * an FNV-1a-64 digest of the `Debug` rendering of the launch's
//!   `KernelStats` (every counter).

use kconv::apps::EnginePlan;
use kconv::core::{Convolution, DataType, Storage};
use kconv::prelude::*;
use kconv::trace::capture;

/// The kernel under test for `storage` with `n` elements per access and
/// the paper's tile.
fn kernel(storage: Storage, n: usize) -> Box<dyn Convolution> {
    Box::new(SpecialConv::with_storage(storage, n))
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(spec, storage, n, trace digest, name, output digest, stats digest)`.
type Golden = (&'static str, Storage, usize, u64, &'static str, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("kepler", Storage::F32, 1, 0x1704fd45de40579d, "special (unmatched, n=1)", 0x46bd78de6111588e, 0x57e37a2015eff07c),
    ("kepler", Storage::F32, 2, 0xb2f8df2225e5b9f3, "special (matched, n=2)", 0x46bd78de6111588e, 0x03177b8ebb9b8f17),
    ("kepler", Storage::F32, 4, 0xe61ae92980092aa0, "special (matched, n=4)", 0x46bd78de6111588e, 0x61f84d17248185f3),
    ("kepler", Storage::F16, 1, 0x6a8328a1bf89c4ce, "special fp16 (unmatched, n=1)", 0x9da7cea3ff962623, 0xbc4fb7475cf834d1),
    ("kepler", Storage::F16, 2, 0x76d62e3ae20c9e07, "special fp16 (partial, n=2)", 0x9da7cea3ff962623, 0x22a1c54270d7101d),
    ("kepler", Storage::F16, 4, 0x02204cd10d323adb, "special fp16 (matched, n=4)", 0x9da7cea3ff962623, 0x49167be1d9e094d5),
    ("kepler", Storage::Half2, 1, 0x4514e8659b9ecf74, "special half2 (unmatched, n=1)", 0xbe6f5ecb98d4138b, 0x1ebd09c64747d2e0),
    ("kepler", Storage::Half2, 2, 0xe803c4393a661885, "special half2 (partial, n=2)", 0xbe6f5ecb98d4138b, 0x0566ae6dd5eff85e),
    ("kepler", Storage::Half2, 4, 0x4226edd9a258a30b, "special half2 (matched, n=4)", 0xbe6f5ecb98d4138b, 0x9e5bfa294cc3d530),
    ("kepler", Storage::I8, 1, 0x7c79abfcd0a86bbc, "special int8 (unmatched, n=1)", 0x6dd280d9e9438c64, 0xfc5ef401a8125f37),
    ("kepler", Storage::I8, 2, 0xec280eaa0691516d, "special int8 (partial, n=2)", 0x6dd280d9e9438c64, 0xd4d5bad16127fbf7),
    ("kepler", Storage::I8, 4, 0x18c2489bc37a74c9, "special int8 (partial, n=4)", 0x6dd280d9e9438c64, 0x8a294beb51c7dbfa),
    ("kepler", Storage::I8, 8, 0x93b48c18296872d3, "special int8 (matched, n=8)", 0x6dd280d9e9438c64, 0x1a910b9ca26cf857),
    ("maxwell", Storage::F32, 1, 0xa99d918b2cd4717f, "special (unmatched, n=1)", 0x46bd78de6111588e, 0xdd24a2c1b9dc6d52),
    ("maxwell", Storage::F32, 2, 0x02382a1928eeb872, "special (matched, n=2)", 0x46bd78de6111588e, 0xbcd26143855457e1),
    ("maxwell", Storage::F32, 4, 0x329472fef50bc588, "special (matched, n=4)", 0x46bd78de6111588e, 0x58a07c4e6967f0a3),
    ("maxwell", Storage::F16, 1, 0xd41dcbe650a39a02, "special fp16 (unmatched, n=1)", 0x9da7cea3ff962623, 0xbc4fb7475cf834d1),
    ("maxwell", Storage::F16, 2, 0x753e1e2f98d73c93, "special fp16 (partial, n=2)", 0x9da7cea3ff962623, 0x76c277f82318ffc3),
    ("maxwell", Storage::F16, 4, 0x8c4ac0280156d3b7, "special fp16 (matched, n=4)", 0x9da7cea3ff962623, 0x226ef0d45820e2ee),
    ("maxwell", Storage::Half2, 1, 0x92534726a932e098, "special half2 (unmatched, n=1)", 0xbe6f5ecb98d4138b, 0x1ebd09c64747d2e0),
    ("maxwell", Storage::Half2, 2, 0xb5be7f518d5f9a75, "special half2 (partial, n=2)", 0xbe6f5ecb98d4138b, 0xebff00d444874b24),
    ("maxwell", Storage::Half2, 4, 0xb6172dc6a657e253, "special half2 (matched, n=4)", 0xbe6f5ecb98d4138b, 0xe64beac569fee27d),
    ("maxwell", Storage::I8, 1, 0x8aed969e8bd2fb26, "special int8 (unmatched, n=1)", 0x6dd280d9e9438c64, 0xfc5ef401a8125f37),
    ("maxwell", Storage::I8, 2, 0xe7e154ca11504ae1, "special int8 (partial, n=2)", 0x6dd280d9e9438c64, 0xd4d5bad16127fbf7),
    ("maxwell", Storage::I8, 4, 0x5f06dbfa2a6e3f49, "special int8 (partial, n=4)", 0x6dd280d9e9438c64, 0x8fd72013db0107c5),
    ("maxwell", Storage::I8, 8, 0xea7d97a71d06541d, "special int8 (matched, n=8)", 0x6dd280d9e9438c64, 0xf14ebca6e61c6da0),
];

fn spec_named(name: &str) -> GpuSpec {
    match name {
        "kepler" => GpuSpec::kepler_k40m(),
        "maxwell" => GpuSpec::maxwell_like(),
        other => panic!("unknown spec {other}"),
    }
}

/// Runs one case and returns its four pinned values.
fn observe(spec: &str, storage: Storage, n: usize) -> (u64, String, u64, u64) {
    let problem = ConvProblem::special(40, 2, 3);
    let input = random_maps(1, 40, 40, 1501);
    let filters = random_filters(2, 1, 3, 1503);
    let conv = kernel(storage, n);
    let mut gpu = Gpu::new(spec_named(spec));
    let (run, trace) = capture(&mut gpu, |gpu| {
        conv.run(gpu, &problem, &input, &filters, SimMode::Full)
    });
    let run = run.unwrap_or_else(|e| panic!("{spec} {storage:?} n={n}: {e}"));
    let out = run.output.as_slice().iter().flat_map(|v| v.to_le_bytes());
    (
        fnv1a(trace),
        conv.name(),
        fnv1a(out),
        fnv1a(format!("{:?}", run.report.stats).into_bytes()),
    )
}

#[test]
fn every_storage_and_factor_is_pinned() {
    let mut cases = Vec::new();
    for spec in ["kepler", "maxwell"] {
        for (storage, factors) in [
            (Storage::F32, &[1usize, 2, 4][..]),
            (Storage::F16, &[1, 2, 4]),
            (Storage::Half2, &[1, 2, 4]),
            (Storage::I8, &[1, 2, 4, 8]),
        ] {
            for &n in factors {
                cases.push((spec, storage, n));
            }
        }
    }
    assert_eq!(GOLDEN.len(), cases.len(), "one golden row per case");
    for (&(spec, storage, n), golden) in cases.iter().zip(GOLDEN) {
        assert_eq!((spec, storage, n), (golden.0, golden.1, golden.2));
        let (trace, name, output, stats) = observe(spec, storage, n);
        let at = format!("{spec} {storage:?} n={n}");
        assert_eq!(name, golden.4, "{at}: name");
        assert_eq!(trace, golden.3, "{at}: KTRC bytes");
        assert_eq!(output, golden.5, "{at}: output bits");
        assert_eq!(stats, golden.6, "{at}: KernelStats");
    }
}

/// The fused-batch launch (`special-batch{b} …`): trace, outputs and
/// counters of one two-image grid on the Kepler part.
#[test]
fn fused_batch_is_pinned() {
    let problem = ConvProblem::special(40, 2, 3);
    let inputs: Vec<_> = (0..2).map(|i| random_maps(1, 40, 40, 1511 + i)).collect();
    let filters = random_filters(2, 1, 3, 1513);
    let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
    let (run, trace) = capture(&mut gpu, |gpu| {
        SpecialConv::default().run_fused_batch(gpu, &problem, &inputs, &filters, SimMode::Full)
    });
    let run = run.expect("fused batch");
    let out = run
        .outputs
        .iter()
        .flat_map(|o| o.as_slice().iter().flat_map(|v| v.to_le_bytes()));
    let got = (
        fnv1a(trace),
        fnv1a(out),
        fnv1a(format!("{:?}", run.report.stats).into_bytes()),
    );
    assert_eq!(
        got,
        (0x9c58f0ed459437e4, 0xce6d4f7f8e78606b, 0x03f8c562384b7a9e),
        "(KTRC bytes, output bits, KernelStats)"
    );
}

/// Whatever the planner routes to the special kernel runs: the plan and
/// the kernel share one validator, so they agree on the constant-memory
/// footprint and every other limit.
#[test]
fn planned_special_problems_run() {
    let mut plans = Vec::new();
    for spec in [GpuSpec::kepler_k40m(), GpuSpec::maxwell_like()] {
        for problem in [
            ConvProblem::special(40, 2, 3),
            // 17,500 int8 taps: 17.1 KiB at one byte per tap, but the
            // kernel keeps f32 taps (68.4 KiB) and the part has 64 KiB.
            ConvProblem::special(16, 700, 5),
            // 33,800 int8 taps of 13x13: 33 KiB at one byte per tap,
            // 132 KiB as f32 taps, 66.4 KiB even as packed half2 pairs.
            ConvProblem::special(16, 200, 13),
            // Past the kernel's per-thread tap buffer.
            ConvProblem::special(40, 1, 15),
        ] {
            for dtype in [DataType::F32, DataType::F16, DataType::I8] {
                for engine in [Engine::Auto, Engine::Special] {
                    if let Ok(plan @ EnginePlan::Special(_)) =
                        engine.plan_for(&spec, &problem, dtype)
                    {
                        if !plans.contains(&(spec.clone(), problem, plan)) {
                            plans.push((spec.clone(), problem, plan));
                        }
                    }
                }
            }
        }
    }
    for (spec, problem, plan) in &plans {
        let input = random_maps(1, problem.height, problem.width, 5);
        let filters = random_filters(problem.filters, 1, problem.k, 6);
        let mut gpu = Gpu::new(spec.clone());
        if let Err(e) =
            plan.instantiate()
                .run(&mut gpu, problem, &input, &filters, SimMode::Sampled(1))
        {
            panic!("planned {plan:?} for {problem} on {}: {e}", spec.name);
        }
    }
    assert!(plans.len() >= 8, "too few special plans: {plans:?}");
}
