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
    ("kepler", Storage::F32, 1, 0x2d74a6d27bcf3d32, "special (unmatched, n=1)", 0x46bd78de6111588e, 0x57e37a2015eff07c),
    ("kepler", Storage::F32, 2, 0xeda9d36bdd422c9a, "special (matched, n=2)", 0x46bd78de6111588e, 0x03177b8ebb9b8f17),
    ("kepler", Storage::F32, 4, 0x82ed8826dfb4cb77, "special (matched, n=4)", 0x46bd78de6111588e, 0x61f84d17248185f3),
    ("kepler", Storage::F16, 1, 0x7d19b7deebf6387f, "special fp16 (unmatched, n=1)", 0x9da7cea3ff962623, 0xbc4fb7475cf834d1),
    ("kepler", Storage::F16, 2, 0xb66e97410dc6a712, "special fp16 (partial, n=2)", 0x9da7cea3ff962623, 0x22a1c54270d7101d),
    ("kepler", Storage::F16, 4, 0x2c89d38223fe847e, "special fp16 (matched, n=4)", 0x9da7cea3ff962623, 0x49167be1d9e094d5),
    ("kepler", Storage::Half2, 1, 0x17b90f2d258efa37, "special half2 (unmatched, n=1)", 0xbe6f5ecb98d4138b, 0x1ebd09c64747d2e0),
    ("kepler", Storage::Half2, 2, 0x3353351bf2a19cfa, "special half2 (partial, n=2)", 0xbe6f5ecb98d4138b, 0x0566ae6dd5eff85e),
    ("kepler", Storage::Half2, 4, 0xa3695f73e8afc60c, "special half2 (matched, n=4)", 0xbe6f5ecb98d4138b, 0x9e5bfa294cc3d530),
    ("kepler", Storage::I8, 1, 0xcdd0b58ac9535937, "special int8 (unmatched, n=1)", 0x6dd280d9e9438c64, 0xfc5ef401a8125f37),
    ("kepler", Storage::I8, 2, 0x6ec634e025238b12, "special int8 (partial, n=2)", 0x6dd280d9e9438c64, 0xd4d5bad16127fbf7),
    ("kepler", Storage::I8, 4, 0x62603faf07acf5ca, "special int8 (partial, n=4)", 0x6dd280d9e9438c64, 0x8a294beb51c7dbfa),
    ("kepler", Storage::I8, 8, 0x801125500003c690, "special int8 (matched, n=8)", 0x6dd280d9e9438c64, 0x1a910b9ca26cf857),
    ("maxwell", Storage::F32, 1, 0x01c7463ccfb8e39c, "special (unmatched, n=1)", 0x46bd78de6111588e, 0xdd24a2c1b9dc6d52),
    ("maxwell", Storage::F32, 2, 0x566b8c4588941c23, "special (matched, n=2)", 0x46bd78de6111588e, 0xbcd26143855457e1),
    ("maxwell", Storage::F32, 4, 0xd024bbcf47969f49, "special (matched, n=4)", 0x46bd78de6111588e, 0x58a07c4e6967f0a3),
    ("maxwell", Storage::F16, 1, 0x46a8dfba76da9319, "special fp16 (unmatched, n=1)", 0x9da7cea3ff962623, 0xbc4fb7475cf834d1),
    ("maxwell", Storage::F16, 2, 0x77e7483280bb525a, "special fp16 (partial, n=2)", 0x9da7cea3ff962623, 0x76c277f82318ffc3),
    ("maxwell", Storage::F16, 4, 0x692e5ef59df4c658, "special fp16 (matched, n=4)", 0x9da7cea3ff962623, 0x226ef0d45820e2ee),
    ("maxwell", Storage::Half2, 1, 0xe8dbb1c36b492e69, "special half2 (unmatched, n=1)", 0xbe6f5ecb98d4138b, 0x1ebd09c64747d2e0),
    ("maxwell", Storage::Half2, 2, 0xf4ea4ad65ce23a1e, "special half2 (partial, n=2)", 0xbe6f5ecb98d4138b, 0xebff00d444874b24),
    ("maxwell", Storage::Half2, 4, 0x5e7fbf66fffb4412, "special half2 (matched, n=4)", 0xbe6f5ecb98d4138b, 0xe64beac569fee27d),
    ("maxwell", Storage::I8, 1, 0x89f8de6c5f630b4b, "special int8 (unmatched, n=1)", 0x6dd280d9e9438c64, 0xfc5ef401a8125f37),
    ("maxwell", Storage::I8, 2, 0xceb216fde05deb74, "special int8 (partial, n=2)", 0x6dd280d9e9438c64, 0xd4d5bad16127fbf7),
    ("maxwell", Storage::I8, 4, 0xf2ca4ab94180bc1a, "special int8 (partial, n=4)", 0x6dd280d9e9438c64, 0x8fd72013db0107c5),
    ("maxwell", Storage::I8, 8, 0xd09afe0134aeed9c, "special int8 (matched, n=8)", 0x6dd280d9e9438c64, 0xf14ebca6e61c6da0),
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
        (0x81175fa4e73ede09, 0xce6d4f7f8e78606b, 0x03f8c562384b7a9e),
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
