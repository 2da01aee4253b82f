//! Trace-subsystem integration: attaching a [`TraceSink`] must be a pure
//! observer. Traced and untraced launches of a real kernel produce
//! bit-identical `KernelStats` and outputs, under both serial and threaded
//! execution — and the trace itself is identical however it was captured,
//! also when a block faults.

use kconv::core::{Convolution, GeneralConv, SpecialConv};
use kconv::sim::{
    lane_addrs_from, Gpu, GpuSpec, KernelStats, LaneMask, LaunchConfig, Parallelism, SimMode,
};
use kconv::tensor::{random_filters, random_maps, ConvProblem, FeatureMaps, FilterSet};
use kconv::trace::{
    affine_lanes, SharedBuffer, Trace, TraceSummary, TraceWriter, TwoLevel, WarpAccess,
};

/// Runs `conv`, optionally traced; returns stats, flat output and the
/// trace bytes (empty when untraced).
fn run(
    conv: &dyn Convolution,
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
    parallelism: Parallelism,
    traced: bool,
) -> (KernelStats, Vec<f32>, Vec<u8>) {
    let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
    let buf = SharedBuffer::new();
    if traced {
        gpu.set_trace_sink(Some(Box::new(TraceWriter::new(buf.clone()))));
    }
    let run = conv
        .run(&mut gpu, problem, input, filters, SimMode::Full)
        .expect("launch");
    gpu.set_trace_sink(None);
    (run.report.stats, run.output.as_slice().to_vec(), buf.take())
}

fn check_observer_effect(conv: &dyn Convolution, problem: ConvProblem, seed: u64) {
    let input = random_maps(problem.channels, problem.height, problem.width, seed);
    let filters = random_filters(problem.filters, problem.channels, problem.k, seed + 1);

    let (base_stats, base_out, _) =
        run(conv, &problem, &input, &filters, Parallelism::Serial, false);
    let mut traces = Vec::new();
    for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
        for traced in [false, true] {
            let (stats, out, bytes) = run(conv, &problem, &input, &filters, parallelism, traced);
            assert_eq!(
                stats,
                base_stats,
                "{}: stats drifted ({parallelism:?}, traced={traced})",
                conv.name()
            );
            assert_eq!(
                out,
                base_out,
                "{}: output drifted ({parallelism:?}, traced={traced})",
                conv.name()
            );
            if traced {
                traces.push(bytes);
            } else {
                assert!(bytes.is_empty());
            }
        }
    }
    // The serial and threaded captures are the same byte stream.
    assert_eq!(traces[0], traces[1], "{}: trace differs", conv.name());

    // And the trace's roll-up agrees with the launch counters.
    let s = &TraceSummary::from_bytes(&traces[0]).expect("readable trace")[0];
    assert_eq!(s.gm_ld_useful_bytes(), base_stats.gm_ld_bytes_useful);
    assert_eq!(s.gm_st_useful_bytes(), base_stats.gm_st_bytes_useful);
    assert_eq!(
        s.gm_transactions(),
        base_stats.gm_ld_transactions + base_stats.gm_st_transactions
    );
    assert_eq!(
        s.sm_cycles(),
        base_stats.sm_ld_cycles + base_stats.sm_st_cycles
    );
    assert_eq!(s.fma_lane_ops, base_stats.fma_lane_ops);
    assert!(!s.aborted);
}

#[test]
fn tracing_is_a_pure_observer_on_the_general_kernel() {
    check_observer_effect(
        &GeneralConv::table1(3),
        ConvProblem::general(34, 4, 64, 3),
        41,
    );
}

#[test]
fn tracing_is_a_pure_observer_on_the_special_kernel() {
    check_observer_effect(&SpecialConv::default(), ConvProblem::special(130, 8, 3), 43);
}

/// Blocks encode their events on the worker that runs them, so the
/// threaded trace is the serial one byte for byte — including a launch
/// whose block 5 faults: both deliver blocks 0–4 and an aborted end, and
/// the clean launch after it is framed the same way.
#[test]
fn faulting_launch_traces_identically_serial_and_threaded() {
    let capture = |parallelism: Parallelism| {
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
        let len = 8 * 64;
        let buf = gpu.alloc_f32(len).unwrap();
        gpu.fill_f32(buf, 1.0).unwrap();
        // Each warp reads an 8-wide tile, 4 rows of 8 floats with a
        // 64-float pitch: the two-level lane form. Block 5 reads past the
        // end of the buffer.
        let kernel = move |blk: &mut kconv::sim::BlockCtx| {
            let id = blk.dims.block_id as u64;
            let start = if id == 5 { len - 8 } else { 8 * id };
            blk.each_warp(|w| {
                let row = 64 * w.warp_id() as u64;
                let addrs =
                    lane_addrs_from(|l| buf.f32_addr(start + row + (l % 8 + 64 * (l / 8)) as u64));
                w.ld_global::<1>(&addrs, LaneMask::ALL);
            });
            blk.sync();
        };
        let (results, bytes) = kconv::trace::capture(&mut gpu, |gpu| {
            let faulted = gpu.launch(&LaunchConfig::new("tile", 8, 64), SimMode::Full, kernel);
            let clean = gpu.launch(&LaunchConfig::new("tile", 4, 64), SimMode::Full, kernel);
            (faulted.map(|_| ()), clean.map(|r| r.stats))
        });
        assert_eq!(results.0.unwrap_err().device_fault().unwrap().block, 5);
        (results.1.unwrap(), bytes)
    };
    let (serial_stats, serial) = capture(Parallelism::Serial);
    let (threaded_stats, threaded) = capture(Parallelism::Threads(4));
    assert_eq!(serial_stats, threaded_stats);
    assert_eq!(serial, threaded, "serial and threaded KTRC bytes differ");

    let trace = Trace::decode(&serial).unwrap();
    let [faulted, clean] = trace.launches() else {
        panic!("expected two launches");
    };
    assert!(faulted.end.aborted && !clean.end.aborted);
    let ids: Vec<u64> = faulted.blocks().map(|b| b.block_id).collect();
    assert_eq!(ids, [0, 1, 2, 3, 4], "only the clean prefix is delivered");
    assert_eq!(clean.block_count(), 4);
    // Every load is a two-level event with the tile's shape.
    for launch in [faulted, clean] {
        let mut tiles = 0;
        for block in launch.blocks() {
            block.for_each(|head, access| {
                if head.mask.is_empty() {
                    return; // a barrier arrival
                }
                let addrs = &access.addrs(head.mask);
                assert!(affine_lanes(head.mask, addrs).is_none());
                let form = TwoLevel::of(head.mask, addrs).expect("two-level");
                assert_eq!(access, WarpAccess::TwoLevel(form));
                assert_eq!((form.p, form.s1, form.s2), (8, 4, 256));
                tiles += 1;
            });
        }
        assert_eq!(tiles, 2 * launch.block_count());
    }
}
