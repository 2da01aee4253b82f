//! Replay-farm integration through the public facade: the decoded
//! [`Trace`] form must reproduce what its writer was given, the decoded
//! and byte-stream replayers and the live simulator must agree bit for
//! bit, the fused multi-spec sweep must price every cell
//! exactly as the one-spec replay does, and the farm sweep must be
//! deterministic no matter how its cells are scheduled.

use kconv::core::{Convolution, GeneralConv, SpecialConv};
use kconv::replay::{
    replay, replay_decoded, replay_launch, sweep, sweep_cells, SweepCell, TargetSpec,
};
use kconv::sim::{
    BankWidth, Gpu, GpuSpec, KernelStats, LaneMask, OverlapMode, Parallelism, SimMode, TraceEvent,
    TraceLaunch, TraceOp, TraceSink, WARP_SIZE,
};
use kconv::tensor::{random_filters, random_maps, ConvProblem};
use kconv::trace::{LaunchEnd, LaunchHeader, SharedBuffer, Trace, TraceWriter};

/// splitmix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Captures a real kernel launch as KTRC bytes plus its live stats.
fn capture(
    conv: &dyn Convolution,
    problem: ConvProblem,
    seed: u64,
    mode: SimMode,
) -> (Vec<u8>, KernelStats) {
    let input = random_maps(problem.channels, problem.height, problem.width, seed);
    let filters = random_filters(problem.filters, problem.channels, problem.k, seed + 1);
    let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
    let (run, bytes) = kconv::trace::capture(&mut gpu, |gpu| {
        conv.run(gpu, &problem, &input, &filters, mode)
    });
    (bytes, run.expect("corpus kernel runs").report.stats)
}

/// One launch of [`random_stream`] as its writer was given it.
struct Written {
    header: LaunchHeader,
    blocks: Vec<(u64, Vec<TraceEvent>)>,
    end: LaunchEnd,
}

/// A synthetic multi-launch trace of seeded random events — the
/// adversarial input the real kernels never produce (partial masks,
/// zero-event blocks, every op kind, sampled grids, and for odd seeds a
/// last launch cut off before its end record) — and what it was written
/// with.
fn random_stream(seed: u64) -> (Vec<u8>, Vec<Written>) {
    let mut rng = Rng(0xFA12_0000 + seed);
    let spec = GpuSpec::kepler_k40m();
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    let mut written = Vec::new();
    for li in 0..1 + (seed % 3) {
        let blocks = 1 + (rng.next() % 4);
        let header = LaunchHeader {
            kernel: format!("rand-{seed}-{li}"),
            grid_blocks: blocks * (1 + rng.next() % 3),
            executed_blocks: blocks,
            threads_per_block: 64,
            smem_bytes: rng.next() % 48_000,
            regs_per_thread: 16 + rng.next() % 200,
            overlap: OverlapMode::from_u8((rng.next() % 3) as u8).unwrap(),
            spec: spec.clone(),
        };
        w.launch_begin(&TraceLaunch {
            kernel: &header.kernel,
            grid_blocks: header.grid_blocks as usize,
            executed_blocks: blocks as usize,
            threads_per_block: 64,
            smem_bytes: header.smem_bytes as u32,
            regs_per_thread: header.regs_per_thread as u32,
            overlap: header.overlap,
            spec: &spec,
        });
        let mut block_events = Vec::new();
        for block_id in 0..blocks {
            let events: Vec<TraceEvent> = (0..rng.next() % 16)
                .map(|_| {
                    let bits = match rng.next() % 3 {
                        0 => 1u64 << (rng.next() % 32),
                        1 => u32::MAX as u64,
                        _ => rng.next(),
                    };
                    let mask = LaneMask::from_fn(|lane| bits & (1 << lane) != 0);
                    let mut addrs = [0u64; WARP_SIZE];
                    for (lane, slot) in addrs.iter_mut().enumerate() {
                        if mask.is_active(lane) {
                            *slot = rng.next() % (1 << 40);
                        }
                    }
                    TraceEvent {
                        op: TraceOp::ALL[(rng.next() % 6) as usize],
                        warp: rng.next() as u32,
                        mask,
                        lane_bytes: 1 << (rng.next() % 4),
                        addrs,
                    }
                })
                .collect();
            w.write_block(block_id as usize, &events);
            block_events.push((block_id, events));
        }
        let stats = KernelStats {
            fma_lane_ops: rng.next() % (1 << 40),
            alu_lane_ops: rng.next() % (1 << 40),
            barriers: rng.next() % (1 << 20),
            ..KernelStats::default()
        };
        let end = if seed.is_multiple_of(2) || li < seed % 3 {
            w.launch_end(&stats);
            LaunchEnd {
                aborted: false,
                fma_lane_ops: stats.fma_lane_ops,
                stats: Some(stats),
            }
        } else {
            LaunchEnd {
                aborted: true,
                fma_lane_ops: 0,
                stats: None,
            }
        };
        written.push(Written {
            header,
            blocks: block_events,
            end,
        });
    }
    (buf.take(), written)
}

/// Every spec the farm sweeps is a well-formed capture spec: a trace
/// whose header embeds it decodes, and replay under it times the launch.
#[test]
fn every_grid_spec_replays_as_a_capture_spec() {
    for spec in kconv_bench::farm::spec_grid() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        w.launch_begin(&TraceLaunch {
            kernel: "grid",
            grid_blocks: 1,
            executed_blocks: 1,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        w.write_block(0, &[]);
        w.launch_end(&KernelStats {
            fma_lane_ops: 1 << 20,
            blocks_executed: 1,
            blocks_total: 1,
            ..Default::default()
        });
        drop(w);
        let reports = replay(&buf.take(), &TargetSpec::Capture).expect(spec.name);
        let timing = reports[0].timing.as_ref().expect("timed");
        assert!(timing.t_total.is_finite(), "{}: {timing:?}", spec.name);
    }
}

#[test]
fn decoded_trace_round_trips_the_written_events_on_random_corpora() {
    for seed in 0..8 {
        let (bytes, written) = random_stream(seed);
        let decoded = Trace::decode(&bytes).expect("decodes");
        assert_eq!(decoded.launches().len(), written.len(), "seed {seed}");
        for (d, w) in decoded.launches().iter().zip(&written) {
            assert_eq!(d.header, w.header, "seed {seed}");
            assert_eq!(d.end, w.end, "seed {seed}");
            assert_eq!(d.block_count(), w.blocks.len(), "seed {seed}");
            for (view, (block_id, events)) in d.blocks().zip(&w.blocks) {
                assert_eq!(view.block_id, *block_id, "seed {seed}");
                assert_eq!(&view.to_events(), events, "seed {seed}");
            }
        }
    }
}

#[test]
fn decoded_and_byte_replay_agree_on_random_corpora_under_every_preset() {
    for seed in 0..6 {
        let (bytes, _) = random_stream(seed);
        let trace = Trace::decode(&bytes).expect("decodes");
        for spec in GpuSpec::presets_all() {
            let target = TargetSpec::Spec(spec);
            let from_bytes = replay(&bytes, &target).expect("byte path");
            let from_decoded = replay_decoded(&trace, &target).expect("decoded path");
            assert_eq!(from_bytes, from_decoded, "seed {seed}");
        }
    }
}

#[test]
fn farm_sweep_is_deterministic_and_reproduces_live_stats() {
    let (special, special_live) = capture(
        &SpecialConv::default(),
        ConvProblem::special(66, 8, 3),
        11,
        SimMode::Full,
    );
    let (general, general_live) = capture(
        &GeneralConv::table1(3),
        ConvProblem::general(34, 4, 64, 3),
        13,
        SimMode::Full,
    );
    let traces = vec![
        Trace::decode(&special).expect("decodes"),
        Trace::decode(&general).expect("decodes"),
    ];

    // Replaying each capture under its own spec (the grid's anchor)
    // reproduces the live counters bit for bit.
    for (trace, live) in traces.iter().zip([&special_live, &general_live]) {
        let r = &replay_decoded(trace, &TargetSpec::Capture).expect("replays")[0];
        assert_eq!(&r.stats, live);
    }

    let specs = GpuSpec::kepler_k40m()
        .grid()
        .bank_widths(&[BankWidth::B4, BankWidth::B8])
        .line_sizes(&[64, 128])
        .ro_cache_bytes(&[24 * 1024, 48 * 1024])
        .build()
        .expect("grid");
    assert_eq!(specs.len(), 8);

    let baseline = sweep(&traces, &specs, Parallelism::Serial);
    assert_eq!(baseline.len(), traces.len() * specs.len());

    // Shuffled cell order + any thread count must not change a bit.
    let mut cells: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..specs.len()).map(move |s| (t, s)))
        .collect();
    cells.reverse();
    cells.swap(3, 9);
    for threads in [2, 5] {
        let got = sweep_cells(&traces, &specs, &cells, Parallelism::Threads(threads));
        assert_eq!(got.len(), baseline.len());
        for (g, b) in got.iter().zip(&baseline) {
            assert_eq!((g.trace, g.spec, g.launch), (b.trace, b.spec, b.launch));
            assert_eq!(g.report.as_ref().unwrap(), b.report.as_ref().unwrap());
        }
    }
}

/// xorshift shuffle — deterministic, dependency-free.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// The one-spec reference for a cell list: `replay_launch` per
/// `(trace, spec, launch)`, in the sweep's canonical ascending order.
fn per_spec_reference(
    traces: &[Trace],
    specs: &[GpuSpec],
    cells: &[(usize, usize)],
) -> Vec<(usize, usize, usize, kconv::replay::ReplayReport)> {
    let mut pairs = cells.to_vec();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
        .into_iter()
        .flat_map(|(t, s)| {
            let target = TargetSpec::Spec(specs[s].clone());
            traces[t]
                .launches()
                .iter()
                .enumerate()
                .map(move |(l, launch)| {
                    let report = replay_launch(launch, &target).expect("explicit spec replays");
                    (t, s, l, report)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

fn assert_cells_equal(
    got: &[SweepCell],
    want: &[(usize, usize, usize, kconv::replay::ReplayReport)],
    what: &str,
) {
    assert_eq!(got.len(), want.len(), "{what}: cell count");
    for (g, (t, s, l, report)) in got.iter().zip(want) {
        assert_eq!((g.trace, g.spec, g.launch), (*t, *s, *l), "{what}: order");
        assert_eq!(
            g.report.as_ref().expect("swept cell priced"),
            report,
            "{what}: cell ({t}, {s}, {l})"
        );
    }
}

#[test]
fn fused_sweep_equals_per_spec_replay_launch_on_every_spec_set() {
    let (special, _) = capture(
        &SpecialConv::default(),
        ConvProblem::special(66, 8, 3),
        11,
        SimMode::Full,
    );
    let (sampled, _) = capture(
        &GeneralConv::table1(3),
        ConvProblem::general(34, 4, 64, 3),
        13,
        SimMode::Sampled(2),
    );
    let mut traces = vec![
        Trace::decode(&special).expect("decodes"),
        Trace::decode(&sampled).expect("decodes"),
    ];
    traces.extend((0..4).map(|seed| Trace::decode(&random_stream(seed).0).expect("decodes")));
    let launches = || traces.iter().flat_map(Trace::launches);
    assert!(launches().any(|l| l.end.aborted), "an aborted launch");
    assert!(
        launches().any(|l| !l.end.aborted && l.header.executed_blocks < l.header.grid_blocks),
        "a sampled launch"
    );
    for op in TraceOp::ALL {
        assert!(
            launches().any(|l| l.blocks().any(|b| b.to_events().iter().any(|e| e.op == op))),
            "no {op} events in the corpus"
        );
    }

    // Hand-built specs that move the keys the farm grid leaves fixed: the
    // store transaction size, the bank count, a line size that is not a
    // power of two, and a read-only cache clamped to a single line.
    let anchor = GpuSpec::kepler_k40m();
    let hand_built = vec![
        GpuSpec {
            gm_store_transaction_bytes: 64,
            ..anchor.clone()
        },
        GpuSpec {
            smem_banks: 16,
            ..anchor.clone()
        },
        GpuSpec {
            cm_line_bytes: 48,
            ..anchor.clone()
        },
        GpuSpec {
            ro_cache_bytes: 64,
            ..anchor.clone()
        },
        GpuSpec {
            gm_store_transaction_bytes: 128,
            smem_banks: 16,
            cm_line_bytes: 96,
            ..GpuSpec::fermi_m2090()
        },
        anchor.clone(),
    ];

    for (name, specs) in [
        ("spec_grid", kconv_bench::farm::spec_grid()),
        ("presets_all", GpuSpec::presets_all()),
        ("hand-built", hand_built),
    ] {
        let all: Vec<(usize, usize)> = (0..traces.len())
            .flat_map(|t| (0..specs.len()).map(move |s| (t, s)))
            .collect();
        let want = per_spec_reference(&traces, &specs, &all);
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(3),
        ] {
            let what = format!("{name}, sweep, {parallelism:?}");
            assert_cells_equal(&sweep(&traces, &specs, parallelism), &want, &what);
        }

        // A shuffled request for a subset, with duplicates: each trace's
        // launches are priced under a different spec subset.
        let mut cells: Vec<(usize, usize)> = all
            .iter()
            .copied()
            .filter(|&(t, s)| (t + 2 * s) % 3 != 0)
            .collect();
        cells.extend(all.iter().copied().step_by(4));
        let want = per_spec_reference(&traces, &specs, &cells);
        for (i, parallelism) in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(3),
        ]
        .into_iter()
        .enumerate()
        {
            shuffle(&mut cells, 0x5EED + i as u64);
            let what = format!("{name}, shuffled cells, {parallelism:?}");
            let got = sweep_cells(&traces, &specs, &cells, parallelism);
            assert_cells_equal(&got, &want, &what);
        }
    }
}
