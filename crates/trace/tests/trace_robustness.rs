//! Fuzz-style robustness properties of the KTRC reader.
//!
//! The binary trace format crosses a trust boundary: `trace_report
//! --trace` and the replay tools accept arbitrary files. These tests feed
//! systematically corrupted KTRC v8 streams — every truncation prefix,
//! seeded bit flips, seeded byte splices and hostile header varints —
//! through [`Trace::decode`], the one reader, and assert the contract: a
//! typed [`TraceError`](kconv_trace::TraceError) or a well-formed result
//! whose views and roll-ups can be walked, never a panic, never an
//! abort-by-allocation, never a hang. The corpus comes from the real
//! writer and mixes affine, two-level, explicit, partial-mask and
//! zero-lane events, and runs of repeat records shaped like the special
//! kernel's constant-memory filter walk; hand-built events put the
//! two-level form's and the repeat record's hostile values in front of
//! the reader.

use kconv_sim::{
    GpuSpec, KernelStats, LaneMask, OverlapMode, TraceEvent, TraceLaunch, TraceOp, TraceSink,
    WARP_SIZE,
};
use kconv_tensor::rng::StdRng;
use kconv_trace::varint::{write_u64, zigzag};
use kconv_trace::{
    affine_addrs, affine_lanes, LaunchEnd, LaunchHeader, SharedBuffer, Trace, TraceError,
    TraceSummary, TraceWriter, TwoLevel, AFFINE, MAGIC, REPEAT, TWO_LEVEL, VERSION,
};

// The KTRC v8 record tags.
const TAG_LAUNCH_BEGIN: u8 = 1;
const TAG_BLOCK: u8 = 2;

fn event(op: TraceOp, warp: u32, stride: u64, base: u64) -> TraceEvent {
    let mut addrs = [0u64; WARP_SIZE];
    for (lane, a) in addrs.iter_mut().enumerate() {
        *a = base.wrapping_add((lane as u64).wrapping_mul(stride));
    }
    TraceEvent {
        op,
        warp,
        mask: LaneMask::ALL,
        lane_bytes: 4,
        addrs,
    }
}

fn masked(mut ev: TraceEvent, mask: u32) -> TraceEvent {
    ev.mask = LaneMask(mask);
    ev.canonical()
}

/// One block of every event shape the v8 writer distinguishes but the
/// repeat (see [`run_events`]).
fn mixed_events() -> Vec<TraceEvent> {
    let mut scattered = event(TraceOp::GmLdRo, 4, 4, 8192);
    scattered.addrs[5] = 3; // breaks the progression: explicit form
                            // Lane-indexed addresses under a gapped mask jump at the gap; an
                            // affine gapped event steps by active-lane rank instead.
    let mut gapped_affine = event(TraceOp::GmSt, 7, 0, 0);
    gapped_affine.mask = LaneMask(0x0f0f_f00f);
    gapped_affine.addrs = affine_addrs(gapped_affine.mask, 1 << 16, 16);
    let tile = TwoLevel {
        p: 8,
        base: 1 << 12,
        s1: 4,
        s2: 264,
    };
    let mut full_tile = event(TraceOp::SmLd, 8, 0, 0);
    full_tile.addrs = tile.addrs(LaneMask::ALL);
    let mut gapped_tile = event(TraceOp::GmLd, 9, 0, 0);
    gapped_tile.mask = LaneMask(0x0303_0303);
    gapped_tile.addrs = TwoLevel { p: 2, ..tile }.addrs(gapped_tile.mask);
    vec![
        event(TraceOp::GmLd, 0, 4, 4096),                     // affine, full
        gapped_affine,                                        // affine, gapped
        masked(event(TraceOp::SmLd, 1, 8, 512), 0x00ff_00ff), // explicit, gapped
        event(TraceOp::CmLd, 2, 0, 64),                       // affine, step 0
        event(TraceOp::SmSt, 3, 4u64.wrapping_neg(), 256),    // affine, step < 0
        scattered,                                            // explicit
        masked(event(TraceOp::CmLd, 5, 0, 96), 1 << 17),      // one lane
        masked(event(TraceOp::Bar, 6, 0, 0), 0),              // zero lanes
        full_tile,                                            // two-level, full
        gapped_tile,                                          // two-level, gapped
    ]
}

/// One block of the special kernel's shape: per filter and warp, the
/// warp-uniform constant loads of a 3×3 filter's taps — an affine event
/// with step 0, then eight repeats 4 B apart — and the output row's
/// store; one warp's taps continue from a two-level event instead.
fn run_events() -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for f in 0..2u64 {
        for warp in 0..2 {
            for tap in 0..9 {
                events.push(event(TraceOp::CmLd, warp, 0, (f * 9 + tap) * 4));
            }
            events.push(event(TraceOp::GmSt, warp, 4, 1 << 20));
        }
    }
    let tile = TwoLevel {
        p: 4,
        base: 0,
        s1: 4,
        s2: 512,
    };
    for row in 0..4 {
        let mut e = event(TraceOp::SmLd, 3, 0, 0);
        e.addrs = TwoLevel {
            base: 64 * row,
            ..tile
        }
        .addrs(LaneMask::ALL);
        events.push(e);
    }
    events
}

fn launch<'a>(kernel: &'a str, spec: &'a GpuSpec) -> TraceLaunch<'a> {
    TraceLaunch {
        kernel,
        grid_blocks: 2,
        executed_blocks: 2,
        threads_per_block: 64,
        smem_bytes: 2048,
        regs_per_thread: 32,
        overlap: OverlapMode::Prefetch,
        spec,
    }
}

/// The header [`Trace::decode`] must recover from `launch(kernel, ..)`.
fn header(kernel: &str) -> LaunchHeader {
    LaunchHeader {
        kernel: kernel.into(),
        grid_blocks: 2,
        executed_blocks: 2,
        threads_per_block: 64,
        smem_bytes: 2048,
        regs_per_thread: 32,
        overlap: OverlapMode::Prefetch,
        spec: GpuSpec::kepler_k40m(),
    }
}

/// What one launch of a corpus stream was written with: kernel,
/// `(block_id, events)`, and the end record the reader must report.
type Written = (&'static str, Vec<(u64, Vec<TraceEvent>)>, LaunchEnd);

/// A launch end with default stats: `aborted` is the writer's flag (set
/// when a new launch begins before the open one ended).
fn end(aborted: bool) -> LaunchEnd {
    LaunchEnd {
        aborted,
        fma_lane_ops: 0,
        stats: Some(KernelStats::default()),
    }
}

/// Two complete launches of mixed events.
fn complete_stream() -> Vec<u8> {
    let spec = GpuSpec::kepler_k40m();
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    for kernel in ["alpha", "beta"] {
        w.launch_begin(&launch(kernel, &spec));
        let events = mixed_events();
        w.write_block(0, &events);
        w.write_block(1, &events[2..5]);
        w.launch_end(&KernelStats::default());
    }
    buf.take()
}

/// A faulted launch (begin while open) followed by one that ends
/// mid-launch, so both synthesized-abort paths are part of the corpus.
fn aborted_stream() -> Vec<u8> {
    let spec = GpuSpec::kepler_k40m();
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    w.launch_begin(&launch("faulted", &spec));
    w.write_block(0, &mixed_events()[..3]);
    w.launch_begin(&launch("cut", &spec));
    w.write_block(0, &mixed_events()[3..]);
    drop(w);
    buf.take()
}

/// One launch of runs, cut mid-run into two blocks: the second block's
/// first event is written in full.
fn run_stream() -> Vec<u8> {
    let spec = GpuSpec::kepler_k40m();
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    w.launch_begin(&launch("runs", &spec));
    let events = run_events();
    w.write_block(0, &events[..14]);
    w.write_block(1, &events[14..]);
    w.launch_end(&KernelStats::default());
    buf.take()
}

fn corpus() -> Vec<(&'static str, Vec<u8>, Vec<Written>)> {
    let events = mixed_events();
    let runs = run_events();
    let complete = |kernel| {
        let blocks = vec![(0, events.clone()), (1, events[2..5].to_vec())];
        (kernel, blocks, end(false))
    };
    vec![
        (
            "complete",
            complete_stream(),
            vec![complete("alpha"), complete("beta")],
        ),
        (
            "aborted",
            aborted_stream(),
            vec![
                ("faulted", vec![(0, events[..3].to_vec())], end(true)),
                // Cut off by the end of the stream: the reader
                // synthesizes an aborted end without stats.
                (
                    "cut",
                    vec![(0, events[3..].to_vec())],
                    LaunchEnd {
                        aborted: true,
                        fma_lane_ops: 0,
                        stats: None,
                    },
                ),
            ],
        ),
        (
            "runs",
            run_stream(),
            vec![(
                "runs",
                vec![(0, runs[..14].to_vec()), (1, runs[14..].to_vec())],
                end(false),
            )],
        ),
    ]
}

#[test]
fn corpus_mixes_every_event_form() {
    let events = mixed_events();
    let affine = |e: &TraceEvent| e.mask.count() >= 2 && affine_lanes(e.mask, &e.addrs).is_some();
    assert!(events.iter().any(|e| affine(e) && e.mask == LaneMask::ALL));
    assert!(events.iter().any(|e| affine(e) && e.mask != LaneMask::ALL));
    let two_level = |e: &TraceEvent| !affine(e) && TwoLevel::of(e.mask, &e.addrs).is_some();
    assert!(events
        .iter()
        .any(|e| two_level(e) && e.mask == LaneMask::ALL));
    assert!(events
        .iter()
        .any(|e| two_level(e) && e.mask != LaneMask::ALL));
    assert!(events
        .iter()
        .any(|e| !affine(e) && !two_level(e) && e.mask.count() >= 2));
    assert!(events.iter().any(|e| e.mask.count() == 0));
    // The run stream repeats affine and two-level events, and its block
    // boundary (event 14) cuts an affine run.
    let runs = run_events();
    let repeats = |i: usize| {
        let (prev, e) = (&runs[i - 1], &runs[i]);
        (prev.op, prev.warp, prev.mask) == (e.op, e.warp, e.mask) && prev.addrs != e.addrs
    };
    assert!(affine(&runs[14]) && repeats(14) && repeats(15));
    let last = runs.len() - 1;
    assert!(two_level(&runs[last]) && repeats(last));
    for (name, bytes, _) in corpus() {
        assert_eq!(bytes[MAGIC.len()], VERSION, "{name}");
    }
}

/// Decodes `bytes`, which must return a typed result; an accepted stream
/// must also survive a walk of every block view (heads and lane
/// addresses) and the head roll-up. Returns whether it was accepted.
fn decode_checked(bytes: &[u8]) -> bool {
    let Ok(trace) = Trace::decode(bytes) else {
        return false;
    };
    for launch in trace.launches() {
        let mut events = 0;
        for block in launch.blocks() {
            let mut block_events = 0;
            block.for_each(|_, access| {
                access.addrs(LaneMask::ALL);
                block_events += 1;
            });
            assert_eq!(block_events, block.len());
            events += block_events;
        }
        assert_eq!(events, launch.event_count());
    }
    let summaries = TraceSummary::from_bytes(bytes).expect("decoded once, decodes again");
    assert_eq!(summaries.len(), trace.launches().len());
    true
}

#[test]
fn every_truncation_prefix_is_typed() {
    for (name, bytes, _) in corpus() {
        assert!(decode_checked(&bytes), "{name}: intact stream must decode");
        for cut in 0..bytes.len() {
            // Ok (a clean record boundary synthesizes an aborted launch)
            // or Err — either way typed, never a panic.
            decode_checked(&bytes[..cut]);
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for (name, bytes, _) in corpus() {
        let mut accepted = 0u32;
        for _ in 0..600 {
            let mut m = bytes.clone();
            let at = rng.gen_range(0..m.len());
            m[at] ^= 1 << rng.gen_range(0..8);
            if decode_checked(&m) {
                accepted += 1;
            }
        }
        // Some single-bit flips land in payload values (addresses,
        // counters) and still parse — that's fine; the property under
        // test is absence of panics, not rejection.
        assert!(accepted < 600, "{name}: every corruption accepted?");
    }
}

#[test]
fn seeded_byte_splices_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xDECADE);
    for (_, bytes, _) in corpus() {
        for _ in 0..200 {
            let mut m = bytes.clone();
            // Overwrite a random short run with random bytes, then cut a
            // random tail — compound corruption.
            let at = rng.gen_range(0..m.len());
            let run = 1 + rng.gen_range(0..8);
            for b in m.iter_mut().skip(at).take(run) {
                *b = (rng.next_u64() & 0xff) as u8;
            }
            let keep = 1 + rng.gen_range(0..m.len());
            m.truncate(keep);
            decode_checked(&m);
        }
    }
}

#[test]
fn hostile_event_counts_fail_without_huge_allocation() {
    // A block header claiming up to u64::MAX events backed by zero event
    // bytes: the reader must reject it with a typed error, and must not
    // reserve room for the claim first (a reserve of terabytes aborts the
    // process, which this test would report as a crash, not a failure).
    let spec = GpuSpec::kepler_k40m();
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    w.launch_begin(&launch("k", &spec));
    drop(w);
    let begin = buf.take();
    for claim in [
        (1 << 16) + 1,
        1 << 40,
        u64::MAX / WARP_SIZE as u64,
        u64::MAX,
    ] {
        // The writer's launch-begin record, then a block header with a
        // hostile count and no events after it.
        let mut bytes = begin.clone();
        bytes.push(TAG_BLOCK);
        write_u64(&mut bytes, 0); // block id
        write_u64(&mut bytes, claim); // hostile event count
        assert!(Trace::decode(&bytes).is_err(), "claim {claim}: must reject");
    }
}

#[test]
fn hostile_name_lengths_fail_typed() {
    for claim in [1u64 << 32, u64::MAX] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(TAG_LAUNCH_BEGIN);
        write_u64(&mut bytes, claim); // kernel-name length, no name bytes
        assert!(Trace::decode(&bytes).is_err(), "claim {claim}: must reject");
    }
}

/// The write path and the read path agree: every intact corpus stream
/// decodes to exactly the launches, blocks and events it was written
/// with.
#[test]
fn intact_corpus_decodes_identically_across_paths() {
    for (name, bytes, written) in corpus() {
        let trace = Trace::decode(&bytes).expect("intact stream decodes");
        assert_eq!(trace.launches().len(), written.len(), "{name}");
        for (d, (kernel, blocks, end)) in trace.launches().iter().zip(&written) {
            assert_eq!(d.header, header(kernel), "{name}: headers agree");
            assert_eq!(&d.end, end, "{name}: ends agree");
            let written_events: usize = blocks.iter().map(|(_, evs)| evs.len()).sum();
            assert_eq!(
                d.event_count(),
                written_events,
                "{name}: event counts agree"
            );
            assert_eq!(d.block_count(), blocks.len(), "{name}");
            for (view, (id, events)) in d.blocks().zip(blocks) {
                assert_eq!(view.block_id, *id, "{name}");
                assert_eq!(&view.to_events(), events, "{name}: events agree");
            }
        }
    }
}

/// A stream whose one launch holds one block of one hand-built event:
/// the writer's launch-begin record, then the block header and `event`.
fn stream_with_event(event: &[u8]) -> Vec<u8> {
    stream_with_events(1, event)
}

/// [`stream_with_event`] with a block that declares `count` events and
/// holds the hand-built `events` bytes.
fn stream_with_events(count: u64, events: &[u8]) -> Vec<u8> {
    let spec = GpuSpec::kepler_k40m();
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    w.launch_begin(&launch("hostile", &spec));
    drop(w);
    let mut bytes = buf.take();
    bytes.push(TAG_BLOCK);
    write_u64(&mut bytes, 0); // block id
    write_u64(&mut bytes, count); // event count
    bytes.extend_from_slice(events);
    bytes
}

/// A two-level event: `op_byte`, the head fields for `mask`, then `p` and
/// the three address fields as already-encoded varint bytes.
fn two_level_event(op_byte: u8, mask: u32, p: u8, fields: [&[u8]; 3]) -> Vec<u8> {
    let mut e = vec![op_byte];
    for v in [0, u64::from(!mask), 4] {
        write_u64(&mut e, v);
    }
    e.push(p);
    for f in fields {
        e.extend_from_slice(f);
    }
    e
}

fn varint(v: u64) -> Vec<u8> {
    let mut b = Vec::new();
    write_u64(&mut b, v);
    b
}

/// `bytes` must decode to a typed `Malformed` whose reason names `what`.
fn assert_malformed(bytes: &[u8], what: &str) {
    match Trace::decode(bytes) {
        Err(TraceError::Malformed { reason, .. }) => {
            assert!(reason.contains(what), "{reason:?} should name {what:?}")
        }
        other => panic!("expected Malformed naming {what:?}, got {other:?}"),
    }
}

#[test]
fn hostile_two_level_events_are_malformed() {
    let op = TraceOp::SmLd as u8 | TWO_LEVEL;
    let (base, s1, s2) = (varint(4096), varint(zigzag(4)), varint(zigzag(264)));
    let fields = [&base[..], &s1[..], &s2[..]];
    // A well-formed event in the same frame decodes.
    let good = stream_with_event(&two_level_event(op, u32::MAX, 8, fields));
    let trace = Trace::decode(&good).expect("well-formed two-level event");
    let got = trace.launches()[0].blocks().next().unwrap().to_events()[0].addrs;
    assert_eq!(
        (got[0], got[7], got[8], got[31]),
        (4096, 4124, 4360, 4096 + 28 + 3 * 264)
    );

    // A period outside {2, 4, 8, 16}.
    for p in [0u8, 1, 3, 32, 255] {
        let e = two_level_event(op, u32::MAX, p, fields);
        assert_malformed(&stream_with_event(&e), "two-level period");
    }
    // Lane 0, 1 or `p` inactive.
    for off in [0u32, 1, 8] {
        let e = two_level_event(op, !(1 << off), 8, fields);
        assert_malformed(&stream_with_event(&e), "inactive");
    }
    assert_malformed(
        &stream_with_event(&two_level_event(op, 0, 2, fields)),
        "inactive",
    );
    // Both lane-form flags: a repeat record, which cannot open a block.
    let e = two_level_event(op | AFFINE, u32::MAX, 8, fields);
    assert_malformed(&stream_with_event(&e), "block's first event");
    // `s1` or `s2` wider than 64 bits: eleven varint bytes, or ten whose
    // last carries more than the 64th bit.
    let wide: Vec<Vec<u8>> = vec![
        [vec![0xff; 10], vec![0x01]].concat(),
        [vec![0xff; 9], vec![0x7f]].concat(),
    ];
    for w in &wide {
        for at in [1, 2] {
            let mut fields = fields;
            fields[at] = w;
            let e = two_level_event(op, u32::MAX, 8, fields);
            assert_malformed(&stream_with_event(&e), "varint overflow");
        }
    }
}

/// An event's head and affine fields: `op_byte`, warp 0, `mask`, 4
/// bytes/lane, then `fields` as varints.
fn event_bytes(op_byte: u8, mask: u32, fields: &[u64]) -> Vec<u8> {
    let mut e = vec![op_byte];
    for v in [0, u64::from(!mask), 4].iter().chain(fields) {
        write_u64(&mut e, *v);
    }
    e
}

/// A repeat record of `op` shifting the previous event by `delta`.
fn repeat(op: TraceOp, delta: i64) -> Vec<u8> {
    [vec![op as u8 | REPEAT], varint(zigzag(delta))].concat()
}

#[test]
fn hostile_repeats_are_malformed() {
    let cm = TraceOp::CmLd as u8;
    let affine = event_bytes(cm | AFFINE, u32::MAX, &[64, 0]);
    let again = repeat(TraceOp::CmLd, 4);
    // A well-formed run in the same frame decodes: two heads, five events.
    let good = stream_with_events(5, &[affine.clone(), again.repeat(4)].concat());
    assert!(decode_checked(&good));
    let trace = Trace::decode(&good).unwrap();
    let got = trace.launches()[0].blocks().next().unwrap().to_events();
    let firsts: Vec<u64> = got.iter().map(|e| e.addrs[31]).collect();
    assert_eq!(firsts, [64, 68, 72, 76, 80]);

    // The block's first event, also after a block that ended with an
    // event it could repeat.
    assert_malformed(&stream_with_event(&again), "block's first event");
    let mut bytes = stream_with_event(&affine);
    bytes.push(TAG_BLOCK);
    write_u64(&mut bytes, 1); // block id
    write_u64(&mut bytes, 1); // event count
    bytes.extend_from_slice(&again);
    assert_malformed(&bytes, "block's first event");
    // After an explicit event, whether its lanes are scattered or it has
    // fewer than two (a progression the writer never writes compactly).
    for explicit in [
        event_bytes(cm, 0b111, &[64, zigzag(4), zigzag(8)]),
        event_bytes(cm, 1 << 5, &[64]),
        event_bytes(TraceOp::Bar as u8, 0, &[]),
    ] {
        let bytes = stream_with_events(2, &[explicit, again.clone()].concat());
        assert_malformed(&bytes, "after an explicit event");
    }
    // An op that differs from the previous event's.
    let bytes = stream_with_events(2, &[affine.clone(), repeat(TraceOp::SmLd, 4)].concat());
    assert_malformed(&bytes, "repeat record of sm.ld after a cm.ld event");
    // More identical records than the block declares: the run stops at
    // the count, and the next pair is read as a record tag.
    let bytes = stream_with_events(3, &[affine.clone(), again.repeat(5)].concat());
    match Trace::decode(&bytes) {
        Err(TraceError::Malformed { offset, reason }) => {
            assert!(reason.contains("unknown record tag"), "{reason}");
            assert_eq!(offset, bytes.len() - 3 * again.len() + 1);
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    // A truncated delta, alone and inside a run of one-byte deltas.
    for events in [
        [affine.clone(), vec![cm | REPEAT]].concat(),
        [affine.clone(), again.clone(), vec![cm | REPEAT, 0x80]].concat(),
    ] {
        assert_malformed(&stream_with_events(3, &events), "truncated repeat delta");
    }
    // A delta wider than 64 bits.
    let wide = [vec![cm | REPEAT], vec![0xff; 10], vec![0x01]].concat();
    assert_malformed(
        &stream_with_events(2, &[affine, wide].concat()),
        "varint overflow",
    );
}

/// Strides at the edges of `u64` are well-formed: the lanes wrap, and
/// every walk of the decoded form survives them.
#[test]
fn wrapping_two_level_strides_decode() {
    let op = TraceOp::GmLd as u8 | TWO_LEVEL;
    for (base, s1, s2) in [
        (u64::MAX, 1, u64::MAX),
        (0, i64::MIN as u64, i64::MAX as u64),
        (u64::MAX - 3, 1 << 63, 1),
    ] {
        let fields = [
            varint(base),
            varint(zigzag(s1 as i64)),
            varint(zigzag(s2 as i64)),
        ];
        let e = two_level_event(op, u32::MAX, 16, [&fields[0], &fields[1], &fields[2]]);
        let bytes = stream_with_event(&e);
        assert!(decode_checked(&bytes));
        let trace = Trace::decode(&bytes).unwrap();
        let got = trace.launches()[0].blocks().next().unwrap().to_events()[0].addrs;
        let want = TwoLevel {
            p: 16,
            base,
            s1,
            s2,
        }
        .addrs(LaneMask::ALL);
        assert_eq!(got, want);
        assert_eq!(got[17], base.wrapping_add(s1).wrapping_add(s2));
    }
}

/// A one-event stream whose launch embeds `spec`.
fn stream_with_spec(spec: &GpuSpec) -> Vec<u8> {
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    w.launch_begin(&launch("hostile-spec", spec));
    w.write_block(0, &mixed_events()[..1]);
    w.launch_end(&KernelStats::default());
    drop(w);
    buf.take()
}

/// A launch header whose spec the pricing models would divide, shift,
/// index or multiply by out of range, or the timing model divide by
/// zero or a non-finite rate, fails typed, naming the field; every preset
/// decodes.
#[test]
fn hostile_spec_fields_are_malformed() {
    let k40 = GpuSpec::kepler_k40m();
    for (spec, field) in [
        (
            GpuSpec {
                smem_banks: 0,
                ..k40
            },
            "smem banks",
        ),
        (
            GpuSpec {
                smem_banks: 100,
                ..k40
            },
            "smem banks",
        ),
        (
            GpuSpec {
                gm_transaction_bytes: 0,
                ..k40
            },
            "gm transaction bytes",
        ),
        (
            GpuSpec {
                gm_transaction_bytes: 96,
                ..k40
            },
            "gm transaction bytes",
        ),
        (
            GpuSpec {
                gm_store_transaction_bytes: 0,
                ..k40
            },
            "gm store transaction bytes",
        ),
        (
            GpuSpec {
                gm_transaction_bytes: 1 << 63,
                ..k40
            },
            "gm transaction bytes",
        ),
        (
            GpuSpec {
                cm_line_bytes: 0,
                ..k40
            },
            "cm line bytes",
        ),
        (
            GpuSpec {
                cm_line_bytes: u64::MAX,
                ..k40
            },
            "cm line bytes",
        ),
        (GpuSpec { sm_count: 0, ..k40 }, "sm count"),
        (
            GpuSpec {
                cores_per_sm: 0,
                ..k40
            },
            "cores per sm",
        ),
    ] {
        assert_malformed(&stream_with_spec(&spec), field);
    }
    // The timing model's rates: zero, negative, infinite or NaN would
    // time the launch as NaN.
    for bad in [0.0, -0.0, -1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        for (spec, field) in [
            (
                GpuSpec {
                    clock_ghz: bad,
                    ..k40
                },
                "clock ghz",
            ),
            (
                GpuSpec {
                    gm_bandwidth_gbs: bad,
                    ..k40
                },
                "gm bandwidth gbs",
            ),
            (
                GpuSpec {
                    issue_efficiency: bad,
                    ..k40
                },
                "issue efficiency",
            ),
        ] {
            assert_malformed(&stream_with_spec(&spec), field);
        }
    }
    for spec in GpuSpec::presets_all() {
        let trace = Trace::decode(&stream_with_spec(&spec)).expect(spec.name);
        assert_eq!(trace.launches()[0].header.spec, spec);
    }
}
