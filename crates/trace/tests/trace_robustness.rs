//! Fuzz-style robustness properties of the KTRC reader.
//!
//! The binary trace format crosses a trust boundary: `trace_report
//! --trace` and the replay tools accept arbitrary files. These tests feed
//! systematically corrupted KTRC v5 streams — every truncation prefix,
//! seeded bit flips, seeded byte splices and hostile header varints —
//! through [`Trace::decode`], the one reader, and assert the contract: a
//! typed [`TraceError`](kconv_trace::TraceError) or a well-formed result
//! whose views and roll-ups can be walked, never a panic, never an
//! abort-by-allocation, never a hang. The corpus comes from the real
//! writer and mixes affine, explicit, partial-mask and zero-lane events.

use kconv_sim::{
    GpuSpec, KernelStats, LaneMask, OverlapMode, TraceEvent, TraceLaunch, TraceOp, TraceSink,
    WARP_SIZE,
};
use kconv_tensor::rng::StdRng;
use kconv_trace::varint::write_u64;
use kconv_trace::{
    affine_addrs, affine_lanes, LaunchEnd, LaunchHeader, SharedBuffer, Trace, TraceSummary,
    TraceWriter, MAGIC, VERSION,
};

// The KTRC v5 record tags.
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
        transactions: 2,
        cycles: 3,
        addrs,
    }
}

fn masked(mut ev: TraceEvent, mask: u32) -> TraceEvent {
    ev.mask = LaneMask(mask);
    ev.canonical()
}

/// One block of every event shape the v5 writer distinguishes.
fn mixed_events() -> Vec<TraceEvent> {
    let mut scattered = event(TraceOp::GmLdRo, 4, 4, 8192);
    scattered.addrs[5] = 3; // breaks the progression: explicit form
                            // Lane-indexed addresses under a gapped mask jump at the gap; an
                            // affine gapped event steps by active-lane rank instead.
    let mut gapped_affine = event(TraceOp::GmSt, 7, 0, 0);
    gapped_affine.mask = LaneMask(0x0f0f_f00f);
    gapped_affine.addrs = affine_addrs(gapped_affine.mask, 1 << 16, 16);
    vec![
        event(TraceOp::GmLd, 0, 4, 4096),                     // affine, full
        gapped_affine,                                        // affine, gapped
        masked(event(TraceOp::SmLd, 1, 8, 512), 0x00ff_00ff), // explicit, gapped
        event(TraceOp::CmLd, 2, 0, 64),                       // affine, step 0
        event(TraceOp::SmSt, 3, 4u64.wrapping_neg(), 256),    // affine, step < 0
        scattered,                                            // explicit
        masked(event(TraceOp::CmLd, 5, 0, 96), 1 << 17),      // one lane
        masked(event(TraceOp::Bar, 6, 0, 0), 0),              // zero lanes
    ]
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
        w.block_events(0, &events);
        w.block_events(1, &events[2..5]);
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
    w.block_events(0, &mixed_events()[..3]);
    w.launch_begin(&launch("cut", &spec));
    w.block_events(0, &mixed_events()[3..]);
    drop(w);
    buf.take()
}

fn corpus() -> Vec<(&'static str, Vec<u8>, Vec<Written>)> {
    let events = mixed_events();
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
    ]
}

#[test]
fn corpus_mixes_every_event_form() {
    let events = mixed_events();
    let affine = |e: &TraceEvent| e.mask.count() >= 2 && affine_lanes(e.mask, &e.addrs).is_some();
    assert!(events.iter().any(|e| affine(e) && e.mask == LaneMask::ALL));
    assert!(events.iter().any(|e| affine(e) && e.mask != LaneMask::ALL));
    assert!(events.iter().any(|e| !affine(e) && e.mask.count() >= 2));
    assert!(events.iter().any(|e| e.mask.count() == 0));
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
            block.for_each(|_, _| events += 1);
            assert_eq!(block.heads().len(), block.len());
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
    // bytes: the reader must reject it with a typed error, and the
    // clamped pre-allocation (`RESERVE_EVENTS_MAX`) must keep it from
    // reserving terabytes first (an unclamped reserve aborts the process,
    // which this test would report as a crash, not a failure).
    let spec = GpuSpec::kepler_k40m();
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    w.launch_begin(&launch("k", &spec));
    drop(w);
    let begin = buf.take();
    for claim in [
        kconv_trace::RESERVE_EVENTS_MAX + 1,
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
