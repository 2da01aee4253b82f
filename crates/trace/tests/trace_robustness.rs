//! Fuzz-style robustness properties of the KTRC readers.
//!
//! The binary trace format crosses a trust boundary: `trace_report
//! --trace` and the replay tools accept arbitrary files. These tests feed
//! systematically corrupted KTRC v5 streams — every truncation prefix,
//! seeded bit flips, seeded byte splices and hostile header varints —
//! through all three reader entry points ([`Trace::decode`], the
//! streaming [`read_trace`] visitor, and [`read_launches`]) and assert
//! the contract: a typed [`TraceError`] or a well-formed result, never a
//! panic, never an abort-by-allocation, never a hang. The corpus comes
//! from the real writer and mixes affine, explicit, partial-mask and
//! zero-lane events.

use kconv_sim::{
    GpuSpec, KernelStats, LaneMask, OverlapMode, TraceEvent, TraceLaunch, TraceOp, TraceSink,
    WARP_SIZE,
};
use kconv_tensor::rng::StdRng;
use kconv_trace::varint::write_u64;
use kconv_trace::{
    affine_addrs, affine_lanes, read_launches, read_trace, SharedBuffer, Trace, TraceVisitor,
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

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("complete", complete_stream()),
        ("aborted", aborted_stream()),
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
    for (name, bytes) in corpus() {
        assert_eq!(bytes[MAGIC.len()], VERSION, "{name}");
    }
}

/// A visitor that exercises the streaming path and asserts its delivery
/// contract: events only inside an open block of an open launch, and
/// never more per block than the header claimed.
#[derive(Default)]
struct Probe {
    launches_open: u64,
    launches_closed: u64,
    claimed: u64,
    delivered: u64,
    events_total: u64,
}

impl TraceVisitor for Probe {
    fn launch_begin(&mut self, _header: &kconv_trace::LaunchHeader) {
        self.launches_open += 1;
    }
    fn block_begin(&mut self, _block_id: u64, event_count: u64) {
        assert!(
            self.launches_open > self.launches_closed,
            "block outside launch"
        );
        self.claimed = event_count;
        self.delivered = 0;
    }
    fn event(&mut self, _block_id: u64, _ev: &TraceEvent) {
        self.delivered += 1;
        self.events_total += 1;
        assert!(
            self.delivered <= self.claimed,
            "more events than the block claimed"
        );
    }
    fn launch_end(&mut self, _end: &kconv_trace::LaunchEnd) {
        self.launches_closed += 1;
    }
}

/// Runs all three reader entry points on `bytes`; each must return a
/// typed result. The return value is whether every path accepted it.
fn decode_all(bytes: &[u8]) -> bool {
    let a = Trace::decode(bytes).is_ok();
    let b = read_launches(bytes).is_ok();
    let mut probe = Probe::default();
    let c = read_trace(bytes, &mut probe).is_ok();
    assert_eq!(
        a, b,
        "Trace::decode and read_launches must agree on validity"
    );
    assert_eq!(b, c, "read_launches and read_trace must agree on validity");
    a
}

#[test]
fn every_truncation_prefix_is_typed() {
    for (name, bytes) in corpus() {
        assert!(decode_all(&bytes), "{name}: intact stream must decode");
        for cut in 0..bytes.len() {
            // Ok (a clean record boundary synthesizes an aborted launch)
            // or Err — either way typed, never a panic.
            decode_all(&bytes[..cut]);
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for (name, bytes) in corpus() {
        let mut accepted = 0u32;
        for _ in 0..600 {
            let mut m = bytes.clone();
            let at = rng.gen_range(0..m.len());
            m[at] ^= 1 << rng.gen_range(0..8);
            if decode_all(&m) {
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
    for (_, bytes) in corpus() {
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
            decode_all(&m);
        }
    }
}

#[test]
fn hostile_event_counts_fail_without_huge_allocation() {
    // A block header claiming up to u64::MAX events backed by zero event
    // bytes: the readers must reject it with a typed error, and the
    // clamped pre-allocation (`RESERVE_EVENTS_MAX`) must keep them from
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
        assert!(read_launches(&bytes).is_err());
        let mut probe = Probe::default();
        assert!(read_trace(&bytes, &mut probe).is_err());
        // The streaming path delivered at most the bytes that existed.
        assert_eq!(probe.events_total, 0);
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
        assert!(read_launches(&bytes).is_err());
    }
}

#[test]
fn intact_corpus_decodes_identically_across_paths() {
    for (name, bytes) in corpus() {
        let trace = Trace::decode(&bytes).expect("intact stream decodes");
        let launches = read_launches(&bytes).expect("intact stream decodes");
        assert_eq!(trace.launches().len(), launches.len(), "{name}");
        for (d, l) in trace.launches().iter().zip(&launches) {
            assert_eq!(d.header, l.header, "{name}: headers agree");
            assert_eq!(d.end, l.end, "{name}: ends agree");
            let streamed: usize = l.blocks.iter().map(|(_, evs)| evs.len()).sum();
            assert_eq!(d.event_count(), streamed, "{name}: event counts agree");
            for (view, (id, events)) in d.blocks().zip(&l.blocks) {
                assert_eq!(view.block_id, *id, "{name}");
                assert_eq!(&view.to_events(), events, "{name}: events agree");
            }
        }
    }
}
