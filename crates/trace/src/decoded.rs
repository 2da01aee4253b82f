//! The one KTRC reader: parse the byte stream **once**, re-price it many
//! times.
//!
//! [`Trace::decode`] holds the only parse loop over the format of
//! [`crate::format`]. The replay farm prices one capture under dozens of
//! hypothetical [`GpuSpec`](kconv_sim::GpuSpec)s, and the roll-ups
//! ([`TraceSummary`](crate::TraceSummary),
//! [`EfficiencyReport`](crate::EfficiencyReport)) walk it once more, so a
//! [`Trace`] materializes the stream into flat slabs per launch —
//!
//! * fixed-size [`EventHead`]s (op, warp, mask, bytes/lane, recorded
//!   transactions/cycles) that also carry the lane addresses of every
//!   **affine** event compactly, as `first` and `step` — the form nearly
//!   every convolution-kernel warp access takes, and every 0- or 1-lane
//!   event,
//! * one `[base, s1, s2]` row (24 bytes) per **two-level** event
//!   ([`TwoLevel`]), its period riding in the head,
//! * one `u64` address slab holding [`WARP_SIZE`] canonical addresses
//!   (inactive lanes zeroed) for each **explicit** event only, and
//! * block spans (`block_id` + event range)
//!
//! — no per-event `Vec`, no pointer chasing. Consumers walk a block with
//! [`BlockView::for_each`], which lends each event's lanes in their
//! decoded form, a [`WarpAccess`]: the form-taking pricing of
//! [`kconv_sim::pricing`] prices it without expanding the lanes, and
//! [`WarpAccess::addrs`] expands it for consumers that read addresses one
//! by one. Consumers that need no addresses read [`BlockView::heads`].
//!
//! The decoded form is *lossless*: every header, end record and event
//! field the writer was given is recoverable (see
//! [`BlockView::to_events`]), which the round-trip property tests pin
//! against the writer's input.

use kconv_sim::pricing::{affine_lanes, TwoLevel, WarpAccess};
use kconv_sim::{LaneMask, TraceEvent, TraceOp, WarpAddrs, WARP_SIZE};

use crate::format::{
    decode_end, decode_event, decode_header, LaunchEnd, LaunchHeader, MAGIC, TAG_BLOCK,
    TAG_LAUNCH_BEGIN, TAG_LAUNCH_END, VERSION,
};
use crate::varint::Cursor;
use crate::{TraceError, RESERVE_EVENTS_MAX};

/// How one event's lane addresses are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lanes {
    /// In the head's `first` and `step` (see [`affine_lanes`]).
    Affine,
    /// In the launch's two-level slab, at index `first`; the period
    /// rides here.
    TwoLevel { p: u8 },
    /// In the launch's address slab, at row `first`.
    Explicit,
}

/// The fixed-size part of one traced warp instruction, plus where its
/// lane addresses live: inline for affine events, in one of the launch's
/// side slabs for the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHead {
    /// Which instruction.
    pub op: TraceOp,
    /// Issuing warp id within its block.
    pub warp: u32,
    /// Active lanes.
    pub mask: LaneMask,
    /// Bytes accessed per active lane.
    pub lane_bytes: u32,
    /// Transactions charged at capture time.
    pub transactions: u32,
    /// Cycles charged at capture time.
    pub cycles: u32,
    /// The lane form. (Keeping `first` and `step` beside this two-byte
    /// enum rather than inside it keeps the head at 40 bytes.)
    pub(crate) lanes: Lanes,
    /// Affine: the lowest active lane's address; otherwise the index into
    /// the form's slab.
    pub(crate) first: u64,
    /// Affine: the address step between successive active lanes.
    pub(crate) step: u64,
}

/// One block's event range inside a [`DecodedLaunch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockSpan {
    id: u64,
    start: usize,
    len: usize,
}

/// One launch of a [`Trace`]: header, end record, and the flat event slabs.
#[derive(Debug, Clone)]
pub struct DecodedLaunch {
    /// Launch metadata, including the capture spec.
    pub header: LaunchHeader,
    /// How the launch ended (synthesized aborted when the stream stops
    /// inside the launch or a new launch begins before its end record).
    pub end: LaunchEnd,
    blocks: Vec<BlockSpan>,
    heads: Vec<EventHead>,
    /// `[base, s1, s2]` of each two-level event.
    two_level: Vec<[u64; 3]>,
    /// Lane addresses of the explicit events, `WARP_SIZE` per event,
    /// inactive lanes zeroed.
    addrs: Vec<u64>,
    /// Events per op, indexed by [`TraceOp::index`].
    op_events: [usize; TraceOp::COUNT],
}

impl DecodedLaunch {
    fn new(header: LaunchHeader) -> Self {
        DecodedLaunch {
            header,
            end: LaunchEnd {
                aborted: true,
                fma_lane_ops: 0,
                stats: None,
            },
            blocks: Vec::new(),
            heads: Vec::new(),
            two_level: Vec::new(),
            addrs: Vec::new(),
            op_events: [0; TraceOp::COUNT],
        }
    }

    /// Number of traced events across all blocks.
    pub fn event_count(&self) -> usize {
        self.heads.len()
    }

    /// Number of block records.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of events of one op.
    pub fn op_events(&self, op: TraceOp) -> usize {
        self.op_events[op.index()]
    }

    /// Number of events stored as explicit lane addresses: the ones whose
    /// pricing always reads their lanes one by one. The rest are affine
    /// or two-level.
    pub fn explicit_events(&self) -> usize {
        self.addrs.len() / WARP_SIZE
    }

    /// The blocks in delivery order, each a borrowed view into the slabs.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = BlockView<'_>> + '_ {
        self.blocks.iter().map(|span| BlockView {
            block_id: span.id,
            heads: &self.heads[span.start..span.start + span.len],
            two_level: &self.two_level,
            addrs: &self.addrs,
        })
    }

    /// Appends one affine event (its `first` and `step` already in
    /// `head`) to the block being decoded.
    #[inline]
    pub(crate) fn push_affine(&mut self, head: EventHead) {
        self.push(head);
    }

    /// Appends one two-level event to the block being decoded.
    #[inline]
    pub(crate) fn push_two_level(&mut self, mut head: EventHead, form: TwoLevel) {
        head.lanes = Lanes::TwoLevel { p: form.p };
        head.first = self.two_level.len() as u64;
        self.two_level.push([form.base, form.s1, form.s2]);
        self.push(head);
    }

    /// Appends one explicit event to the block being decoded, given its
    /// canonical addresses: stored compactly when they form a progression
    /// after all (every 0- and 1-lane event does), as a slab row
    /// otherwise.
    #[inline]
    pub(crate) fn push_explicit(&mut self, mut head: EventHead, addrs: &WarpAddrs) {
        match affine_lanes(head.mask, addrs) {
            Some((first, step)) => {
                (head.lanes, head.first, head.step) = (Lanes::Affine, first, step);
            }
            None => {
                head.lanes = Lanes::Explicit;
                head.first = (self.addrs.len() / WARP_SIZE) as u64;
                self.addrs.extend_from_slice(addrs);
            }
        }
        self.push(head);
    }

    #[inline]
    fn push(&mut self, head: EventHead) {
        self.op_events[head.op.index()] += 1;
        self.heads.push(head);
    }
}

/// Borrowed view of one block's events inside a [`DecodedLaunch`].
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    /// The block id recorded by the writer.
    pub block_id: u64,
    heads: &'a [EventHead],
    /// The launch's whole two-level slab.
    two_level: &'a [[u64; 3]],
    /// The launch's whole explicit-address slab.
    addrs: &'a [u64],
}

impl BlockView<'_> {
    /// Number of events in this block.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the block recorded no events.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The block's event heads in issue order, for consumers that read no
    /// lane addresses.
    pub fn heads(&self) -> &[EventHead] {
        self.heads
    }

    /// Calls `f` on the block's events in issue order, each head paired
    /// with its lanes in decoded form: affine and two-level events as
    /// their form, explicit ones as a borrow of the slab.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(&EventHead, WarpAccess<'_>)) {
        for head in self.heads {
            let i = head.first as usize;
            let access = match head.lanes {
                Lanes::Affine => WarpAccess::Affine {
                    first: head.first,
                    step: head.step,
                },
                Lanes::TwoLevel { p } => {
                    let [base, s1, s2] = self.two_level[i];
                    WarpAccess::TwoLevel(TwoLevel { p, base, s1, s2 })
                }
                Lanes::Explicit => {
                    let slice = &self.addrs[i * WARP_SIZE..(i + 1) * WARP_SIZE];
                    WarpAccess::Explicit(<&WarpAddrs>::try_from(slice).expect("slab stride"))
                }
            };
            f(head, access);
        }
    }

    /// Re-materializes the block as owned [`TraceEvent`]s (canonical form),
    /// for comparison against the events a writer was given.
    pub fn to_events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.len());
        self.for_each(|head, access| {
            events.push(TraceEvent {
                op: head.op,
                warp: head.warp,
                mask: head.mask,
                lane_bytes: head.lane_bytes,
                transactions: head.transactions,
                cycles: head.cycles,
                addrs: access.addrs(head.mask),
            });
        });
        events
    }
}

/// A fully decoded KTRC byte stream: every launch in slab form, ready to be
/// re-priced many times without touching the varint decoder again.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    launches: Vec<DecodedLaunch>,
}

impl Trace {
    /// Decodes a binary KTRC stream into slabs. Affine and two-level
    /// events stay compact; explicit ones whose lanes happen to form a
    /// progression (every 0- and 1-lane event) are stored compactly too.
    ///
    /// A launch cut off by a new launch-begin record or by the end of the
    /// stream keeps the blocks delivered before the cut and a synthesized
    /// aborted end (no stats).
    ///
    /// # Errors
    ///
    /// [`TraceError::Malformed`] on bad magic, an unsupported version, or
    /// a corrupt or truncated record.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut cur = Cursor::new(bytes);
        if cur.read_bytes(MAGIC.len(), "file magic")? != MAGIC {
            return Err(TraceError::Malformed {
                offset: 0,
                reason: "bad magic: not a kconv trace".into(),
            });
        }
        let version = cur.read_u8("format version")?;
        if version != VERSION {
            return Err(TraceError::Malformed {
                offset: cur.pos(),
                reason: format!("unsupported trace version {version} (expected {VERSION})"),
            });
        }
        let mut launches = Vec::new();
        let mut open: Option<DecodedLaunch> = None;
        let outside = |cur: &Cursor<'_>, record: &str| TraceError::Malformed {
            offset: cur.pos(),
            reason: format!("{record} record outside a launch"),
        };
        while !cur.is_empty() {
            match cur.read_u8("record tag")? {
                TAG_LAUNCH_BEGIN => {
                    let header = decode_header(&mut cur)?;
                    // An open launch never ended: it faulted, and keeps
                    // its synthesized aborted end.
                    launches.extend(open.replace(DecodedLaunch::new(header)));
                }
                TAG_BLOCK => {
                    let launch = open.as_mut().ok_or_else(|| outside(&cur, "block"))?;
                    let id = cur.read_u64("block id")?;
                    let count = cur.read_u64("event count")?;
                    // The count is an untrusted varint: clamp the
                    // speculative pre-allocation so a corrupt header
                    // cannot demand gigabytes (or overflow the capacity
                    // math) before the event bytes fail to decode.
                    launch.heads.reserve(count.min(RESERVE_EVENTS_MAX) as usize);
                    let start = launch.heads.len();
                    for _ in 0..count {
                        decode_event(&mut cur, launch)?;
                    }
                    let len = launch.heads.len() - start;
                    launch.blocks.push(BlockSpan { id, start, len });
                }
                TAG_LAUNCH_END => {
                    let mut launch = open.take().ok_or_else(|| outside(&cur, "launch-end"))?;
                    launch.end = decode_end(&mut cur)?;
                    launches.push(launch);
                }
                other => {
                    return Err(TraceError::Malformed {
                        offset: cur.pos(),
                        reason: format!("unknown record tag {other}"),
                    });
                }
            }
        }
        launches.extend(open);
        Ok(Trace { launches })
    }

    /// The decoded launches in stream order.
    pub fn launches(&self) -> &[DecodedLaunch] {
        &self.launches
    }

    /// Total events across all launches.
    pub fn total_events(&self) -> usize {
        self.launches.iter().map(DecodedLaunch::event_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::tests::{decode, Written};
    use crate::format::{SharedBuffer, TraceWriter};
    use kconv_sim::pricing::{affine_addrs, TWO_LEVEL_PERIODS};
    use kconv_sim::{GpuSpec, KernelStats, OverlapMode, TraceLaunch, TraceSink};

    /// splitmix64, as in the format round-trip property test.
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

    /// A seeded random stream and the launches its writer was given.
    fn random_stream(seed: u64) -> (Vec<u8>, Vec<Written>) {
        let mut rng = Rng(0xFA43_0000 + seed);
        let spec = GpuSpec::kepler_k40m();
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let mut written = Vec::new();
        for li in 0..1 + (seed % 3) {
            let blocks = 1 + (rng.next() % 4);
            let header = LaunchHeader {
                kernel: format!("kernel-{seed}-{li}"),
                grid_blocks: blocks,
                executed_blocks: blocks,
                threads_per_block: 64,
                smem_bytes: rng.next() % 48_000,
                regs_per_thread: 16 + rng.next() % 200,
                overlap: OverlapMode::from_u8((rng.next() % 3) as u8).unwrap(),
                spec: spec.clone(),
            };
            w.launch_begin(&TraceLaunch {
                kernel: &header.kernel,
                grid_blocks: blocks as usize,
                executed_blocks: blocks as usize,
                threads_per_block: 64,
                smem_bytes: header.smem_bytes as u32,
                regs_per_thread: header.regs_per_thread as u32,
                overlap: header.overlap,
                spec: &spec,
            });
            let mut block_events = Vec::new();
            for block_id in 0..blocks {
                let events: Vec<TraceEvent> = (0..rng.next() % 20)
                    .map(|_| {
                        let mask = LaneMask(match rng.next() % 4 {
                            0 => 0,
                            1 => 1 << (rng.next() % 32),
                            2 => u32::MAX,
                            _ => rng.next() as u32,
                        });
                        let mut addrs = match rng.next() % 5 {
                            0 => affine_addrs(mask, rng.next(), 0),
                            1 => affine_addrs(mask, rng.next() % (1 << 40), rng.next() % 64),
                            2 => affine_addrs(mask, 1 << 20, (rng.next() % 64).wrapping_neg()),
                            3 => affine_addrs(mask, u64::MAX - rng.next() % 8, 1 << 12),
                            _ => [0; WARP_SIZE],
                        };
                        for (lane, slot) in addrs.iter_mut().enumerate() {
                            if mask.is_active(lane) && *slot == 0 {
                                *slot = rng.next() % (1 << 40);
                            }
                        }
                        TraceEvent {
                            op: TraceOp::ALL[(rng.next() % 6) as usize],
                            warp: rng.next() as u32,
                            mask,
                            lane_bytes: (rng.next() % 17) as u32,
                            transactions: rng.next() as u32,
                            cycles: rng.next() as u32,
                            addrs,
                        }
                    })
                    .collect();
                w.write_block(block_id as usize, &events);
                block_events.push((block_id, events));
            }
            let stats = KernelStats {
                fma_lane_ops: rng.next(),
                blocks_total: blocks,
                ..Default::default()
            };
            w.launch_end(&stats);
            written.push(Written {
                header,
                blocks: block_events,
                end: LaunchEnd {
                    aborted: false,
                    fma_lane_ops: stats.fma_lane_ops,
                    stats: Some(stats),
                },
            });
        }
        let (_, err) = w.into_inner();
        assert!(err.is_none());
        (buf.take(), written)
    }

    /// Corpus round-trip property: on seeded random streams the decoded
    /// slab view reproduces exactly what the writer was given — headers,
    /// ends, block ids, and every event field-exact (canonical form).
    #[test]
    fn decoded_view_equals_materialized_launches() {
        for seed in 0..8u64 {
            let (bytes, written) = random_stream(seed);
            let trace = Trace::decode(&bytes).unwrap();
            assert_eq!(trace.launches().len(), written.len(), "seed {seed}");
            for (dl, wl) in trace.launches().iter().zip(&written) {
                assert_eq!(dl.header, wl.header, "seed {seed}");
                assert_eq!(dl.end, wl.end, "seed {seed}");
                assert_eq!(dl.block_count(), wl.blocks.len(), "seed {seed}");
                assert_eq!(
                    dl.event_count(),
                    wl.blocks.iter().map(|(_, evs)| evs.len()).sum::<usize>(),
                    "seed {seed}"
                );
                for (bv, (wid, wevs)) in dl.blocks().zip(&wl.blocks) {
                    assert_eq!(bv.block_id, *wid, "seed {seed}");
                    assert_eq!(bv.len(), wevs.len(), "seed {seed}");
                    let canonical: Vec<TraceEvent> = wevs.iter().map(|e| e.canonical()).collect();
                    assert_eq!(bv.to_events(), canonical, "seed {seed}");
                    assert!(bv
                        .heads()
                        .iter()
                        .map(|h| h.op)
                        .eq(wevs.iter().map(|e| e.op)));
                }
            }
        }
    }

    /// Only events whose lanes form neither a progression nor a
    /// two-level tile take an address-slab row; two-level events take one
    /// three-word row; the rest round-trip from their heads alone.
    #[test]
    fn affine_events_take_no_slab_space() {
        for seed in 0..8u64 {
            let (bytes, written) = random_stream(seed);
            for (dl, wl) in Trace::decode(&bytes)
                .unwrap()
                .launches()
                .iter()
                .zip(written)
            {
                let events: Vec<TraceEvent> = wl
                    .blocks
                    .iter()
                    .flat_map(|(_, evs)| evs)
                    .map(|e| e.canonical())
                    .collect();
                let affine = |e: &TraceEvent| affine_lanes(e.mask, &e.addrs).is_some();
                let two_level = events
                    .iter()
                    .filter(|e| !affine(e) && TwoLevel::of(e.mask, &e.addrs).is_some())
                    .count();
                let explicit = events.iter().filter(|e| !affine(e)).count() - two_level;
                assert_eq!(dl.addrs.len(), explicit * WARP_SIZE, "seed {seed}");
                assert_eq!(dl.two_level.len(), two_level, "seed {seed}");
                assert_eq!(dl.explicit_events(), explicit, "seed {seed}");
                for op in TraceOp::ALL {
                    let n = events.iter().filter(|e| e.op == op).count();
                    assert_eq!(dl.op_events(op), n, "seed {seed}");
                }
                let heads_affine = dl.heads.iter().filter(|h| h.lanes == Lanes::Affine).count();
                assert_eq!(
                    heads_affine + two_level + explicit,
                    dl.event_count(),
                    "seed {seed}"
                );
            }
        }
    }

    /// `TwoLevel::of` recovers every period, partial masks that keep lanes
    /// 0, 1 and `p`, and zero, negative and wrapping strides; it takes the
    /// smallest period that fits, and a bent lane breaks the fit.
    #[test]
    fn two_level_of_inverts_addrs() {
        let mut rng = Rng(0x2_1E7E1);
        for p in TWO_LEVEL_PERIODS {
            let needed = 0b11 | 1u32 << p;
            for mask in [
                u32::MAX,
                needed,
                needed | 0x00f0_0f00,
                rng.next() as u32 | needed,
            ] {
                let mask = LaneMask(mask);
                for (base, s1, s2) in [
                    (0, 4, 64),
                    (1 << 30, 0, 4096),
                    (1 << 20, 8u64.wrapping_neg(), 128),
                    (u64::MAX - 8, 4, (1u64 << 40).wrapping_neg()),
                    (rng.next(), rng.next(), rng.next()),
                ] {
                    let form = TwoLevel { p, base, s1, s2 };
                    let addrs = form.addrs(mask);
                    if affine_lanes(mask, &addrs).is_some() {
                        continue; // the writer would pick the affine form
                    }
                    let got = TwoLevel::of(mask, &addrs).expect("fits");
                    assert!(got.p <= p, "{mask:?} p={p}");
                    assert_eq!(got.addrs(mask), addrs, "{mask:?} p={p}");
                    if got.p == p {
                        assert_eq!(got, form, "{mask:?}");
                    }
                    let mut bent = addrs;
                    bent[31 - mask.0.leading_zeros() as usize] ^= 1 << 7;
                    if let Some(b) = TwoLevel::of(mask, &bent) {
                        assert_eq!(b.addrs(mask), bent, "{mask:?} p={p}");
                    }
                }
            }
        }
        // Lane 0, 1 or the period's lane inactive: no two-level form.
        let form = TwoLevel {
            p: 4,
            base: 0,
            s1: 4,
            s2: 1024,
        };
        for off in [0, 1] {
            let mask = LaneMask(!(1 << off));
            assert_eq!(
                TwoLevel::of(mask, &form.addrs(mask)),
                None,
                "lane {off} off"
            );
        }
        // Lanes 0, 1, 2 and 8 of an 8-wide tile: period 2 is tried first
        // and does not fit, period 4's lane is off, period 8 fits.
        let mask = LaneMask(0b1_0000_0111);
        let addrs = TwoLevel { p: 8, ..form }.addrs(mask);
        assert_eq!(TwoLevel::of(mask, &addrs).map(|f| f.p), Some(8));
    }

    #[test]
    fn event_heads_stay_forty_bytes() {
        // The decoded corpus is mostly heads; their size is what the
        // decode page-faults in.
        assert_eq!(std::mem::size_of::<EventHead>(), 40);
    }

    #[test]
    fn affine_lanes_inverts_affine_addrs() {
        for mask in [0, 1, 0b1010_0000, 0x00ff_ff00, u32::MAX] {
            let mask = LaneMask(mask);
            for (first, step) in [
                (0, 0),
                (64, 4),
                (1 << 20, 8u64.wrapping_neg()),
                (u64::MAX, 3),
            ] {
                let addrs = affine_addrs(mask, first, step);
                let want = match mask.count() {
                    0 => (0, 0),
                    1 => (first, 0),
                    _ => (first, step),
                };
                assert_eq!(affine_lanes(mask, &addrs), Some(want), "{mask:?}");
                let mut bent = addrs;
                if mask.count() >= 3 {
                    bent[31 - mask.0.leading_zeros() as usize] ^= 1;
                    assert_eq!(affine_lanes(mask, &bent), None, "{mask:?}");
                }
            }
        }
    }

    /// Every prefix of a stream is an error or decodes to a prefix of what
    /// was written: complete launches intact, and a launch cut at a record
    /// boundary keeping its delivered blocks with a synthesized aborted
    /// end.
    #[test]
    fn truncated_streams_decode_as_aborted() {
        let (bytes, written) = random_stream(5);
        let mut cut_launches = 0;
        for cut in 0..bytes.len() {
            let Ok(got) = decode(&bytes[..cut]) else {
                continue;
            };
            let Some((last, done)) = got.split_last() else {
                continue;
            };
            assert_eq!(done, &written[..done.len()], "cut {cut}");
            let want = &written[done.len()];
            assert_eq!(last.header, want.header, "cut {cut}");
            if last.end.aborted {
                assert_eq!(last.end.stats, None, "cut {cut}");
                assert_eq!(last.blocks, want.blocks[..last.blocks.len()], "cut {cut}");
                cut_launches += 1;
            } else {
                assert_eq!(last, want, "cut {cut}");
            }
        }
        // One cut after each launch-begin and each block record.
        let records: usize = written.iter().map(|l| 1 + l.blocks.len()).sum();
        assert_eq!(cut_launches, records);
    }

    #[test]
    fn empty_trace_decodes_empty() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&crate::MAGIC);
        bytes.push(crate::VERSION);
        let trace = Trace::decode(&bytes).unwrap();
        assert!(trace.launches().is_empty());
        assert_eq!(trace.total_events(), 0);
    }
}
