//! Decoded in-memory traces: parse the KTRC byte stream **once**, re-price
//! it many times.
//!
//! [`read_trace`] is a streaming parser — cheap in memory, but every
//! consumer pays the full varint/zigzag decode again. That is the wrong
//! trade for the replay farm, which prices one capture under dozens of
//! hypothetical [`GpuSpec`](kconv_sim::GpuSpec)s: decoding dominates
//! pricing. A [`Trace`] materializes the stream into three flat slabs per
//! launch —
//!
//! * fixed-size [`EventHead`]s (op, warp, mask, bytes/lane, recorded
//!   transactions/cycles) that also carry the lane addresses of every
//!   **affine** event compactly, as `first` and `step`
//!   ([`EventHead::affine`]) — the form nearly every convolution-kernel
//!   warp access takes, and every 0- or 1-lane event,
//! * one `u64` address slab holding [`WARP_SIZE`] canonical addresses
//!   (inactive lanes zeroed) for each **explicit** event only, and
//! * block spans (`block_id` + event range)
//!
//! — no per-event `Vec`, no pointer chasing. Replay walks a block with
//! [`BlockView::for_each`], which lends each event's addresses as a
//! [`&WarpAddrs`](kconv_sim::WarpAddrs), exactly the type the shared
//! pricing functions take: borrowed from the slab for explicit events,
//! expanded on the stack for affine ones.
//!
//! The decoded form is *lossless* with respect to the pricing inputs:
//! every header, end record and event field that [`read_launches`]
//! materializes is recoverable (see [`BlockView::to_events`]), which the
//! round-trip property test pins.
//!
//! [`read_trace`]: crate::read_trace
//! [`read_launches`]: crate::read_launches

use kconv_sim::{LaneMask, TraceEvent, TraceOp, WarpAddrs, WARP_SIZE};

use crate::format::{LaunchEnd, LaunchHeader, TraceVisitor};
use crate::TraceError;

/// The `(first, step)` of an event's active-lane addresses when they form
/// an arithmetic progression — the `k`-th active lane (lowest first)
/// reads `first + k·step`, wrapping — or `None`. Every 0- and 1-lane
/// event qualifies, with step 0 (and `first` 0 when no lane is active).
pub fn affine_lanes(mask: LaneMask, addrs: &WarpAddrs) -> Option<(u64, u64)> {
    let mut lanes = mask.0;
    if lanes == 0 {
        return Some((0, 0));
    }
    let first = addrs[lanes.trailing_zeros() as usize];
    lanes &= lanes - 1;
    if lanes == 0 {
        return Some((first, 0));
    }
    let step = addrs[lanes.trailing_zeros() as usize].wrapping_sub(first);
    let mut prev = first.wrapping_add(step);
    lanes &= lanes - 1;
    while lanes != 0 {
        let addr = addrs[lanes.trailing_zeros() as usize];
        if addr.wrapping_sub(prev) != step {
            return None;
        }
        prev = addr;
        lanes &= lanes - 1;
    }
    Some((first, step))
}

/// The canonical lane addresses of an affine event: the `k`-th active
/// lane (lowest first) reads `first + k·step`, wrapping; inactive lanes
/// are zero. The inverse of [`affine_lanes`].
pub fn affine_addrs(mask: LaneMask, first: u64, step: u64) -> WarpAddrs {
    // A full warp needs no mask walk, and its fill vectorizes.
    if mask == LaneMask::ALL {
        return std::array::from_fn(|k| first.wrapping_add(step.wrapping_mul(k as u64)));
    }
    let mut addrs = [0u64; WARP_SIZE];
    let (mut lanes, mut addr) = (mask.0, first);
    while lanes != 0 {
        addrs[lanes.trailing_zeros() as usize] = addr;
        addr = addr.wrapping_add(step);
        lanes &= lanes - 1;
    }
    addrs
}

/// The fixed-size part of one traced warp instruction, plus where its
/// lane addresses live: inline for affine events, in the launch's
/// address slab for the rest.
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
    /// Whether the lane addresses live in the launch's address slab, at
    /// event index `first`, instead of in `first` and `step`. (A flag
    /// rather than an enum keeps the head at 40 bytes, not 48.)
    pub(crate) explicit: bool,
    /// Affine: the lowest active lane's address; explicit: the slab index.
    pub(crate) first: u64,
    /// Affine: the address step between successive active lanes.
    pub(crate) step: u64,
}

impl EventHead {
    /// `Some((first, step))` when the event's `k`-th active lane (lowest
    /// first) reads `first + k·step` (see [`affine_lanes`]); `None` when
    /// its addresses are stored explicitly.
    pub fn affine(&self) -> Option<(u64, u64)> {
        (!self.explicit).then_some((self.first, self.step))
    }
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
    /// How the launch ended (synthesized aborted on truncation, like the
    /// streaming reader).
    pub end: LaunchEnd,
    blocks: Vec<BlockSpan>,
    heads: Vec<EventHead>,
    /// Lane addresses of the explicit events, `WARP_SIZE` per event,
    /// inactive lanes zeroed.
    addrs: Vec<u64>,
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
            addrs: Vec::new(),
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

    /// The blocks in delivery order, each a borrowed view into the slabs.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = BlockView<'_>> + '_ {
        self.blocks.iter().map(|span| BlockView {
            block_id: span.id,
            heads: &self.heads[span.start..span.start + span.len],
            addrs: &self.addrs,
        })
    }

    fn push(&mut self, head: EventHead) {
        self.heads.push(head);
        if let Some(span) = self.blocks.last_mut() {
            span.len += 1;
        }
    }
}

/// Borrowed view of one block's events inside a [`DecodedLaunch`].
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    /// The block id recorded by the writer.
    pub block_id: u64,
    heads: &'a [EventHead],
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

    /// Calls `f` on the block's events in issue order, each head paired
    /// with its canonical lane addresses: a borrow of the slab for an
    /// explicit event, expanded on the stack for an affine one.
    pub fn for_each(&self, mut f: impl FnMut(&EventHead, &WarpAddrs)) {
        for head in self.heads {
            if head.explicit {
                let i = head.first as usize;
                let slice = &self.addrs[i * WARP_SIZE..(i + 1) * WARP_SIZE];
                f(head, <&WarpAddrs>::try_from(slice).expect("slab stride"));
            } else {
                f(head, &affine_addrs(head.mask, head.first, head.step));
            }
        }
    }

    /// Re-materializes the block as owned [`TraceEvent`]s (canonical form),
    /// for comparison against [`read_launches`](crate::read_launches).
    pub fn to_events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.len());
        self.for_each(|head, addrs| {
            events.push(TraceEvent {
                op: head.op,
                warp: head.warp,
                mask: head.mask,
                lane_bytes: head.lane_bytes,
                transactions: head.transactions,
                cycles: head.cycles,
                addrs: *addrs,
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
    /// Decodes a binary KTRC stream into slabs. Affine events stay
    /// compact; explicit ones whose lanes happen to form a progression
    /// (every 0- and 1-lane event) are stored compactly too.
    ///
    /// # Errors
    ///
    /// Propagates [`read_trace`](crate::read_trace)'s
    /// [`TraceError::Malformed`] on corrupt or truncated input.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        struct Builder {
            done: Vec<DecodedLaunch>,
            open: Option<DecodedLaunch>,
        }
        impl TraceVisitor for Builder {
            fn launch_begin(&mut self, header: &LaunchHeader) {
                self.open = Some(DecodedLaunch::new(header.clone()));
            }
            fn block_begin(&mut self, block_id: u64, event_count: u64) {
                if let Some(open) = self.open.as_mut() {
                    open.blocks.push(BlockSpan {
                        id: block_id,
                        start: open.heads.len(),
                        len: 0,
                    });
                    // The count is an untrusted varint: clamp the
                    // speculative pre-allocation so a corrupt header
                    // cannot demand gigabytes (or overflow the capacity
                    // math) before the event bytes fail to decode.
                    let reserve = event_count.min(crate::RESERVE_EVENTS_MAX) as usize;
                    open.heads.reserve(reserve);
                }
            }
            fn event(&mut self, _block_id: u64, ev: &TraceEvent) {
                if let Some(open) = self.open.as_mut() {
                    let (explicit, first, step) = match affine_lanes(ev.mask, &ev.addrs) {
                        Some((first, step)) => (false, first, step),
                        None => {
                            // The reader leaves inactive lanes zeroed, so
                            // the slab holds the canonical form.
                            open.addrs.extend_from_slice(&ev.addrs);
                            (true, (open.addrs.len() / WARP_SIZE - 1) as u64, 0)
                        }
                    };
                    open.push(EventHead {
                        op: ev.op,
                        warp: ev.warp,
                        mask: ev.mask,
                        lane_bytes: ev.lane_bytes,
                        transactions: ev.transactions,
                        cycles: ev.cycles,
                        explicit,
                        first,
                        step,
                    });
                }
            }
            fn affine_event(&mut self, _block_id: u64, head: &EventHead, _first: u64, _step: u64) {
                if let Some(open) = self.open.as_mut() {
                    open.push(*head);
                }
            }
            fn launch_end(&mut self, end: &LaunchEnd) {
                if let Some(mut open) = self.open.take() {
                    open.end = *end;
                    self.done.push(open);
                }
            }
        }
        let mut builder = Builder {
            done: Vec::new(),
            open: None,
        };
        crate::format::read_trace(bytes, &mut builder)?;
        Ok(Trace {
            launches: builder.done,
        })
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
    use crate::format::{read_launches, SharedBuffer, TraceWriter};
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

    fn random_stream(seed: u64) -> Vec<u8> {
        let mut rng = Rng(0xFA43_0000 + seed);
        let spec = GpuSpec::kepler_k40m();
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        for li in 0..1 + (seed % 3) {
            let name = format!("kernel-{seed}-{li}");
            let blocks = 1 + (rng.next() % 4);
            w.launch_begin(&TraceLaunch {
                kernel: &name,
                grid_blocks: blocks as usize,
                executed_blocks: blocks as usize,
                threads_per_block: 64,
                smem_bytes: (rng.next() % 48_000) as u32,
                regs_per_thread: 16 + (rng.next() % 200) as u32,
                overlap: OverlapMode::from_u8((rng.next() % 3) as u8).unwrap(),
                spec: &spec,
            });
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
                w.block_events(block_id as usize, &events);
            }
            w.launch_end(&KernelStats {
                fma_lane_ops: rng.next(),
                blocks_total: blocks,
                ..Default::default()
            });
        }
        let (_, err) = w.into_inner();
        assert!(err.is_none());
        buf.take()
    }

    /// Corpus round-trip property: on seeded random streams the decoded
    /// slab view reproduces exactly what the materializing reader sees —
    /// headers, ends, block ids, and every event field-exact.
    #[test]
    fn decoded_view_equals_materialized_launches() {
        for seed in 0..8u64 {
            let bytes = random_stream(seed);
            let want = read_launches(&bytes).unwrap();
            let trace = Trace::decode(&bytes).unwrap();
            assert_eq!(trace.launches().len(), want.len(), "seed {seed}");
            for (dl, wl) in trace.launches().iter().zip(&want) {
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
                    assert_eq!(&bv.to_events(), wevs, "seed {seed}");
                }
            }
        }
    }

    /// Only events whose lanes do not form a progression take slab
    /// space; the rest round-trip from their heads alone.
    #[test]
    fn affine_events_take_no_slab_space() {
        for seed in 0..8u64 {
            let bytes = random_stream(seed);
            for (dl, wl) in Trace::decode(&bytes)
                .unwrap()
                .launches()
                .iter()
                .zip(read_launches(&bytes).unwrap())
            {
                let explicit = wl
                    .blocks
                    .iter()
                    .flat_map(|(_, evs)| evs)
                    .filter(|e| affine_lanes(e.mask, &e.addrs).is_none())
                    .count();
                assert_eq!(dl.addrs.len(), explicit * WARP_SIZE, "seed {seed}");
                let affine = dl.heads.iter().filter(|h| h.affine().is_some()).count();
                assert_eq!(affine + explicit, dl.event_count(), "seed {seed}");
            }
        }
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

    #[test]
    fn truncated_streams_decode_as_aborted_like_the_streaming_reader() {
        let bytes = random_stream(3);
        // Cut inside the stream: both readers must agree on the prefix.
        for cut in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            match (read_launches(&bytes[..cut]), Trace::decode(&bytes[..cut])) {
                (Ok(want), Ok(trace)) => {
                    assert_eq!(trace.launches().len(), want.len(), "cut {cut}");
                    for (dl, wl) in trace.launches().iter().zip(&want) {
                        assert_eq!(dl.end, wl.end, "cut {cut}");
                    }
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("readers disagree at cut {cut}: {a:?} vs {b:?}"),
            }
        }
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
