//! Per-warp memory-instruction trace hooks.
//!
//! The paper's claims are *traffic* claims — how many bytes move, through
//! which memory, with how many transactions and replays. The aggregate
//! [`KernelStats`] counters prove totals; this module exposes the
//! per-instruction stream those totals are summed from, so tools can check
//! per-access properties (e.g. "each interior pixel is read from global
//! memory exactly once") that no aggregate can express.
//!
//! A [`TraceSink`] installed on a [`Gpu`](crate::Gpu) observes one
//! [`TraceEvent`] per warp memory instruction: the op kind and memory
//! space, the live lane mask, the bytes per lane and the per-lane byte
//! addresses. An event records no cost: what an access costs is a
//! function of its addresses and the architecture, which
//! [`crate::pricing`] computes — live, and again when a recorded trace is
//! re-priced.
//!
//! # Cost and determinism
//!
//! With no sink installed the hook is one `Option` check per warp memory
//! instruction — the same discipline as
//! [`SanitizerMode::Off`](crate::SanitizerMode): no shadow state, no event
//! construction, nothing to buffer.
//!
//! With a sink installed, each event is encoded at the access, on the
//! thread that runs its block, by the sink's [`EventEncoder`], which is
//! deterministic per block: a block carries only its encoded bytes, an
//! event count and the encoder's small [`EncoderState`]. The blocks'
//! bytes are delivered in ascending block-id order on the launching
//! thread — mirroring how the parallel launch path replays write journals
//! (see [`crate::launch`]). A trace captured under
//! [`Parallelism::Threads`](crate::Parallelism) is therefore byte-for-byte
//! identical to the serial trace of the same launch.

use crate::fault::MemSpace;
use crate::spec::GpuSpec;
use crate::stats::KernelStats;
use crate::timing::OverlapMode;
use crate::warp::{LaneMask, WarpAddrs};

/// Which warp memory instruction produced a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceOp {
    /// Global-memory load ([`WarpCtx::ld_global`](crate::WarpCtx::ld_global)
    /// / [`ld_global_bytes`](crate::WarpCtx::ld_global_bytes)).
    GmLd = 0,
    /// Global-memory store ([`WarpCtx::st_global`](crate::WarpCtx::st_global)
    /// / [`st_global_bytes`](crate::WarpCtx::st_global_bytes)).
    GmSt = 1,
    /// Global-memory load through the read-only (texture) cache path
    /// ([`WarpCtx::ld_global_ro`](crate::WarpCtx::ld_global_ro)).
    GmLdRo = 2,
    /// Shared-memory load ([`WarpCtx::ld_shared`](crate::WarpCtx::ld_shared)
    /// / [`ld_shared_bytes`](crate::WarpCtx::ld_shared_bytes)).
    SmLd = 3,
    /// Shared-memory store ([`WarpCtx::st_shared`](crate::WarpCtx::st_shared)
    /// / [`st_shared_bytes`](crate::WarpCtx::st_shared_bytes)).
    SmSt = 4,
    /// Constant-memory load ([`WarpCtx::ld_const`](crate::WarpCtx::ld_const)).
    CmLd = 5,
    /// Block-wide barrier arrival ([`BlockCtx::sync`](crate::BlockCtx::sync)):
    /// one event per warp per `__syncthreads()`. Touches no memory — the
    /// mask, byte count and addresses are all zero — but its
    /// position in the per-block program-order stream is what lets offline
    /// tools count barrier rounds and check the pipeline's halving claim.
    Bar = 6,
}

impl TraceOp {
    /// Number of distinct op kinds (array-index bound for per-op tables).
    pub const COUNT: usize = 7;

    /// All op kinds, in tag order.
    pub const ALL: [TraceOp; TraceOp::COUNT] = [
        TraceOp::GmLd,
        TraceOp::GmSt,
        TraceOp::GmLdRo,
        TraceOp::SmLd,
        TraceOp::SmSt,
        TraceOp::CmLd,
        TraceOp::Bar,
    ];

    /// The memory space this op touches — `None` for [`TraceOp::Bar`],
    /// which is a synchronization event, not a memory access.
    pub fn space(self) -> Option<MemSpace> {
        match self {
            TraceOp::GmLd | TraceOp::GmSt | TraceOp::GmLdRo => Some(MemSpace::Global),
            TraceOp::SmLd | TraceOp::SmSt => Some(MemSpace::Shared),
            TraceOp::CmLd => Some(MemSpace::Constant),
            TraceOp::Bar => None,
        }
    }

    /// Whether this op writes (rather than reads) its space.
    pub fn is_store(self) -> bool {
        matches!(self, TraceOp::GmSt | TraceOp::SmSt)
    }

    /// Dense index for per-op tables (`0..COUNT`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of the `u8` tag used by trace encodings.
    pub fn from_u8(v: u8) -> Option<TraceOp> {
        TraceOp::ALL.get(v as usize).copied()
    }
}

impl std::fmt::Display for TraceOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceOp::GmLd => "gm.ld",
            TraceOp::GmSt => "gm.st",
            TraceOp::GmLdRo => "gm.ld.ro",
            TraceOp::SmLd => "sm.ld",
            TraceOp::SmSt => "sm.st",
            TraceOp::CmLd => "cm.ld",
            TraceOp::Bar => "bar.sync",
        })
    }
}

/// One warp memory instruction as observed by the memory models.
///
/// Addresses are byte addresses in the op's space (block-local for shared
/// memory); only lanes active in `mask` are meaningful — inactive lanes
/// carry whatever the kernel's address vector held and must be ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Which memory instruction this is.
    pub op: TraceOp,
    /// Warp id within the block.
    pub warp: u32,
    /// Live lanes: the kernel's mask intersected with the warp population.
    pub mask: LaneMask,
    /// Bytes accessed per active lane (e.g. 8 for a `float2` access).
    pub lane_bytes: u32,
    /// Per-lane byte addresses.
    pub addrs: WarpAddrs,
}

impl TraceEvent {
    /// Bytes the active lanes actually requested.
    pub fn useful_bytes(&self) -> u64 {
        u64::from(self.mask.count()) * u64::from(self.lane_bytes)
    }

    /// Copy with the addresses of inactive lanes zeroed — the canonical
    /// form trace encodings round-trip through (inactive-lane addresses
    /// are not recorded).
    pub fn canonical(&self) -> TraceEvent {
        let mut ev = *self;
        for lane in 0..ev.addrs.len() {
            if !ev.mask.is_active(lane) {
                ev.addrs[lane] = 0;
            }
        }
        ev
    }
}

/// Launch metadata handed to [`TraceSink::launch_begin`].
///
/// Carries everything an offline consumer needs to re-price the launch
/// without the kernel: the full launch geometry and resource declaration
/// (enough to rebuild a [`LaunchConfig`](crate::LaunchConfig) for the
/// timing model) plus the capture [`GpuSpec`] the launch's final stats
/// were charged under. Binary trace formats that persist this header are
/// self-describing — see the KTRC layout in `kconv-trace`.
#[derive(Debug, Clone, Copy)]
pub struct TraceLaunch<'a> {
    /// Kernel name from the [`LaunchConfig`](crate::LaunchConfig).
    pub kernel: &'a str,
    /// Blocks the grid logically contains.
    pub grid_blocks: usize,
    /// Blocks that will execute functionally (fewer when sampling).
    pub executed_blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Shared memory per block in bytes.
    pub smem_bytes: u32,
    /// Registers per thread declared by the launch (occupancy input).
    pub regs_per_thread: u32,
    /// The launch's compute/communication overlap declaration (timing-model
    /// input).
    pub overlap: OverlapMode,
    /// The architecture the launch executed on: its final [`KernelStats`]
    /// were charged under this spec, and replay under the capture spec
    /// prices the recorded addresses with it again.
    pub spec: &'a GpuSpec,
}

/// A sink's per-event encoder: appends the bytes of one event to the
/// buffer of the block that issued it.
///
/// It runs on the block's worker thread, once per warp memory instruction
/// (and once per warp per barrier), so it must be **deterministic per
/// block**: its output may depend on the event and on the same block's
/// earlier events — through the block's [`EncoderState`], which only the
/// encoder reads and writes — never on sink state, the thread or another
/// block. That is what keeps a threaded trace byte-identical to the
/// serial one.
pub type EventEncoder = fn(&mut Vec<u8>, &mut EncoderState, &TraceEvent);

/// What an [`EventEncoder`] remembers between the events of one block:
/// a few words, zeroed when the block starts and opaque to the
/// simulator. An encoder may, for example, keep the compact form of the
/// block's previous event here and write the next one relative to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncoderState(pub [u64; EncoderState::WORDS]);

impl EncoderState {
    /// Number of `u64` words an encoder may keep per block.
    pub const WORDS: usize = 5;
}

/// Observer for per-warp memory-instruction traces.
///
/// Contract:
///
/// 1. [`launch_begin`](TraceSink::launch_begin) once per traced launch,
///    after validation and before any block executes;
/// 2. [`encoder`](TraceSink::encoder) once per traced launch, after
///    `launch_begin`: every executed block encodes its events with the
///    returned function, in program order, on whatever thread runs the
///    block, starting from a zeroed [`EncoderState`] (see
///    [`EventEncoder`] — it must be deterministic per block);
/// 3. [`block_encoded`](TraceSink::block_encoded) once per executed block
///    in **ascending block-id order**, regardless of
///    [`Parallelism`](crate::Parallelism), with the block's event count
///    and the concatenation of its encoded events;
/// 4. [`launch_end`](TraceSink::launch_end) once with the launch's final
///    (scaled) stats — only for successful launches. A faulted launch
///    delivers the blocks that precede the fault and no `launch_end`;
///    sinks that frame launches should treat a `launch_begin` (or drop)
///    while a launch is open as an abort.
///
/// The methods other than the encoder itself run on the launching thread.
pub trait TraceSink: Send {
    /// A traced launch is starting.
    fn launch_begin(&mut self, launch: &TraceLaunch<'_>);
    /// The per-event encoder the launch's blocks run.
    fn encoder(&self) -> EventEncoder;
    /// One executed block: `events` events, encoded back to back in
    /// program order by [`encoder`](TraceSink::encoder) into `bytes`.
    fn block_encoded(&mut self, block_id: usize, events: u64, bytes: &[u8]);
    /// The launch completed with these final stats.
    fn launch_end(&mut self, stats: &KernelStats);
}

/// One block's trace while it runs: the sink's encoder, its state and
/// the bytes it has appended so far.
#[derive(Debug)]
pub(crate) struct BlockTrace {
    encode: EventEncoder,
    state: EncoderState,
    pub(crate) bytes: Vec<u8>,
    pub(crate) events: u64,
}

impl BlockTrace {
    pub(crate) fn new(encode: EventEncoder) -> Self {
        BlockTrace {
            encode,
            state: EncoderState::default(),
            bytes: Vec::new(),
            events: 0,
        }
    }

    /// Encodes one event onto the block's bytes.
    #[inline]
    pub(crate) fn push(&mut self, ev: &TraceEvent) {
        (self.encode)(&mut self.bytes, &mut self.state, ev);
        self.events += 1;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::WARP_SIZE;

    /// Bytes per event of [`raw_encode`].
    const RAW_BYTES: usize = 1 + 3 * 4 + WARP_SIZE * 8;

    /// A test encoder that keeps every field: the op tag, the three `u32`
    /// head fields and all 32 addresses, little-endian.
    pub(crate) fn raw_encode(buf: &mut Vec<u8>, _: &mut EncoderState, ev: &TraceEvent) {
        buf.push(ev.op as u8);
        for v in [ev.warp, ev.mask.0, ev.lane_bytes] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for a in ev.addrs {
            buf.extend_from_slice(&a.to_le_bytes());
        }
    }

    /// The events [`raw_encode`] wrote into `bytes`.
    pub(crate) fn raw_decode(bytes: &[u8]) -> Vec<TraceEvent> {
        assert_eq!(bytes.len() % RAW_BYTES, 0, "whole raw events");
        bytes
            .chunks_exact(RAW_BYTES)
            .map(|b| {
                let u32_at =
                    |i: usize| u32::from_le_bytes(b[1 + 4 * i..5 + 4 * i].try_into().unwrap());
                TraceEvent {
                    op: TraceOp::from_u8(b[0]).expect("op tag"),
                    warp: u32_at(0),
                    mask: LaneMask(u32_at(1)),
                    lane_bytes: u32_at(2),
                    addrs: std::array::from_fn(|l| {
                        let at = 1 + 3 * 4 + 8 * l;
                        u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
                    }),
                }
            })
            .collect()
    }

    #[test]
    fn block_trace_counts_and_encodes_in_order() {
        let ev = |op, warp| TraceEvent {
            op,
            warp,
            mask: LaneMask::first(5),
            lane_bytes: 4,
            addrs: std::array::from_fn(|l| 64 * l as u64),
        };
        let events = [
            ev(TraceOp::GmLd, 0),
            ev(TraceOp::Bar, 1),
            ev(TraceOp::SmSt, 2),
        ];
        let mut t = BlockTrace::new(raw_encode);
        for e in &events {
            t.push(e);
        }
        assert_eq!(t.events, 3);
        assert_eq!(raw_decode(&t.bytes), events);
    }

    /// An encoder that writes how many events its block encoded before
    /// this one, kept in the state's first word.
    fn ordinal_encode(buf: &mut Vec<u8>, state: &mut EncoderState, _: &TraceEvent) {
        buf.push(state.0[0] as u8);
        state.0[0] += 1;
    }

    #[test]
    fn encoder_state_starts_zeroed_in_every_block() {
        let ev = TraceEvent {
            op: TraceOp::CmLd,
            warp: 0,
            mask: LaneMask::ALL,
            lane_bytes: 4,
            addrs: [0; WARP_SIZE],
        };
        for _ in 0..2 {
            let mut t = BlockTrace::new(ordinal_encode);
            for _ in 0..3 {
                t.push(&ev);
            }
            assert_eq!(t.bytes, [0, 1, 2]);
        }
    }

    #[test]
    fn op_tags_round_trip() {
        for op in TraceOp::ALL {
            assert_eq!(TraceOp::from_u8(op as u8), Some(op));
        }
        assert_eq!(TraceOp::from_u8(7), None);
    }

    #[test]
    fn op_spaces_and_stores() {
        assert_eq!(TraceOp::GmLdRo.space(), Some(MemSpace::Global));
        assert_eq!(TraceOp::SmSt.space(), Some(MemSpace::Shared));
        assert_eq!(TraceOp::CmLd.space(), Some(MemSpace::Constant));
        assert_eq!(TraceOp::Bar.space(), None);
        assert!(TraceOp::GmSt.is_store() && TraceOp::SmSt.is_store());
        assert!(!TraceOp::GmLd.is_store() && !TraceOp::CmLd.is_store());
        assert!(!TraceOp::Bar.is_store());
    }

    #[test]
    fn useful_bytes_counts_active_lanes() {
        let ev = TraceEvent {
            op: TraceOp::SmLd,
            warp: 0,
            mask: LaneMask::first(3),
            lane_bytes: 8,
            addrs: [7; 32],
        };
        assert_eq!(ev.useful_bytes(), 24);
        let canon = ev.canonical();
        assert_eq!(canon.addrs[2], 7);
        assert_eq!(canon.addrs[3], 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(TraceOp::GmLdRo.to_string(), "gm.ld.ro");
        assert_eq!(TraceOp::CmLd.to_string(), "cm.ld");
    }
}
