//! The compact binary trace format: the writer (a [`TraceSink`]) and the
//! record decoders [`Trace::decode`](crate::Trace::decode) drives.
//!
//! # Layout (version 6)
//!
//! A trace file is a 5-byte header (`"KTRC"` + version) followed by a
//! stream of tagged records; all integers are LEB128 varints (see
//! [`crate::varint`]):
//!
//! | tag | record | fields |
//! |-----|--------|--------|
//! | 1 | launch begin | kernel-name length + UTF-8 bytes, grid blocks, executed blocks, threads/block, smem bytes, regs/thread, overlap mode (u8), capture [`GpuSpec`] (below) |
//! | 2 | block | block id, event count, events (below) |
//! | 3 | launch end | aborted flag (u8), full final [`KernelStats`] in field-declaration order (histogram as 6 varints) |
//!
//! The embedded spec is: name length + UTF-8 bytes, then varints for every
//! [`GpuSpec`] field in declaration order — `f64` rates travel as their
//! IEEE-754 bit patterns, the bank width as a raw byte (4 or 8). A trace
//! is therefore **self-describing**: an offline consumer can re-price the
//! recorded addresses under the capture spec (or any other) and rebuild
//! the timing model's launch inputs without the kernel — see the
//! `kconv-replay` crate and DESIGN.md §11.
//!
//! Each event is: op byte, warp, complemented lane mask (`!mask`, so a
//! full warp costs one byte), bytes/lane, transactions, cycles — then the
//! addresses of the **active lanes only**, in one of three forms chosen by
//! the op byte's two high bits (the low six bits are the [`TraceOp`]):
//!
//! | op-byte flag | form | address fields | lane `l` (or `k`-th active lane) reads |
//! |---|---|---|---|
//! | [`AFFINE`] | affine | `first`, zigzag `step` | `first + k·step` |
//! | [`TWO_LEVEL`] | two-level | `p` (u8), `base`, zigzag `s1`, zigzag `s2` | `base + (l mod p)·s1 + (l div p)·s2` |
//! | neither | explicit | first active lane's address, then zigzag deltas between successive active lanes | — |
//!
//! All address arithmetic wraps. The writer tries the forms in that order
//! and takes the first that fits, so each event has one encoding and
//! serial ≡ threaded traces stay byte-identical:
//!
//! * **affine** exactly when at least two lanes are active and every
//!   successive delta is equal. This is the paper's strided warp access
//!   (Fig. 1, eq. 1) and the shape of almost every convolution-kernel
//!   event: a 32-lane event costs ≈8 bytes. The reader rejects the flag on
//!   an event with fewer than two active lanes.
//! * **two-level** ([`TwoLevel`]) with the smallest `p ∈ {2, 4, 8, 16}`
//!   that fits, and only when lanes 0, 1 and `p` are active: `base` is
//!   lane 0's address and `s1`, `s2` the deltas from it to lanes 1 and `p`.
//!   This is the shape of a 2-D register tile (§4.2), whose thread `t`
//!   works at column `t mod p`, row `t div p`. The reader rejects any other
//!   `p`, a flagged event with lane 0, 1 or `p` inactive, and an event
//!   carrying both flags.
//! * **explicit** otherwise.
//!
//! The reader, [`Trace::decode`](crate::Trace::decode), accepts version 6
//! only; every other version byte is a typed [`TraceError::Malformed`].
//!
//! A `launch begin` arriving while a launch is open, or end-of-file inside
//! a launch, marks the open launch aborted — exactly the sink contract for
//! faulted launches ([`TraceSink`] docs).

use std::io::Write;
use std::sync::{Arc, Mutex};

use kconv_sim::pricing::{affine_lanes, TwoLevel, TWO_LEVEL_PERIODS};
use kconv_sim::{
    BankWidth, EventEncoder, GpuSpec, KernelStats, LaneMask, OverlapMode, TraceEvent, TraceLaunch,
    TraceOp, TraceSink, WARP_SIZE,
};

use crate::decoded::{DecodedLaunch, EventHead, Lanes};
use crate::varint::{write_u64, zigzag, Cursor};
use crate::TraceError;

/// File magic: the first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"KTRC";
/// The one format version the writer emits and the reader accepts.
pub const VERSION: u8 = 6;
/// Event op-byte flag: the active lanes' addresses are stored as an
/// arithmetic progression (`first`, zigzag `step`).
pub const AFFINE: u8 = 0x80;
/// Event op-byte flag: the lane addresses are stored in the two-level
/// form ([`TwoLevel`]: `p`, `base`, zigzag `s1`, zigzag `s2`).
pub const TWO_LEVEL: u8 = 0x40;

pub(crate) const TAG_LAUNCH_BEGIN: u8 = 1;
pub(crate) const TAG_BLOCK: u8 = 2;
pub(crate) const TAG_LAUNCH_END: u8 = 3;

/// The longest affine or two-level event encoding: the op byte, five
/// `u32` head varints, the period byte and three `u64` varints.
const COMPACT_BYTES_MAX: usize = 64;
/// The longest event encoding: the op byte, five `u32` head varints and
/// 32 explicit lane addresses of up to ten varint bytes each.
const EXPLICIT_BYTES_MAX: usize = 1 + 5 * 5 + WARP_SIZE * 10;

/// One event's bytes, assembled on the stack: byte pushes onto the
/// block's `Vec` itself would reload its length after every store.
struct EventBytes<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> EventBytes<N> {
    /// The op byte (with its lane-form `flag`) and the five head fields.
    #[inline]
    fn head(ev: &TraceEvent, flag: u8) -> Self {
        let mut out = EventBytes {
            buf: [0; N],
            len: 0,
        };
        out.byte(ev.op as u8 | flag);
        for v in [
            ev.warp,
            !ev.mask.0,
            ev.lane_bytes,
            ev.transactions,
            ev.cycles,
        ] {
            out.varint(u64::from(v));
        }
        out
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    /// [`write_u64`] into the stack buffer.
    #[inline]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }
}

/// Encodes one event in the first lane form that fits: affine (two or
/// more active lanes in progression), two-level (see [`TwoLevel::of`]),
/// explicit. The [`EventEncoder`] [`TraceWriter`] hands the simulator.
fn encode_event(buf: &mut Vec<u8>, ev: &TraceEvent) {
    let compact = if let Some((first, step)) =
        affine_lanes(ev.mask, &ev.addrs).filter(|_| ev.mask.count() >= 2)
    {
        let mut out = EventBytes::<COMPACT_BYTES_MAX>::head(ev, AFFINE);
        out.varint(first);
        out.varint(zigzag(step as i64));
        out
    } else if let Some(form) = TwoLevel::of(ev.mask, &ev.addrs) {
        let mut out = EventBytes::<COMPACT_BYTES_MAX>::head(ev, TWO_LEVEL);
        out.byte(form.p);
        out.varint(form.base);
        out.varint(zigzag(form.s1 as i64));
        out.varint(zigzag(form.s2 as i64));
        out
    } else {
        // The first active lane's address, then deltas between successive
        // active lanes.
        let mut out = EventBytes::<EXPLICIT_BYTES_MAX>::head(ev, 0);
        let mut prev: Option<u64> = None;
        for lane in ev.mask.iter() {
            let addr = ev.addrs[lane];
            out.varint(match prev {
                None => addr,
                Some(p) => zigzag(addr.wrapping_sub(p) as i64),
            });
            prev = Some(addr);
        }
        buf.extend_from_slice(&out.buf[..out.len]);
        return;
    };
    // A fixed-size copy and a truncate instead of a variable-length
    // `memcpy` call.
    let len = buf.len() + compact.len;
    buf.extend_from_slice(&compact.buf);
    buf.truncate(len);
}

/// Decodes one event into the block `launch` is decoding: an affine event
/// as its head alone, a two-level one as its head and form, an explicit
/// one with its canonical lane addresses (inactive lanes zeroed).
#[inline]
pub(crate) fn decode_event(
    cur: &mut Cursor<'_>,
    launch: &mut DecodedLaunch,
) -> Result<(), TraceError> {
    let op_byte = cur.read_u8("event op")?;
    let malformed = |cur: &Cursor<'_>, reason: String| TraceError::Malformed {
        offset: cur.pos(),
        reason,
    };
    let op = TraceOp::from_u8(op_byte & !(AFFINE | TWO_LEVEL))
        .ok_or_else(|| malformed(cur, format!("unknown trace op tag {op_byte}")))?;
    // The five head fields are one byte each in nearly every event.
    let [warp, mask, lane_bytes, transactions, cycles] = match cur.read_small::<5>() {
        Some(small) => small.map(u64::from),
        None => [
            cur.read_u64("event warp")?,
            cur.read_u64("event mask")?,
            cur.read_u64("event lane bytes")?,
            cur.read_u64("event transactions")?,
            cur.read_u64("event cycles")?,
        ],
    };
    let mut head = EventHead {
        op,
        warp: warp as u32,
        mask: LaneMask(!(mask as u32)),
        lane_bytes: lane_bytes as u32,
        transactions: transactions as u32,
        cycles: cycles as u32,
        lanes: Lanes::Affine,
        first: 0,
        step: 0,
    };
    match op_byte & (AFFINE | TWO_LEVEL) {
        AFFINE => {
            let active = head.mask.count();
            if active < 2 {
                let reason =
                    format!("affine event with {active} active lane(s) (needs at least 2)");
                return Err(malformed(cur, reason));
            }
            head.first = cur.read_u64("event first address")?;
            head.step = cur.read_i64("event address step")? as u64;
            launch.push_affine(head);
            return Ok(());
        }
        TWO_LEVEL => {
            let p = cur.read_u8("two-level period")?;
            if !TWO_LEVEL_PERIODS.contains(&p) {
                let reason = format!("two-level period {p} (expected 2, 4, 8 or 16)");
                return Err(malformed(cur, reason));
            }
            let needed = 0b11 | 1u32 << p;
            if head.mask.0 & needed != needed {
                let reason = format!(
                    "two-level event with lane 0, 1 or {p} inactive (mask {:#010x})",
                    head.mask.0
                );
                return Err(malformed(cur, reason));
            }
            let form = TwoLevel {
                p,
                base: cur.read_u64("event base address")?,
                s1: cur.read_i64("event lane step")? as u64,
                s2: cur.read_i64("event row step")? as u64,
            };
            launch.push_two_level(head, form);
            return Ok(());
        }
        0 => {}
        _ => {
            let reason = format!("event op byte {op_byte:#04x} sets both lane-form flags");
            return Err(malformed(cur, reason));
        }
    }
    // Walk only the active lanes, lowest first: the first carries an
    // absolute address, each later one a delta from its predecessor.
    let mut addrs = [0u64; WARP_SIZE];
    let mut lanes = head.mask.0;
    if lanes != 0 {
        let mut addr = cur.read_u64("event first address")?;
        addrs[lanes.trailing_zeros() as usize] = addr;
        lanes &= lanes - 1;
        while lanes != 0 {
            addr = addr.wrapping_add(cur.read_i64("event address delta")? as u64);
            addrs[lanes.trailing_zeros() as usize] = addr;
            lanes &= lanes - 1;
        }
    }
    launch.push_explicit(head, &addrs);
    Ok(())
}

fn encode_spec(buf: &mut Vec<u8>, spec: &GpuSpec) {
    write_u64(buf, spec.name.len() as u64);
    buf.extend_from_slice(spec.name.as_bytes());
    write_u64(buf, u64::from(spec.sm_count));
    write_u64(buf, u64::from(spec.cores_per_sm));
    write_u64(buf, spec.clock_ghz.to_bits());
    write_u64(buf, u64::from(spec.smem_banks));
    buf.push(spec.bank_width.bytes() as u8);
    write_u64(buf, u64::from(spec.smem_bytes_per_sm));
    write_u64(buf, u64::from(spec.max_threads_per_sm));
    write_u64(buf, u64::from(spec.max_blocks_per_sm));
    write_u64(buf, u64::from(spec.regs_per_sm));
    write_u64(buf, u64::from(spec.max_smem_per_block));
    write_u64(buf, spec.gm_bandwidth_gbs.to_bits());
    write_u64(buf, spec.gm_transaction_bytes);
    write_u64(buf, spec.gm_store_transaction_bytes);
    write_u64(buf, spec.ro_cache_bytes);
    write_u64(buf, spec.cm_bytes);
    write_u64(buf, spec.cm_line_bytes);
    write_u64(buf, u64::from(spec.latency_hiding_warps));
    write_u64(buf, spec.issue_efficiency.to_bits());
}

fn decode_spec(cur: &mut Cursor<'_>) -> Result<GpuSpec, TraceError> {
    let name_len = cur.read_u64("spec name length")? as usize;
    let name_bytes = cur.read_bytes(name_len, "spec name")?;
    let recorded_name = std::str::from_utf8(name_bytes)
        .map_err(|_| TraceError::Malformed {
            offset: cur.pos(),
            reason: "spec name is not UTF-8".into(),
        })?
        .to_owned();
    // `GpuSpec::name` is `&'static str`; map recorded names back to the
    // known presets' literals, anything else to a generic label. Every
    // numeric parameter still comes from the trace, so an unrecognized
    // name only loses the display string, never the pricing inputs.
    let name = GpuSpec::preset(&recorded_name).map_or("captured", |p| p.name);
    let sm_count = cur.read_u64("spec sm count")? as u32;
    let cores_per_sm = cur.read_u64("spec cores per sm")? as u32;
    let clock_ghz = f64::from_bits(cur.read_u64("spec clock bits")?);
    let smem_banks = cur.read_u64("spec smem banks")? as u32;
    let bank_width = match cur.read_u8("spec bank width")? {
        4 => BankWidth::B4,
        8 => BankWidth::B8,
        other => {
            return Err(TraceError::Malformed {
                offset: cur.pos(),
                reason: format!("unknown bank width {other} (expected 4 or 8)"),
            })
        }
    };
    Ok(GpuSpec {
        name,
        sm_count,
        cores_per_sm,
        clock_ghz,
        smem_banks,
        bank_width,
        smem_bytes_per_sm: cur.read_u64("spec smem bytes per sm")? as u32,
        max_threads_per_sm: cur.read_u64("spec max threads per sm")? as u32,
        max_blocks_per_sm: cur.read_u64("spec max blocks per sm")? as u32,
        regs_per_sm: cur.read_u64("spec regs per sm")? as u32,
        max_smem_per_block: cur.read_u64("spec max smem per block")? as u32,
        gm_bandwidth_gbs: f64::from_bits(cur.read_u64("spec gm bandwidth bits")?),
        gm_transaction_bytes: cur.read_u64("spec gm transaction bytes")?,
        gm_store_transaction_bytes: cur.read_u64("spec gm store transaction bytes")?,
        ro_cache_bytes: cur.read_u64("spec ro cache bytes")?,
        cm_bytes: cur.read_u64("spec cm bytes")?,
        cm_line_bytes: cur.read_u64("spec cm line bytes")?,
        latency_hiding_warps: cur.read_u64("spec latency hiding warps")? as u32,
        issue_efficiency: f64::from_bits(cur.read_u64("spec issue efficiency bits")?),
    })
}

fn encode_stats(buf: &mut Vec<u8>, s: &KernelStats) {
    for v in [
        s.fma_lane_ops,
        s.alu_lane_ops,
        s.gm_ld_requests,
        s.gm_st_requests,
        s.gm_ld_transactions,
        s.gm_st_transactions,
        s.gm_ld_bytes_bus,
        s.gm_st_bytes_bus,
        s.gm_ld_bytes_useful,
        s.gm_st_bytes_useful,
        s.gm_ro_hits,
        s.sm_ld_requests,
        s.sm_st_requests,
        s.sm_ld_cycles,
        s.sm_st_cycles,
        s.sm_bytes_useful,
        s.sm_broadcasts,
    ] {
        write_u64(buf, v);
    }
    for v in s.sm_conflict_histogram {
        write_u64(buf, v);
    }
    for v in [
        s.cm_requests,
        s.cm_cycles,
        s.cm_misses,
        s.barriers,
        s.blocks_executed,
        s.blocks_total,
        s.bar_syncs,
    ] {
        write_u64(buf, v);
    }
}

fn decode_stats(cur: &mut Cursor<'_>) -> Result<KernelStats, TraceError> {
    let mut s = KernelStats {
        fma_lane_ops: cur.read_u64("stats fma lane ops")?,
        alu_lane_ops: cur.read_u64("stats alu lane ops")?,
        gm_ld_requests: cur.read_u64("stats gm ld requests")?,
        gm_st_requests: cur.read_u64("stats gm st requests")?,
        gm_ld_transactions: cur.read_u64("stats gm ld transactions")?,
        gm_st_transactions: cur.read_u64("stats gm st transactions")?,
        gm_ld_bytes_bus: cur.read_u64("stats gm ld bytes bus")?,
        gm_st_bytes_bus: cur.read_u64("stats gm st bytes bus")?,
        gm_ld_bytes_useful: cur.read_u64("stats gm ld bytes useful")?,
        gm_st_bytes_useful: cur.read_u64("stats gm st bytes useful")?,
        gm_ro_hits: cur.read_u64("stats gm ro hits")?,
        sm_ld_requests: cur.read_u64("stats sm ld requests")?,
        sm_st_requests: cur.read_u64("stats sm st requests")?,
        sm_ld_cycles: cur.read_u64("stats sm ld cycles")?,
        sm_st_cycles: cur.read_u64("stats sm st cycles")?,
        sm_bytes_useful: cur.read_u64("stats sm bytes useful")?,
        sm_broadcasts: cur.read_u64("stats sm broadcasts")?,
        ..Default::default()
    };
    for slot in &mut s.sm_conflict_histogram {
        *slot = cur.read_u64("stats conflict histogram")?;
    }
    s.cm_requests = cur.read_u64("stats cm requests")?;
    s.cm_cycles = cur.read_u64("stats cm cycles")?;
    s.cm_misses = cur.read_u64("stats cm misses")?;
    s.barriers = cur.read_u64("stats barriers")?;
    s.blocks_executed = cur.read_u64("stats blocks executed")?;
    s.blocks_total = cur.read_u64("stats blocks total")?;
    s.bar_syncs = cur.read_u64("stats bar syncs")?;
    Ok(s)
}

/// Decodes a launch-begin record's fields (after its tag).
pub(crate) fn decode_header(cur: &mut Cursor<'_>) -> Result<LaunchHeader, TraceError> {
    let name_len = cur.read_u64("kernel-name length")? as usize;
    let name = cur.read_bytes(name_len, "kernel name")?;
    let kernel = std::str::from_utf8(name)
        .map_err(|_| TraceError::Malformed {
            offset: cur.pos(),
            reason: "kernel name is not UTF-8".into(),
        })?
        .to_owned();
    let grid_blocks = cur.read_u64("grid blocks")?;
    let executed_blocks = cur.read_u64("executed blocks")?;
    let threads_per_block = cur.read_u64("threads per block")?;
    let smem_bytes = cur.read_u64("smem bytes")?;
    let regs_per_thread = cur.read_u64("regs per thread")?;
    let overlap_tag = cur.read_u8("overlap mode")?;
    let overlap = OverlapMode::from_u8(overlap_tag).ok_or_else(|| TraceError::Malformed {
        offset: cur.pos(),
        reason: format!("unknown overlap mode {overlap_tag}"),
    })?;
    Ok(LaunchHeader {
        kernel,
        grid_blocks,
        executed_blocks,
        threads_per_block,
        smem_bytes,
        regs_per_thread,
        overlap,
        spec: decode_spec(cur)?,
    })
}

/// Decodes a launch-end record's fields (after its tag).
pub(crate) fn decode_end(cur: &mut Cursor<'_>) -> Result<LaunchEnd, TraceError> {
    let aborted = cur.read_u8("aborted flag")? != 0;
    let stats = decode_stats(cur)?;
    Ok(LaunchEnd {
        aborted,
        fma_lane_ops: stats.fma_lane_ops,
        stats: Some(stats),
    })
}

/// Streams [`TraceSink`] callbacks into a [`Write`] target as the binary
/// trace format.
///
/// The sink callbacks cannot return errors, so the first I/O failure is
/// latched and the writer goes inert; recover it (and the output) with
/// [`TraceWriter::into_inner`].
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    scratch: Vec<u8>,
    wrote_header: bool,
    launch_open: bool,
    err: Option<std::io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps an output stream; nothing is written until the first launch.
    pub fn new(out: W) -> Self {
        TraceWriter {
            out,
            scratch: Vec::new(),
            wrote_header: false,
            launch_open: false,
            err: None,
        }
    }

    /// The first I/O error the writer hit, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.err.as_ref()
    }

    /// Flushes and returns the output stream plus any latched I/O error.
    pub fn into_inner(mut self) -> (W, Option<std::io::Error>) {
        if self.err.is_none() {
            if let Err(e) = self.out.flush() {
                self.err = Some(e);
            }
        }
        (self.out, self.err)
    }

    fn emit(&mut self) {
        if self.err.is_some() {
            self.scratch.clear();
            return;
        }
        if !self.wrote_header {
            self.wrote_header = true;
            let mut header = Vec::with_capacity(5);
            header.extend_from_slice(&MAGIC);
            header.push(VERSION);
            if let Err(e) = self.out.write_all(&header) {
                self.err = Some(e);
                self.scratch.clear();
                return;
            }
        }
        if let Err(e) = self.out.write_all(&self.scratch) {
            self.err = Some(e);
        }
        self.scratch.clear();
    }

    /// Writes one block record from events already in hand — for
    /// synthetic traces and tests; the simulator encodes at the access
    /// instead (see [`TraceSink::encoder`]). Same bytes as the simulator
    /// would deliver for these events.
    pub fn write_block(&mut self, block_id: usize, events: &[TraceEvent]) {
        let mut bytes = Vec::new();
        for ev in events {
            encode_event(&mut bytes, ev);
        }
        self.block_record(block_id, events.len() as u64, &bytes);
    }

    /// The block record: its head, then the encoded events as they are.
    fn block_record(&mut self, block_id: usize, events: u64, bytes: &[u8]) {
        self.scratch.push(TAG_BLOCK);
        write_u64(&mut self.scratch, block_id as u64);
        write_u64(&mut self.scratch, events);
        self.emit();
        if self.err.is_none() {
            if let Err(e) = self.out.write_all(bytes) {
                self.err = Some(e);
            }
        }
    }

    fn end_record(&mut self, aborted: bool, stats: &KernelStats) {
        self.scratch.push(TAG_LAUNCH_END);
        self.scratch.push(u8::from(aborted));
        encode_stats(&mut self.scratch, stats);
        self.launch_open = false;
        self.emit();
    }
}

impl<W: Write + Send> TraceSink for TraceWriter<W> {
    fn launch_begin(&mut self, launch: &TraceLaunch<'_>) {
        if self.launch_open {
            // The previous launch never ended: it faulted. Close it so the
            // stream stays parseable.
            self.end_record(true, &KernelStats::default());
        }
        self.scratch.push(TAG_LAUNCH_BEGIN);
        write_u64(&mut self.scratch, launch.kernel.len() as u64);
        self.scratch.extend_from_slice(launch.kernel.as_bytes());
        write_u64(&mut self.scratch, launch.grid_blocks as u64);
        write_u64(&mut self.scratch, launch.executed_blocks as u64);
        write_u64(&mut self.scratch, launch.threads_per_block as u64);
        write_u64(&mut self.scratch, u64::from(launch.smem_bytes));
        write_u64(&mut self.scratch, u64::from(launch.regs_per_thread));
        self.scratch.push(launch.overlap.as_u8());
        encode_spec(&mut self.scratch, launch.spec);
        self.launch_open = true;
        self.emit();
    }

    fn encoder(&self) -> EventEncoder {
        encode_event
    }

    fn block_encoded(&mut self, block_id: usize, events: u64, bytes: &[u8]) {
        self.block_record(block_id, events, bytes);
    }

    fn launch_end(&mut self, stats: &KernelStats) {
        self.end_record(false, stats);
    }
}

/// An `Arc<Mutex<Vec<u8>>>` [`Write`] target, for keeping a handle on the
/// trace bytes while the [`TraceWriter`] is boxed away inside the `Gpu`.
///
/// ```
/// use kconv_trace::{SharedBuffer, TraceWriter};
///
/// let buf = SharedBuffer::new();
/// let writer = TraceWriter::new(buf.clone());
/// // gpu.set_trace_sink(Some(Box::new(writer)));
/// // ... launches ...
/// // gpu.set_trace_sink(None);
/// let bytes = buf.take();
/// # let _ = bytes;
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Removes and returns the accumulated bytes.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.lock())
    }

    /// Copies out the accumulated bytes, leaving them in place.
    pub fn snapshot(&self) -> Vec<u8> {
        self.lock().clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Metadata of one launch, as recorded by the writer.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchHeader {
    /// Kernel name.
    pub kernel: String,
    /// Blocks the grid logically contained.
    pub grid_blocks: u64,
    /// Blocks that executed functionally (fewer when sampled).
    pub executed_blocks: u64,
    /// Threads per block.
    pub threads_per_block: u64,
    /// Shared memory per block in bytes.
    pub smem_bytes: u64,
    /// Registers per thread the launch declared.
    pub regs_per_thread: u64,
    /// The launch's compute/communication overlap declaration.
    pub overlap: OverlapMode,
    /// The architecture the trace was captured on.
    pub spec: GpuSpec,
}

/// How a launch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchEnd {
    /// `true` when the launch faulted (or the trace was cut off) before
    /// completing — its event stream is the clean prefix of blocks.
    pub aborted: bool,
    /// `fma_lane_ops` from the launch's final (scaled) stats; 0 for
    /// aborted launches.
    pub fma_lane_ops: u64,
    /// The launch's full final (scaled) [`KernelStats`]. `None` for the
    /// aborted ends the decoder synthesizes when a stream stops inside a
    /// launch.
    pub stats: Option<KernelStats>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn ev(op: TraceOp, warp: u32, mask: u32, stride: u64, base: u64) -> TraceEvent {
        let mut addrs = [0u64; WARP_SIZE];
        for (lane, a) in addrs.iter_mut().enumerate() {
            if LaneMask(mask).is_active(lane) {
                *a = base + lane as u64 * stride;
            }
        }
        TraceEvent {
            op,
            warp,
            mask: LaneMask(mask),
            lane_bytes: 4,
            transactions: u32::from(op.space() == Some(kconv_sim::MemSpace::Global)),
            cycles: u32::from(op.space() != Some(kconv_sim::MemSpace::Global)),
            addrs,
        }
    }

    /// One launch as the writer was given it: header, `(block_id,
    /// events)` in canonical form, and end record.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Written {
        pub(crate) header: LaunchHeader,
        pub(crate) blocks: Vec<(u64, Vec<TraceEvent>)>,
        pub(crate) end: LaunchEnd,
    }

    /// Decodes `bytes` with [`crate::Trace::decode`] and re-materializes
    /// every launch in the writer's terms.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Vec<Written>, TraceError> {
        Ok(crate::Trace::decode(bytes)?
            .launches()
            .iter()
            .map(|l| Written {
                header: l.header.clone(),
                blocks: l.blocks().map(|b| (b.block_id, b.to_events())).collect(),
                end: l.end,
            })
            .collect())
    }

    fn capture_spec() -> GpuSpec {
        GpuSpec::kepler_k40m()
    }

    fn launch<'a>(name: &'a str, blocks: usize, spec: &'a GpuSpec) -> TraceLaunch<'a> {
        TraceLaunch {
            kernel: name,
            grid_blocks: blocks,
            executed_blocks: blocks,
            threads_per_block: 64,
            smem_bytes: 1024,
            regs_per_thread: 48,
            overlap: OverlapMode::Moderate,
            spec,
        }
    }

    /// One block holding `events`, framed by a launch: the writer's bytes.
    fn one_block(events: &[TraceEvent]) -> Vec<u8> {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("k", 1, &spec));
        w.write_block(0, events);
        w.launch_end(&KernelStats::default());
        buf.take()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let mut scattered = ev(TraceOp::GmLdRo, 4, 0x0f0f_0f0f, 4, 256);
        scattered.addrs[8] = 7; // breaks the progression: explicit form
        let events = vec![
            ev(TraceOp::GmLd, 0, u32::MAX, 4, 1 << 20),
            ev(TraceOp::SmSt, 1, 0x0000_ffff, 8, 128),
            ev(TraceOp::CmLd, 2, 0x8000_0001, 0, 16),
            ev(TraceOp::GmSt, 3, 0, 4, 0), // fully masked-off warp
            scattered,
        ];
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("k1", 2, &spec));
        w.write_block(0, &events);
        w.write_block(1, &events[..2]);
        let stats = KernelStats {
            fma_lane_ops: 4242,
            gm_ld_transactions: 17,
            sm_ld_cycles: 99,
            sm_conflict_histogram: [1, 2, 3, 4, 5, 6],
            barriers: 7,
            blocks_executed: 2,
            blocks_total: 2,
            ..Default::default()
        };
        w.launch_end(&stats);
        let (_, err) = w.into_inner();
        assert!(err.is_none());

        let launches = decode(&buf.take()).unwrap();
        assert_eq!(launches.len(), 1);
        let l = &launches[0];
        assert_eq!(
            l.header,
            LaunchHeader {
                kernel: "k1".into(),
                grid_blocks: 2,
                executed_blocks: 2,
                threads_per_block: 64,
                smem_bytes: 1024,
                regs_per_thread: 48,
                overlap: OverlapMode::Moderate,
                spec,
            }
        );
        assert_eq!(
            l.end,
            LaunchEnd {
                aborted: false,
                fma_lane_ops: 4242,
                stats: Some(stats),
            }
        );
        assert_eq!(l.blocks.len(), 2);
        assert_eq!(l.blocks[0].0, 0);
        assert_eq!(l.blocks[1].0, 1);
        // Inactive-lane addresses are not stored: compare canonical forms.
        let want: Vec<TraceEvent> = events.iter().map(|e| e.canonical()).collect();
        assert_eq!(l.blocks[0].1, want);
        assert_eq!(l.blocks[1].1, want[..2]);
    }

    #[test]
    fn strided_warps_encode_compactly() {
        let events: Vec<TraceEvent> = (0..100)
            .map(|i| ev(TraceOp::GmLd, 0, u32::MAX, 4, i * 128))
            .collect();
        let bytes = one_block(&events);
        // 32 lanes x 8-byte addresses = 256 B/event raw. A full-mask
        // strided warp is affine: six one-byte head fields plus `first`
        // and `step`, about 9 B.
        let bytes_per_event = bytes.len() as f64 / events.len() as f64;
        assert!(bytes_per_event < 12.0, "{bytes_per_event} B/event");
    }

    /// The event record right after a one-event block header: where the
    /// op byte of `one_block(&[e])` sits.
    fn op_byte_of(e: &TraceEvent) -> u8 {
        let bytes = one_block(&[*e]);
        let mut cur = Cursor::new(&bytes);
        cur.read_bytes(MAGIC.len() + 1, "header").unwrap();
        assert_eq!(cur.read_u8("tag").unwrap(), TAG_LAUNCH_BEGIN);
        let name_len = cur.read_u64("name length").unwrap() as usize;
        cur.read_bytes(name_len, "name").unwrap();
        for _ in 0..5 {
            cur.read_u64("geometry").unwrap();
        }
        cur.read_u8("overlap").unwrap();
        decode_spec(&mut cur).unwrap();
        assert_eq!(cur.read_u8("tag").unwrap(), TAG_BLOCK);
        cur.read_u64("block id").unwrap();
        assert_eq!(cur.read_u64("count").unwrap(), 1);
        cur.read_u8("op").unwrap()
    }

    #[test]
    fn the_affine_form_is_chosen_exactly_for_progressions_of_two_or_more_lanes() {
        let flagged = |e: &TraceEvent| op_byte_of(e) & AFFINE != 0;
        assert!(flagged(&ev(TraceOp::GmLd, 0, u32::MAX, 4, 64)));
        assert!(flagged(&ev(TraceOp::CmLd, 0, u32::MAX, 0, 64)), "step 0");
        assert!(
            flagged(&ev(TraceOp::SmLd, 0, 0b101, 8, 0)),
            "two gapped lanes"
        );
        let mut down = ev(TraceOp::SmSt, 0, 0xff00_00ff, 0, 0);
        let mut k = 0u64;
        for lane in 0..WARP_SIZE {
            if down.mask.is_active(lane) {
                // Negative step that wraps below zero.
                down.addrs[lane] = 8u64.wrapping_sub(4 * k);
                k += 1;
            }
        }
        assert!(flagged(&down), "negative step wrapping below 0");
        assert!(!flagged(&ev(TraceOp::CmLd, 0, 1 << 7, 0, 64)), "one lane");
        assert!(!flagged(&ev(TraceOp::Bar, 0, 0, 0, 0)), "no lanes");
        let mut bent = ev(TraceOp::GmLd, 0, u32::MAX, 4, 64);
        bent.addrs[31] += 1;
        assert!(!flagged(&bent), "last delta differs");
    }

    /// The lane form the precedence rule gives `e`, from a brute-force
    /// walk of its active lanes: the flag and, for a two-level event, `p`.
    fn reference_form(e: &TraceEvent) -> (u8, Option<u8>) {
        let active: Vec<usize> = e.mask.iter().collect();
        let a = &e.addrs;
        let step = |i: usize| a[active[i + 1]].wrapping_sub(a[active[i]]);
        if active.len() >= 2 && (0..active.len() - 1).all(|i| step(i) == step(0)) {
            return (AFFINE, None);
        }
        for p in TWO_LEVEL_PERIODS {
            let pl = usize::from(p);
            if !(e.mask.is_active(0) && e.mask.is_active(1) && e.mask.is_active(pl)) {
                continue;
            }
            let (s1, s2) = (a[1].wrapping_sub(a[0]), a[pl].wrapping_sub(a[0]));
            let fits = active.iter().all(|&l| {
                let row = s2.wrapping_mul((l / pl) as u64);
                a[l] == a[0]
                    .wrapping_add(s1.wrapping_mul((l % pl) as u64))
                    .wrapping_add(row)
            });
            if fits {
                return (TWO_LEVEL, Some(p));
            }
        }
        (0, None)
    }

    /// The form the writer gave `e`: its op-byte flag and, for a two-level
    /// event, the period byte after the five head fields.
    fn written_form(e: &TraceEvent) -> (u8, Option<u8>) {
        let flag = op_byte_of(e) & (AFFINE | TWO_LEVEL);
        if flag != TWO_LEVEL {
            return (flag, None);
        }
        // Re-encode the event alone to find the period byte after its
        // head.
        let mut bytes = Vec::new();
        encode_event(&mut bytes, e);
        let mut cur = Cursor::new(&bytes[1..]);
        for _ in 0..5 {
            cur.read_u64("head").unwrap();
        }
        (flag, Some(cur.read_u8("period").unwrap()))
    }

    /// Seeded events built as two-level tiles of every period, under full,
    /// minimal, gapped and lane-dropping masks, with zero, positive,
    /// negative and wrapping strides, some bent: the decoded stream equals
    /// the writer's input, and every event gets the form the precedence
    /// rule gives it (affine, then two-level with the smallest period, then
    /// explicit) — checked against a brute-force walk, so the writer's
    /// closed-form full-warp checks are checked too.
    #[test]
    fn two_level_streams_round_trip_with_the_canonical_form() {
        let mut rng = Rng(0x7E1E_0000);
        let mut seen = [0usize; 3]; // affine, two-level, explicit
        let mut periods = [0usize; 17];
        let mut events = Vec::new();
        for _ in 0..600 {
            let p = TWO_LEVEL_PERIODS[(rng.next() % 4) as usize];
            let needed = 0b11 | 1u32 << p;
            let mask = LaneMask(match rng.next() % 4 {
                0 => u32::MAX,
                1 => needed,
                2 => rng.next() as u32 | needed,
                _ => rng.next() as u32, // may drop lane 0, 1 or p
            });
            let stride = |rng: &mut Rng| match rng.next() % 5 {
                0 => 0,
                1 => rng.next() % 512,
                2 => (rng.next() % 512).wrapping_neg(),
                3 => (1 << 63) + rng.next() % 8, // wraps
                _ => rng.next(),
            };
            let base = match rng.next() % 3 {
                0 => rng.next() % (1 << 40),
                1 => u64::MAX - rng.next() % 64,
                _ => rng.next(),
            };
            let s1 = stride(&mut rng);
            let s2 = match rng.next() % 6 {
                0 => s1.wrapping_mul(u64::from(p)), // one progression: affine
                _ => stride(&mut rng),
            };
            let mut addrs = TwoLevel { p, base, s1, s2 }.addrs(mask);
            if rng.next().is_multiple_of(4) {
                let lane = (rng.next() % 32) as usize;
                if mask.is_active(lane) {
                    addrs[lane] ^= 1 << (rng.next() % 64);
                }
            }
            events.push(TraceEvent {
                op: TraceOp::ALL[(rng.next() % 6) as usize],
                warp: (rng.next() % 64) as u32,
                mask,
                lane_bytes: 4,
                transactions: (rng.next() % 4) as u32,
                cycles: (rng.next() % 4) as u32,
                addrs,
            });
        }
        for e in &events {
            let want = reference_form(e);
            // The writer keeps the affine flag for two or more lanes and
            // writes 0- and 1-lane events explicitly.
            assert_eq!(written_form(e), want, "{e:?}");
            match want {
                (AFFINE, _) => seen[0] += 1,
                (TWO_LEVEL, Some(p)) => {
                    seen[1] += 1;
                    periods[usize::from(p)] += 1;
                }
                _ => seen[2] += 1,
            }
        }
        assert!(seen.iter().all(|&n| n > 20), "forms {seen:?}");
        for p in TWO_LEVEL_PERIODS {
            assert!(periods[usize::from(p)] > 10, "p={p}: {periods:?}");
        }
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("tiles", 2, &spec));
        w.write_block(0, &events[..300]);
        w.write_block(1, &events[300..]);
        w.launch_end(&KernelStats::default());
        let got = decode(&buf.take()).unwrap();
        let want: Vec<TraceEvent> = events.iter().map(|e| e.canonical()).collect();
        assert_eq!(got[0].blocks[0].1, want[..300]);
        assert_eq!(got[0].blocks[1].1, want[300..]);
    }

    /// A hand-built stream: one launch, one block, then `event` verbatim.
    fn stream_with_event(event: &[u8]) -> Vec<u8> {
        let mut bytes = one_block(&[]);
        // Drop the launch-end record, then re-open the block with one event.
        let end = {
            let mut b = Vec::new();
            b.push(TAG_LAUNCH_END);
            b.push(0);
            encode_stats(&mut b, &KernelStats::default());
            b
        };
        bytes.truncate(bytes.len() - end.len());
        let block_at = bytes.len() - 3;
        assert_eq!(bytes[block_at], TAG_BLOCK);
        bytes.truncate(block_at);
        bytes.push(TAG_BLOCK);
        write_u64(&mut bytes, 0);
        write_u64(&mut bytes, 1);
        bytes.extend_from_slice(event);
        bytes.extend_from_slice(&end);
        bytes
    }

    fn malformed_reason(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(TraceError::Malformed { reason, .. }) => reason,
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn hostile_affine_events_are_malformed() {
        // The flag on an event with fewer than two active lanes.
        for mask in [0u32, 1 << 9] {
            let mut e = vec![TraceOp::CmLd as u8 | AFFINE];
            for v in [0, u64::from(!mask), 4, 0, 0, 64, zigzag(4)] {
                write_u64(&mut e, v);
            }
            let reason = malformed_reason(&stream_with_event(&e));
            assert!(reason.contains("affine event"), "{reason}");
        }
        // An unknown op under the flag.
        let mut e = vec![(TraceOp::COUNT as u8) | AFFINE];
        for v in [0, 0, 4, 0, 0, 64, zigzag(4)] {
            write_u64(&mut e, v);
        }
        let reason = malformed_reason(&stream_with_event(&e));
        assert!(reason.contains("unknown trace op tag"), "{reason}");
        // A well-formed affine event in the same frame decodes.
        let mut e = vec![TraceOp::GmLd as u8 | AFFINE];
        for v in [0, 0, 4, 1, 0, 64, zigzag(-4)] {
            write_u64(&mut e, v);
        }
        let launches = decode(&stream_with_event(&e)).unwrap();
        let got = &launches[0].blocks[0].1[0];
        assert_eq!(got.addrs[0], 64);
        assert_eq!(got.addrs[31], 64u64.wrapping_sub(4 * 31));
    }

    #[test]
    fn only_version_6_is_accepted() {
        let good = one_block(&[ev(TraceOp::GmLd, 0, u32::MAX, 4, 0)]);
        assert!(decode(&good).is_ok());
        for version in [0u8, 1, 2, 3, 4, 5, 7] {
            let mut bytes = good.clone();
            bytes[MAGIC.len()] = version;
            assert_eq!(
                malformed_reason(&bytes),
                format!("unsupported trace version {version} (expected 6)")
            );
        }
    }

    #[test]
    fn begin_while_open_marks_previous_launch_aborted() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("faulty", 4, &spec));
        w.write_block(0, &[ev(TraceOp::GmLd, 0, 0xff, 4, 0)]);
        // No launch_end: the launch faulted. A new launch begins.
        w.launch_begin(&launch("clean", 1, &spec));
        w.write_block(0, &[]);
        w.launch_end(&KernelStats::default());
        let launches = decode(&buf.take()).unwrap();
        assert_eq!(launches.len(), 2);
        assert!(launches[0].end.aborted);
        assert_eq!(launches[0].header.kernel, "faulty");
        assert_eq!(launches[0].blocks.len(), 1);
        assert!(!launches[1].end.aborted);
    }

    #[test]
    fn eof_inside_launch_synthesizes_aborted_end() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("cut", 4, &spec));
        w.write_block(0, &[ev(TraceOp::SmLd, 0, 0xff, 8, 64)]);
        drop(w);
        let launches = decode(&buf.take()).unwrap();
        assert_eq!(launches.len(), 1);
        assert!(launches[0].end.aborted);
        assert_eq!(launches[0].blocks.len(), 1);
    }

    #[test]
    fn corrupt_streams_error_instead_of_panicking() {
        assert!(decode(b"").is_err());
        assert!(decode(b"NOPE\x05").is_err());
        let mut bad_version = Vec::new();
        bad_version.extend_from_slice(&MAGIC);
        bad_version.push(99);
        assert!(decode(&bad_version).is_err());
        // Valid header, garbage record tag.
        let mut bad_tag = Vec::new();
        bad_tag.extend_from_slice(&MAGIC);
        bad_tag.push(VERSION);
        bad_tag.push(77);
        assert!(decode(&bad_tag).is_err());
        // Truncate a valid stream at every byte: must never panic.
        let mut bent = ev(TraceOp::GmLd, 1, 0x00ff_ff00, 4, 1000);
        bent.addrs[12] = 3;
        let bytes = one_block(&[ev(TraceOp::GmLd, 0, u32::MAX, 4, 1000), bent]);
        for cut in 0..bytes.len() {
            let _ = decode(&bytes[..cut]);
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn block_record_outside_launch_is_malformed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(TAG_BLOCK);
        bytes.push(0); // block id
        bytes.push(0); // event count
        assert!(matches!(decode(&bytes), Err(TraceError::Malformed { .. })));
    }

    #[test]
    fn non_preset_spec_round_trips_numerically() {
        // A hypothetical part: the name degrades to "captured" (it cannot
        // be interned back to a &'static str) but every pricing parameter
        // must survive bit-exactly, including the f64 rates.
        let spec = GpuSpec {
            name: "Frankenstein",
            clock_ghz: 1.234_567_891,
            bank_width: BankWidth::B4,
            gm_transaction_bytes: 64,
            issue_efficiency: 0.333_333_333,
            ..GpuSpec::kepler_k40m()
        };
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        w.launch_begin(&launch("k", 1, &spec));
        w.write_block(0, &[]);
        w.launch_end(&KernelStats::default());
        let launches = decode(&buf.take()).unwrap();
        let got = &launches[0].header.spec;
        assert_eq!(got.name, "captured");
        assert_eq!(
            GpuSpec {
                name: spec.name,
                ..got.clone()
            },
            spec,
            "all numeric fields must round-trip"
        );
    }

    #[test]
    fn v4_round_trips_bar_syncs_and_bar_events() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("k-bar", 1, &spec));
        let bar = TraceEvent {
            op: TraceOp::Bar,
            warp: 1,
            mask: LaneMask(0),
            lane_bytes: 0,
            transactions: 0,
            cycles: 0,
            addrs: [0; WARP_SIZE],
        };
        let events = vec![ev(TraceOp::SmLd, 0, u32::MAX, 4, 0), bar];
        w.write_block(0, &events);
        let stats = KernelStats {
            barriers: 4,
            bar_syncs: 8,
            blocks_executed: 1,
            blocks_total: 1,
            ..Default::default()
        };
        w.launch_end(&stats);
        let launches = decode(&buf.take()).unwrap();
        let l = &launches[0];
        assert_eq!(l.end.stats.as_ref().unwrap().bar_syncs, 8);
        assert_eq!(l.blocks[0].1[1], bar);
    }

    /// splitmix64: a tiny seeded generator so the property test needs no
    /// external crate.
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

    /// Seeded-random streams through the writer must come back field-exact
    /// through the decoder, across the varint/zigzag edge cases
    /// and both event forms: full, gapped, single-lane and empty masks;
    /// affine steps that are zero, positive, negative or wrap past
    /// `u64::MAX`; non-affine lanes; zero-transaction events; and
    /// multi-launch streams.
    #[test]
    fn random_streams_round_trip_bit_exactly() {
        for seed in 0..8u64 {
            let mut rng = Rng(0xD1CE_0000 + seed);
            let spec = capture_spec();
            let buf = SharedBuffer::new();
            let mut w = TraceWriter::new(buf.clone());
            let mut want: Vec<Written> = Vec::new();
            let mut affine_seen = 0;
            for li in 0..1 + (seed % 3) {
                let name = format!("kernel-{seed}-{li}");
                let blocks = 1 + (rng.next() % 4);
                let threads_per_block = 32 * (1 + (rng.next() % 8) as usize);
                let smem_bytes = (rng.next() % 48_000) as u32;
                let regs_per_thread = 16 + (rng.next() % 200) as u32;
                let overlap = OverlapMode::from_u8((rng.next() % 3) as u8).unwrap();
                w.launch_begin(&TraceLaunch {
                    kernel: &name,
                    grid_blocks: blocks as usize,
                    executed_blocks: blocks as usize,
                    threads_per_block,
                    smem_bytes,
                    regs_per_thread,
                    overlap,
                    spec: &spec,
                });
                let mut blocks_want = Vec::new();
                for block_id in 0..blocks {
                    let n = rng.next() % 20;
                    let events: Vec<TraceEvent> = (0..n)
                        .map(|_| {
                            let mask = match rng.next() % 5 {
                                0 => LaneMask(0),                      // empty
                                1 => LaneMask(1 << (rng.next() % 32)), // single lane
                                2 => LaneMask(u32::MAX),               // full warp
                                _ => LaneMask(rng.next() as u32),      // gapped
                            };
                            let (first, step) = match rng.next() % 4 {
                                0 => (rng.next(), 0),
                                1 => (rng.next() % (1 << 40), rng.next() % 256),
                                2 => (rng.next() % (1 << 40), (rng.next() % 256).wrapping_neg()),
                                _ => (u64::MAX - rng.next() % 64, 1 + rng.next() % (1 << 20)),
                            };
                            let mut addrs = crate::affine_addrs(mask, first, step);
                            if rng.next().is_multiple_of(3) {
                                // Bend one active lane: non-affine unless
                                // the mask has fewer than three lanes.
                                for (lane, slot) in addrs.iter_mut().enumerate() {
                                    if mask.is_active(lane) && rng.next().is_multiple_of(2) {
                                        *slot = slot.wrapping_add(1 + rng.next() % 1000);
                                    }
                                }
                            }
                            TraceEvent {
                                op: TraceOp::ALL[(rng.next() % 6) as usize],
                                warp: rng.next() as u32,
                                mask,
                                lane_bytes: (rng.next() % 17) as u32,
                                transactions: if rng.next().is_multiple_of(3) {
                                    0
                                } else {
                                    rng.next() as u32
                                },
                                cycles: rng.next() as u32,
                                addrs,
                            }
                        })
                        .collect();
                    affine_seen += events
                        .iter()
                        .filter(|e| {
                            e.mask.count() >= 2 && crate::affine_lanes(e.mask, &e.addrs).is_some()
                        })
                        .count();
                    w.write_block(block_id as usize, &events);
                    blocks_want.push((block_id, events.iter().map(|e| e.canonical()).collect()));
                }
                let stats = KernelStats {
                    fma_lane_ops: rng.next(),
                    gm_ld_transactions: rng.next(),
                    sm_ld_cycles: rng.next(),
                    sm_conflict_histogram: std::array::from_fn(|_| rng.next()),
                    blocks_total: blocks,
                    ..Default::default()
                };
                w.launch_end(&stats);
                want.push(Written {
                    header: LaunchHeader {
                        kernel: name,
                        grid_blocks: blocks,
                        executed_blocks: blocks,
                        threads_per_block: threads_per_block as u64,
                        smem_bytes: u64::from(smem_bytes),
                        regs_per_thread: u64::from(regs_per_thread),
                        overlap,
                        spec: spec.clone(),
                    },
                    blocks: blocks_want,
                    end: LaunchEnd {
                        aborted: false,
                        fma_lane_ops: stats.fma_lane_ops,
                        stats: Some(stats),
                    },
                });
            }
            assert!(affine_seen > 0, "seed {seed}: no affine events");
            let (_, err) = w.into_inner();
            assert!(err.is_none());
            let got = decode(&buf.take()).unwrap();
            assert_eq!(got.len(), want.len(), "seed {seed}");
            for (g, w_) in got.iter().zip(&want) {
                assert_eq!(g.header, w_.header, "seed {seed}");
                assert_eq!(g.end, w_.end, "seed {seed}");
                assert_eq!(g.blocks, w_.blocks, "seed {seed}");
            }
        }
    }
}
