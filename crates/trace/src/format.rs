//! The compact binary trace format: writer (a [`TraceSink`]) and reader.
//!
//! # Layout
//!
//! A trace file is a 5-byte header (`"KTRC"` + version) followed by a
//! stream of tagged records; all integers are LEB128 varints (see
//! [`crate::varint`]):
//!
//! | tag | record | fields (version 3) |
//! |-----|--------|--------------------|
//! | 1 | launch begin | kernel-name length + UTF-8 bytes, grid blocks, executed blocks, threads/block, smem bytes, regs/thread, overlap mode (u8), capture [`GpuSpec`] (below) |
//! | 2 | block | block id, event count, events (below) |
//! | 3 | launch end | aborted flag (u8), full final [`KernelStats`] in field-declaration order (histogram as 6 varints) |
//!
//! The embedded spec is: name length + UTF-8 bytes, then varints for every
//! [`GpuSpec`] field in declaration order — `f64` rates travel as their
//! IEEE-754 bit patterns, the bank width as a raw byte (4 or 8). A v2+
//! trace is therefore **self-describing**: an offline consumer can
//! re-price the recorded addresses under the capture spec (or any other)
//! and rebuild the timing model's launch inputs without the kernel — see
//! the `kconv-replay` crate and DESIGN.md §11.
//!
//! Two legacy versions remain readable:
//!
//! * Version 2 predates [`GpuSpec::ro_cache_bytes`]; its embedded spec
//!   skips that field, which decodes to the 48 KiB every real part
//!   carries (`pricing::RO_CACHE_BYTES`).
//! * Version 1 lacks the last three launch-begin fields and carries only
//!   `fma_lane_ops` in the launch-end record; its headers decode with
//!   [`LaunchHeader::spec`] `None`, so replaying a v1 trace requires the
//!   caller to assert the capture spec explicitly (`--assume-spec`).
//!
//! Each event is: op tag (u8), warp, lane mask, bytes/lane, transactions,
//! cycles — then the addresses of the **active lanes only**, as one
//! absolute address followed by zigzag deltas between successive active
//! lanes. Convolution kernels issue overwhelmingly unit- or
//! constant-strided warps, so the deltas are one byte each and a 32-lane
//! event costs ≈40 bytes instead of 256.
//!
//! A `launch begin` arriving while a launch is open, or end-of-file inside
//! a launch, marks the open launch aborted — exactly the sink contract for
//! faulted launches ([`TraceSink`] docs).

use std::io::Write;
use std::sync::{Arc, Mutex};

use kconv_sim::{
    BankWidth, GpuSpec, KernelStats, LaneMask, OverlapMode, TraceEvent, TraceLaunch, TraceOp,
    TraceSink, WARP_SIZE,
};

use crate::varint::{write_u64, zigzag, Cursor};
use crate::TraceError;

/// File magic: the first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"KTRC";
/// Format version the writer emits. The reader also accepts [`V1`],
/// [`V2`] and [`V3`].
pub const VERSION: u8 = 4;
/// The legacy version whose stats record predates
/// [`KernelStats::bar_syncs`] and whose event stream predates
/// [`TraceOp::Bar`](kconv_sim::TraceOp::Bar) (readable, no longer written).
pub const V3: u8 = 3;
/// The legacy version whose embedded spec predates
/// [`GpuSpec::ro_cache_bytes`] (readable, no longer written).
pub const V2: u8 = 2;
/// The legacy spec-less format version (readable, no longer written).
pub const V1: u8 = 1;

const TAG_LAUNCH_BEGIN: u8 = 1;
const TAG_BLOCK: u8 = 2;
const TAG_LAUNCH_END: u8 = 3;

fn encode_event(buf: &mut Vec<u8>, ev: &TraceEvent) {
    buf.push(ev.op as u8);
    write_u64(buf, u64::from(ev.warp));
    write_u64(buf, u64::from(ev.mask.0));
    write_u64(buf, u64::from(ev.lane_bytes));
    write_u64(buf, u64::from(ev.transactions));
    write_u64(buf, u64::from(ev.cycles));
    let mut prev: Option<u64> = None;
    for lane in 0..WARP_SIZE {
        if !ev.mask.is_active(lane) {
            continue;
        }
        let addr = ev.addrs[lane];
        match prev {
            None => write_u64(buf, addr),
            Some(p) => write_u64(buf, zigzag(addr.wrapping_sub(p) as i64)),
        }
        prev = Some(addr);
    }
}

fn decode_event(cur: &mut Cursor<'_>) -> Result<TraceEvent, TraceError> {
    let op_tag = cur.read_u8("event op")?;
    let op = TraceOp::from_u8(op_tag).ok_or_else(|| TraceError::Malformed {
        offset: cur.pos(),
        reason: format!("unknown trace op tag {op_tag}"),
    })?;
    let warp = cur.read_u64("event warp")? as u32;
    let mask = LaneMask(cur.read_u64("event mask")? as u32);
    let lane_bytes = cur.read_u64("event lane bytes")? as u32;
    let transactions = cur.read_u64("event transactions")? as u32;
    let cycles = cur.read_u64("event cycles")? as u32;
    // Walk only the active lanes, lowest first: the first carries an
    // absolute address, each later one a delta from its predecessor.
    let mut addrs = [0u64; WARP_SIZE];
    let mut lanes = mask.0;
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
    Ok(TraceEvent {
        op,
        warp,
        mask,
        lane_bytes,
        transactions,
        cycles,
        addrs,
    })
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

fn decode_spec(cur: &mut Cursor<'_>, version: u8) -> Result<GpuSpec, TraceError> {
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
        // v2 specs predate the sweepable read-only cache capacity; every
        // part they could describe carried Kepler's 48 KiB.
        ro_cache_bytes: if version >= 3 {
            cur.read_u64("spec ro cache bytes")?
        } else {
            kconv_sim::pricing::RO_CACHE_BYTES
        },
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
        // v4 appends bar_syncs after the frozen v2/v3 tail.
        s.bar_syncs,
    ] {
        write_u64(buf, v);
    }
}

fn decode_stats(cur: &mut Cursor<'_>, version: u8) -> Result<KernelStats, TraceError> {
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
    s.bar_syncs = if version >= 4 {
        cur.read_u64("stats bar syncs")?
    } else {
        // Pre-v4 captures did not count barrier arrivals.
        0
    };
    Ok(s)
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

    fn block_events(&mut self, block_id: usize, events: &[TraceEvent]) {
        self.scratch.push(TAG_BLOCK);
        write_u64(&mut self.scratch, block_id as u64);
        write_u64(&mut self.scratch, events.len() as u64);
        for ev in events {
            encode_event(&mut self.scratch, ev);
        }
        self.emit();
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
    /// Registers per thread the launch declared (v1 traces default to 32,
    /// the simulator's `LaunchConfig::new` default).
    pub regs_per_thread: u64,
    /// The launch's compute/communication overlap declaration (v1 traces
    /// default to [`OverlapMode::Prefetch`]).
    pub overlap: OverlapMode,
    /// The architecture the trace was captured on. `None` for v1 traces,
    /// which predate the embedded spec — replaying those requires the
    /// caller to assert a capture spec explicitly.
    pub spec: Option<GpuSpec>,
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
    /// The launch's full final (scaled) [`KernelStats`]. `None` for v1
    /// traces (which recorded only `fma_lane_ops`) and for synthesized
    /// aborted ends.
    pub stats: Option<KernelStats>,
}

/// Streaming consumer for [`read_trace`]. All methods default to no-ops;
/// implement only what the analysis needs.
pub trait TraceVisitor {
    /// A launch's header record was read.
    fn launch_begin(&mut self, _header: &LaunchHeader) {}
    /// A block record was opened (its events follow).
    fn block_begin(&mut self, _block_id: u64, _event_count: u64) {}
    /// One event of the current block.
    fn event(&mut self, _block_id: u64, _ev: &TraceEvent) {}
    /// The launch ended. Synthesized with `aborted: true` when the stream
    /// stops inside a launch.
    fn launch_end(&mut self, _end: &LaunchEnd) {}
}

/// Parses a binary trace, streaming records into `visitor` without
/// materializing event buffers.
///
/// # Errors
///
/// Returns [`TraceError::Malformed`] on bad magic, an unsupported version,
/// or a corrupt/truncated record.
pub fn read_trace(bytes: &[u8], visitor: &mut impl TraceVisitor) -> Result<(), TraceError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.read_bytes(MAGIC.len(), "file magic")?;
    if magic != MAGIC {
        return Err(TraceError::Malformed {
            offset: 0,
            reason: "bad magic: not a kconv trace".into(),
        });
    }
    let version = cur.read_u8("format version")?;
    if !(V1..=VERSION).contains(&version) {
        return Err(TraceError::Malformed {
            offset: cur.pos(),
            reason: format!("unsupported trace version {version} (expected {V1}..={VERSION})"),
        });
    }
    let mut launch_open = false;
    while !cur.is_empty() {
        let tag = cur.read_u8("record tag")?;
        match tag {
            TAG_LAUNCH_BEGIN => {
                if launch_open {
                    visitor.launch_end(&LaunchEnd {
                        aborted: true,
                        fma_lane_ops: 0,
                        stats: None,
                    });
                }
                let name_len = cur.read_u64("kernel-name length")? as usize;
                let name = cur.read_bytes(name_len, "kernel name")?;
                let kernel = std::str::from_utf8(name)
                    .map_err(|_| TraceError::Malformed {
                        offset: cur.pos(),
                        reason: "kernel name is not UTF-8".into(),
                    })?
                    .to_owned();
                let mut header = LaunchHeader {
                    kernel,
                    grid_blocks: cur.read_u64("grid blocks")?,
                    executed_blocks: cur.read_u64("executed blocks")?,
                    threads_per_block: cur.read_u64("threads per block")?,
                    smem_bytes: cur.read_u64("smem bytes")?,
                    // v1 defaults: the simulator's LaunchConfig::new values.
                    regs_per_thread: 32,
                    overlap: OverlapMode::Prefetch,
                    spec: None,
                };
                if version >= 2 {
                    header.regs_per_thread = cur.read_u64("regs per thread")?;
                    let overlap_tag = cur.read_u8("overlap mode")?;
                    header.overlap =
                        OverlapMode::from_u8(overlap_tag).ok_or_else(|| TraceError::Malformed {
                            offset: cur.pos(),
                            reason: format!("unknown overlap mode {overlap_tag}"),
                        })?;
                    header.spec = Some(decode_spec(&mut cur, version)?);
                }
                launch_open = true;
                visitor.launch_begin(&header);
            }
            TAG_BLOCK => {
                if !launch_open {
                    return Err(TraceError::Malformed {
                        offset: cur.pos(),
                        reason: "block record outside a launch".into(),
                    });
                }
                let block_id = cur.read_u64("block id")?;
                let count = cur.read_u64("event count")?;
                visitor.block_begin(block_id, count);
                for _ in 0..count {
                    let ev = decode_event(&mut cur)?;
                    visitor.event(block_id, &ev);
                }
            }
            TAG_LAUNCH_END => {
                if !launch_open {
                    return Err(TraceError::Malformed {
                        offset: cur.pos(),
                        reason: "launch-end record outside a launch".into(),
                    });
                }
                let aborted = cur.read_u8("aborted flag")? != 0;
                let end = if version >= 2 {
                    let stats = decode_stats(&mut cur, version)?;
                    LaunchEnd {
                        aborted,
                        fma_lane_ops: stats.fma_lane_ops,
                        stats: Some(stats),
                    }
                } else {
                    LaunchEnd {
                        aborted,
                        fma_lane_ops: cur.read_u64("fma lane ops")?,
                        stats: None,
                    }
                };
                launch_open = false;
                visitor.launch_end(&end);
            }
            other => {
                return Err(TraceError::Malformed {
                    offset: cur.pos(),
                    reason: format!("unknown record tag {other}"),
                });
            }
        }
    }
    if launch_open {
        visitor.launch_end(&LaunchEnd {
            aborted: true,
            fma_lane_ops: 0,
            stats: None,
        });
    }
    Ok(())
}

/// One fully materialized launch from [`read_launches`].
#[derive(Debug, Clone)]
pub struct LaunchTrace {
    /// Launch metadata.
    pub header: LaunchHeader,
    /// `(block_id, events)` in delivery (= block-id) order.
    pub blocks: Vec<(u64, Vec<TraceEvent>)>,
    /// How the launch ended.
    pub end: LaunchEnd,
}

/// Parses a binary trace into fully materialized launches (convenient for
/// tests and small traces; large traces should stream via [`read_trace`]).
///
/// # Errors
///
/// Propagates [`read_trace`]'s errors.
pub fn read_launches(bytes: &[u8]) -> Result<Vec<LaunchTrace>, TraceError> {
    #[derive(Default)]
    struct Collect {
        done: Vec<LaunchTrace>,
        open: Option<LaunchTrace>,
    }
    impl TraceVisitor for Collect {
        fn launch_begin(&mut self, header: &LaunchHeader) {
            self.open = Some(LaunchTrace {
                header: header.clone(),
                blocks: Vec::new(),
                end: LaunchEnd {
                    aborted: true,
                    fma_lane_ops: 0,
                    stats: None,
                },
            });
        }
        fn block_begin(&mut self, block_id: u64, event_count: u64) {
            if let Some(open) = self.open.as_mut() {
                // Untrusted varint: clamp the pre-allocation (see
                // `RESERVE_EVENTS_MAX`) — the vector grows organically if
                // a well-formed block really is bigger.
                let reserve = event_count.min(crate::RESERVE_EVENTS_MAX) as usize;
                open.blocks.push((block_id, Vec::with_capacity(reserve)));
            }
        }
        fn event(&mut self, _block_id: u64, ev: &TraceEvent) {
            if let Some((_, events)) = self.open.as_mut().and_then(|o| o.blocks.last_mut()) {
                events.push(*ev);
            }
        }
        fn launch_end(&mut self, end: &LaunchEnd) {
            if let Some(mut open) = self.open.take() {
                open.end = *end;
                self.done.push(open);
            }
        }
    }
    let mut collect = Collect::default();
    read_trace(bytes, &mut collect)?;
    Ok(collect.done)
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn round_trip_preserves_every_field() {
        let events = vec![
            ev(TraceOp::GmLd, 0, u32::MAX, 4, 1 << 20),
            ev(TraceOp::SmSt, 1, 0x0000_ffff, 8, 128),
            ev(TraceOp::CmLd, 2, 0x8000_0001, 0, 16),
            ev(TraceOp::GmSt, 3, 0, 4, 0), // fully masked-off warp
        ];
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("k1", 2, &spec));
        w.block_events(0, &events);
        w.block_events(1, &events[..2]);
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

        let launches = read_launches(&buf.take()).unwrap();
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
                spec: Some(spec),
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
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("k", 1, &spec));
        let events: Vec<TraceEvent> = (0..100)
            .map(|i| ev(TraceOp::GmLd, 0, u32::MAX, 4, i * 128))
            .collect();
        w.block_events(0, &events);
        w.launch_end(&KernelStats::default());
        // 32 lanes x 8-byte addresses = 256 B/event raw; delta coding must
        // stay well under a fifth of that.
        let bytes_per_event = buf.len() as f64 / events.len() as f64;
        assert!(bytes_per_event < 50.0, "{bytes_per_event} B/event");
    }

    #[test]
    fn begin_while_open_marks_previous_launch_aborted() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("faulty", 4, &spec));
        w.block_events(0, &[ev(TraceOp::GmLd, 0, 0xff, 4, 0)]);
        // No launch_end: the launch faulted. A new launch begins.
        w.launch_begin(&launch("clean", 1, &spec));
        w.block_events(0, &[]);
        w.launch_end(&KernelStats::default());
        let launches = read_launches(&buf.take()).unwrap();
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
        w.block_events(0, &[ev(TraceOp::SmLd, 0, 0xff, 8, 64)]);
        drop(w);
        let launches = read_launches(&buf.take()).unwrap();
        assert_eq!(launches.len(), 1);
        assert!(launches[0].end.aborted);
        assert_eq!(launches[0].blocks.len(), 1);
    }

    #[test]
    fn corrupt_streams_error_instead_of_panicking() {
        assert!(read_launches(b"").is_err());
        assert!(read_launches(b"NOPE\x01").is_err());
        let mut bad_version = Vec::new();
        bad_version.extend_from_slice(&MAGIC);
        bad_version.push(99);
        assert!(read_launches(&bad_version).is_err());
        // Valid header, garbage record tag.
        let mut bad_tag = Vec::new();
        bad_tag.extend_from_slice(&MAGIC);
        bad_tag.push(VERSION);
        bad_tag.push(77);
        assert!(read_launches(&bad_tag).is_err());
        // Truncate a valid stream at every byte: must never panic.
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = capture_spec();
        w.launch_begin(&launch("k", 1, &spec));
        w.block_events(0, &[ev(TraceOp::GmLd, 0, u32::MAX, 4, 1000)]);
        w.launch_end(&KernelStats::default());
        let bytes = buf.take();
        for cut in 0..bytes.len() {
            let _ = read_launches(&bytes[..cut]);
        }
        assert!(read_launches(&bytes).is_ok());
    }

    #[test]
    fn block_record_outside_launch_is_malformed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(TAG_BLOCK);
        bytes.push(0); // block id
        bytes.push(0); // event count
        assert!(matches!(
            read_launches(&bytes),
            Err(TraceError::Malformed { .. })
        ));
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
        w.block_events(0, &[]);
        w.launch_end(&KernelStats::default());
        let launches = read_launches(&buf.take()).unwrap();
        let got = launches[0].header.spec.as_ref().unwrap();
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

    /// Hand-encodes a v1 (spec-less) stream: the frozen legacy layout the
    /// reader must keep accepting.
    fn encode_v1_stream(events: &[TraceEvent], fma_lane_ops: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(V1);
        bytes.push(TAG_LAUNCH_BEGIN);
        write_u64(&mut bytes, 2);
        bytes.extend_from_slice(b"v1");
        write_u64(&mut bytes, 3); // grid blocks
        write_u64(&mut bytes, 3); // executed blocks
        write_u64(&mut bytes, 64); // threads per block
        write_u64(&mut bytes, 2048); // smem bytes
        bytes.push(TAG_BLOCK);
        write_u64(&mut bytes, 0);
        write_u64(&mut bytes, events.len() as u64);
        for ev in events {
            encode_event(&mut bytes, ev);
        }
        bytes.push(TAG_LAUNCH_END);
        bytes.push(0); // not aborted
        write_u64(&mut bytes, fma_lane_ops);
        bytes
    }

    #[test]
    fn v1_traces_still_decode_with_defaults() {
        let events = vec![
            ev(TraceOp::GmLd, 0, u32::MAX, 4, 4096),
            ev(TraceOp::SmLd, 1, 0x00ff_00ff, 8, 0),
        ];
        let bytes = encode_v1_stream(&events, 777);
        let launches = read_launches(&bytes).unwrap();
        assert_eq!(launches.len(), 1);
        let l = &launches[0];
        assert_eq!(l.header.kernel, "v1");
        assert_eq!(l.header.grid_blocks, 3);
        // v1 defaults: LaunchConfig::new's values, and no capture spec.
        assert_eq!(l.header.regs_per_thread, 32);
        assert_eq!(l.header.overlap, OverlapMode::Prefetch);
        assert_eq!(l.header.spec, None);
        assert_eq!(
            l.end,
            LaunchEnd {
                aborted: false,
                fma_lane_ops: 777,
                stats: None,
            }
        );
        let want: Vec<TraceEvent> = events.iter().map(|e| e.canonical()).collect();
        assert_eq!(l.blocks[0].1, want);
    }

    /// Hand-encodes the frozen v2/v3 stats record (no `bar_syncs` tail).
    fn encode_stats_pre_v4(bytes: &mut Vec<u8>, s: &KernelStats) {
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
            write_u64(bytes, v);
        }
        for v in s.sm_conflict_histogram {
            write_u64(bytes, v);
        }
        for v in [
            s.cm_requests,
            s.cm_cycles,
            s.cm_misses,
            s.barriers,
            s.blocks_executed,
            s.blocks_total,
        ] {
            write_u64(bytes, v);
        }
    }

    /// Hand-encodes a v2 stream: the frozen pre-`ro_cache_bytes` layout the
    /// reader must keep accepting.
    fn encode_v2_stream(spec: &GpuSpec, events: &[TraceEvent], stats: &KernelStats) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(V2);
        bytes.push(TAG_LAUNCH_BEGIN);
        write_u64(&mut bytes, 2);
        bytes.extend_from_slice(b"v2");
        write_u64(&mut bytes, 1); // grid blocks
        write_u64(&mut bytes, 1); // executed blocks
        write_u64(&mut bytes, 64); // threads per block
        write_u64(&mut bytes, 2048); // smem bytes
        write_u64(&mut bytes, 40); // regs per thread
        bytes.push(OverlapMode::Moderate.as_u8());
        // v2 spec: declaration order without ro_cache_bytes.
        write_u64(&mut bytes, spec.name.len() as u64);
        bytes.extend_from_slice(spec.name.as_bytes());
        write_u64(&mut bytes, u64::from(spec.sm_count));
        write_u64(&mut bytes, u64::from(spec.cores_per_sm));
        write_u64(&mut bytes, spec.clock_ghz.to_bits());
        write_u64(&mut bytes, u64::from(spec.smem_banks));
        bytes.push(spec.bank_width.bytes() as u8);
        write_u64(&mut bytes, u64::from(spec.smem_bytes_per_sm));
        write_u64(&mut bytes, u64::from(spec.max_threads_per_sm));
        write_u64(&mut bytes, u64::from(spec.max_blocks_per_sm));
        write_u64(&mut bytes, u64::from(spec.regs_per_sm));
        write_u64(&mut bytes, u64::from(spec.max_smem_per_block));
        write_u64(&mut bytes, spec.gm_bandwidth_gbs.to_bits());
        write_u64(&mut bytes, spec.gm_transaction_bytes);
        write_u64(&mut bytes, spec.gm_store_transaction_bytes);
        write_u64(&mut bytes, spec.cm_bytes);
        write_u64(&mut bytes, spec.cm_line_bytes);
        write_u64(&mut bytes, u64::from(spec.latency_hiding_warps));
        write_u64(&mut bytes, spec.issue_efficiency.to_bits());
        bytes.push(TAG_BLOCK);
        write_u64(&mut bytes, 0);
        write_u64(&mut bytes, events.len() as u64);
        for ev in events {
            encode_event(&mut bytes, ev);
        }
        bytes.push(TAG_LAUNCH_END);
        bytes.push(0); // not aborted
        encode_stats_pre_v4(&mut bytes, stats);
        bytes
    }

    #[test]
    fn v2_traces_decode_with_default_ro_cache() {
        let spec = capture_spec();
        let events = vec![ev(TraceOp::GmLd, 0, u32::MAX, 4, 4096)];
        let stats = KernelStats {
            fma_lane_ops: 99,
            blocks_total: 1,
            ..Default::default()
        };
        let bytes = encode_v2_stream(&spec, &events, &stats);
        let launches = read_launches(&bytes).unwrap();
        assert_eq!(launches.len(), 1);
        let got = launches[0].header.spec.as_ref().unwrap();
        assert_eq!(got.ro_cache_bytes, 48 * 1024);
        assert_eq!(got, &spec);
        assert_eq!(launches[0].end.stats.as_ref(), Some(&stats));
        // Truncation at every byte must never panic.
        for cut in 0..bytes.len() {
            let _ = read_launches(&bytes[..cut]);
        }
    }

    /// Hand-encodes a v3 stream: the frozen pre-`bar_syncs` layout (full
    /// spec including `ro_cache_bytes`, stats without the v4 tail) the
    /// reader must keep accepting.
    fn encode_v3_stream(spec: &GpuSpec, events: &[TraceEvent], stats: &KernelStats) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(V3);
        bytes.push(TAG_LAUNCH_BEGIN);
        write_u64(&mut bytes, 2);
        bytes.extend_from_slice(b"v3");
        write_u64(&mut bytes, 1); // grid blocks
        write_u64(&mut bytes, 1); // executed blocks
        write_u64(&mut bytes, 64); // threads per block
        write_u64(&mut bytes, 2048); // smem bytes
        write_u64(&mut bytes, 40); // regs per thread
        bytes.push(OverlapMode::Moderate.as_u8());
        // The v3 spec layout is the current one (encode_spec is unchanged
        // since v3 introduced ro_cache_bytes).
        encode_spec(&mut bytes, spec);
        bytes.push(TAG_BLOCK);
        write_u64(&mut bytes, 0);
        write_u64(&mut bytes, events.len() as u64);
        for ev in events {
            encode_event(&mut bytes, ev);
        }
        bytes.push(TAG_LAUNCH_END);
        bytes.push(0); // not aborted
        encode_stats_pre_v4(&mut bytes, stats);
        bytes
    }

    #[test]
    fn v3_traces_decode_with_zero_bar_syncs() {
        let spec = capture_spec();
        let events = vec![
            ev(TraceOp::GmLd, 0, u32::MAX, 4, 4096),
            ev(TraceOp::SmSt, 1, 0x00ff_00ff, 8, 0),
        ];
        let stats = KernelStats {
            fma_lane_ops: 321,
            barriers: 9,
            blocks_executed: 1,
            blocks_total: 1,
            ..Default::default()
        };
        let bytes = encode_v3_stream(&spec, &events, &stats);
        let launches = read_launches(&bytes).unwrap();
        assert_eq!(launches.len(), 1);
        let l = &launches[0];
        assert_eq!(l.header.kernel, "v3");
        assert_eq!(l.header.spec.as_ref(), Some(&spec));
        let got = l.end.stats.as_ref().unwrap();
        assert_eq!(got.barriers, 9);
        // Pre-v4 captures carry no arrival counts: default to zero.
        assert_eq!(got.bar_syncs, 0);
        assert_eq!(got, &stats);
        let want: Vec<TraceEvent> = events.iter().map(|e| e.canonical()).collect();
        assert_eq!(l.blocks[0].1, want);
        // Truncation at every byte must never panic.
        for cut in 0..bytes.len() {
            let _ = read_launches(&bytes[..cut]);
        }
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
        w.block_events(0, &events);
        let stats = KernelStats {
            barriers: 4,
            bar_syncs: 8,
            blocks_executed: 1,
            blocks_total: 1,
            ..Default::default()
        };
        w.launch_end(&stats);
        let launches = read_launches(&buf.take()).unwrap();
        let l = &launches[0];
        assert_eq!(l.end.stats.as_ref().unwrap().bar_syncs, 8);
        assert_eq!(l.blocks[0].1[1], bar);
    }

    #[test]
    fn v1_truncation_never_panics() {
        let bytes = encode_v1_stream(&[ev(TraceOp::CmLd, 0, 0x0f, 0, 99)], 5);
        for cut in 0..bytes.len() {
            let _ = read_launches(&bytes[..cut]);
        }
        assert!(read_launches(&bytes).is_ok());
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
    /// through the streaming reader, across the varint/zigzag edge cases:
    /// `u64::MAX` addresses (deltas wrap), single-lane and empty masks,
    /// zero-transaction events, and multi-launch streams.
    #[test]
    fn random_streams_round_trip_bit_exactly() {
        for seed in 0..8u64 {
            let mut rng = Rng(0xD1CE_0000 + seed);
            let spec = capture_spec();
            let buf = SharedBuffer::new();
            let mut w = TraceWriter::new(buf.clone());
            let mut want: Vec<LaunchTrace> = Vec::new();
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
                                _ => LaneMask(rng.next() as u32),      // arbitrary
                            };
                            let mut addrs = [0u64; WARP_SIZE];
                            for (lane, slot) in addrs.iter_mut().enumerate() {
                                if mask.is_active(lane) {
                                    *slot = match rng.next() % 4 {
                                        0 => u64::MAX - (rng.next() % 3), // wraparound deltas
                                        1 => rng.next(),                  // scattered
                                        _ => 1024 + lane as u64 * 4,      // strided
                                    };
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
                    w.block_events(block_id as usize, &events);
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
                want.push(LaunchTrace {
                    header: LaunchHeader {
                        kernel: name,
                        grid_blocks: blocks,
                        executed_blocks: blocks,
                        threads_per_block: threads_per_block as u64,
                        smem_bytes: u64::from(smem_bytes),
                        regs_per_thread: u64::from(regs_per_thread),
                        overlap,
                        spec: Some(spec.clone()),
                    },
                    blocks: blocks_want,
                    end: LaunchEnd {
                        aborted: false,
                        fma_lane_ops: stats.fma_lane_ops,
                        stats: Some(stats),
                    },
                });
            }
            let (_, err) = w.into_inner();
            assert!(err.is_none());
            let got = read_launches(&buf.take()).unwrap();
            assert_eq!(got.len(), want.len(), "seed {seed}");
            for (g, w_) in got.iter().zip(&want) {
                assert_eq!(g.header, w_.header, "seed {seed}");
                assert_eq!(g.end, w_.end, "seed {seed}");
                assert_eq!(g.blocks, w_.blocks, "seed {seed}");
            }
        }
    }
}
