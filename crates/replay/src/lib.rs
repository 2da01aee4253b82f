//! # kconv-replay — re-price captured kernel traces under any [`GpuSpec`]
//!
//! The paper's central observation is that memory cost is a function of
//! *addresses* and *architecture*, not of kernel code: the same warp
//! access pattern that runs conflict-free on Fermi's 4-byte shared-memory
//! banks wastes half the SM bandwidth on Kepler's 8-byte banks (the
//! bank-width mismatch factor, eq. 1). A KTRC trace records exactly
//! the address side of that function — per-lane byte addresses, live
//! masks and lane widths for every warp memory instruction — so the cost
//! side can be recomputed offline for an architecture the kernel never
//! ran on.
//!
//! [`replay`] is that recomputation. It consumes a binary trace and a
//! [`TargetSpec`], re-derives every architecture-dependent counter
//! (global-memory coalesced transactions, read-only-cache residency,
//! shared-memory bank-conflict replay cycles, constant-cache
//! serialization and misses) from the recorded addresses using the *same*
//! pricing functions the live simulator charges with
//! ([`kconv_sim::pricing`]), and re-runs the timing model on the result.
//! Replaying a trace under its own capture spec therefore reproduces the
//! live launch's [`KernelStats`] bit for bit — the differential gate the
//! `trace_report` harness and CI enforce — while replaying under a
//! different spec answers the what-if question directly: *what would this
//! exact kernel execution have cost on that machine?*
//!
//! What is recomputable from the trace alone and what is not:
//!
//! * **Recomputed per event**: GM transactions/bus bytes (coalescing is
//!   `segment_count` over addresses), read-only-cache hits vs misses
//!   (FIFO residency per block), SM conflict cycles/broadcasts (bank
//!   math over addresses), CM serialization/misses (distinct words and
//!   first-touch lines). A trace event records no cost of its own; these
//!   reproduce the launch-end record's live totals under the capture spec
//!   and may legitimately differ from them under any other.
//! * **Grafted from the launch-end record** (architecture-independent,
//!   not re-derivable from memory events): `fma_lane_ops`,
//!   `alu_lane_ops`, `barriers`.
//! * **Reconstructed from the header**: launch geometry and resource
//!   declaration, which feed occupancy and the timing model; sampled
//!   launches are re-scaled with the same round-to-nearest rule the
//!   live launcher uses.
//!
//! The crate is a **batch facility**, fast in both loops. Inner loop:
//! [`Trace::decode`], the one KTRC reader, parses the byte stream once
//! into flat slabs, and [`replay_decoded`] / [`replay_launch`] re-price
//! the in-memory form — an N-spec sweep pays the varint decoder exactly
//! once ([`replay`] is the decode-then-price wrapper). Outer loop: the
//! [`farm`] module fans the pure trace×spec cells of a sweep over a
//! scoped thread pool with deterministic, thread-count-invariant output.
//!
//! A sweep walks each launch **once** for all of its specs. No op's price
//! reads more than two spec fields, so every event is priced once per
//! distinct *pricing key* of the fields its op reads, and each spec's
//! counters are the sum of its keys' parts:
//!
//! | op | key |
//! |---|---|
//! | `GmLd` | `gm_transaction_bytes` |
//! | `GmSt` | `gm_store_transaction_bytes` |
//! | `GmLdRo` | `(gm_transaction_bytes, ro_capacity_lines(..))`, with a per-block FIFO per key |
//! | `SmLd`/`SmSt` | `(smem_banks, bank_width)` |
//! | `CmLd` | `cm_line_bytes`, with a launch-scoped line set per key |
//!
//! Events reach the pricing core in their decoded form, a
//! [`WarpAccess`], readied once per event and priced per key by
//! [`PreparedAccess`]: affine events (`first + k·step` over the active
//! lanes) and most two-level ones in closed form from the stride and the
//! unit, without expanding 32 lanes; explicit events and the other
//! shapes by the lane engine. The warp-uniform constant load (`CmLd`
//! with step 0, the dominant event of the paper's kernels) is one
//! distinct address: one line per key, no serialization.
//!
//! Sampled scaling, the launch-end graft and the timing model then run
//! per spec. [`replay_launch`] is the one-spec case of the same pricing.
//!
//! ```
//! use kconv_replay::{replay, TargetSpec};
//! use kconv_sim::{lane_addrs, Gpu, GpuSpec, LaneMask, LaunchConfig, SimMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
//! let src = gpu.alloc_f32(32)?;
//! gpu.upload_f32(src, &[1.0; 32])?;
//! let (report, bytes) = kconv_trace::capture(&mut gpu, |gpu| {
//!     gpu.launch(&LaunchConfig::new("read", 1, 32), SimMode::Full, |blk| {
//!         blk.each_warp(|w| {
//!             w.ld_global::<1>(&lane_addrs(src.f32_addr(0), 4), LaneMask::ALL);
//!         });
//!     })
//! });
//! let report = report?;
//!
//! // Under the capture spec the replay is bit-identical to the live run.
//! let replayed = replay(&bytes, &TargetSpec::Capture)?;
//! assert_eq!(replayed[0].stats, report.stats);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod farm;

use std::collections::HashSet;

use kconv_sim::pricing::{ro_capacity_lines, PreparedAccess, RoCache, WarpAccess};
use kconv_sim::{timing, BankWidth, GpuSpec, KernelStats, LaneMask, LaunchConfig, Timing, TraceOp};
use kconv_trace::{LaunchEnd, LaunchHeader};

pub use farm::{sweep, sweep_cells, SweepCell};
pub use kconv_trace::{DecodedLaunch, Trace, TraceError};

/// Which architecture to price the replay under.
#[derive(Debug, Clone)]
pub enum TargetSpec {
    /// The spec embedded in each launch header. Replaying this way
    /// reproduces the live counters bit-exactly.
    Capture,
    /// An explicit spec — the what-if case.
    Spec(GpuSpec),
}

/// Errors from [`replay`].
#[derive(Debug)]
pub enum ReplayError {
    /// The trace bytes could not be parsed.
    Trace(TraceError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "replay: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
        }
    }
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

/// Replayed totals for one [`TraceOp`] kind (unscaled: the events actually
/// present in the trace, before any sampled-launch extrapolation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Warp instructions of this kind.
    pub events: u64,
    /// Active lanes summed over those instructions.
    pub lane_accesses: u64,
    /// Bytes the active lanes requested (`mask.count() * lane_bytes`).
    /// Spec-independent: a sweep over target specs must leave this fixed.
    pub useful_bytes: u64,
    /// Re-priced global-memory bus transactions (0 for SM/CM ops).
    pub transactions: u64,
    /// Re-priced SM/CM pipeline cycles (0 for GM ops).
    pub cycles: u64,
}

/// One launch of a trace, re-priced under a target architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Kernel name from the launch header.
    pub kernel: String,
    /// Blocks the captured grid logically contained.
    pub grid_blocks: u64,
    /// Blocks whose events are in the trace (fewer when sampled).
    pub executed_blocks: u64,
    /// The spec embedded in the launch header.
    pub capture_spec: GpuSpec,
    /// The spec this replay was priced under.
    pub target_spec: GpuSpec,
    /// Re-priced counters for the full grid — scaled with the live
    /// launcher's rule when the capture was sampled. Under the capture
    /// spec these equal the live launch's stats bit for bit.
    pub stats: KernelStats,
    /// Unscaled per-op totals, indexed by [`TraceOp::index`].
    pub per_op: [OpCost; TraceOp::COUNT],
    /// Timing-model evaluation of `stats` under the target spec. `None`
    /// for aborted launches or when the launch cannot run on the target
    /// (see `timing_error`).
    pub timing: Option<Timing>,
    /// Why the timing model could not run (e.g. the captured block shape
    /// exceeds the target's occupancy limits), if it could not.
    pub timing_error: Option<String>,
    /// Whether the capture aborted (faulted launch / truncated trace) —
    /// the stats then cover only the clean prefix of blocks, unscaled.
    pub aborted: bool,
}

impl ReplayReport {
    /// Replayed totals for one op kind.
    pub fn op(&self, op: TraceOp) -> &OpCost {
        &self.per_op[op.index()]
    }

    /// Total shared-memory pipeline cycles (loads + stores, replays
    /// included) of the full-grid stats.
    pub fn sm_cycles(&self) -> u64 {
        self.stats.sm_ld_cycles + self.stats.sm_st_cycles
    }

    /// Shared-memory bandwidth waste: bytes the SM pipeline *moved*
    /// (cycles × full bank-row width) per byte the lanes *requested*.
    /// 1.0 is a perfectly matched access pattern; the paper's bank-width
    /// mismatch inflates this by exactly the mismatch factor `n` (eq. 1).
    /// 0.0 when the launch touched no shared memory.
    pub fn sm_waste(&self) -> f64 {
        if self.stats.sm_bytes_useful == 0 {
            return 0.0;
        }
        (self.sm_cycles() * self.target_spec.smem_bytes_per_cycle()) as f64
            / self.stats.sm_bytes_useful as f64
    }

    /// Total re-priced global-memory bus transactions (loads + stores).
    pub fn gm_transactions(&self) -> u64 {
        self.stats.gm_ld_transactions + self.stats.gm_st_transactions
    }
}

/// Coalesced-transaction total for one transaction size: the `GmLd` part
/// keyed by `gm_transaction_bytes`, the `GmSt` part keyed by
/// `gm_store_transaction_bytes`.
struct GmPart {
    seg: u64,
    transactions: u64,
}

/// Read-only-path loads for one `(gm_transaction_bytes, capacity)` key:
/// the per-block FIFO those two fields size, and what it charged.
struct RoPart {
    seg: u64,
    capacity: usize,
    /// Fresh at each `block_begin` — the live simulator's reset discipline.
    cache: RoCache,
    hits: u64,
    misses: u64,
}

/// Shared-memory bank math for one `(smem_banks, bank_width)` key.
struct SmPart {
    banks: u32,
    bank_width: BankWidth,
    ld_cycles: u64,
    st_cycles: u64,
    broadcasts: u64,
    histogram: [u64; 6],
}

/// Constant-cache residency for one `cm_line_bytes` key: lines (address ÷
/// line bytes) touched so far in the launch. The live model never evicts
/// within a launch, so a `HashSet` reproduces its miss count exactly.
struct CmPart {
    line_bytes: u64,
    lines: HashSet<u64>,
    /// The line touched last: with no eviction it is resident, so a
    /// repeat touch (consecutive broadcasts of one filter row) is a hit
    /// without a set probe.
    last: Option<u64>,
    misses: u64,
}

impl CmPart {
    /// Touches every line a load's distinct addresses fall in. The live
    /// model dedups at byte (not lane-width) granularity, so the access
    /// is priced with one-byte lanes; a power-of-two line is a unit of
    /// its own, any other line size divides each distinct address.
    fn load(&mut self, access: &PreparedAccess<'_>) {
        if self.line_bytes.is_power_of_two() {
            access.for_each_new_unit(self.line_bytes, |line| self.touch(line));
        } else {
            let line_bytes = self.line_bytes;
            access.for_each_new_unit(1, |addr| self.touch(addr / line_bytes));
        }
    }

    fn touch(&mut self, line: u64) {
        if self.last == Some(line) {
            return;
        }
        self.last = Some(line);
        if self.lines.insert(line) {
            self.misses += 1;
        }
    }
}

/// Which part of each kind one target spec reads.
#[derive(Clone, Copy)]
struct SpecKeys {
    gm_ld: usize,
    gm_st: usize,
    ro: usize,
    sm: usize,
    cm: usize,
}

/// Index of the part `is_key` matches, pushing `make()` if none does.
fn key_of<P>(parts: &mut Vec<P>, is_key: impl Fn(&P) -> bool, make: impl FnOnce() -> P) -> usize {
    parts.iter().position(is_key).unwrap_or_else(|| {
        parts.push(make());
        parts.len() - 1
    })
}

/// The one pricing core: one launch being re-priced under a set of
/// target specs, fed by the decoded slab walker ([`price_launch`]) that
/// both [`replay_launch`] and [`sweep`] run. Every path goes through the
/// same three methods, which is what makes the one-spec ≡ swept
/// differential hold by construction.
///
/// Each event is priced once per distinct *pricing key* (the crate docs'
/// table), not once per spec. Request counts, lane counts, useful bytes
/// and constant-memory cycles read no spec field and are counted once.
/// [`LaunchAccum::finish`] sums each spec's keys' parts into its
/// [`KernelStats`] and per-op table, then scales, grafts and times per
/// spec.
struct LaunchAccum {
    header: LaunchHeader,
    specs: Vec<GpuSpec>,
    keys: Vec<SpecKeys>,
    blocks_executed: u64,
    /// Spec-independent per-op totals: events, lanes, useful bytes, and
    /// the constant-memory cycles (one per distinct address past the
    /// first, whatever the line size).
    common: [OpCost; TraceOp::COUNT],
    gm_ld: Vec<GmPart>,
    gm_st: Vec<GmPart>,
    ro: Vec<RoPart>,
    sm: Vec<SmPart>,
    cm: Vec<CmPart>,
}

impl LaunchAccum {
    fn begin(header: LaunchHeader, specs: Vec<GpuSpec>) -> Self {
        let mut accum = LaunchAccum {
            header,
            specs: Vec::new(),
            keys: Vec::with_capacity(specs.len()),
            blocks_executed: 0,
            common: [OpCost::default(); TraceOp::COUNT],
            gm_ld: Vec::new(),
            gm_st: Vec::new(),
            ro: Vec::new(),
            sm: Vec::new(),
            cm: Vec::new(),
        };
        for spec in &specs {
            let seg = spec.gm_transaction_bytes;
            let st_seg = spec.gm_store_transaction_bytes;
            let capacity = ro_capacity_lines(spec.ro_cache_bytes, seg);
            let (banks, bank_width) = (spec.smem_banks, spec.bank_width);
            let line_bytes = spec.cm_line_bytes;
            let keys = SpecKeys {
                gm_ld: key_of(
                    &mut accum.gm_ld,
                    |p| p.seg == seg,
                    || GmPart {
                        seg,
                        transactions: 0,
                    },
                ),
                gm_st: key_of(
                    &mut accum.gm_st,
                    |p| p.seg == st_seg,
                    || GmPart {
                        seg: st_seg,
                        transactions: 0,
                    },
                ),
                ro: key_of(
                    &mut accum.ro,
                    |p| (p.seg, p.capacity) == (seg, capacity),
                    || RoPart {
                        seg,
                        capacity,
                        cache: RoCache::new(capacity),
                        hits: 0,
                        misses: 0,
                    },
                ),
                sm: key_of(
                    &mut accum.sm,
                    |p| (p.banks, p.bank_width) == (banks, bank_width),
                    || SmPart {
                        banks,
                        bank_width,
                        ld_cycles: 0,
                        st_cycles: 0,
                        broadcasts: 0,
                        histogram: [0; 6],
                    },
                ),
                cm: key_of(
                    &mut accum.cm,
                    |p| p.line_bytes == line_bytes,
                    || CmPart {
                        line_bytes,
                        lines: HashSet::new(),
                        last: None,
                        misses: 0,
                    },
                ),
            };
            accum.keys.push(keys);
        }
        accum.specs = specs;
        accum
    }

    fn block_begin(&mut self) {
        self.blocks_executed += 1;
        // The read-only cache is per-SM, per-block residency in the live
        // model: empty at every block.
        for p in &mut self.ro {
            p.cache.clear();
        }
    }

    /// Re-prices one event under every key, charging each part exactly
    /// the way the live memory models charge their counters (`GmPlane`,
    /// `SharedMemory`, `CmPlane` in `kconv-sim`). The event's lanes come
    /// in their decoded form, which is readied for pricing once and then
    /// priced per key: in closed form for the common affine and two-level
    /// shapes, by the lane engine otherwise.
    fn event(&mut self, op: TraceOp, mask: LaneMask, lane_bytes: u32, access: WarpAccess<'_>) {
        let width = u64::from(lane_bytes);
        let t = &mut self.common[op.index()];
        t.events += 1;
        t.lane_accesses += u64::from(mask.count());
        t.useful_bytes += u64::from(mask.count()) * width;
        match op {
            TraceOp::GmLd => {
                let access = access.prepare(mask, width);
                for p in &mut self.gm_ld {
                    p.transactions += access.segment_count(p.seg);
                }
            }
            TraceOp::GmSt => {
                let access = access.prepare(mask, width);
                for p in &mut self.gm_st {
                    p.transactions += access.segment_count(p.seg);
                }
            }
            TraceOp::GmLdRo => {
                let access = access.prepare(mask, width);
                for p in &mut self.ro {
                    let RoPart {
                        seg,
                        cache,
                        hits,
                        misses,
                        ..
                    } = p;
                    access.for_each_new_unit(*seg, |line| {
                        if cache.touch(line) {
                            *hits += 1;
                        } else {
                            *misses += 1;
                        }
                    });
                }
            }
            TraceOp::SmLd | TraceOp::SmSt => {
                let access = access.prepare(mask, width);
                for p in &mut self.sm {
                    let out = access.bank_conflict_cycles(p.banks, p.bank_width);
                    if op == TraceOp::SmLd {
                        p.ld_cycles += out.cycles;
                    } else {
                        p.st_cycles += out.cycles;
                    }
                    p.broadcasts += u64::from(out.broadcast);
                    p.histogram[KernelStats::conflict_bucket(out.cycles)] += 1;
                }
            }
            TraceOp::CmLd => {
                // Constant loads are priced at byte granularity; one
                // distinct address past the first is one cycle.
                let access = access.prepare(mask, 1);
                for p in &mut self.cm {
                    p.load(&access);
                }
                let distinct = access.segment_count(1);
                self.common[op.index()].cycles += distinct.saturating_sub(1);
            }
            TraceOp::Bar => {
                // Barrier arrivals touch no memory and are
                // architecture-independent: the counters come from the
                // launch-end graft, so repricing charges nothing here.
            }
        }
    }

    /// One spec's unscaled counters and per-op table: the spec-independent
    /// totals plus the parts its keys select.
    fn totals(&self, k: SpecKeys) -> (KernelStats, [OpCost; TraceOp::COUNT]) {
        let c = |op: TraceOp| self.common[op.index()];
        let (ld, st, ro, sm, cm) = (
            &self.gm_ld[k.gm_ld],
            &self.gm_st[k.gm_st],
            &self.ro[k.ro],
            &self.sm[k.sm],
            &self.cm[k.cm],
        );
        let mut per_op = self.common;
        per_op[TraceOp::GmLd.index()].transactions = ld.transactions;
        per_op[TraceOp::GmSt.index()].transactions = st.transactions;
        per_op[TraceOp::GmLdRo.index()].transactions = ro.misses;
        per_op[TraceOp::SmLd.index()].cycles = sm.ld_cycles;
        per_op[TraceOp::SmSt.index()].cycles = sm.st_cycles;
        // Plain and read-only loads share the load transaction size.
        debug_assert_eq!(ld.seg, ro.seg);
        let ld_transactions = ld.transactions + ro.misses;
        let stats = KernelStats {
            gm_ld_requests: c(TraceOp::GmLd).events + c(TraceOp::GmLdRo).events,
            gm_st_requests: c(TraceOp::GmSt).events,
            gm_ld_transactions: ld_transactions,
            gm_st_transactions: st.transactions,
            gm_ld_bytes_bus: ld_transactions * ld.seg,
            gm_st_bytes_bus: st.transactions * st.seg,
            gm_ld_bytes_useful: c(TraceOp::GmLd).useful_bytes + c(TraceOp::GmLdRo).useful_bytes,
            gm_st_bytes_useful: c(TraceOp::GmSt).useful_bytes,
            gm_ro_hits: ro.hits,
            sm_ld_requests: c(TraceOp::SmLd).events,
            sm_st_requests: c(TraceOp::SmSt).events,
            sm_ld_cycles: sm.ld_cycles,
            sm_st_cycles: sm.st_cycles,
            sm_bytes_useful: c(TraceOp::SmLd).useful_bytes + c(TraceOp::SmSt).useful_bytes,
            sm_broadcasts: sm.broadcasts,
            sm_conflict_histogram: sm.histogram,
            cm_requests: c(TraceOp::CmLd).events,
            cm_cycles: c(TraceOp::CmLd).cycles,
            cm_misses: cm.misses,
            blocks_executed: self.blocks_executed,
            ..KernelStats::default()
        };
        (stats, per_op)
    }

    /// One report per target spec, in the order the specs were given.
    fn finish(self, end: &LaunchEnd) -> Vec<ReplayReport> {
        self.specs
            .iter()
            .zip(&self.keys)
            .map(|(spec, &k)| {
                let (stats, per_op) = self.totals(k);
                finish_spec(&self.header, spec.clone(), stats, per_op, end)
            })
            .collect()
    }
}

/// Completes one spec's report from its unscaled launch totals: sampled
/// scaling, the launch-end graft and the timing model.
fn finish_spec(
    header: &LaunchHeader,
    spec: GpuSpec,
    mut stats: KernelStats,
    per_op: [OpCost; TraceOp::COUNT],
    end: &LaunchEnd,
) -> ReplayReport {
    let grid = header.grid_blocks;
    let executed = stats.blocks_executed;
    if end.aborted {
        // A faulted capture has no final live stats: report the clean
        // prefix as-is, unscaled.
        stats.blocks_total = grid;
    } else if executed == grid {
        stats.blocks_total = grid;
    } else {
        // Sampled capture: extrapolate with the live launcher's
        // round-to-nearest rule.
        stats = stats.scaled_to_blocks(grid, executed.max(1));
    }
    // Arithmetic and barrier counts are not memory events — graft them
    // from the (already scaled) launch-end stats. A stream cut inside the
    // launch has none.
    if let Some(live) = &end.stats {
        stats.fma_lane_ops = live.fma_lane_ops;
        stats.alu_lane_ops = live.alu_lane_ops;
        stats.barriers = live.barriers;
        stats.bar_syncs = live.bar_syncs;
    }
    let (timing, timing_error) = if end.aborted {
        (None, None)
    } else {
        let cfg = LaunchConfig {
            name: header.kernel.clone(),
            blocks: grid as usize,
            threads_per_block: header.threads_per_block as usize,
            smem_bytes: header.smem_bytes as u32,
            regs_per_thread: header.regs_per_thread as u32,
            overlap: header.overlap,
        };
        match timing::evaluate(&spec, &cfg, &stats) {
            Ok(t) => (Some(t), None),
            Err(e) => (None, Some(e.to_string())),
        }
    };
    ReplayReport {
        kernel: header.kernel.clone(),
        grid_blocks: grid,
        executed_blocks: executed,
        capture_spec: header.spec.clone(),
        target_spec: spec,
        stats,
        per_op,
        timing,
        timing_error,
        aborted: end.aborted,
    }
}

/// Resolves the pricing spec for one launch header under `target`.
fn resolve_spec(header: &LaunchHeader, target: &TargetSpec) -> GpuSpec {
    match target {
        TargetSpec::Spec(s) => s.clone(),
        TargetSpec::Capture => header.spec.clone(),
    }
}

/// Re-prices every launch in a binary KTRC trace under `target`, decoding
/// the byte stream **once** into a [`Trace`] and replaying the in-memory
/// form. Re-pricing the same capture under many specs should decode once
/// with [`Trace::decode`] and call [`replay_decoded`] per spec instead.
///
/// # Errors
///
/// [`ReplayError::Trace`] when the bytes are not a well-formed trace.
pub fn replay(bytes: &[u8], target: &TargetSpec) -> Result<Vec<ReplayReport>, ReplayError> {
    let trace = Trace::decode(bytes)?;
    replay_decoded(&trace, target)
}

/// Re-prices every launch of an already-decoded [`Trace`] under `target`.
/// This is the farm's inner loop: decode once, call this per grid cell.
///
/// # Errors
///
/// None: the trace is already parsed and every launch header embeds its
/// capture spec. The `Result` matches [`replay`]'s signature.
pub fn replay_decoded(
    trace: &Trace,
    target: &TargetSpec,
) -> Result<Vec<ReplayReport>, ReplayError> {
    trace
        .launches()
        .iter()
        .map(|launch| replay_launch(launch, target))
        .collect()
}

/// Re-prices one decoded launch under `target`: walks the flat slabs,
/// pricing each event from its decoded form. This is the one-spec case
/// of the pricing [`sweep`] runs.
///
/// # Errors
///
/// None, as for [`replay_decoded`].
pub fn replay_launch(
    launch: &DecodedLaunch,
    target: &TargetSpec,
) -> Result<ReplayReport, ReplayError> {
    let spec = resolve_spec(&launch.header, target);
    Ok(price_launch(launch, vec![spec])
        .pop()
        .expect("one report per spec"))
}

/// Re-prices one decoded launch under every spec of `specs` in a single
/// walk over its slabs; one report per spec, in order.
pub(crate) fn price_launch(launch: &DecodedLaunch, specs: Vec<GpuSpec>) -> Vec<ReplayReport> {
    let mut accum = LaunchAccum::begin(launch.header.clone(), specs);
    for block in launch.blocks() {
        accum.block_begin();
        block.for_each(|head, access| {
            accum.event(head.op, head.mask, head.lane_bytes, access);
        });
    }
    accum.finish(&launch.end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_sim::{
        lane_addrs, lane_addrs_uniform, Gpu, KernelStats, LaneMask, LaunchConfig, LaunchReport,
        OverlapMode, Parallelism, SimMode, TraceEvent, TraceLaunch, TraceSink, WARP_SIZE,
    };
    use kconv_trace::{affine_addrs, SharedBuffer, TraceWriter};

    /// A kernel exercising every traced op: plain/read-only/store global
    /// traffic, matched and mismatched shared-memory patterns, divergent
    /// constant reads, FMAs and barriers.
    fn all_ops_launch(parallelism: Parallelism, mode: SimMode) -> (LaunchReport, Vec<u8>) {
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
        let src = gpu.alloc_f32(1024).unwrap();
        let dst = gpu.alloc_f32(1024).unwrap();
        let vals: Vec<f32> = (0..1024).map(|i| i as f32 * 0.5).collect();
        gpu.upload_f32(src, &vals).unwrap();
        gpu.write_const_f32(0, &[2.0; 64]).unwrap();
        let cfg = LaunchConfig::new("all-ops", 6, 64)
            .with_smem(4096)
            .with_regs(40);
        let (report, bytes) = kconv_trace::capture(&mut gpu, |gpu| {
            gpu.launch(&cfg, mode, |blk| {
                let id = blk.dims.block_id as u64;
                blk.each_warp(|w| {
                    let wid = w.warp_id() as u64;
                    let g = lane_addrs(src.f32_addr((id * 64 + wid * 32) % 512), 4);
                    let x = w.ld_global::<1>(&g, LaneMask::ALL);
                    // Read-only path with block overlap: the second warp
                    // re-touches lines the first warp cached.
                    let r = lane_addrs(src.f32_addr((id % 4) * 64), 8);
                    let y = w.ld_global_ro::<2>(&r, LaneMask::first(20));
                    let c = w.ld_const(&lane_addrs_uniform(4 * (id % 16)), LaneMask::ALL);
                    // Unvectorized float store: stride 4 B — conflict-free
                    // on 4 B banks, half-bandwidth on Kepler's 8 B banks.
                    let s4 = lane_addrs(wid * 512, 4);
                    let v: [[f32; 1]; WARP_SIZE] =
                        std::array::from_fn(|l| [x[l][0] + y[l % 20][0] + c[l]]);
                    w.st_shared::<1>(&s4, &v, LaneMask::ALL);
                    let z = w.ld_shared::<1>(&s4, LaneMask::ALL);
                    // float2 pattern: stride 8 B, one lane per 8 B bank.
                    let s8 = lane_addrs(1024 + wid * 512, 8);
                    let v2: [[f32; 2]; WARP_SIZE] =
                        std::array::from_fn(|l| [z[l][0], z[(l + 1) % 32][0]]);
                    w.st_shared::<2>(&s8, &v2, LaneMask::ALL);
                    let q = w.ld_shared::<2>(&s8, LaneMask::ALL);
                    let d = lane_addrs(dst.f32_addr(id * 64 + wid * 32), 4);
                    let out: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [q[l][0] + q[l][1]]);
                    w.st_global::<1>(&d, &out, LaneMask::ALL);
                    w.count_fma(96);
                });
                blk.sync();
            })
        });
        (report.unwrap(), bytes)
    }

    #[test]
    fn replay_under_capture_spec_is_bit_identical_to_live() {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
            let (live, bytes) = all_ops_launch(parallelism, SimMode::Full);
            let reports = replay(&bytes, &TargetSpec::Capture).unwrap();
            assert_eq!(reports.len(), 1);
            let r = &reports[0];
            assert_eq!(r.kernel, "all-ops");
            assert!(!r.aborted);
            assert_eq!(r.stats, live.stats, "{parallelism:?}");
            assert_eq!(r.timing, Some(live.timing), "{parallelism:?}");
            assert_eq!(r.capture_spec, r.target_spec);
            // The kernel exercised every op kind.
            for op in TraceOp::ALL {
                assert!(r.op(op).events > 0, "no {op} events replayed");
            }
            // Three-way differential: a trace decoded once and priced
            // launch by launch agrees with the byte-stream `replay` and,
            // under the capture spec, with the live counters, bit for bit.
            let trace = Trace::decode(&bytes).unwrap();
            let decoded = replay_decoded(&trace, &TargetSpec::Capture).unwrap();
            assert_eq!(decoded, reports, "{parallelism:?}");
            let launch = replay_launch(&trace.launches()[0], &TargetSpec::Capture).unwrap();
            assert_eq!(launch, reports[0], "{parallelism:?}");
        }
    }

    /// splitmix64, as in the trace-format property tests.
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

    /// Writer-vs-decoder differential on seeded random streams: for
    /// arbitrary (not just kernel-shaped) event soup of affine and
    /// explicit events, under the capture spec, every preset and a
    /// non-power-of-two constant line, replaying the decoded bytes must
    /// equal pricing the events the writer was given, and `replay` must
    /// equal `replay_decoded`.
    #[test]
    fn decoded_replay_equals_pricing_the_written_events() {
        for seed in 0..6u64 {
            let mut rng = Rng(0xFA21_0000 + seed);
            let spec = GpuSpec::kepler_k40m();
            let buf = SharedBuffer::new();
            let mut w = TraceWriter::new(buf.clone());
            let mut written = Vec::new();
            for li in 0..1 + (seed % 3) {
                let blocks = 1 + rng.next() % 5;
                let header = LaunchHeader {
                    kernel: format!("rand-{seed}-{li}"),
                    grid_blocks: blocks,
                    executed_blocks: blocks,
                    threads_per_block: 32 * (1 + rng.next() % 8),
                    smem_bytes: rng.next() % 40_000,
                    regs_per_thread: 16 + rng.next() % 48,
                    overlap: OverlapMode::from_u8((rng.next() % 3) as u8).unwrap(),
                    spec: spec.clone(),
                };
                w.launch_begin(&TraceLaunch {
                    kernel: &header.kernel,
                    grid_blocks: blocks as usize,
                    executed_blocks: blocks as usize,
                    threads_per_block: header.threads_per_block as usize,
                    smem_bytes: header.smem_bytes as u32,
                    regs_per_thread: header.regs_per_thread as u32,
                    overlap: header.overlap,
                    spec: &spec,
                });
                let mut launch_events = Vec::new();
                for block_id in 0..blocks {
                    let events: Vec<TraceEvent> = (0..rng.next() % 24)
                        .map(|_| {
                            let mask = LaneMask(match rng.next() % 4 {
                                0 => 0,
                                1 => 1 << (rng.next() % 32),
                                2 => u32::MAX,
                                _ => rng.next() as u32,
                            });
                            // Affine lanes (step 0, positive, negative,
                            // wrapping past u64::MAX) or lane-indexed
                            // strides re-rolled per lane (non-affine).
                            let first = rng.next() % (1 << 30);
                            let mut addrs = match rng.next() % 6 {
                                0 => affine_addrs(mask, first, 0),
                                1 => affine_addrs(mask, first, 1 + rng.next() % 40),
                                2 => {
                                    affine_addrs(mask, first, (1 + rng.next() % 40).wrapping_neg())
                                }
                                3 => affine_addrs(mask, u64::MAX - rng.next() % 64, 4),
                                _ => [0; WARP_SIZE],
                            };
                            for (lane, slot) in addrs.iter_mut().enumerate() {
                                if mask.is_active(lane) && *slot == 0 {
                                    *slot = match rng.next() % 3 {
                                        0 => rng.next() % (1 << 30), // scattered
                                        _ => 4096 + lane as u64 * (rng.next() % 40),
                                    };
                                }
                            }
                            TraceEvent {
                                op: TraceOp::ALL[(rng.next() % 6) as usize],
                                warp: rng.next() as u32 % 8,
                                mask,
                                lane_bytes: 1 << (rng.next() % 4),
                                addrs,
                            }
                        })
                        .collect();
                    w.write_block(block_id as usize, &events);
                    launch_events.push(events);
                }
                let stats = KernelStats {
                    fma_lane_ops: rng.next() % (1 << 40),
                    alu_lane_ops: rng.next() % (1 << 40),
                    barriers: rng.next() % 100,
                    blocks_total: blocks,
                    ..Default::default()
                };
                w.launch_end(&stats);
                let end = LaunchEnd {
                    aborted: false,
                    fma_lane_ops: stats.fma_lane_ops,
                    stats: Some(stats),
                };
                written.push((header, launch_events, end));
            }
            let (_, err) = w.into_inner();
            assert!(err.is_none());
            let bytes = buf.take();
            let trace = Trace::decode(&bytes).unwrap();
            let odd_lines = GpuSpec {
                cm_line_bytes: 48,
                ..GpuSpec::kepler_k40m()
            };
            let presets = GpuSpec::presets_all().into_iter().chain([odd_lines]);
            for target in std::iter::once(TargetSpec::Capture).chain(presets.map(TargetSpec::Spec))
            {
                let want: Vec<ReplayReport> = written
                    .iter()
                    .flat_map(|(header, blocks, end)| {
                        let spec = resolve_spec(header, &target);
                        let mut accum = LaunchAccum::begin(header.clone(), vec![spec]);
                        for events in blocks {
                            accum.block_begin();
                            for ev in events {
                                // Explicit lanes: the lane engine prices
                                // every written event.
                                let addrs = ev.canonical().addrs;
                                let access = WarpAccess::Explicit(&addrs);
                                accum.event(ev.op, ev.mask, ev.lane_bytes, access);
                            }
                        }
                        accum.finish(end)
                    })
                    .collect();
                let decoded = replay_decoded(&trace, &target).unwrap();
                assert_eq!(decoded, want, "seed {seed}");
                assert_eq!(replay(&bytes, &target).unwrap(), decoded, "seed {seed}");
            }
        }
    }

    /// The warp-uniform `CmLd` closed form against the lane engine
    /// (forced by handing the lanes over explicitly) on the same events,
    /// for power-of-two and other constant line sizes.
    #[test]
    fn uniform_constant_loads_price_the_same_on_both_paths() {
        let anchor = GpuSpec::kepler_k40m();
        let specs: Vec<GpuSpec> = [64, 256, 48, 100]
            .into_iter()
            .map(|cm_line_bytes| GpuSpec {
                cm_line_bytes,
                ..anchor.clone()
            })
            .collect();
        let header = LaunchHeader {
            kernel: "uniform".into(),
            grid_blocks: 1,
            executed_blocks: 1,
            threads_per_block: 64,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: anchor,
        };
        let mut direct = LaunchAccum::begin(header.clone(), specs.clone());
        let mut lanes = LaunchAccum::begin(header, specs);
        direct.block_begin();
        lanes.block_begin();
        let mut rng = Rng(0xC0A5);
        for _ in 0..500 {
            let mask = LaneMask(match rng.next() % 3 {
                0 => u32::MAX,
                1 => 1 << (rng.next() % 32),
                _ => rng.next() as u32 | 0b11,
            });
            // Revisit a few lines often, so hits and misses both occur.
            let addr = 4 * (rng.next() % 512);
            let addrs = affine_addrs(mask, addr, 0);
            let affine = WarpAccess::Affine {
                first: addr,
                step: 0,
            };
            direct.event(TraceOp::CmLd, mask, 4, affine);
            lanes.event(TraceOp::CmLd, mask, 4, WarpAccess::Explicit(&addrs));
        }
        let end = LaunchEnd {
            aborted: false,
            fma_lane_ops: 0,
            stats: Some(KernelStats::default()),
        };
        let (direct, lanes) = (direct.finish(&end), lanes.finish(&end));
        assert!(direct[0].stats.cm_misses > 0);
        assert_eq!(direct, lanes);
    }

    #[test]
    fn replay_reproduces_sampled_launch_scaling() {
        let (live, bytes) = all_ops_launch(Parallelism::Serial, SimMode::Sampled(2));
        let r = &replay(&bytes, &TargetSpec::Capture).unwrap()[0];
        assert_eq!(r.executed_blocks, 2);
        assert_eq!(r.grid_blocks, 6);
        assert_eq!(r.stats, live.stats);
        assert_eq!(r.timing, Some(live.timing));
    }

    #[test]
    fn replay_under_other_specs_keeps_useful_bytes_and_repriced_costs_move() {
        let (_, bytes) = all_ops_launch(Parallelism::Serial, SimMode::Full);
        let kepler = &replay(&bytes, &TargetSpec::Capture).unwrap()[0];
        let four_byte = &replay(&bytes, &TargetSpec::Spec(GpuSpec::kepler_k40m_4b())).unwrap()[0];
        // Useful bytes are a property of the access pattern, not the spec.
        assert_eq!(
            kepler.stats.sm_bytes_useful,
            four_byte.stats.sm_bytes_useful
        );
        assert_eq!(
            kepler.stats.gm_ld_bytes_useful,
            four_byte.stats.gm_ld_bytes_useful
        );
        // Per-op lane counts are pure trace facts: identical in any sweep.
        for op in TraceOp::ALL {
            assert_eq!(kepler.op(op).lane_accesses, four_byte.op(op).lane_accesses);
            assert_eq!(kepler.op(op).useful_bytes, four_byte.op(op).useful_bytes);
        }
        // Every shared access here is full-mask and aligned, so 4-byte
        // banks serve them with zero wasted bytes (the float2 pattern
        // takes 2x the cycles there, but moves only requested data);
        // Kepler's 8-byte banks waste half of each row the unvectorized
        // float pattern touches, pushing the blended waste above 1.
        assert_eq!(four_byte.sm_waste(), 1.0);
        assert!(kepler.sm_waste() > 1.0);
    }

    /// Builds a synthetic one-block trace of full-mask shared-memory loads
    /// with the given per-lane width and byte stride.
    fn sm_pattern_trace(lane_bytes: u32, stride: u64, events: usize) -> Vec<u8> {
        let spec = GpuSpec::kepler_k40m();
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        w.launch_begin(&TraceLaunch {
            kernel: "pattern",
            grid_blocks: 1,
            executed_blocks: 1,
            threads_per_block: 256,
            smem_bytes: 4096,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        let evs: Vec<TraceEvent> = (0..events)
            .map(|_| {
                let mut addrs = [0u64; WARP_SIZE];
                for (lane, a) in addrs.iter_mut().enumerate() {
                    *a = lane as u64 * stride;
                }
                TraceEvent {
                    op: TraceOp::SmLd,
                    warp: 0,
                    mask: LaneMask::ALL,
                    lane_bytes,
                    addrs,
                }
            })
            .collect();
        w.write_block(0, &evs);
        w.launch_end(&KernelStats::default());
        buf.take()
    }

    #[test]
    fn bank_width_mismatch_factor_appears_and_vanishes() {
        let b8 = TargetSpec::Spec(GpuSpec::kepler_k40m());
        let b4 = TargetSpec::Spec(GpuSpec::kepler_k40m_4b());

        // Unvectorized floats, stride 4: each 8-byte Kepler bank serves
        // two lanes' words in its one-cycle row, so the pattern is
        // conflict-free on both widths — but on 8-byte banks only half of
        // every fetched row is requested: waste = n = 2 (eq. 1).
        let float_trace = sm_pattern_trace(4, 4, 10);
        let f_b8 = &replay(&float_trace, &b8).unwrap()[0];
        let f_b4 = &replay(&float_trace, &b4).unwrap()[0];
        assert_eq!(f_b8.sm_cycles(), 10);
        assert_eq!(f_b4.sm_cycles(), 10);
        assert_eq!(f_b8.sm_waste(), 2.0);
        assert_eq!(f_b4.sm_waste(), 1.0);

        // float2, stride 8: one lane per 8-byte bank — fully matched on
        // Kepler. On 4-byte banks each lane spans two banks, halving the
        // row throughput: exactly 2x the cycles, but no wasted bytes.
        let float2_trace = sm_pattern_trace(8, 8, 10);
        let v_b8 = &replay(&float2_trace, &b8).unwrap()[0];
        let v_b4 = &replay(&float2_trace, &b4).unwrap()[0];
        assert_eq!(v_b8.sm_waste(), 1.0);
        assert_eq!(v_b4.sm_waste(), 1.0);
        assert_eq!(v_b4.sm_cycles(), 2 * v_b8.sm_cycles());
    }

    #[test]
    fn aborted_captures_report_the_clean_prefix_without_timing() {
        // A trace cut off mid-launch: header + one block, no end record.
        let spec = GpuSpec::kepler_k40m();
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        w.launch_begin(&TraceLaunch {
            kernel: "cut",
            grid_blocks: 4,
            executed_blocks: 4,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        let mut addrs = [0u64; WARP_SIZE];
        for (lane, a) in addrs.iter_mut().enumerate() {
            *a = lane as u64 * 4;
        }
        w.write_block(
            0,
            &[TraceEvent {
                op: TraceOp::GmLd,
                warp: 0,
                mask: LaneMask::ALL,
                lane_bytes: 4,
                addrs,
            }],
        );
        drop(w);
        let r = &replay(&buf.take(), &TargetSpec::Capture).unwrap()[0];
        assert!(r.aborted);
        assert!(r.timing.is_none());
        assert_eq!(r.stats.blocks_executed, 1);
        assert_eq!(r.stats.blocks_total, 4); // prefix is NOT extrapolated
        assert_eq!(r.stats.gm_ld_transactions, 1);
    }
}
