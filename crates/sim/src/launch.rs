//! Device handle and kernel launching.
//!
//! [`Gpu`] owns the device memories; [`Gpu::launch`] runs a kernel closure
//! over a grid of thread blocks, gathers [`KernelStats`], and evaluates the
//! [timing model](crate::timing).
//!
//! # Sampled execution
//!
//! Launches whose blocks are access-pattern homogeneous (every tiled kernel
//! in this workspace) can run in [`SimMode::Sampled`] mode: a representative
//! subset of blocks executes functionally, and the counters are scaled to
//! the full grid. This keeps large parameter sweeps tractable; tests verify
//! on small grids that sampled counters match full execution.
//!
//! # Parallel execution
//!
//! Simulated thread blocks are independent by construction (CUDA forbids
//! inter-block communication through global memory within a launch), so the
//! selected block ids can also be executed across a host thread pool — see
//! [`Parallelism`]. Every counter and every output byte is **bit-identical**
//! to serial execution:
//!
//! * each block runs against its own [`KernelStats`]; every worker folds
//!   its blocks' counters into one thread-local shard and the shards are
//!   summed once at the end — bit-identical to the serial block-id-order
//!   merge because every counter is an order-independent sum;
//! * global-memory stores are journaled per block (a paged overlay holding
//!   each byte's final value) and replayed into the shared memory in
//!   block-id order, reproducing the serial outcome byte for byte; a block
//!   reads its own stores but never another in-flight block's (the
//!   disjoint-write contract kernels already obey under CUDA);
//! * the read-only (texture) cache is per block in both modes;
//! * constant-cache misses are counted at merge time as the ordered union
//!   of per-block touched-line bitmaps, which equals the serial first-touch
//!   count exactly because the model never evicts within a launch.
//!
//! The default is [`Parallelism::Serial`] unless the `KCONV_THREADS`
//! environment variable overrides it; the sweep harnesses opt in
//! explicitly. See `DESIGN.md` for thread-count guidance.
//!
//! # Fault containment
//!
//! A kernel bug — out-of-bounds device access, a sanitizer finding, a
//! watchdog timeout, or a plain panic inside the closure — no longer tears
//! down the process. Each block runs inside a containment boundary
//! ([`crate::fault`]); the first fault (in block-id order, identical under
//! serial and parallel execution) surfaces as
//! [`SimError::KernelFault`] carrying the kernel name, block, warp, lane
//! and fault detail. After a faulted launch the device memories hold
//! unspecified partial results, exactly as on real hardware; host-visible
//! state is otherwise intact and the `Gpu` remains usable.
//!
//! The opt-in sanitizer tools ([`SanitizerMode`], `KCONV_SANITIZE`) add
//! memcheck (uninitialized reads), racecheck (cross-warp shared-memory
//! hazards between barriers) and synccheck (barrier divergence); with the
//! default [`SanitizerMode::Off`] no shadow state exists and no per-access
//! checks run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::block::{BlockCtx, BlockDims, Inject};
use crate::error::{Result, SimError};
use crate::fault::{self, DeviceFault, FaultInjection, SanitizerMode};
use crate::mem::constant::LineBitmap;
use crate::mem::plane::{CmPlane, GmPlane, WriteJournal};
use crate::mem::{ConstantMemory, GlobalMemory, GmBuf, SharedMemory};
use crate::pricing::RoCache;
use crate::spec::GpuSpec;
use crate::stats::KernelStats;
use crate::timing::{self, OverlapMode, Timing};
use crate::trace::{BlockTrace, EventEncoder, TraceLaunch, TraceSink};

/// Launch geometry and resource declaration for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchConfig {
    /// Kernel name (reported in errors and harness output).
    pub name: String,
    /// Number of thread blocks in the grid.
    pub blocks: usize,
    /// Threads per block (<= 1024).
    pub threads_per_block: usize,
    /// Shared memory per block in bytes.
    pub smem_bytes: u32,
    /// Architectural registers per thread (occupancy model input; the
    /// kernels document how their estimates are derived).
    pub regs_per_thread: u32,
    /// Software-pipelining quality of the kernel.
    pub overlap: OverlapMode,
}

impl LaunchConfig {
    /// Creates a config with no shared memory, a 32-register estimate and
    /// [`OverlapMode::Prefetch`].
    pub fn new(name: impl Into<String>, blocks: usize, threads_per_block: usize) -> Self {
        LaunchConfig {
            name: name.into(),
            blocks,
            threads_per_block,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
        }
    }

    /// Sets the shared-memory allocation per block.
    pub fn with_smem(mut self, bytes: u32) -> Self {
        self.smem_bytes = bytes;
        self
    }

    /// Sets the per-thread register estimate.
    pub fn with_regs(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Sets the overlap mode.
    pub fn with_overlap(mut self, overlap: OverlapMode) -> Self {
        self.overlap = overlap;
        self
    }
}

/// How much of the grid to execute functionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimMode {
    /// Execute every block (full functional fidelity).
    Full,
    /// Execute `n` evenly spaced blocks and scale the counters to the full
    /// grid. Output buffers are only written for the executed blocks.
    Sampled(usize),
    /// Execute exactly these block ids and scale the counters. Ids must be
    /// in range for the grid; the launch is rejected otherwise.
    Blocks(Vec<usize>),
}

impl SimMode {
    fn executed_ids(&self, blocks: usize) -> Result<Vec<usize>> {
        Ok(match self {
            SimMode::Full => (0..blocks).collect(),
            SimMode::Sampled(n) => {
                let n = (*n).clamp(1, blocks);
                let mut ids: Vec<usize> = (0..n)
                    .map(|i| ((i as f64 + 0.5) * blocks as f64 / n as f64) as usize)
                    .map(|b| b.min(blocks - 1))
                    .collect();
                ids.dedup();
                ids
            }
            SimMode::Blocks(ids) => {
                if let Some(&bad) = ids.iter().find(|&&b| b >= blocks) {
                    return Err(SimError::InvalidLaunch(format!(
                        "block id {bad} out of range for a grid of {blocks} blocks"
                    )));
                }
                let mut ids = ids.clone();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
        })
    }
}

/// Host-side execution strategy for the block loop of a launch.
///
/// Results are bit-identical across strategies (see the
/// [module docs](crate::launch)); only wall-clock time differs. The
/// default for a new [`Gpu`] is `Serial` unless the `KCONV_THREADS`
/// environment variable says otherwise, so doctests and small examples pay
/// no threading overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Execute blocks one after another on the calling thread.
    #[default]
    Serial,
    /// Execute blocks across this many worker threads (1 behaves like
    /// `Serial`).
    Threads(usize),
}

impl Parallelism {
    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        Parallelism::Threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Reads the `KCONV_THREADS` environment variable: `serial` forces
    /// serial execution, `auto` or `0` uses [`Parallelism::auto`], a
    /// number uses that many threads. Returns `None` when unset or
    /// unparseable.
    pub fn from_env() -> Option<Self> {
        let v = std::env::var("KCONV_THREADS").ok()?;
        match v.trim() {
            "serial" => Some(Parallelism::Serial),
            "auto" | "0" => Some(Parallelism::auto()),
            s => s.parse().ok().map(Parallelism::Threads),
        }
    }

    /// The sweep-harness default: the `KCONV_THREADS` override if set,
    /// otherwise [`Parallelism::auto`]. Long-running sweeps (tuning,
    /// figure reproduction) opt in through this; [`Gpu::new`] keeps the
    /// serial default so examples and doctests pay no threading overhead.
    pub fn env_or_auto() -> Self {
        Self::from_env().unwrap_or_else(Self::auto)
    }

    /// Number of worker threads this strategy runs on.
    pub fn worker_threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// Result of one kernel launch: exact (or scaled) counters, modeled timing,
/// and which blocks actually executed.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Event counters for the full grid (scaled if sampled).
    pub stats: KernelStats,
    /// Timing-model evaluation of those counters.
    pub timing: Timing,
    /// Ids of the blocks that executed functionally.
    pub executed_blocks: Vec<usize>,
}

impl LaunchReport {
    /// Achieved throughput in GFlop/s (shorthand for `timing.gflops`).
    pub fn gflops(&self) -> f64 {
        self.timing.gflops
    }

    /// Modeled wall time in seconds (shorthand for `timing.t_total`).
    pub fn seconds(&self) -> f64 {
        self.timing.t_total
    }
}

/// Everything one executed block produces. In parallel launches the
/// counters travel worker-sharded while the side effects (journal,
/// constant-line bitmap) are merged in block-id order.
struct BlockOut {
    stats: KernelStats,
    journal: WriteJournal,
    cm_lines: LineBitmap,
    trace: Option<BlockTrace>,
}

/// A simulated GPU: an architecture plus its global and constant memories.
///
/// # Examples
///
/// Launch a trivial copy kernel and inspect its traffic:
///
/// ```
/// use kconv_sim::{Gpu, GpuSpec, LaunchConfig, LaneMask, SimMode, lane_addrs};
///
/// # fn main() -> Result<(), kconv_sim::SimError> {
/// let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
/// let src = gpu.alloc_f32(32)?;
/// let dst = gpu.alloc_f32(32)?;
/// gpu.upload_f32(src, &[1.0; 32])?;
///
/// let cfg = LaunchConfig::new("copy", 1, 32);
/// let report = gpu.launch(&cfg, SimMode::Full, |blk| {
///     blk.each_warp(|w| {
///         let a = lane_addrs(src.f32_addr(0), 4);
///         let v = w.ld_global::<1>(&a, LaneMask::ALL);
///         let b = lane_addrs(dst.f32_addr(0), 4);
///         w.st_global::<1>(&b, &v, LaneMask::ALL);
///     });
/// })?;
///
/// assert_eq!(gpu.download_f32(dst)?, vec![1.0; 32]);
/// assert_eq!(report.stats.gm_ld_transactions, 1);
/// # Ok(())
/// # }
/// ```
pub struct Gpu {
    spec: GpuSpec,
    gm: GlobalMemory,
    cm: ConstantMemory,
    parallelism: Parallelism,
    sanitizer: SanitizerMode,
    step_budget: u64,
    injection: Option<FaultInjection>,
    /// Opt-in per-warp memory-instruction observer (see [`TraceSink`]).
    trace: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("spec", &self.spec)
            .field("gm", &self.gm)
            .field("cm", &self.cm)
            .field("parallelism", &self.parallelism)
            .field("sanitizer", &self.sanitizer)
            .field("step_budget", &self.step_budget)
            .field("injection", &self.injection)
            .field("trace", &self.trace.as_ref().map(|_| "dyn TraceSink"))
            .finish()
    }
}

/// Device-memory capacity given to every [`Gpu`] (the K40m carries 12 GiB;
/// backing pages are committed lazily).
const GM_CAPACITY: u64 = 12 << 30;

fn step_budget_from_env() -> u64 {
    std::env::var("KCONV_STEP_BUDGET")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(u64::MAX)
}

impl Gpu {
    /// Creates a device with the given architecture.
    ///
    /// The block loop runs serially unless `KCONV_THREADS` is set (see
    /// [`Parallelism::from_env`]) or [`Gpu::set_parallelism`] is called.
    /// The sanitizer starts in the mode named by `KCONV_SANITIZE` (default
    /// off — see [`SanitizerMode::from_env`]), and the watchdog budget
    /// comes from `KCONV_STEP_BUDGET` (default unlimited).
    pub fn new(spec: GpuSpec) -> Self {
        let mut gm = GlobalMemory::new(
            GM_CAPACITY,
            spec.gm_transaction_bytes,
            spec.gm_store_transaction_bytes,
            spec.ro_cache_bytes,
        );
        let mut cm = ConstantMemory::new(spec.cm_bytes, spec.cm_line_bytes);
        let sanitizer = SanitizerMode::from_env().unwrap_or_default();
        if sanitizer.memcheck() {
            // The memories are brand new: track from a fresh (nothing
            // written) state for full precision.
            gm.enable_uninit_tracking(false);
            cm.enable_uninit_tracking(false);
        }
        Gpu {
            spec,
            gm,
            cm,
            parallelism: Parallelism::from_env().unwrap_or_default(),
            sanitizer,
            step_budget: step_budget_from_env(),
            injection: None,
            trace: None,
        }
    }

    /// The architecture of this device.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The host-side execution strategy for launches on this device.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Sets the host-side execution strategy for subsequent launches.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// Builder-style [`Gpu::set_parallelism`].
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The sanitizer mode for subsequent launches.
    pub fn sanitizer(&self) -> SanitizerMode {
        self.sanitizer
    }

    /// Sets the sanitizer mode for subsequent launches.
    ///
    /// Enabling memcheck after allocations or uploads already happened is
    /// conservative: existing global/constant contents are presumed
    /// initialized (only reads of bytes never written *from now on* can
    /// fault). Create the `Gpu` under `KCONV_SANITIZE` for full-precision
    /// tracking from the first byte.
    pub fn set_sanitizer(&mut self, mode: SanitizerMode) {
        let was = self.sanitizer.memcheck();
        self.sanitizer = mode;
        let now = mode.memcheck();
        if now && !was {
            self.gm.enable_uninit_tracking(true);
            self.cm.enable_uninit_tracking(true);
        } else if !now && was {
            self.gm.disable_uninit_tracking();
            self.cm.disable_uninit_tracking();
        }
    }

    /// Builder-style [`Gpu::set_sanitizer`].
    pub fn with_sanitizer(mut self, mode: SanitizerMode) -> Self {
        self.set_sanitizer(mode);
        self
    }

    /// Sets the watchdog budget: total warp operations one block may
    /// execute before the launch is aborted with a
    /// [`FaultKind::Timeout`](crate::FaultKind::Timeout) fault.
    pub fn set_step_budget(&mut self, budget: u64) {
        self.step_budget = budget;
    }

    /// Builder-style [`Gpu::set_step_budget`].
    pub fn with_step_budget(mut self, budget: u64) -> Self {
        self.step_budget = budget;
        self
    }

    /// Arms (or, with `None`, disarms) the test-only fault injector: the
    /// next launches matching the injection's kernel filter flip one
    /// lane's address on one memory operation of one block. Used by the
    /// robustness tests to prove the sanitizer pinpoints the exact site.
    pub fn set_fault_injection(&mut self, injection: Option<FaultInjection>) {
        self.injection = injection;
    }

    /// Builder-style [`Gpu::set_fault_injection`].
    pub fn with_fault_injection(mut self, injection: FaultInjection) -> Self {
        self.injection = Some(injection);
        self
    }

    /// Installs (or, with `None`, removes) the per-warp trace sink for
    /// subsequent launches. See [`TraceSink`] for the delivery contract:
    /// one event per warp memory instruction, encoded at the access by the
    /// sink's encoder on the block's thread, and flushed per block in
    /// ascending block-id order on the launching thread, identically under
    /// serial and threaded execution. With no sink installed the hook costs
    /// one branch per memory instruction and buffers nothing.
    pub fn set_trace_sink(&mut self, sink: Option<Box<dyn TraceSink>>) {
        self.trace = sink;
    }

    /// Builder-style [`Gpu::set_trace_sink`].
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Removes and returns the installed trace sink — the usual way to
    /// finalize a trace writer and recover its output stream.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Allocates `len` `f32` elements of global memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AllocTooLarge`] when device memory is exhausted.
    pub fn alloc_f32(&mut self, len: u64) -> Result<GmBuf> {
        self.gm.alloc_f32(len)
    }

    /// Allocates `bytes` bytes of global memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AllocTooLarge`] when device memory is exhausted.
    pub fn alloc_bytes(&mut self, bytes: u64) -> Result<GmBuf> {
        self.gm.alloc(bytes)
    }

    /// Host-to-device copy into the start of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] if `values` exceeds the
    /// buffer.
    pub fn upload_f32(&mut self, buf: GmBuf, values: &[f32]) -> Result<()> {
        self.gm.write_f32s(buf, 0, values)
    }

    /// Host-to-device copy into `buf` starting at element `elem_offset`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] if the range exceeds
    /// the buffer.
    pub fn upload_f32_at(&mut self, buf: GmBuf, elem_offset: u64, values: &[f32]) -> Result<()> {
        self.gm.write_f32s(buf, elem_offset, values)
    }

    /// Device-to-host copy of the whole buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] on descriptor
    /// corruption (cannot normally happen for a valid `GmBuf`).
    pub fn download_f32(&self, buf: GmBuf) -> Result<Vec<f32>> {
        self.gm.read_f32s(buf, 0, buf.len_f32() as usize)
    }

    /// Device-to-host copy of `len` elements starting at `elem_offset`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] if the range exceeds
    /// the buffer.
    pub fn download_f32_at(&self, buf: GmBuf, elem_offset: u64, len: usize) -> Result<Vec<f32>> {
        self.gm.read_f32s(buf, elem_offset, len)
    }

    /// Fills a buffer with a constant (host-side).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] on descriptor
    /// corruption (cannot normally happen for a valid `GmBuf`).
    pub fn fill_f32(&mut self, buf: GmBuf, value: f32) -> Result<()> {
        self.gm.fill_f32(buf, value)
    }

    /// Writes filter data (or any constants) into constant memory at
    /// element `elem_offset` (models `cudaMemcpyToSymbol`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] if the data does not
    /// fit in constant memory.
    pub fn write_const_f32(&mut self, elem_offset: u64, values: &[f32]) -> Result<()> {
        self.cm.write_f32s(elem_offset, values)
    }

    /// Launches `kernel` over `cfg.blocks` thread blocks.
    ///
    /// The closure runs once per executed block (see [`SimMode`]); it
    /// receives a [`BlockCtx`] through which all device traffic flows.
    /// Depending on [`Gpu::parallelism`], blocks run serially or across a
    /// thread pool — with bit-identical counters, timing and output either
    /// way (see the [module docs](crate::launch) for why). The closure is
    /// therefore required to be `Fn + Sync`: per-block state belongs
    /// *inside* the closure body, captured state is shared read-only.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidLaunch`] if the configuration cannot run
    /// on this architecture or [`SimMode::Blocks`] names an out-of-range
    /// block id.
    ///
    /// Returns [`SimError::KernelFault`] when the kernel faults on the
    /// device: out-of-bounds access, an enabled sanitizer finding, a
    /// watchdog timeout, or a panic inside the closure. The reported fault
    /// is the one from the lowest faulting block id regardless of
    /// [`Parallelism`]; device memory afterwards holds unspecified partial
    /// results, and the `Gpu` stays usable for further launches.
    pub fn launch(
        &mut self,
        cfg: &LaunchConfig,
        mode: SimMode,
        kernel: impl Fn(&mut BlockCtx) + Sync,
    ) -> Result<LaunchReport> {
        fault::install_quiet_hook();
        // Validate before running anything — in particular, an oversized
        // shared-memory request must surface as a typed error before any
        // worker thread is spawned or any block executes.
        if cfg.smem_bytes > self.spec.max_smem_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "kernel {}: shared-memory request of {} bytes exceeds the device limit of {} \
                 bytes per block",
                cfg.name, cfg.smem_bytes, self.spec.max_smem_per_block
            )));
        }
        timing::occupancy(&self.spec, cfg)?;
        let ids = mode.executed_ids(cfg.blocks)?;
        if ids.is_empty() {
            return Err(SimError::InvalidLaunch(format!(
                "kernel {}: no blocks selected for execution",
                cfg.name
            )));
        }
        self.cm.reset_cache();
        if let Some(sink) = self.trace.as_mut() {
            sink.launch_begin(&TraceLaunch {
                kernel: &cfg.name,
                grid_blocks: cfg.blocks,
                executed_blocks: ids.len(),
                threads_per_block: cfg.threads_per_block,
                smem_bytes: cfg.smem_bytes,
                regs_per_thread: cfg.regs_per_thread,
                overlap: cfg.overlap,
                spec: &self.spec,
            });
        }
        let workers = self.parallelism.worker_threads().min(ids.len());
        let stats = if workers <= 1 {
            self.run_serial(cfg, &ids, &kernel)?
        } else {
            self.run_parallel(cfg, &ids, &kernel, workers)?
        };
        let stats = if ids.len() == cfg.blocks {
            let mut s = stats;
            s.blocks_total = cfg.blocks as u64;
            s
        } else {
            stats.scaled_to_blocks(cfg.blocks as u64, ids.len() as u64)
        };
        if let Some(sink) = self.trace.as_mut() {
            sink.launch_end(&stats);
        }
        let timing = timing::evaluate(&self.spec, cfg, &stats)?;
        Ok(LaunchReport {
            stats,
            timing,
            executed_blocks: ids,
        })
    }

    /// This launch's injection slice for `block_id`, if the armed injection
    /// targets this kernel and block.
    fn block_inject(&self, cfg: &LaunchConfig, block_id: usize) -> Option<Inject> {
        let i = self.injection.as_ref()?;
        (cfg.name.contains(&i.kernel_substr) && i.block == block_id).then_some(Inject {
            op_index: i.op_index,
            lane: i.lane,
            addr_xor: i.addr_xor,
        })
    }

    fn run_serial(
        &mut self,
        cfg: &LaunchConfig,
        ids: &[usize],
        kernel: &(impl Fn(&mut BlockCtx) + Sync),
    ) -> Result<KernelStats> {
        let encoder = self.trace.as_ref().map(|sink| sink.encoder());
        let mut total = KernelStats::default();
        for &block_id in ids {
            let inject = self.block_inject(cfg, block_id);
            let blk = exec_block(
                &self.spec,
                cfg,
                block_id,
                GmPlane::Direct(&mut self.gm),
                CmPlane::Direct(&mut self.cm),
                self.sanitizer,
                self.step_budget,
                inject,
                encoder,
                kernel,
            )?;
            total.merge(&blk.stats);
            deliver(&mut self.trace, block_id, blk.trace);
        }
        Ok(total)
    }

    fn run_parallel(
        &mut self,
        cfg: &LaunchConfig,
        ids: &[usize],
        kernel: &(impl Fn(&mut BlockCtx) + Sync),
        workers: usize,
    ) -> Result<KernelStats> {
        /// Side effects a worker hands back for one block. The counters do
        /// NOT ride along: they are folded into the worker's thread-local
        /// shard so the merge loop never clones or queues `KernelStats`.
        /// The block's encoded trace does ride along (it is inherently per
        /// block) and is flushed by the ordered merge below, which is what
        /// makes a threaded trace byte-identical to the serial one.
        struct BlockSide {
            journal: WriteJournal,
            cm_lines: LineBitmap,
            trace: Option<BlockTrace>,
        }
        type Slot = Mutex<Option<std::result::Result<BlockSide, DeviceFault>>>;
        let slots: Vec<Slot> = ids.iter().map(|_| Mutex::new(None)).collect();
        let injects: Vec<Option<Inject>> = ids.iter().map(|&b| self.block_inject(cfg, b)).collect();
        let next = AtomicUsize::new(0);
        let shards = Mutex::new(KernelStats::default());
        let (spec, gm, cm) = (&self.spec, &self.gm, &self.cm);
        let (sanitizer, step_budget) = (self.sanitizer, self.step_budget);
        let encoder = self.trace.as_ref().map(|sink| sink.encoder());
        // Device faults are contained per block, so workers never panic on
        // kernel bugs; every selected block runs to a verdict and the merge
        // below picks the fault (if any) with the lowest block id —
        // identical to what serial execution reports.
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut local = KernelStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= ids.len() {
                            break;
                        }
                        let out = exec_block(
                            spec,
                            cfg,
                            ids[i],
                            GmPlane::Journaled {
                                base: gm,
                                journal: WriteJournal::new(),
                            },
                            CmPlane::shared(cm),
                            sanitizer,
                            step_budget,
                            injects[i],
                            encoder,
                            kernel,
                        )
                        .map(|out| {
                            local.merge(&out.stats);
                            BlockSide {
                                journal: out.journal,
                                cm_lines: out.cm_lines,
                                trace: out.trace,
                            }
                        });
                        match slots[i].lock() {
                            Ok(mut slot) => *slot = Some(out),
                            Err(poisoned) => *poisoned.into_inner() = Some(out),
                        }
                    }
                    // One merge per worker, not per block. Counter sums
                    // commute, so the shard order cannot be observed.
                    match shards.lock() {
                        Ok(mut total) => total.merge(&local),
                        Err(poisoned) => poisoned.into_inner().merge(&local),
                    }
                });
            }
        });
        let mut total = shards
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Deterministic merge in block-id order (ids are ascending for
        // every SimMode): replay journals into global memory, fold each
        // block's constant-line bitmap into the launch-scoped cache state,
        // and flush each block's encoded trace to the sink. The first
        // faulting block (lowest id) stops the merge, leaving memory in the
        // documented unspecified state and the sink with exactly the clean
        // prefix of blocks a serial run would have delivered.
        for (i, slot) in slots.into_iter().enumerate() {
            let side = slot
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .ok_or_else(|| {
                    SimError::Internal("a block slot was never filled by the worker pool".into())
                })?;
            let side = side?;
            if !side.journal.is_empty() {
                self.gm.apply_journal(&side.journal);
            }
            total.cm_misses += self.cm.absorb_lines(&side.cm_lines);
            deliver(&mut self.trace, ids[i], side.trace);
        }
        Ok(total)
    }
}

/// Hands one block's encoded trace to the sink, if one is installed.
fn deliver(sink: &mut Option<Box<dyn TraceSink>>, block_id: usize, trace: Option<BlockTrace>) {
    if let (Some(sink), Some(trace)) = (sink.as_mut(), trace) {
        sink.block_encoded(block_id, trace.events, &trace.bytes);
    }
}

/// Runs one block to completion inside the fault-containment boundary and
/// packages its side effects.
#[allow(clippy::too_many_arguments)]
fn exec_block(
    spec: &GpuSpec,
    cfg: &LaunchConfig,
    block_id: usize,
    gm: GmPlane<'_>,
    cm: CmPlane<'_>,
    sanitizer: SanitizerMode,
    step_budget: u64,
    inject: Option<Inject>,
    encoder: Option<EventEncoder>,
    kernel: &(impl Fn(&mut BlockCtx) + Sync),
) -> std::result::Result<BlockOut, DeviceFault> {
    let dims = BlockDims {
        block_id,
        grid_blocks: cfg.blocks,
        threads: cfg.threads_per_block,
    };
    let smem = SharedMemory::new(cfg.smem_bytes, spec.smem_banks, spec.bank_width)
        .with_sanitizer(sanitizer.memcheck(), sanitizer.racecheck());
    let ro = RoCache::new(gm_ro_capacity(&gm));
    let mut blk = BlockCtx::new(dims, gm, cm, ro, smem).with_step_budget(step_budget);
    if sanitizer.synccheck() {
        blk = blk.with_synccheck();
    }
    if let Some(inj) = inject {
        blk = blk.with_injection(inj);
    }
    if let Some(encode) = encoder {
        blk = blk.with_tracing(encode);
    }
    fault::contain(&cfg.name, block_id, move || {
        kernel(&mut blk);
        blk.finish();
        blk.stats.blocks_executed += 1;
        let BlockCtx {
            gm,
            cm,
            stats,
            trace,
            ..
        } = blk;
        BlockOut {
            stats,
            journal: gm.into_journal().unwrap_or_default(),
            cm_lines: cm.into_touched_lines().unwrap_or_default(),
            trace,
        }
    })
}

fn gm_ro_capacity(gm: &GmPlane<'_>) -> usize {
    match gm {
        GmPlane::Direct(m) => m.ro_capacity_lines(),
        GmPlane::Journaled { base, .. } => base.ro_capacity_lines(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::spec::WARP_SIZE;
    use crate::warp::{lane_addrs, LaneMask};
    use std::sync::atomic::AtomicBool;

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(Parallelism::Serial)
    }

    /// A kernel where each block writes `block_id` to its slot and does a
    /// fixed amount of counted work.
    fn id_kernel(dst: GmBuf) -> impl Fn(&mut BlockCtx) + Sync {
        move |blk: &mut BlockCtx| {
            let id = blk.dims.block_id;
            blk.each_warp(|w| {
                let addrs = lane_addrs(dst.f32_addr(id as u64 * 32), 4);
                let vals = [[id as f32]; 32];
                w.st_global::<1>(&addrs, &vals, LaneMask::ALL);
                w.count_fma(32);
            });
            blk.sync();
        }
    }

    #[test]
    fn full_mode_runs_every_block() {
        let mut g = gpu();
        let dst = g.alloc_f32(8 * 32).unwrap();
        let cfg = LaunchConfig::new("id", 8, 32);
        let r = g.launch(&cfg, SimMode::Full, id_kernel(dst)).unwrap();
        assert_eq!(r.executed_blocks.len(), 8);
        assert_eq!(r.stats.blocks_executed, 8);
        assert_eq!(r.stats.fma_lane_ops, 8 * 32);
        for b in 0..8 {
            assert_eq!(
                g.download_f32_at(dst, b * 32, 1).unwrap()[0],
                b as f32,
                "block {b}"
            );
        }
    }

    #[test]
    fn sampled_mode_scales_counters_exactly_for_homogeneous_kernels() {
        let mut g = gpu();
        let dst = g.alloc_f32(64 * 32).unwrap();
        let cfg = LaunchConfig::new("id", 64, 32);
        let full = g.launch(&cfg, SimMode::Full, id_kernel(dst)).unwrap();
        let sampled = g.launch(&cfg, SimMode::Sampled(4), id_kernel(dst)).unwrap();
        assert_eq!(sampled.executed_blocks.len(), 4);
        assert_eq!(sampled.stats.fma_lane_ops, full.stats.fma_lane_ops);
        assert_eq!(sampled.stats.gm_st_bytes_bus, full.stats.gm_st_bytes_bus);
        assert_eq!(sampled.stats.barriers, full.stats.barriers);
        assert_eq!(sampled.stats.blocks_total, 64);
        // Timing of a homogeneous kernel is identical under sampling.
        assert!((sampled.seconds() - full.seconds()).abs() < 1e-12);
    }

    #[test]
    fn sampled_ids_are_spread_and_clamped() {
        assert_eq!(
            SimMode::Sampled(4).executed_ids(64).unwrap(),
            vec![8, 24, 40, 56]
        );
        assert_eq!(SimMode::Sampled(10).executed_ids(3).unwrap(), vec![0, 1, 2]);
        assert_eq!(SimMode::Sampled(1).executed_ids(100).unwrap(), vec![50]);
    }

    #[test]
    fn explicit_blocks_mode() {
        let mut g = gpu();
        let dst = g.alloc_f32(16 * 32).unwrap();
        let cfg = LaunchConfig::new("id", 16, 32);
        let r = g
            .launch(&cfg, SimMode::Blocks(vec![3, 3, 7]), id_kernel(dst))
            .unwrap();
        assert_eq!(r.executed_blocks, vec![3, 7]);
        assert_eq!(g.download_f32_at(dst, 3 * 32, 1).unwrap()[0], 3.0);
        assert_eq!(g.download_f32_at(dst, 7 * 32, 1).unwrap()[0], 7.0);
    }

    #[test]
    fn out_of_range_block_ids_are_rejected() {
        let mut g = gpu();
        let dst = g.alloc_f32(16 * 32).unwrap();
        let cfg = LaunchConfig::new("id", 16, 32);
        let err = g.launch(&cfg, SimMode::Blocks(vec![3, 99]), id_kernel(dst));
        match err {
            Err(SimError::InvalidLaunch(msg)) => {
                assert!(msg.contains("99") && msg.contains("out of range"), "{msg}");
            }
            other => panic!("expected InvalidLaunch, got {other:?}"),
        }
        // Nothing executed: block 3's slot is untouched.
        assert_eq!(g.download_f32_at(dst, 3 * 32, 1).unwrap()[0], 0.0);
    }

    #[test]
    fn empty_selection_is_an_error() {
        let mut g = gpu();
        let cfg = LaunchConfig::new("noop", 4, 32);
        let err = g.launch(&cfg, SimMode::Blocks(vec![]), |_| {});
        assert!(matches!(err, Err(SimError::InvalidLaunch(_))));
    }

    #[test]
    fn invalid_config_is_rejected_before_execution() {
        let mut g = gpu();
        let cfg = LaunchConfig::new("bad", 1, 2048);
        let ran = AtomicBool::new(false);
        let err = g.launch(&cfg, SimMode::Full, |_| ran.store(true, Ordering::Relaxed));
        assert!(err.is_err());
        assert!(!ran.load(Ordering::Relaxed));
    }

    #[test]
    fn constant_cache_reset_between_launches() {
        let mut g = gpu();
        g.write_const_f32(0, &[1.0]).unwrap();
        let cfg = LaunchConfig::new("cm", 1, 32);
        let kernel = |blk: &mut BlockCtx| {
            blk.each_warp(|w| {
                w.ld_const(&crate::warp::lane_addrs_uniform(0), LaneMask::ALL);
            });
        };
        let a = g.launch(&cfg, SimMode::Full, kernel).unwrap();
        let b = g.launch(&cfg, SimMode::Full, kernel).unwrap();
        assert_eq!(a.stats.cm_misses, 1);
        assert_eq!(b.stats.cm_misses, 1);
    }

    /// A kernel exercising every counter class: global stores, read-only
    /// loads (shared input lines), constant reads (shared filter lines),
    /// shared-memory staging, and arithmetic. Each warp stages through its
    /// own shared-memory slice, so the kernel is also race-free under the
    /// sanitizer's racecheck tool.
    fn mixed_kernel(src: GmBuf, dst: GmBuf) -> impl Fn(&mut BlockCtx) + Sync {
        move |blk: &mut BlockCtx| {
            let id = blk.dims.block_id as u64;
            blk.each_warp(|w| {
                // Overlapping read-only loads: blocks share input lines.
                let a = lane_addrs(src.f32_addr((id % 4) * 8), 4);
                let x = w.ld_global_ro::<1>(&a, LaneMask::ALL);
                // Divergent constant reads spanning a few lines.
                let ca = crate::warp::lane_addrs_from(|l| ((id as usize + l) % 96) as u64 * 4);
                let c = w.ld_const(&ca, LaneMask::ALL);
                // Stage through this warp's own shared-memory slice.
                let sa = lane_addrs(w.warp_id() as u64 * 128, 4);
                let vals: [[f32; 1]; 32] = std::array::from_fn(|l| [x[l][0] + c[l]]);
                w.st_shared::<1>(&sa, &vals, LaneMask::ALL);
                let staged = w.ld_shared::<1>(&sa, LaneMask::ALL);
                // Write the block's slot.
                let d = lane_addrs(dst.f32_addr(id * 32), 4);
                w.st_global::<1>(&d, &staged, LaneMask::ALL);
                w.count_fma(17);
                w.count_alu(3);
            });
            blk.sync();
        }
    }

    #[test]
    fn parallel_launch_is_bit_identical_to_serial() {
        let build = |parallelism: Parallelism| {
            let mut g = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
            let src = g.alloc_f32(64).unwrap();
            let dst = g.alloc_f32(24 * 32).unwrap();
            let vals: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
            g.upload_f32(src, &vals).unwrap();
            g.write_const_f32(0, &vec![2.0; 128]).unwrap();
            let cfg = LaunchConfig::new("mixed", 24, 64).with_smem(1024);
            let r = g
                .launch(&cfg, SimMode::Full, mixed_kernel(src, dst))
                .unwrap();
            (r, g.download_f32(dst).unwrap())
        };
        let (serial, serial_mem) = build(Parallelism::Serial);
        for threads in [2, 4, 7] {
            let (par, par_mem) = build(Parallelism::Threads(threads));
            assert_eq!(par.stats, serial.stats, "{threads} threads");
            assert_eq!(par_mem, serial_mem, "{threads} threads");
            assert_eq!(par.executed_blocks, serial.executed_blocks);
            assert!((par.seconds() - serial.seconds()).abs() == 0.0);
        }
    }

    #[test]
    fn trace_events_are_ordered_and_identical_across_parallelism() {
        use crate::trace::tests::{raw_decode, raw_encode};
        use crate::trace::{EventEncoder, TraceEvent, TraceLaunch, TraceSink};
        use std::sync::Arc;

        #[derive(Default)]
        struct Log {
            begins: usize,
            ends: usize,
            blocks: Vec<(usize, Vec<TraceEvent>)>,
        }
        struct Collect(Arc<Mutex<Log>>);
        impl TraceSink for Collect {
            fn launch_begin(&mut self, launch: &TraceLaunch<'_>) {
                assert_eq!(launch.kernel, "mixed");
                assert_eq!(launch.grid_blocks, 24);
                assert_eq!(launch.executed_blocks, 24);
                self.0.lock().unwrap().begins += 1;
            }
            fn encoder(&self) -> EventEncoder {
                raw_encode
            }
            fn block_encoded(&mut self, block_id: usize, count: u64, bytes: &[u8]) {
                let events = raw_decode(bytes);
                assert_eq!(events.len() as u64, count);
                let mut log = self.0.lock().unwrap();
                log.blocks.push((block_id, events));
            }
            fn launch_end(&mut self, stats: &KernelStats) {
                assert!(stats.gm_st_transactions > 0);
                self.0.lock().unwrap().ends += 1;
            }
        }

        let run = |parallelism: Parallelism, traced: bool| {
            let mut g = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
            let src = g.alloc_f32(64).unwrap();
            let dst = g.alloc_f32(24 * 32).unwrap();
            let vals: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
            g.upload_f32(src, &vals).unwrap();
            g.write_const_f32(0, &vec![2.0; 128]).unwrap();
            let log = Arc::new(Mutex::new(Log::default()));
            if traced {
                g.set_trace_sink(Some(Box::new(Collect(log.clone()))));
            }
            let cfg = LaunchConfig::new("mixed", 24, 64).with_smem(1024);
            let r = g
                .launch(&cfg, SimMode::Full, mixed_kernel(src, dst))
                .unwrap();
            g.set_trace_sink(None);
            let log = Arc::try_unwrap(log).ok().unwrap().into_inner().unwrap();
            (r, g.download_f32(dst).unwrap(), log)
        };

        let (serial, serial_mem, serial_log) = run(Parallelism::Serial, true);
        assert_eq!((serial_log.begins, serial_log.ends), (1, 1));
        let ids: Vec<usize> = serial_log.blocks.iter().map(|(b, _)| *b).collect();
        assert_eq!(ids, (0..24).collect::<Vec<_>>());
        assert!(serial_log.blocks.iter().all(|(_, ev)| !ev.is_empty()));

        // Tracing must not perturb execution...
        let (bare, bare_mem, _) = run(Parallelism::Serial, false);
        assert_eq!(serial.stats, bare.stats);
        assert_eq!(serial_mem, bare_mem);

        // ...and a threaded launch must deliver the identical event stream
        // in the identical order.
        for threads in [2, 4, 7] {
            let (par, par_mem, par_log) = run(Parallelism::Threads(threads), true);
            assert_eq!(par.stats, serial.stats, "{threads} threads");
            assert_eq!(par_mem, serial_mem, "{threads} threads");
            assert_eq!((par_log.begins, par_log.ends), (1, 1));
            assert_eq!(par_log.blocks, serial_log.blocks, "{threads} threads");
        }
    }

    #[test]
    fn faulted_traced_launch_delivers_clean_prefix_and_no_end() {
        use crate::trace::tests::raw_encode;
        use crate::trace::{EventEncoder, TraceLaunch, TraceSink};
        use std::sync::Arc;

        #[derive(Default)]
        struct Log {
            ends: usize,
            block_ids: Vec<usize>,
        }
        struct Collect(Arc<Mutex<Log>>);
        impl TraceSink for Collect {
            fn launch_begin(&mut self, _launch: &TraceLaunch<'_>) {}
            fn encoder(&self) -> EventEncoder {
                raw_encode
            }
            fn block_encoded(&mut self, block_id: usize, _events: u64, _bytes: &[u8]) {
                self.0.lock().unwrap().block_ids.push(block_id);
            }
            fn launch_end(&mut self, _stats: &KernelStats) {
                self.0.lock().unwrap().ends += 1;
            }
        }

        let run = |parallelism: Parallelism| {
            let mut g = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
            let buf = g.alloc_f32(64).unwrap();
            g.fill_f32(buf, 0.0).unwrap();
            let log = Arc::new(Mutex::new(Log::default()));
            g.set_trace_sink(Some(Box::new(Collect(log.clone()))));
            let cfg = LaunchConfig::new("oob test", 8, 32);
            g.launch(&cfg, SimMode::Full, oob_kernel(buf, 64))
                .unwrap_err();
            g.set_trace_sink(None);
            Arc::try_unwrap(log).ok().unwrap().into_inner().unwrap()
        };
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let log = run(parallelism);
            // Block 2 faults: only the clean prefix 0..2 reaches the sink,
            // and the launch never ends.
            assert_eq!(log.block_ids, vec![0, 1], "{parallelism:?}");
            assert_eq!(log.ends, 0, "{parallelism:?}");
        }
    }

    #[test]
    fn oversized_smem_request_is_rejected_before_any_block_runs() {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let mut g = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
            let limit = g.spec().max_smem_per_block;
            let cfg = LaunchConfig::new("fat smem", 4, 32).with_smem(limit + 1);
            let ran = AtomicBool::new(false);
            let err = g
                .launch(&cfg, SimMode::Full, |_| ran.store(true, Ordering::Relaxed))
                .unwrap_err();
            match err {
                SimError::InvalidLaunch(msg) => {
                    assert!(
                        msg.contains("fat smem")
                            && msg.contains("shared-memory")
                            && msg.contains(&limit.to_string()),
                        "{msg}"
                    );
                }
                other => panic!("expected InvalidLaunch, got {other:?} ({parallelism:?})"),
            }
            assert!(!ran.load(Ordering::Relaxed), "{parallelism:?}");
        }
    }

    /// A randomized scatter/gather kernel: every warp stores to random
    /// (possibly colliding) addresses inside its block's private slice
    /// under a random lane mask, immediately loads the same addresses back
    /// (read-your-own-writes through the parallel-mode journal), and
    /// scatters the loaded values again. Everything derives from a PRNG
    /// seeded by (block, warp, round), so serial and parallel execution
    /// face exactly the same traffic.
    fn scatter_kernel(dst: GmBuf, slice: u64) -> impl Fn(&mut BlockCtx) + Sync {
        use crate::testrng::Xoshiro;
        use crate::warp::lane_addrs_from;
        move |blk: &mut BlockCtx| {
            let id = blk.dims.block_id as u64;
            for round in 0..3u64 {
                blk.each_warp(|w| {
                    let mut rng = Xoshiro::seeded(
                        0x5CA7_7E21 ^ (id << 20) ^ ((w.warp_id() as u64) << 8) ^ round,
                    );
                    let mut offs = [0u64; WARP_SIZE];
                    for o in offs.iter_mut() {
                        *o = id * slice + rng.next() % slice;
                    }
                    let addrs = lane_addrs_from(|l| dst.f32_addr(offs[l]));
                    let vals: [[f32; 1]; WARP_SIZE] =
                        std::array::from_fn(|_| [(rng.next() % 997) as f32]);
                    let mask = LaneMask(rng.next() as u32);
                    w.st_global::<1>(&addrs, &vals, mask);
                    let back = w.ld_global::<1>(&addrs, mask);
                    let mut offs2 = [0u64; WARP_SIZE];
                    for o in offs2.iter_mut() {
                        *o = id * slice + rng.next() % slice;
                    }
                    let addrs2 = lane_addrs_from(|l| dst.f32_addr(offs2[l]));
                    w.st_global::<1>(&addrs2, &back, mask);
                });
                blk.sync();
            }
        }
    }

    #[test]
    fn randomized_scatter_is_bit_identical_across_parallelism() {
        const BLOCKS: u64 = 12;
        const SLICE: u64 = 192;
        let run = |parallelism: Parallelism| {
            let mut g = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
            let dst = g.alloc_f32(BLOCKS * SLICE).unwrap();
            g.fill_f32(dst, -1.0).unwrap();
            let cfg = LaunchConfig::new("scatter", BLOCKS as usize, 64);
            let r = g
                .launch(&cfg, SimMode::Full, scatter_kernel(dst, SLICE))
                .unwrap();
            (r, g.download_f32(dst).unwrap())
        };
        let (serial, serial_mem) = run(Parallelism::Serial);
        for threads in [2, 3, 5] {
            let (par, par_mem) = run(Parallelism::Threads(threads));
            assert_eq!(par.stats, serial.stats, "{threads} threads");
            assert_eq!(par_mem, serial_mem, "{threads} threads");
        }
    }

    #[test]
    fn parallel_sampled_launch_matches_serial() {
        let run = |parallelism: Parallelism| {
            let mut g = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
            let dst = g.alloc_f32(64 * 32).unwrap();
            let cfg = LaunchConfig::new("id", 64, 32);
            g.launch(&cfg, SimMode::Sampled(8), id_kernel(dst)).unwrap()
        };
        let serial = run(Parallelism::Serial);
        let par = run(Parallelism::Threads(4));
        assert_eq!(par.stats, serial.stats);
        assert_eq!(par.executed_blocks, serial.executed_blocks);
    }

    #[test]
    fn parallelism_env_parsing() {
        // from_env reads the process environment, which tests must not
        // mutate (other tests run concurrently); exercise the pure parts.
        assert_eq!(Parallelism::Serial.worker_threads(), 1);
        assert_eq!(Parallelism::Threads(0).worker_threads(), 1);
        assert_eq!(Parallelism::Threads(6).worker_threads(), 6);
        assert!(Parallelism::auto().worker_threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Serial);
    }

    #[test]
    fn builder_methods() {
        let cfg = LaunchConfig::new("k", 2, 64)
            .with_smem(1024)
            .with_regs(64)
            .with_overlap(OverlapMode::Serial);
        assert_eq!(cfg.smem_bytes, 1024);
        assert_eq!(cfg.regs_per_thread, 64);
        assert_eq!(cfg.overlap, OverlapMode::Serial);
    }

    #[test]
    fn report_shorthands() {
        let mut g = gpu();
        let dst = g.alloc_f32(32).unwrap();
        let cfg = LaunchConfig::new("id", 1, 32);
        let r = g.launch(&cfg, SimMode::Full, id_kernel(dst)).unwrap();
        assert_eq!(r.gflops(), r.timing.gflops);
        assert_eq!(r.seconds(), r.timing.t_total);
    }

    #[test]
    fn fill_f32_reports_success() {
        let mut g = gpu();
        let buf = g.alloc_f32(16).unwrap();
        g.fill_f32(buf, 2.5).unwrap();
        assert_eq!(g.download_f32(buf).unwrap(), vec![2.5; 16]);
    }

    /// A kernel whose block 2 runs one lane off the end of `buf`.
    fn oob_kernel(buf: GmBuf, len: u64) -> impl Fn(&mut BlockCtx) + Sync {
        move |blk: &mut BlockCtx| {
            let id = blk.dims.block_id;
            blk.each_warp(|w| {
                let base = if id == 2 { len - 16 } else { 0 };
                let addrs = lane_addrs(buf.f32_addr(base), 4);
                w.ld_global::<1>(&addrs, LaneMask::ALL);
            });
        }
    }

    #[test]
    fn device_fault_surfaces_as_kernel_fault_error() {
        let mut g = gpu();
        let buf = g.alloc_f32(64).unwrap();
        g.fill_f32(buf, 0.0).unwrap();
        let cfg = LaunchConfig::new("oob test", 4, 32);
        let err = g
            .launch(&cfg, SimMode::Full, oob_kernel(buf, 64))
            .unwrap_err();
        let fault = err.device_fault().expect("expected a kernel fault");
        assert_eq!(fault.kernel, "oob test");
        assert_eq!(fault.block, 2);
        assert_eq!(fault.warp, 0);
        // Lanes 0..16 still read in-bounds floats; lane 16 runs off the end.
        assert_eq!(fault.lane, 16);
        assert!(matches!(fault.kind, FaultKind::OutOfBounds { .. }));
        // The device remains usable after the fault.
        let cfg_ok = LaunchConfig::new("id", 2, 32);
        let dst = g.alloc_f32(2 * 32).unwrap();
        g.launch(&cfg_ok, SimMode::Full, id_kernel(dst)).unwrap();
    }

    #[test]
    fn parallel_fault_matches_serial_fault() {
        let run = |parallelism: Parallelism| {
            let mut g = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
            let buf = g.alloc_f32(64).unwrap();
            g.fill_f32(buf, 0.0).unwrap();
            let cfg = LaunchConfig::new("oob test", 8, 32);
            g.launch(&cfg, SimMode::Full, oob_kernel(buf, 64))
                .unwrap_err()
        };
        let serial = run(Parallelism::Serial);
        let par = run(Parallelism::Threads(4));
        assert_eq!(serial.device_fault(), par.device_fault());
    }

    #[test]
    fn kernel_panic_is_contained() {
        let mut g = gpu();
        let cfg = LaunchConfig::new("panicky", 2, 32);
        let err = g
            .launch(&cfg, SimMode::Full, |blk: &mut BlockCtx| {
                if blk.dims.block_id == 1 {
                    panic!("boom {}", blk.dims.block_id);
                }
            })
            .unwrap_err();
        let fault = err.device_fault().expect("expected a kernel fault");
        assert_eq!(fault.block, 1);
        match &fault.kind {
            FaultKind::KernelPanic { message } => assert!(message.contains("boom"), "{message}"),
            other => panic!("expected KernelPanic, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_budget_aborts_runaway_kernels() {
        let mut g = gpu().with_step_budget(1_000);
        let cfg = LaunchConfig::new("runaway", 1, 32);
        let err = g
            .launch(&cfg, SimMode::Full, |blk: &mut BlockCtx| loop {
                blk.each_warp(|w| w.count_alu(1));
            })
            .unwrap_err();
        let fault = err.device_fault().expect("expected a kernel fault");
        assert!(matches!(fault.kind, FaultKind::Timeout { steps } if steps > 1_000));
    }

    #[test]
    fn injection_targets_exact_block_and_lane() {
        let mut g = gpu().with_fault_injection(FaultInjection {
            kernel_substr: "id".into(),
            block: 5,
            op_index: 0,
            lane: 3,
            addr_xor: 1 << 41,
        });
        let dst = g.alloc_f32(8 * 32).unwrap();
        let cfg = LaunchConfig::new("id", 8, 32);
        let err = g.launch(&cfg, SimMode::Full, id_kernel(dst)).unwrap_err();
        let fault = err.device_fault().expect("expected a kernel fault");
        assert_eq!((fault.block, fault.lane), (5, 3));
        // Disarm: the same launch now succeeds.
        g.set_fault_injection(None);
        g.launch(&cfg, SimMode::Full, id_kernel(dst)).unwrap();
    }

    #[test]
    fn injection_skips_non_matching_kernels() {
        let mut g = gpu().with_fault_injection(FaultInjection {
            kernel_substr: "does-not-match".into(),
            block: 0,
            op_index: 0,
            lane: 0,
            addr_xor: 1 << 41,
        });
        let dst = g.alloc_f32(32).unwrap();
        let cfg = LaunchConfig::new("id", 1, 32);
        g.launch(&cfg, SimMode::Full, id_kernel(dst)).unwrap();
    }
}
