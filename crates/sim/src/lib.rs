//! # kconv-sim — a Kepler-class GPU memory-hierarchy simulator
//!
//! This crate is the hardware substrate for the `kconv` workspace, which
//! reproduces *"Optimizing Memory Efficiency for Convolution Kernels on
//! Kepler GPUs"* (Chen, Chen, Chen, Hu — DAC 2017) in pure Rust. The paper's
//! results are all **memory-system effects observable at warp granularity**,
//! so the simulator models exactly that level:
//!
//! * [`mem::SharedMemory`] — 32 banks of configurable width (8 bytes on
//!   Kepler, 4 bytes elsewhere), with bank-conflict replays and same-word
//!   broadcast. This is where the paper's `W_SMB = n * W_CD` mismatch model
//!   lives; see [`bank_conflict_cycles`].
//! * [`mem::GlobalMemory`] — byte-addressable DRAM serviced in 128-byte
//!   transactions, with per-warp coalescing analysis.
//! * [`mem::ConstantMemory`] — warp-broadcast semantics and a line-granular
//!   cache model.
//! * [`Gpu::launch`] — warp-synchronous execution of kernel closures over a
//!   grid of thread blocks, with optional block sampling for large sweeps
//!   and an optional multi-threaded block loop ([`Parallelism`]) whose
//!   counters and outputs are bit-identical to serial execution (see the
//!   [`launch`] module docs for the argument).
//! * [`timing`] — a documented trace-driven cost model turning the counted
//!   events into seconds and GFlop/s on the published K40m rates.
//! * [`fault`] — device-side fault containment and the opt-in sanitizer
//!   tools (memcheck / racecheck / synccheck, `KCONV_SANITIZE`): kernel
//!   bugs surface as typed [`SimError::KernelFault`] values naming the
//!   exact kernel/block/warp/thread instead of tearing down the process.
//!
//! Kernels written against this API move **real data**: outputs are
//! validated against CPU references in the kernel crates. Timing is a model
//! (not cycle-accurate RTL); the experiment write-ups treat ratios between
//! kernels — which derive from exactly counted traffic — as the meaningful
//! quantity.
//!
//! ## Example
//!
//! A warp reading 32 consecutive `float`s from shared memory on Kepler uses
//! only half the fabric; reading `float2`s uses all of it — the paper's
//! Fig. 1 in four lines:
//!
//! ```
//! use kconv_sim::{bank_conflict_cycles, lane_addrs, BankWidth, LaneMask};
//!
//! let unmatched = bank_conflict_cycles(&lane_addrs(0, 4), 4, LaneMask::ALL, 32, BankWidth::B8);
//! let matched = bank_conflict_cycles(&lane_addrs(0, 8), 8, LaneMask::ALL, 32, BankWidth::B8);
//! assert_eq!(unmatched.cycles, matched.cycles); // both conflict-free...
//! // ...but the matched access moved twice the bytes per cycle.
//! ```
//!
//! See [`Gpu`] for a complete launch example.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod error;
pub mod fault;
pub mod launch;
pub mod mem;
pub mod pricing;
mod report;
mod spec;
mod stats;
#[cfg(test)]
pub(crate) mod testrng;
pub mod timing;
pub mod trace;
mod warp;

pub use block::{BlockCtx, BlockDims, WarpCtx};
pub use error::{Result, SimError};
pub use fault::{
    AccessKind, DeviceFault, FaultInjection, FaultKind, FaultSchedule, Hazard, MemSpace,
    SanitizerMode,
};
pub use launch::{Gpu, LaunchConfig, LaunchReport, Parallelism, SimMode};
pub use mem::{
    bank_conflict_cycles, BankAccessOutcome, ConstantMemory, GlobalMemory, GmBuf, SharedMemory,
};
pub use report::render_report;
pub use spec::{BankWidth, GpuSpec, SpecGrid, WARP_SIZE};
pub use stats::KernelStats;
pub use timing::{occupancy, Occupancy, OverlapMode, Timing};
pub use trace::{EncoderState, EventEncoder, TraceEvent, TraceLaunch, TraceOp, TraceSink};
pub use warp::{lane_addrs, lane_addrs_from, lane_addrs_uniform, LaneIter, LaneMask, WarpAddrs};
