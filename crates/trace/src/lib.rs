//! # kconv-trace — binary warp traces and memory-efficiency analysis
//!
//! Companion crate to `kconv-sim`'s per-warp trace hooks
//! ([`TraceSink`](kconv_sim::TraceSink)). It ships three layers:
//!
//! * [`TraceWriter`] / [`Trace::decode`] — a compact binary format
//!   (varints; lane addresses as an affine `first`/`step` pair, a
//!   two-level `base`/`s1`/`s2` tile or zigzag deltas, see
//!   [`format`](mod@format)) streaming every warp memory instruction of a
//!   launch to any `Write` target, and its one reader,
//!   which materializes the stream into flat slabs (see [`decoded`]) so
//!   consumers decode once and walk or re-price many times.
//!   [`capture`] attaches a writer to a `Gpu` around one closure and
//!   hands back the bytes.
//! * [`TraceSummary`] — per-launch roll-up of what the trace records:
//!   per-op events, lane accesses and useful bytes, and barrier arrivals.
//!   A trace records addresses, not costs: transactions and conflict
//!   cycles come from the live launch's `KernelStats` or from re-pricing
//!   the trace with `kconv-replay`.
//! * [`EfficiencyReport`] — address-granular analysis: distinct
//!   words/lines loaded from global memory, read-multiplicity histograms
//!   (the paper's communication-optimality claim is "every interior pixel
//!   read exactly once"), and the shared-memory image/filter read split.
//!
//! Because the simulator delivers identical event streams under serial
//! and threaded execution, two traces of the same launch are comparable
//! byte for byte — the `trace_report` harness in `kconv-bench` relies on
//! exactly that.
//!
//! ## Capturing a trace
//!
//! ```
//! use kconv_sim::{lane_addrs, Gpu, GpuSpec, LaneMask, LaunchConfig, SimMode, TraceOp};
//! use kconv_trace::TraceSummary;
//!
//! # fn main() -> Result<(), kconv_sim::SimError> {
//! let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
//! let src = gpu.alloc_f32(32)?;
//! gpu.upload_f32(src, &[1.0; 32])?;
//!
//! let cfg = LaunchConfig::new("read", 1, 32);
//! let (report, bytes) = kconv_trace::capture(&mut gpu, |gpu| {
//!     gpu.launch(&cfg, SimMode::Full, |blk| {
//!         blk.each_warp(|w| {
//!             w.ld_global::<1>(&lane_addrs(src.f32_addr(0), 4), LaneMask::ALL);
//!         });
//!     })
//! });
//! let report = report?;
//!
//! let summary = &TraceSummary::from_bytes(&bytes).unwrap()[0];
//! assert_eq!(summary.gm_ld_useful_bytes(), 128);
//! assert_eq!(summary.op(TraceOp::GmLd).lane_accesses, 32);
//! // The cost is the pricing's, not the trace's: coalesced to one line.
//! assert_eq!(report.stats.gm_ld_transactions, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod decoded;
pub mod format;
pub mod summary;
pub mod varint;

pub use analyze::{EfficiencyReport, KernelMeta, LINE_BYTES, WORD_BYTES};
pub use decoded::{BlockView, DecodedLaunch, EventHead, Trace};
pub use format::{
    LaunchEnd, LaunchHeader, SharedBuffer, TraceWriter, AFFINE, MAGIC, REPEAT, TWO_LEVEL, VERSION,
};
/// The lane forms KTRC stores, defined beside the pricing that reads them.
pub use kconv_sim::pricing::{affine_addrs, affine_lanes, TwoLevel, WarpAccess};
pub use summary::{OpTotals, TraceSummary};

use kconv_sim::Gpu;

/// Runs `run` on `gpu` with a [`TraceWriter`] attached and returns its
/// result together with the KTRC bytes of every launch it made.
///
/// The writer (on a [`SharedBuffer`]) replaces any sink already installed
/// and is detached again — which flushes it — whatever `run` returns, so
/// a failed launch leaves `gpu` untraced and still yields the bytes
/// written up to the failure.
///
/// ```
/// use kconv_sim::{Gpu, GpuSpec, LaunchConfig, SimMode};
///
/// let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
/// let bad = LaunchConfig::new("too-wide", 1, 4096); // over the block limit
/// let (result, bytes) = kconv_trace::capture(&mut gpu, |gpu| {
///     gpu.launch(&bad, SimMode::Full, |_| {})
/// });
/// assert!(result.is_err());
/// assert!(gpu.take_trace_sink().is_none()); // detached on the error path too
/// assert!(bytes.is_empty()); // rejected before the launch began
/// ```
pub fn capture<R>(gpu: &mut Gpu, run: impl FnOnce(&mut Gpu) -> R) -> (R, Vec<u8>) {
    let buf = SharedBuffer::new();
    gpu.set_trace_sink(Some(Box::new(TraceWriter::new(buf.clone()))));
    let result = run(gpu);
    gpu.set_trace_sink(None);
    (result, buf.take())
}

/// Errors reading a binary trace.
#[derive(Debug)]
pub enum TraceError {
    /// The byte stream is not a well-formed trace.
    Malformed {
        /// Byte offset near which parsing failed.
        offset: usize,
        /// What went wrong.
        reason: String,
    },
    /// An underlying I/O error (reading a trace file).
    Io(std::io::Error),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Malformed { offset, reason } => {
                write!(f, "malformed trace at byte {offset}: {reason}")
            }
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_sim::{
        lane_addrs, Gpu, GpuSpec, LaneMask, LaunchConfig, Parallelism, SimMode, TraceOp,
    };

    /// End to end against the simulator: the trace's event and byte totals
    /// must agree with the launch's own counters, its end record must
    /// carry them whole, and serial vs threaded capture must produce
    /// byte-identical streams.
    #[test]
    fn trace_totals_match_kernel_stats_and_parallelism_is_invisible() {
        let run = |parallelism: Parallelism| {
            let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
            let src = gpu.alloc_f32(16 * 64).unwrap();
            let dst = gpu.alloc_f32(16 * 64).unwrap();
            let vals: Vec<f32> = (0..16 * 64).map(|i| i as f32).collect();
            gpu.upload_f32(src, &vals).unwrap();
            gpu.write_const_f32(0, &[3.0; 64]).unwrap();
            let cfg = LaunchConfig::new("roundtrip", 16, 64).with_smem(2048);
            let (report, bytes) = capture(&mut gpu, |gpu| {
                gpu.launch(&cfg, SimMode::Full, |blk| {
                    let id = blk.dims.block_id as u64;
                    blk.each_warp(|w| {
                        let a = lane_addrs(src.f32_addr(id * 64 + w.warp_id() as u64 * 32), 4);
                        let x = w.ld_global::<1>(&a, LaneMask::ALL);
                        let c =
                            w.ld_const(&kconv_sim::lane_addrs_uniform(4 * id % 64), LaneMask::ALL);
                        let s = lane_addrs(w.warp_id() as u64 * 128, 4);
                        let y: [[f32; 1]; 32] = std::array::from_fn(|l| [x[l][0] * c[l]]);
                        w.st_shared::<1>(&s, &y, LaneMask::ALL);
                        let z = w.ld_shared::<1>(&s, LaneMask::ALL);
                        let d = lane_addrs(dst.f32_addr(id * 64 + w.warp_id() as u64 * 32), 4);
                        w.st_global::<1>(&d, &z, LaneMask::ALL);
                        w.count_fma(32);
                    });
                    blk.sync();
                })
            });
            (report.unwrap().stats, bytes)
        };

        let (stats, bytes) = run(Parallelism::Serial);
        let summaries = TraceSummary::from_bytes(&bytes).unwrap();
        assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        assert_eq!(s.kernel, "roundtrip");
        assert_eq!(s.blocks, 16);
        assert!(!s.aborted);
        // Every traced total agrees with the simulator's own counters.
        assert_eq!(s.op(TraceOp::GmLd).events, stats.gm_ld_requests);
        assert_eq!(s.op(TraceOp::GmSt).events, stats.gm_st_requests);
        assert_eq!(s.gm_ld_useful_bytes(), stats.gm_ld_bytes_useful);
        assert_eq!(s.gm_st_useful_bytes(), stats.gm_st_bytes_useful);
        assert_eq!(s.op(TraceOp::SmLd).events, stats.sm_ld_requests);
        assert_eq!(s.op(TraceOp::SmSt).events, stats.sm_st_requests);
        assert_eq!(s.op(TraceOp::CmLd).events, stats.cm_requests);
        assert_eq!(s.bar_arrivals(), stats.bar_syncs);
        assert_eq!(s.fma_lane_ops, stats.fma_lane_ops);
        // The launch's costs travel whole in its end record.
        let trace = Trace::decode(&bytes).unwrap();
        assert_eq!(trace.launches()[0].end.stats, Some(stats));

        // Threaded capture produces the identical byte stream.
        for threads in [2, 5] {
            let (par_stats, par_bytes) = run(Parallelism::Threads(threads));
            assert_eq!(par_stats, stats, "{threads} threads");
            assert_eq!(par_bytes, bytes, "{threads} threads");
        }
    }

    /// The analyzer on a real launch: a kernel that reads every word once
    /// plus a halo row read twice.
    #[test]
    fn analyzer_counts_multiplicity_on_a_real_launch() {
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let src = gpu.alloc_f32(4 * 32).unwrap();
        gpu.upload_f32(src, &vec![1.0; 4 * 32]).unwrap();
        let cfg = LaunchConfig::new("halo", 2, 32);
        let (result, bytes) = capture(&mut gpu, |gpu| {
            gpu.launch(&cfg, SimMode::Full, |blk| {
                let id = blk.dims.block_id as u64;
                blk.each_warp(|w| {
                    // Each block reads rows [2*id, 2*id+1] plus halo row 2*id+2
                    // clamped to the last row; block 0's halo row 2 is block
                    // 1's first row -> 32 words read twice.
                    for row in 0..3u64 {
                        let r = (2 * id + row).min(3);
                        w.ld_global::<1>(&lane_addrs(src.f32_addr(r * 32), 4), LaneMask::ALL);
                    }
                });
            })
        });
        result.unwrap();
        let reports = EfficiencyReport::analyze(
            &bytes,
            &KernelMeta {
                out_pixels: 4 * 32,
                sm_image_split: None,
            },
        )
        .unwrap();
        let r = &reports[0];
        assert_eq!(r.gm_ld_distinct_words, 4 * 32);
        // Block 0 re-reads row 2; block 1 re-reads row 3 (clamped halo).
        assert_eq!(r.gm_read_multiplicity, [64, 64, 0, 0]);
        assert_eq!(r.duplicate_word_reads(), 64);
        assert_eq!(r.gm_ld_distinct_lines, 4); // 4 rows x 128 B
        assert_eq!(r.gm_ld_bytes_per_out_pixel(), 6.0);
    }
}
