//! Address-level memory-efficiency analysis of binary traces.
//!
//! Where [`TraceSummary`] answers "how much traffic", this module answers
//! the paper's sharper questions: *which* global-memory words were read
//! and how many times each (communication optimality — §3 of the paper
//! claims each interior input pixel is fetched exactly once), how many
//! distinct 128-byte lines were touched, and how shared-memory reads split
//! between image pixels and filter fragments (the (W_T+K−1)/(W_T·K)
//! layout claim).

use std::collections::{HashMap, HashSet};

use kconv_sim::TraceOp;

use crate::decoded::{DecodedLaunch, Trace};
use crate::summary::TraceSummary;
use crate::TraceError;

/// Global-memory transaction (line) size the distinct-line count uses.
pub const LINE_BYTES: u64 = 128;
/// Word size for read-multiplicity accounting (one `f32`).
pub const WORD_BYTES: u64 = 4;

/// Per-kernel facts the trace alone cannot know, supplied by the caller.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelMeta {
    /// Output pixels the launch produced (denominator for bytes/pixel).
    pub out_pixels: u64,
    /// Shared-memory byte threshold splitting the block's layout: `SmLd`
    /// lanes with address below it are image reads, at or above it filter
    /// reads. `None` disables the split (both counters read 0).
    pub sm_image_split: Option<u64>,
}

/// One launch's trace analyzed at address granularity.
#[derive(Debug, Clone)]
pub struct EfficiencyReport {
    /// The O(1) roll-up of the same launch.
    pub summary: TraceSummary,
    /// Output pixels (copied from [`KernelMeta`]).
    pub out_pixels: u64,
    /// Distinct 4-byte global-memory words loaded (plain + read-only path).
    pub gm_ld_distinct_words: u64,
    /// Distinct 128-byte global-memory lines loaded.
    pub gm_ld_distinct_lines: u64,
    /// Word read-multiplicity histogram: words read exactly 1, 2, 3, and
    /// ≥ 4 times.
    pub gm_read_multiplicity: [u64; 4],
    /// The most times any single word was loaded.
    pub gm_ld_word_reads_max: u64,
    /// `SmLd` lane reads below the image/filter split.
    pub sm_image_lane_reads: u64,
    /// `SmLd` lane reads at or above the split.
    pub sm_filter_lane_reads: u64,
}

impl EfficiencyReport {
    /// Analyzes every launch in a binary trace, applying the same
    /// [`KernelMeta`] to each (traces produced by `trace_report` hold one
    /// launch per buffer).
    ///
    /// # Errors
    ///
    /// Propagates [`Trace::decode`]'s errors.
    pub fn analyze(bytes: &[u8], meta: &KernelMeta) -> Result<Vec<EfficiencyReport>, TraceError> {
        Ok(Trace::decode(bytes)?
            .launches()
            .iter()
            .map(|launch| EfficiencyReport::of(launch, meta))
            .collect())
    }

    fn of(launch: &DecodedLaunch, meta: &KernelMeta) -> Self {
        let mut word_reads: HashMap<u64, u64> = HashMap::new();
        let (mut sm_image, mut sm_filter) = (0, 0);
        for block in launch.blocks() {
            block.for_each(|head, access| match head.op {
                TraceOp::GmLd | TraceOp::GmLdRo => {
                    let addrs = access.addrs(head.mask);
                    for lane in head.mask.iter() {
                        let a = addrs[lane];
                        let first = a / WORD_BYTES;
                        // Saturating: a lane at the top of the address
                        // space must not wrap into an empty word range.
                        let last =
                            a.saturating_add(u64::from(head.lane_bytes).max(1) - 1) / WORD_BYTES;
                        for w in first..=last {
                            *word_reads.entry(w).or_insert(0) += 1;
                        }
                    }
                }
                TraceOp::SmLd => {
                    if let Some(split) = meta.sm_image_split {
                        let addrs = access.addrs(head.mask);
                        for lane in head.mask.iter() {
                            if addrs[lane] < split {
                                sm_image += 1;
                            } else {
                                sm_filter += 1;
                            }
                        }
                    }
                }
                _ => {}
            });
        }
        let mut multiplicity = [0u64; 4];
        let mut max_reads = 0u64;
        let mut lines = HashSet::new();
        for (&word, &reads) in &word_reads {
            multiplicity[(reads.min(4) - 1) as usize] += 1;
            max_reads = max_reads.max(reads);
            lines.insert(word * WORD_BYTES / LINE_BYTES);
        }
        EfficiencyReport {
            summary: TraceSummary::of(launch),
            out_pixels: meta.out_pixels,
            gm_ld_distinct_words: word_reads.len() as u64,
            gm_ld_distinct_lines: lines.len() as u64,
            gm_read_multiplicity: multiplicity,
            gm_ld_word_reads_max: max_reads,
            sm_image_lane_reads: sm_image,
            sm_filter_lane_reads: sm_filter,
        }
    }

    /// Useful global-memory load bytes per output pixel.
    pub fn gm_ld_bytes_per_out_pixel(&self) -> f64 {
        ratio(self.summary.gm_ld_useful_bytes(), self.out_pixels)
    }

    /// Useful global-memory store bytes per output pixel.
    pub fn gm_st_bytes_per_out_pixel(&self) -> f64 {
        ratio(self.summary.gm_st_useful_bytes(), self.out_pixels)
    }

    /// Words loaded exactly once.
    pub fn words_read_once(&self) -> u64 {
        self.gm_read_multiplicity[0]
    }

    /// Barrier-arrival events across the launch (one per warp per
    /// `__syncthreads()`); see [`TraceSummary::bar_arrivals`].
    pub fn bar_arrivals(&self) -> u64 {
        self.summary.bar_arrivals()
    }

    /// Per-block barrier-arrival range `(min, max)` — equal components
    /// mean every block ran the same number of barrier rounds, the
    /// precondition for the pipeline's per-block halving claim.
    pub fn block_bar_range(&self) -> (u64, u64) {
        (self.summary.block_bar_min, self.summary.block_bar_max)
    }

    /// Word-granular loads beyond the first touch of each word — 0 means
    /// communication-optimal traffic.
    pub fn duplicate_word_reads(&self) -> u64 {
        let total_word_reads: u64 = self
            .summary
            .op(TraceOp::GmLd)
            .useful_bytes
            .div_ceil(WORD_BYTES)
            + self
                .summary
                .op(TraceOp::GmLdRo)
                .useful_bytes
                .div_ceil(WORD_BYTES);
        total_word_reads - self.gm_ld_distinct_words
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceWriter;
    use crate::SharedBuffer;
    use kconv_sim::{
        GpuSpec, KernelStats, LaneMask, OverlapMode, TraceEvent, TraceLaunch, TraceSink, WARP_SIZE,
    };

    fn gm_ld(base: u64, stride: u64, lanes: usize) -> TraceEvent {
        let mut addrs = [0u64; WARP_SIZE];
        for (lane, a) in addrs.iter_mut().enumerate().take(lanes) {
            *a = base + lane as u64 * stride;
        }
        TraceEvent {
            op: TraceOp::GmLd,
            warp: 0,
            mask: LaneMask::first(lanes),
            lane_bytes: 4,
            transactions: 1,
            cycles: 0,
            addrs,
        }
    }

    fn sm_ld(base: u64, stride: u64, lanes: usize) -> TraceEvent {
        let mut ev = gm_ld(base, stride, lanes);
        ev.op = TraceOp::SmLd;
        ev.transactions = 0;
        ev.cycles = 1;
        ev
    }

    #[test]
    fn multiplicity_lines_and_sm_split() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = GpuSpec::kepler_k40m();
        w.launch_begin(&TraceLaunch {
            kernel: "k",
            grid_blocks: 1,
            executed_blocks: 1,
            threads_per_block: 32,
            smem_bytes: 4096,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        w.write_block(
            0,
            &[
                gm_ld(0, 4, 32),   // words 0..32, once
                gm_ld(64, 4, 16),  // words 16..32 again -> read twice
                sm_ld(0, 4, 32),   // 32 image reads (< 1024)
                sm_ld(1024, 4, 8), // 8 filter reads (>= 1024)
                sm_ld(1020, 4, 2), // addrs 1020, 1024: one of each
            ],
        );
        w.launch_end(&KernelStats {
            fma_lane_ops: 256,
            ..Default::default()
        });
        let meta = KernelMeta {
            out_pixels: 64,
            sm_image_split: Some(1024),
        };
        let reports = EfficiencyReport::analyze(&buf.take(), &meta).unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.gm_ld_distinct_words, 32);
        // Words 0..16 once, 16..32 twice.
        assert_eq!(r.gm_read_multiplicity, [16, 16, 0, 0]);
        assert_eq!(r.gm_ld_word_reads_max, 2);
        assert_eq!(r.duplicate_word_reads(), 16);
        assert_eq!(r.words_read_once(), 16);
        // 32 words * 4 B = 128 B = exactly one line.
        assert_eq!(r.gm_ld_distinct_lines, 1);
        assert_eq!(r.sm_image_lane_reads, 33);
        assert_eq!(r.sm_filter_lane_reads, 9);
        assert_eq!(r.gm_ld_bytes_per_out_pixel(), (48.0 * 4.0) / 64.0);
        // The embedded summary matches the standalone one.
        assert_eq!(r.summary.events, 5);
        assert_eq!(r.summary.fma_lane_ops, 256);
        assert!(!r.summary.aborted);
    }

    #[test]
    fn wide_lane_bytes_cover_multiple_words() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = GpuSpec::kepler_k40m();
        w.launch_begin(&TraceLaunch {
            kernel: "k",
            grid_blocks: 1,
            executed_blocks: 1,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        let mut ev = gm_ld(0, 8, 4); // float2 per lane: 8 bytes
        ev.lane_bytes = 8;
        w.write_block(0, &[ev]);
        w.launch_end(&KernelStats::default());
        let reports = EfficiencyReport::analyze(&buf.take(), &KernelMeta::default()).unwrap();
        assert_eq!(reports[0].gm_ld_distinct_words, 8);
        assert_eq!(reports[0].duplicate_word_reads(), 0);

        // A lane at the top of the address space: its word counts once
        // instead of overflowing.
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        w.launch_begin(&TraceLaunch {
            kernel: "top",
            grid_blocks: 1,
            executed_blocks: 1,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        w.write_block(0, &[gm_ld(u64::MAX - 1, 0, 1)]);
        w.launch_end(&KernelStats::default());
        let reports = EfficiencyReport::analyze(&buf.take(), &KernelMeta::default()).unwrap();
        assert_eq!(reports[0].gm_ld_distinct_words, 1);
        assert_eq!(reports[0].gm_read_multiplicity, [1, 0, 0, 0]);
    }
}
