//! Constant memory with the warp broadcast mechanism and a simple
//! constant-cache model.
//!
//! Constant memory is optimized for the case where **all lanes of a warp
//! read the same address**: the value is broadcast in a single cycle, and
//! when served from the constant cache the read is folded into the consuming
//! instruction (the common `c[bank][offset]` operand on real hardware), so a
//! fully-uniform cached read costs *zero* extra pipeline cycles here.
//! Divergent addresses serialize: a warp read of `d` distinct addresses
//! costs `d - 1` extra cycles. Cache misses are charged one line fetch of
//! global-memory traffic by the timing model.
//!
//! The paper's special-case kernel keeps its filters in constant memory and
//! is deliberately structured so that "all the threads within a warp always
//! compute convolutions using the same filter at the same time" — i.e. the
//! zero-cost path.
//!
//! Device-side warp loads flow through a per-block
//! [`CmPlane`](crate::mem::plane::CmPlane); the launch-scoped first-touch
//! line bitmap lives here so serial launches count misses inline while
//! parallel launches count the ordered union at merge time. Out-of-bounds
//! device reads raise a typed [`DeviceFault`](crate::DeviceFault) contained
//! at the block boundary; with memcheck enabled, reads of constants never
//! written by the host fault as uninitialized.

use crate::error::{Result, SimError};
use crate::fault::{self, AccessKind, FaultKind, MemSpace, Site};
use crate::mem::shadow::Shadow;

/// A bitmap over constant-cache line indices — the compact replacement for
/// the `HashSet<u64>` touched-line sets the cache model used to keep (the
/// full 64 KiB constant segment in 256-byte lines is 256 lines = four
/// words, so set/union/count are a handful of word ops).
#[derive(Debug, Clone, Default)]
pub(crate) struct LineBitmap {
    words: Vec<u64>,
}

impl LineBitmap {
    /// An empty bitmap able to hold lines `0..num_lines` without growing.
    pub(crate) fn new(num_lines: u64) -> Self {
        LineBitmap {
            words: vec![0; num_lines.div_ceil(64) as usize],
        }
    }

    /// Sets `line`, returning `true` if it was not set before (growing the
    /// bitmap if the line is beyond the sized range).
    pub(crate) fn set(&mut self, line: u64) -> bool {
        let (w, bit) = ((line / 64) as usize, 1u64 << (line % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let new = self.words[w] & bit == 0;
        self.words[w] |= bit;
        new
    }

    /// Number of set lines.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Clears every line.
    pub(crate) fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Unions `other` into `self`, returning how many of its lines were
    /// not already set — the newly-touched count.
    pub(crate) fn absorb(&mut self, other: &LineBitmap) -> u64 {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut new = 0u64;
        for (mine, &theirs) in self.words.iter_mut().zip(&other.words) {
            new += u64::from((theirs & !*mine).count_ones());
            *mine |= theirs;
        }
        new
    }
}

/// Constant memory: a small read-only (from the device) space with broadcast
/// semantics and a line-granular cache model.
#[derive(Debug)]
pub struct ConstantMemory {
    data: Vec<u8>,
    line_bytes: u64,
    touched_lines: LineBitmap,
    shadow: Option<Shadow>,
}

impl ConstantMemory {
    /// Creates a constant memory of `bytes` bytes with `line_bytes` cache
    /// lines.
    pub fn new(bytes: u64, line_bytes: u64) -> Self {
        ConstantMemory {
            data: vec![0; bytes as usize],
            line_bytes,
            touched_lines: LineBitmap::new(bytes.div_ceil(line_bytes)),
            shadow: None,
        }
    }

    /// Enables memcheck's uninitialized-read tracking. With
    /// `mark_existing`, current contents are presumed valid (conservative
    /// enable after host writes may already have happened); without it,
    /// only bytes written from now on count as initialized.
    pub fn enable_uninit_tracking(&mut self, mark_existing: bool) {
        let mut shadow = Shadow::new(self.data.len() as u64);
        if mark_existing {
            shadow.mark_all();
        }
        self.shadow = Some(shadow);
    }

    /// Disables uninitialized-read tracking and frees the shadow.
    pub fn disable_uninit_tracking(&mut self) {
        self.shadow = None;
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.data.len()
    }

    /// Cache-line size in bytes.
    pub(crate) fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of cache lines covering the constant segment (sizes per-block
    /// touched-line bitmaps in parallel mode).
    pub(crate) fn num_lines(&self) -> u64 {
        (self.data.len() as u64).div_ceil(self.line_bytes)
    }

    /// Host write of consecutive `f32`s starting at element `elem_offset`
    /// (models `cudaMemcpyToSymbol`; uncounted).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] if the range does not
    /// fit in constant memory.
    pub fn write_f32s(&mut self, elem_offset: u64, values: &[f32]) -> Result<()> {
        let byte_off = elem_offset * 4;
        let byte_len = values.len() as u64 * 4;
        if byte_off + byte_len > self.data.len() as u64 {
            return Err(SimError::HostTransferOutOfBounds {
                offset: byte_off,
                len: byte_len,
                buffer: self.data.len() as u64,
            });
        }
        for (i, v) in values.iter().enumerate() {
            let p = byte_off as usize + i * 4;
            self.data[p..p + 4].copy_from_slice(&v.to_le_bytes());
        }
        if let Some(shadow) = &mut self.shadow {
            shadow.mark(byte_off, byte_len);
        }
        Ok(())
    }

    /// Resets the cache-residency model (called by the launcher at the start
    /// of each kernel so first-touch misses are attributed per launch).
    pub(crate) fn reset_cache(&mut self) {
        self.touched_lines.clear();
    }

    /// Marks `line` as cache-resident for this launch; returns `true` on
    /// first touch (a miss).
    pub(crate) fn touch_line(&mut self, line: u64) -> bool {
        self.touched_lines.set(line)
    }

    /// Merges one block's touched-line bitmap into the launch-scoped cache
    /// state, returning how many lines were newly touched — the block's
    /// miss contribution. Calling this per block in block-id order yields
    /// exactly the serial miss total (the model never evicts within a
    /// launch, so total misses = |union of per-block bitmaps|).
    pub(crate) fn absorb_lines(&mut self, lines: &LineBitmap) -> u64 {
        self.touched_lines.absorb(lines)
    }

    /// Device read of one `f32` at byte address `addr` by `lane` at `site`.
    ///
    /// An out-of-bounds read — or, under memcheck, a read of bytes the host
    /// never wrote — raises a typed [`DeviceFault`](crate::DeviceFault)
    /// contained at the block boundary.
    pub(crate) fn read_f32(&self, addr: u64, site: Site, lane: usize) -> f32 {
        let limit = self.data.len() as u64;
        if addr.checked_add(4).is_none_or(|end| end > limit) {
            fault::raise(
                FaultKind::OutOfBounds {
                    space: MemSpace::Constant,
                    access: AccessKind::Load,
                    addr,
                    width: 4,
                    limit,
                },
                site.warp,
                lane,
            );
        }
        if let Some(shadow) = &self.shadow {
            if let Some(bad) = shadow.first_unmarked(addr, 4) {
                fault::raise(
                    FaultKind::UninitializedRead {
                        space: MemSpace::Constant,
                        addr: bad,
                        width: 4,
                    },
                    site.warp,
                    lane,
                );
            }
        }
        f32::from_le_bytes(
            self.data[addr as usize..addr as usize + 4]
                .try_into()
                .unwrap(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{install_quiet_hook, FaultPayload};
    use crate::mem::plane::CmPlane;
    use crate::mem::Lanes;
    use crate::stats::KernelStats;
    use crate::warp::{lane_addrs, lane_addrs_uniform, LaneMask};

    fn cm() -> ConstantMemory {
        ConstantMemory::new(64 * 1024, 256)
    }

    /// Runs `f`, which must raise a device fault, and returns the payload.
    fn trap(f: impl FnOnce() + std::panic::UnwindSafe) -> FaultPayload {
        install_quiet_hook();
        let payload = std::panic::catch_unwind(f).unwrap_err();
        *payload
            .downcast::<FaultPayload>()
            .expect("expected a typed device fault")
    }

    #[test]
    fn host_write_and_uniform_read() {
        let mut m = cm();
        m.write_f32s(4, &[1.5, 2.5]).unwrap();
        let mut stats = KernelStats::default();
        let mut plane = CmPlane::Direct(&mut m);
        let out = plane.warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs_uniform(4 * 4), LaneMask::ALL),
        );
        assert!(out.iter().all(|&v| v == 1.5));
        // Uniform cached read is free apart from the request count.
        assert_eq!(stats.cm_cycles, 0);
        assert_eq!(stats.cm_requests, 1);
        assert_eq!(stats.cm_misses, 1); // first touch of the line
    }

    #[test]
    fn second_touch_hits_cache() {
        let mut m = cm();
        m.write_f32s(0, &[3.0]).unwrap();
        let mut stats = KernelStats::default();
        let mut plane = CmPlane::Direct(&mut m);
        plane.warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs_uniform(0), LaneMask::ALL),
        );
        plane.warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs_uniform(0), LaneMask::ALL),
        );
        assert_eq!(stats.cm_misses, 1);
        assert_eq!(stats.cm_requests, 2);
    }

    #[test]
    fn divergent_read_serializes() {
        let mut m = cm();
        let vals: Vec<f32> = (0..32).map(|i| i as f32).collect();
        m.write_f32s(0, &vals).unwrap();
        let mut stats = KernelStats::default();
        let mut plane = CmPlane::Direct(&mut m);
        let out = plane.warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs(0, 4), LaneMask::ALL),
        );
        assert_eq!(out[7], 7.0);
        // 32 distinct addresses: 31 serialization cycles.
        assert_eq!(stats.cm_cycles, 31);
        // 128 bytes within one 256-byte line: one miss.
        assert_eq!(stats.cm_misses, 1);
    }

    #[test]
    fn masked_lanes_do_not_serialize() {
        let mut m = cm();
        m.write_f32s(0, &[0.0; 32]).unwrap();
        let mut stats = KernelStats::default();
        let mut plane = CmPlane::Direct(&mut m);
        plane.warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs(0, 4), LaneMask::first(2)),
        );
        assert_eq!(stats.cm_cycles, 1);
    }

    #[test]
    fn cache_reset_recounts_misses() {
        let mut m = cm();
        m.write_f32s(0, &[1.0]).unwrap();
        let mut stats = KernelStats::default();
        CmPlane::Direct(&mut m).warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs_uniform(0), LaneMask::ALL),
        );
        m.reset_cache();
        CmPlane::Direct(&mut m).warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs_uniform(0), LaneMask::ALL),
        );
        assert_eq!(stats.cm_misses, 2);
    }

    #[test]
    fn write_bounds_checked() {
        let mut m = cm();
        assert!(m.write_f32s(64 * 1024 / 4 - 1, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn device_oob_raises_typed_fault() {
        let p = trap(|| {
            let mut m = ConstantMemory::new(16, 256);
            let mut stats = KernelStats::default();
            CmPlane::Direct(&mut m).warp_ld_f32(
                &mut stats,
                Site { warp: 2, phase: 0 },
                Lanes::explicit(&lane_addrs_uniform(16), LaneMask::ALL),
            );
        });
        assert_eq!(p.warp, 2);
        assert_eq!(p.lane, 0);
        match p.kind {
            FaultKind::OutOfBounds {
                space,
                access,
                addr,
                width,
                limit,
            } => {
                assert_eq!(space, MemSpace::Constant);
                assert_eq!(access, AccessKind::Load);
                assert_eq!(addr, 16);
                assert_eq!(width, 4);
                assert_eq!(limit, 16);
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn uninit_read_detected_when_tracking() {
        let p = trap(|| {
            let mut m = cm();
            m.enable_uninit_tracking(false);
            m.write_f32s(0, &[1.0]).unwrap();
            let mut stats = KernelStats::default();
            // Element 1 was never written by the host.
            CmPlane::Direct(&mut m).warp_ld_f32(
                &mut stats,
                Site::ZERO,
                Lanes::explicit(&lane_addrs_uniform(4), LaneMask::ALL),
            );
        });
        match p.kind {
            FaultKind::UninitializedRead { space, addr, .. } => {
                assert_eq!(space, MemSpace::Constant);
                assert_eq!(addr, 4);
            }
            other => panic!("expected UninitializedRead, got {other:?}"),
        }
    }

    #[test]
    fn line_bitmap_matches_hashset_reference() {
        // Differential property test: the bitmap must agree with the naive
        // HashSet model it replaced on random touch/absorb sequences.
        use crate::testrng::Xoshiro;
        use std::collections::HashSet;

        let mut rng = Xoshiro::seeded(0xB17_BA5E);
        const LINES: u64 = 256;
        let mut launch = LineBitmap::new(LINES);
        let mut launch_ref: HashSet<u64> = HashSet::new();
        for _ in 0..200 {
            // One block's touched lines, built by random touches...
            let mut block = LineBitmap::new(LINES);
            let mut block_ref: HashSet<u64> = HashSet::new();
            for _ in 0..rng.next() % 64 {
                let line = rng.next() % LINES;
                assert_eq!(block.set(line), block_ref.insert(line));
            }
            assert_eq!(block.count(), block_ref.len() as u64);
            // ...then absorbed into the launch state, like the merge loop.
            let new_ref = block_ref.difference(&launch_ref).count() as u64;
            assert_eq!(launch.absorb(&block), new_ref);
            launch_ref.extend(&block_ref);
            assert_eq!(launch.count(), launch_ref.len() as u64);
        }
        launch.clear();
        assert_eq!(launch.count(), 0);
    }

    #[test]
    fn conservative_enable_marks_existing_contents() {
        let mut m = cm();
        m.enable_uninit_tracking(true);
        let mut stats = KernelStats::default();
        // Never host-written, but conservative enable presumes it valid.
        let out = CmPlane::Direct(&mut m).warp_ld_f32(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs_uniform(128), LaneMask::ALL),
        );
        assert_eq!(out[0], 0.0);
    }
}
