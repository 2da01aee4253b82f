//! Shared memory with the banked-access model at the heart of the paper.
//!
//! Shared memory is divided into [`GpuSpec::smem_banks`](crate::GpuSpec)
//! banks of [`BankWidth`](crate::BankWidth) bytes each, interleaved at
//! bank-word granularity:
//!
//! ```text
//! bank(addr) = (addr / bank_width) mod banks
//! word(addr) =  addr / bank_width
//! ```
//!
//! One warp access is serviced in *replays*: all lanes whose requests fall in
//! distinct words of the same bank serialize, while lanes hitting the *same*
//! word are served together by the broadcast mechanism. The access therefore
//! costs `max over banks of (distinct words in that bank)` cycles, and each
//! cycle can deliver at most `banks x bank_width` bytes.
//!
//! This reproduces the paper's Fig. 1 exactly: on Kepler (8-byte banks), 32
//! lanes reading consecutive `float`s hit only 16 distinct words — the access
//! completes in one cycle but moves 128 useful bytes where the fabric could
//! deliver 256. The *matched* pattern (each lane reads a `float2`) moves the
//! full 256 bytes per cycle, doubling effective bandwidth.
//!
//! ## Sanitizer hooks
//!
//! When the launcher enables sanitizer tools (see
//! [`SanitizerMode`](crate::SanitizerMode)), each block's shared memory
//! additionally carries:
//!
//! * a memcheck shadow (1 bit/byte) — reading a byte no warp has written
//!   since the block started raises an uninitialized-read fault, exactly
//!   like `cuda-memcheck --tool initcheck`;
//! * a racecheck shadow — per byte, the last write and the readers of the
//!   **current barrier interval** (phase). The simulator executes warps
//!   warp-synchronously, so intra-warp ordering is defined and exempt; a
//!   cross-warp write/write, read-after-write, or write-after-read on the
//!   same byte *within one phase* is a hazard, because nothing orders the
//!   two warps between barriers. Accesses separated by `__syncthreads()`
//!   land in different phases and never conflict.
//!
//! All violations raise a typed [`DeviceFault`](crate::DeviceFault)
//! contained at the block boundary instead of panicking the process.

use crate::fault::{self, AccessKind, FaultKind, Hazard, MemSpace, Site};
use crate::mem::shadow::Shadow;
use crate::mem::{lanes, Lanes};
use crate::pricing::PreparedAccess;
use crate::spec::{BankWidth, WARP_SIZE};
use crate::stats::KernelStats;
use crate::warp::{LaneMask, WarpAddrs};

/// Result of analyzing one warp access against the bank model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccessOutcome {
    /// Cycles the access occupies the shared-memory pipeline (>= 1).
    pub cycles: u64,
    /// Whether at least two active lanes were served by a same-word
    /// broadcast.
    pub broadcast: bool,
}

/// Computes the cost of one warp access of `width` bytes per lane under the
/// banked model.
///
/// Exposed publicly so that analytic code (and tests) can reason about
/// access patterns without constructing a memory.
///
/// # Examples
///
/// ```
/// use kconv_sim::{bank_conflict_cycles, lane_addrs, BankWidth, LaneMask};
/// // Kepler, conventional pattern: 32 consecutive floats. One cycle
/// // (no conflict) but only half the fabric is used.
/// let out = bank_conflict_cycles(
///     &lane_addrs(0, 4), 4, LaneMask::ALL, 32, BankWidth::B8);
/// assert_eq!(out.cycles, 1);
/// assert!(out.broadcast); // lane pairs share an 8-byte word
///
/// // 32-way conflict: lanes stride by a full row of 32 words.
/// let out = bank_conflict_cycles(
///     &lane_addrs(0, 32 * 8), 4, LaneMask::ALL, 32, BankWidth::B8);
/// assert_eq!(out.cycles, 32); // every lane in bank 0, distinct words
/// ```
pub fn bank_conflict_cycles(
    addrs: &WarpAddrs,
    width: u64,
    mask: LaneMask,
    banks: u32,
    bank_width: BankWidth,
) -> BankAccessOutcome {
    let bw = bank_width.bytes();
    let nb = banks as u64;
    debug_assert!(nb <= 64, "at most 64 banks supported");
    // Every real bank count is a power of two; sparing the hardware divide
    // matters at this call frequency.
    let pow2 = nb.is_power_of_two();

    // Fast path: one fused lane-engine call both proves the common shape
    // (every active lane's span lies in one bank word and the warp's word
    // range fits a two-word bitmap — true of every aligned scalar or
    // vector access, i.e. nearly always) and hands back the distinct
    // words themselves. The bank histogram then walks only the set bits —
    // a coalesced float warp touches 4–8 distinct words, not 32. With one
    // word per lane, a warp broadcast (some word revisited) is exactly
    // `distinct < active lanes`, and with at most 32 distinct words the
    // u8 counters cannot saturate.
    if let Some(occ) = lanes::occupancy(addrs, width, mask, bw) {
        let mut per_bank = [0u8; 64];
        let mut max_words = 1u8;
        let mut distinct = 0u32;
        for (wi, &word) in occ.words.iter().enumerate() {
            distinct += word.count_ones();
            let mut bits = word;
            while bits != 0 {
                let w = occ.lo + 64 * wi as u64 + u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                let b = if pow2 { w & (nb - 1) } else { w % nb } as usize;
                per_bank[b] += 1;
                max_words = max_words.max(per_bank[b]);
            }
        }
        return BankAccessOutcome {
            cycles: u64::from(max_words),
            broadcast: distinct < mask.count(),
        };
    }

    // General path: distinct bank-words touched by the warp, via the shared
    // bitmap dedup (a revisited word is a same-word broadcast, a fresh one
    // loads its bank). Handles misaligned and multi-word-per-lane spans,
    // and the empty mask (visits nothing: one cycle, no broadcast).
    let mut per_bank = [0u32; 64];
    let mut max_words = 1u32;
    let mut broadcast = false;
    lanes::for_each_unit(addrs, width, mask, bw, |w, first_visit| {
        if first_visit {
            let b = if pow2 { w & (nb - 1) } else { w % nb } as usize;
            per_bank[b] += 1;
            max_words = max_words.max(per_bank[b]);
        } else {
            broadcast = true;
        }
    });
    BankAccessOutcome {
        cycles: u64::from(max_words),
        broadcast,
    }
}

/// Sentinel: no warp recorded.
const NEVER: u32 = u32::MAX;

/// Per-byte racecheck state: the last write and up to two distinct reader
/// warps of the current barrier phase.
#[derive(Debug, Clone, Copy)]
struct RaceCell {
    w_phase: u32,
    w_warp: u32,
    r_phase: u32,
    /// First warp to read this byte in `r_phase`.
    r_warp: u32,
    /// A second, distinct warp that read it in `r_phase` (if any). Two
    /// distinct readers are enough: any writer conflicts with at least one.
    r_warp2: u32,
}

const FRESH_CELL: RaceCell = RaceCell {
    w_phase: NEVER,
    w_warp: NEVER,
    r_phase: NEVER,
    r_warp: NEVER,
    r_warp2: NEVER,
};

/// Byte-granular cross-warp hazard detector for one block's shared memory.
#[derive(Debug)]
struct RaceShadow {
    cells: Vec<RaceCell>,
}

impl RaceShadow {
    fn new(len: usize) -> Self {
        RaceShadow {
            cells: vec![FRESH_CELL; len],
        }
    }

    fn on_read(&mut self, addr: u64, width: u64, site: Site, lane: usize) {
        let warp = site.warp as u32;
        for b in addr..addr + width {
            let c = &mut self.cells[b as usize];
            if c.w_phase == site.phase && c.w_warp != warp {
                fault::raise(
                    FaultKind::RaceHazard {
                        hazard: Hazard::ReadAfterWrite,
                        addr: b,
                        other_warp: c.w_warp as usize,
                    },
                    site.warp,
                    lane,
                );
            }
            if c.r_phase != site.phase {
                c.r_phase = site.phase;
                c.r_warp = warp;
                c.r_warp2 = NEVER;
            } else if c.r_warp != warp && c.r_warp2 == NEVER {
                c.r_warp2 = warp;
            }
        }
    }

    fn on_write(&mut self, addr: u64, width: u64, site: Site, lane: usize) {
        let warp = site.warp as u32;
        for b in addr..addr + width {
            let c = &mut self.cells[b as usize];
            if c.w_phase == site.phase && c.w_warp != warp {
                fault::raise(
                    FaultKind::RaceHazard {
                        hazard: Hazard::WriteWrite,
                        addr: b,
                        other_warp: c.w_warp as usize,
                    },
                    site.warp,
                    lane,
                );
            }
            if c.r_phase == site.phase {
                let other = if c.r_warp != NEVER && c.r_warp != warp {
                    Some(c.r_warp)
                } else if c.r_warp2 != NEVER && c.r_warp2 != warp {
                    Some(c.r_warp2)
                } else {
                    None
                };
                if let Some(other_warp) = other {
                    fault::raise(
                        FaultKind::RaceHazard {
                            hazard: Hazard::WriteAfterRead,
                            addr: b,
                            other_warp: other_warp as usize,
                        },
                        site.warp,
                        lane,
                    );
                }
            }
            c.w_phase = site.phase;
            c.w_warp = warp;
        }
    }
}

/// Per-thread-block shared memory (functional store + bank instrumentation).
///
/// Created by the launcher for each block with the size requested in the
/// [`LaunchConfig`](crate::LaunchConfig); device code addresses it with
/// block-local byte offsets.
#[derive(Debug)]
pub struct SharedMemory {
    data: Vec<u8>,
    banks: u32,
    bank_width: BankWidth,
    shadow: Option<Shadow>,
    races: Option<RaceShadow>,
}

impl SharedMemory {
    /// Creates a zero-initialized shared memory of `bytes` bytes.
    pub fn new(bytes: u32, banks: u32, bank_width: BankWidth) -> Self {
        SharedMemory {
            data: vec![0; bytes as usize],
            banks,
            bank_width,
            shadow: None,
            races: None,
        }
    }

    /// Enables sanitizer tools for this block's shared memory: `memcheck`
    /// tracks uninitialized reads, `racecheck` tracks cross-warp hazards
    /// between barriers. Both start from a fresh (nothing written) state —
    /// shared memory has no defined contents at block start.
    pub(crate) fn with_sanitizer(mut self, memcheck: bool, racecheck: bool) -> Self {
        if memcheck {
            self.shadow = Some(Shadow::new(self.data.len() as u64));
        }
        if racecheck {
            self.races = Some(RaceShadow::new(self.data.len()));
        }
        self
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.data.len()
    }

    /// Raises a typed fault unless `[addr, addr + width)` fits the
    /// allocation.
    fn check_range(&self, addr: u64, width: u64, access: AccessKind, site: Site, lane: usize) {
        let limit = self.data.len() as u64;
        if addr.checked_add(width).is_none_or(|end| end > limit) {
            fault::raise(
                FaultKind::OutOfBounds {
                    space: MemSpace::Shared,
                    access,
                    addr,
                    width,
                    limit,
                },
                site.warp,
                lane,
            );
        }
    }

    /// Sanitizer checks for one lane's load: bounds, race hazard, uninit.
    fn pre_read(&mut self, addr: u64, width: u64, site: Site, lane: usize) {
        self.check_range(addr, width, AccessKind::Load, site, lane);
        if let Some(races) = &mut self.races {
            races.on_read(addr, width, site, lane);
        }
        if let Some(shadow) = &self.shadow {
            if let Some(bad) = shadow.first_unmarked(addr, width) {
                fault::raise(
                    FaultKind::UninitializedRead {
                        space: MemSpace::Shared,
                        addr: bad,
                        width,
                    },
                    site.warp,
                    lane,
                );
            }
        }
    }

    /// Sanitizer checks for one lane's store: bounds, race hazard; marks
    /// the bytes initialized.
    fn pre_write(&mut self, addr: u64, width: u64, site: Site, lane: usize) {
        self.check_range(addr, width, AccessKind::Store, site, lane);
        if let Some(races) = &mut self.races {
            races.on_write(addr, width, site, lane);
        }
        if let Some(shadow) = &mut self.shadow {
            shadow.mark(addr, width);
        }
    }

    /// True when no sanitizer tool is attached and every active lane's
    /// `[addr, addr + width)` fits the allocation — the precondition for
    /// the check-free copy loops in the warp accessors. Anything else
    /// (sanitizer attached, or some lane out of bounds) takes the original
    /// per-lane path, which raises faults at exactly the same lane, in the
    /// same order, with the same partially-applied stores as before. The
    /// warp-level bound saturates, so a wrapping address still fails into
    /// the faulting path.
    #[inline]
    fn plain_in_bounds(&self, access: &PreparedAccess<'_>) -> bool {
        if self.shadow.is_some() || self.races.is_some() {
            return false;
        }
        access.max_end() <= self.data.len() as u64
    }

    /// Charges one warp access of `width`-byte lanes: its bank-conflict
    /// cycles and broadcast, priced from its lane form.
    #[inline]
    fn charge(
        &self,
        stats: &mut KernelStats,
        access: &PreparedAccess<'_>,
        mask: LaneMask,
        width: u64,
        load: bool,
    ) {
        let outcome = access.bank_conflict_cycles(self.banks, self.bank_width);
        if load {
            stats.sm_ld_requests += 1;
            stats.sm_ld_cycles += outcome.cycles;
        } else {
            stats.sm_st_requests += 1;
            stats.sm_st_cycles += outcome.cycles;
        }
        stats.sm_bytes_useful += u64::from(mask.count()) * width;
        stats.sm_broadcasts += u64::from(outcome.broadcast);
        stats.sm_conflict_histogram[KernelStats::conflict_bucket(outcome.cycles)] += 1;
    }

    /// Warp load of `V` consecutive `f32`s per lane from block-local byte
    /// offsets.
    ///
    /// An out-of-bounds active lane — or a sanitizer finding (uninitialized
    /// read, cross-warp hazard) — raises a
    /// [`DeviceFault`](crate::DeviceFault) contained at the block boundary.
    pub(crate) fn warp_ld<const V: usize>(
        &mut self,
        stats: &mut KernelStats,
        site: Site,
        lanes: Lanes<'_>,
    ) -> [[f32; V]; WARP_SIZE] {
        let width = (V * 4) as u64;
        let access = lanes.prepare(width);
        let (addrs, mask) = (lanes.addrs, lanes.mask);
        let mut out = [[0.0f32; V]; WARP_SIZE];
        if self.plain_in_bounds(&access) {
            if mask.is_all() {
                for lane in 0..WARP_SIZE {
                    let a = addrs[lane] as usize;
                    for (v, slot) in out[lane].iter_mut().enumerate() {
                        let p = a + v * 4;
                        *slot = f32::from_le_bytes(self.data[p..p + 4].try_into().unwrap());
                    }
                }
            } else {
                for lane in mask.iter() {
                    let a = addrs[lane] as usize;
                    for (v, slot) in out[lane].iter_mut().enumerate() {
                        let p = a + v * 4;
                        *slot = f32::from_le_bytes(self.data[p..p + 4].try_into().unwrap());
                    }
                }
            }
        } else {
            for lane in mask.iter() {
                let a = addrs[lane];
                self.pre_read(a, width, site, lane);
                for (v, slot) in out[lane].iter_mut().enumerate() {
                    let p = (a as usize) + v * 4;
                    *slot = f32::from_le_bytes(self.data[p..p + 4].try_into().unwrap());
                }
            }
        }
        self.charge(stats, &access, mask, width, true);
        out
    }

    /// Warp store of `V` consecutive `f32`s per lane.
    ///
    /// Faults like [`SharedMemory::warp_ld`].
    pub(crate) fn warp_st<const V: usize>(
        &mut self,
        stats: &mut KernelStats,
        site: Site,
        lanes: Lanes<'_>,
        values: &[[f32; V]; WARP_SIZE],
    ) {
        let width = (V * 4) as u64;
        let access = lanes.prepare(width);
        let (addrs, mask) = (lanes.addrs, lanes.mask);
        if self.plain_in_bounds(&access) {
            if mask.is_all() {
                for lane in 0..WARP_SIZE {
                    let a = addrs[lane] as usize;
                    for (v, val) in values[lane].iter().enumerate() {
                        let p = a + v * 4;
                        self.data[p..p + 4].copy_from_slice(&val.to_le_bytes());
                    }
                }
            } else {
                for lane in mask.iter() {
                    let a = addrs[lane] as usize;
                    for (v, val) in values[lane].iter().enumerate() {
                        let p = a + v * 4;
                        self.data[p..p + 4].copy_from_slice(&val.to_le_bytes());
                    }
                }
            }
        } else {
            for lane in mask.iter() {
                let a = addrs[lane];
                self.pre_write(a, width, site, lane);
                for (v, val) in values[lane].iter().enumerate() {
                    let p = (a as usize) + v * 4;
                    self.data[p..p + 4].copy_from_slice(&val.to_le_bytes());
                }
            }
        }
        self.charge(stats, &access, mask, width, false);
    }

    /// Warp load of `W` raw bytes per lane (short-data-type extension).
    ///
    /// Faults like [`SharedMemory::warp_ld`].
    pub(crate) fn warp_ld_bytes<const W: usize>(
        &mut self,
        stats: &mut KernelStats,
        site: Site,
        lanes: Lanes<'_>,
    ) -> [[u8; W]; WARP_SIZE] {
        let width = W as u64;
        let access = lanes.prepare(width);
        let (addrs, mask) = (lanes.addrs, lanes.mask);
        let mut out = [[0u8; W]; WARP_SIZE];
        if self.plain_in_bounds(&access) {
            for lane in mask.iter() {
                let a = addrs[lane] as usize;
                out[lane].copy_from_slice(&self.data[a..a + W]);
            }
        } else {
            for lane in mask.iter() {
                let a = addrs[lane];
                self.pre_read(a, width, site, lane);
                out[lane].copy_from_slice(&self.data[a as usize..a as usize + W]);
            }
        }
        self.charge(stats, &access, mask, width, true);
        out
    }

    /// Warp store of `W` raw bytes per lane (short-data-type extension).
    ///
    /// Faults like [`SharedMemory::warp_ld`].
    pub(crate) fn warp_st_bytes<const W: usize>(
        &mut self,
        stats: &mut KernelStats,
        site: Site,
        lanes: Lanes<'_>,
        values: &[[u8; W]; WARP_SIZE],
    ) {
        let width = W as u64;
        let access = lanes.prepare(width);
        let (addrs, mask) = (lanes.addrs, lanes.mask);
        if self.plain_in_bounds(&access) {
            for lane in mask.iter() {
                let a = addrs[lane] as usize;
                self.data[a..a + W].copy_from_slice(&values[lane]);
            }
        } else {
            for lane in mask.iter() {
                let a = addrs[lane];
                self.pre_write(a, width, site, lane);
                self.data[a as usize..a as usize + W].copy_from_slice(&values[lane]);
            }
        }
        self.charge(stats, &access, mask, width, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{install_quiet_hook, FaultPayload};
    use crate::warp::{lane_addrs, lane_addrs_from, lane_addrs_uniform};

    const B: u32 = 32;

    /// Runs `f`, which must raise a device fault, and returns the payload.
    fn trap(f: impl FnOnce() + std::panic::UnwindSafe) -> FaultPayload {
        install_quiet_hook();
        let payload = std::panic::catch_unwind(f).unwrap_err();
        *payload
            .downcast::<FaultPayload>()
            .expect("expected a typed device fault")
    }

    fn site(warp: usize, phase: u32) -> Site {
        Site { warp, phase }
    }

    #[test]
    fn conventional_float_on_kepler_is_one_cycle_half_bandwidth() {
        // Paper Fig. 1a: contiguous floats on 8-byte banks.
        let out = bank_conflict_cycles(&lane_addrs(0, 4), 4, LaneMask::ALL, B, BankWidth::B8);
        assert_eq!(out.cycles, 1);
        // 128 useful bytes in a cycle that could carry 256: the mismatch.
        let useful = 32u64 * 4;
        let capacity = B as u64 * BankWidth::B8.bytes() * out.cycles;
        assert_eq!(useful * 2, capacity);
    }

    #[test]
    fn matched_float2_on_kepler_is_one_cycle_full_bandwidth() {
        // Paper Fig. 1b: each lane reads an 8-byte unit.
        let out = bank_conflict_cycles(&lane_addrs(0, 8), 8, LaneMask::ALL, B, BankWidth::B8);
        assert_eq!(out.cycles, 1);
        assert!(!out.broadcast);
        // 256 useful bytes = full fabric width.
    }

    #[test]
    fn conventional_float_on_fermi_is_matched() {
        let out = bank_conflict_cycles(&lane_addrs(0, 4), 4, LaneMask::ALL, B, BankWidth::B4);
        assert_eq!(out.cycles, 1);
        assert!(!out.broadcast);
    }

    #[test]
    fn column_access_is_fully_serialized() {
        // All lanes in bank 0, distinct words: 32-way conflict.
        let stride = 32 * 8;
        let out = bank_conflict_cycles(&lane_addrs(0, stride), 4, LaneMask::ALL, B, BankWidth::B8);
        assert_eq!(out.cycles, 32);
    }

    #[test]
    fn padded_column_access_is_conflict_free() {
        // Classic padding trick: row pitch of 33 words.
        let stride = 33 * 8;
        let out = bank_conflict_cycles(&lane_addrs(0, stride), 8, LaneMask::ALL, B, BankWidth::B8);
        assert_eq!(out.cycles, 1);
    }

    #[test]
    fn two_way_conflict() {
        // Lanes 0..16 in words 0..16, lanes 16..32 revisit banks 0..16 with
        // different words (stride 2 words): 2-way conflict.
        let out = bank_conflict_cycles(&lane_addrs(0, 16), 8, LaneMask::ALL, B, BankWidth::B8);
        assert_eq!(out.cycles, 2);
    }

    #[test]
    fn uniform_address_broadcasts() {
        let out = bank_conflict_cycles(&lane_addrs_uniform(40), 4, LaneMask::ALL, B, BankWidth::B8);
        assert_eq!(out.cycles, 1);
        assert!(out.broadcast);
    }

    #[test]
    fn same_word_different_halves_broadcast_on_kepler() {
        // Lanes 0 and 1 read the two floats of one 8-byte word.
        let addrs = lane_addrs_from(|l| (l as u64 % 2) * 4);
        let out = bank_conflict_cycles(&addrs, 4, LaneMask::first(2), B, BankWidth::B8);
        assert_eq!(out.cycles, 1);
        assert!(out.broadcast);
    }

    #[test]
    fn float4_on_fermi_spans_four_banks() {
        // 32 lanes x 16 B = 512 B over 128 B of fabric: 4 cycles.
        let out = bank_conflict_cycles(&lane_addrs(0, 16), 16, LaneMask::ALL, B, BankWidth::B4);
        assert_eq!(out.cycles, 4);
    }

    #[test]
    fn float4_on_kepler_spans_two_cycles() {
        // 512 B over 256 B of fabric: 2 cycles.
        let out = bank_conflict_cycles(&lane_addrs(0, 16), 16, LaneMask::ALL, B, BankWidth::B8);
        assert_eq!(out.cycles, 2);
    }

    #[test]
    fn empty_mask_costs_one_cycle() {
        let out = bank_conflict_cycles(&lane_addrs(0, 4), 4, LaneMask::NONE, B, BankWidth::B8);
        assert_eq!(out.cycles, 1);
        assert!(!out.broadcast);
    }

    #[test]
    fn functional_roundtrip_and_stats() {
        let mut sm = SharedMemory::new(4096, B, BankWidth::B8);
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(0, 8);
        let vals: [[f32; 2]; WARP_SIZE] = std::array::from_fn(|l| [l as f32, -(l as f32)]);
        sm.warp_st::<2>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        let back = sm.warp_ld::<2>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(back[9], [9.0, -9.0]);
        assert_eq!(stats.sm_st_requests, 1);
        assert_eq!(stats.sm_ld_requests, 1);
        assert_eq!(stats.sm_st_cycles, 1);
        assert_eq!(stats.sm_ld_cycles, 1);
        assert_eq!(stats.sm_bytes_useful, 2 * 32 * 8);
    }

    #[test]
    fn unmatched_vs_matched_bandwidth_utilization() {
        // Move 256 floats through SM both ways; matched should show ~2x the
        // bandwidth utilization of unmatched on Kepler.
        let spec_bw = 32 * 8;
        let mut sm = SharedMemory::new(2048, B, BankWidth::B8);

        let mut unmatched = KernelStats::default();
        for i in 0..8u64 {
            let addrs = lane_addrs(i * 128, 4);
            sm.warp_ld::<1>(
                &mut unmatched,
                Site::ZERO,
                Lanes::explicit(&addrs, LaneMask::ALL),
            );
        }
        let mut matched = KernelStats::default();
        for i in 0..4u64 {
            let addrs = lane_addrs(i * 256, 8);
            sm.warp_ld::<2>(
                &mut matched,
                Site::ZERO,
                Lanes::explicit(&addrs, LaneMask::ALL),
            );
        }
        assert_eq!(unmatched.sm_bytes_useful, matched.sm_bytes_useful);
        let u_un = unmatched.sm_bandwidth_utilization(spec_bw);
        let u_ma = matched.sm_bandwidth_utilization(spec_bw);
        assert!((u_ma / u_un - 2.0).abs() < 1e-9, "{u_ma} vs {u_un}");
        assert!((u_ma - 1.0).abs() < 1e-9);
    }

    #[test]
    fn byte_access_roundtrip() {
        let mut sm = SharedMemory::new(256, B, BankWidth::B4);
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(0, 2);
        let vals: [[u8; 2]; WARP_SIZE] = std::array::from_fn(|l| [l as u8, 0xCD]);
        sm.warp_st_bytes::<2>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        let back = sm.warp_ld_bytes::<2>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(back[31], [31, 0xCD]);
        // fp16-style mismatch on 4-byte banks: lanes pair up in words.
        assert_eq!(stats.sm_ld_cycles, 1);
        assert!(stats.sm_broadcasts >= 1);
    }

    #[test]
    fn conflict_histogram_is_recorded() {
        let mut sm = SharedMemory::new(32 * 8 * 32, B, BankWidth::B8);
        let mut stats = KernelStats::default();
        // Conflict-free float2 load.
        sm.warp_ld::<2>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs(0, 8), LaneMask::ALL),
        );
        // 32-way conflicted column access.
        sm.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&lane_addrs(0, 32 * 8), LaneMask::ALL),
        );
        assert_eq!(stats.sm_conflict_histogram[0], 1);
        assert_eq!(stats.sm_conflict_histogram[5], 1);
        assert!((stats.sm_conflict_free_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oob_access_raises_typed_fault() {
        let p = trap(|| {
            let mut sm = SharedMemory::new(64, B, BankWidth::B8);
            let mut stats = KernelStats::default();
            sm.warp_ld::<1>(
                &mut stats,
                site(1, 0),
                Lanes::explicit(&lane_addrs(0, 4), LaneMask::ALL),
            );
        });
        // Lane 16 is the first whose 4-byte read at offset 64 overflows.
        assert_eq!(p.warp, 1);
        assert_eq!(p.lane, 16);
        match p.kind {
            FaultKind::OutOfBounds {
                space,
                access,
                addr,
                limit,
                ..
            } => {
                assert_eq!(space, MemSpace::Shared);
                assert_eq!(access, AccessKind::Load);
                assert_eq!(addr, 64);
                assert_eq!(limit, 64);
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn uninit_read_detected_when_tracking() {
        let p = trap(|| {
            let mut sm = SharedMemory::new(256, B, BankWidth::B8).with_sanitizer(true, false);
            let mut stats = KernelStats::default();
            sm.warp_ld::<1>(
                &mut stats,
                Site::ZERO,
                Lanes::explicit(&lane_addrs(0, 4), LaneMask::ALL),
            );
        });
        assert!(matches!(
            p.kind,
            FaultKind::UninitializedRead {
                space: MemSpace::Shared,
                addr: 0,
                ..
            }
        ));
    }

    #[test]
    fn write_then_read_is_clean_under_memcheck() {
        let mut sm = SharedMemory::new(256, B, BankWidth::B8).with_sanitizer(true, false);
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(0, 4);
        let vals: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32]);
        sm.warp_st::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        let back = sm.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(back[3][0], 3.0);
    }

    #[test]
    fn write_write_race_between_warps_detected() {
        let p = trap(|| {
            let mut sm = SharedMemory::new(256, B, BankWidth::B8).with_sanitizer(false, true);
            let mut stats = KernelStats::default();
            let addrs = lane_addrs(0, 4);
            let vals: [[f32; 1]; WARP_SIZE] = [[0.0]; WARP_SIZE];
            // Two warps store to the same bytes in the same phase.
            sm.warp_st::<1>(
                &mut stats,
                site(0, 0),
                Lanes::explicit(&addrs, LaneMask::ALL),
                &vals,
            );
            sm.warp_st::<1>(
                &mut stats,
                site(1, 0),
                Lanes::explicit(&addrs, LaneMask::ALL),
                &vals,
            );
        });
        assert_eq!(p.warp, 1);
        match p.kind {
            FaultKind::RaceHazard {
                hazard,
                addr,
                other_warp,
            } => {
                assert_eq!(hazard, Hazard::WriteWrite);
                assert_eq!(addr, 0);
                assert_eq!(other_warp, 0);
            }
            other => panic!("expected RaceHazard, got {other:?}"),
        }
    }

    #[test]
    fn read_after_write_race_detected() {
        let p = trap(|| {
            let mut sm = SharedMemory::new(256, B, BankWidth::B8).with_sanitizer(false, true);
            let mut stats = KernelStats::default();
            let addrs = lane_addrs(0, 4);
            let vals: [[f32; 1]; WARP_SIZE] = [[1.0]; WARP_SIZE];
            sm.warp_st::<1>(
                &mut stats,
                site(0, 0),
                Lanes::explicit(&addrs, LaneMask::ALL),
                &vals,
            );
            sm.warp_ld::<1>(
                &mut stats,
                site(1, 0),
                Lanes::explicit(&addrs, LaneMask::ALL),
            );
        });
        assert!(matches!(
            p.kind,
            FaultKind::RaceHazard {
                hazard: Hazard::ReadAfterWrite,
                other_warp: 0,
                ..
            }
        ));
    }

    #[test]
    fn write_after_read_race_detected() {
        let p = trap(|| {
            let mut sm = SharedMemory::new(256, B, BankWidth::B8).with_sanitizer(false, true);
            let mut stats = KernelStats::default();
            let addrs = lane_addrs(0, 4);
            let vals: [[f32; 1]; WARP_SIZE] = [[1.0]; WARP_SIZE];
            // Warp 0 writes and reads in phase 0; barrier; warp 2 reads in
            // phase 1, then warp 5 overwrites in the same phase.
            sm.warp_st::<1>(
                &mut stats,
                site(0, 0),
                Lanes::explicit(&addrs, LaneMask::ALL),
                &vals,
            );
            sm.warp_ld::<1>(
                &mut stats,
                site(2, 1),
                Lanes::explicit(&addrs, LaneMask::ALL),
            );
            sm.warp_st::<1>(
                &mut stats,
                site(5, 1),
                Lanes::explicit(&addrs, LaneMask::ALL),
                &vals,
            );
        });
        assert_eq!(p.warp, 5);
        assert!(matches!(
            p.kind,
            FaultKind::RaceHazard {
                hazard: Hazard::WriteAfterRead,
                other_warp: 2,
                ..
            }
        ));
    }

    #[test]
    fn barrier_separated_accesses_do_not_race() {
        let mut sm = SharedMemory::new(256, B, BankWidth::B8).with_sanitizer(true, true);
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(0, 4);
        let vals: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32]);
        // Warp 0 writes in phase 0; after a barrier every warp may read.
        sm.warp_st::<1>(
            &mut stats,
            site(0, 0),
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        for w in 0..4 {
            let back = sm.warp_ld::<1>(
                &mut stats,
                site(w, 1),
                Lanes::explicit(&addrs, LaneMask::ALL),
            );
            assert_eq!(back[11][0], 11.0);
        }
    }

    #[test]
    fn same_warp_accesses_never_race() {
        // Warp-synchronous execution orders a warp's own accesses.
        let mut sm = SharedMemory::new(256, B, BankWidth::B8).with_sanitizer(true, true);
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(0, 4);
        let vals: [[f32; 1]; WARP_SIZE] = [[2.0]; WARP_SIZE];
        sm.warp_st::<1>(
            &mut stats,
            site(3, 0),
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        sm.warp_st::<1>(
            &mut stats,
            site(3, 0),
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        sm.warp_ld::<1>(
            &mut stats,
            site(3, 0),
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
    }

    #[test]
    fn disjoint_warp_writes_do_not_race() {
        let mut sm = SharedMemory::new(1024, B, BankWidth::B8).with_sanitizer(false, true);
        let mut stats = KernelStats::default();
        let vals: [[f32; 1]; WARP_SIZE] = [[1.0]; WARP_SIZE];
        for w in 0..4u64 {
            let addrs = lane_addrs(w * 128, 4);
            sm.warp_st::<1>(
                &mut stats,
                site(w as usize, 0),
                Lanes::explicit(&addrs, LaneMask::ALL),
                &vals,
            );
        }
    }
}
