//! Global (device DRAM) memory with per-warp coalescing analysis.
//!
//! A warp memory instruction touching a set of byte ranges is serviced in
//! units of [`GpuSpec::gm_transaction_bytes`](crate::GpuSpec)-sized aligned
//! segments (128 B on all modeled parts). The number of distinct segments is
//! the *transaction count*; fully coalesced accesses (32 contiguous floats)
//! touch exactly one segment, scattered accesses touch up to 32.
//!
//! Warp-level accesses flow through a per-block
//! [`GmPlane`](crate::mem::plane::GmPlane), which either writes through to
//! this memory (serial launches) or journals stores for deterministic
//! replay (parallel launches). This type holds the storage, the allocator,
//! the host-transfer paths, and — when memcheck is enabled — the shadow
//! bitmap that tracks which bytes have ever been written.

use crate::error::{Result, SimError};
use crate::mem::plane::WriteJournal;
use crate::mem::shadow::Shadow;

/// A handle to an allocation inside [`GlobalMemory`].
///
/// Buffers are plain `(offset, len)` descriptors; copying one does not copy
/// the underlying data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GmBuf {
    offset: u64,
    bytes: u64,
}

impl GmBuf {
    /// Absolute device byte address of element `index` assuming elements of
    /// `size` bytes.
    ///
    /// This is the address-arithmetic helper kernels use; bounds are checked
    /// at access time by [`GlobalMemory`].
    pub fn addr_of(&self, index: u64, size: u64) -> u64 {
        self.offset + index * size
    }

    /// Absolute device byte address of `f32` element `index`.
    pub fn f32_addr(&self, index: u64) -> u64 {
        self.addr_of(index, 4)
    }

    /// A sub-buffer view: `bytes` bytes starting `byte_offset` into this
    /// buffer. Views alias the parent's storage (copying a `GmBuf` never
    /// copies data) — the device-side tool for batched layouts where one
    /// allocation holds per-image slots.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn subbuffer(&self, byte_offset: u64, bytes: u64) -> GmBuf {
        assert!(
            byte_offset + bytes <= self.bytes,
            "subbuffer {byte_offset}+{bytes} exceeds buffer of {} bytes",
            self.bytes
        );
        GmBuf {
            offset: self.offset + byte_offset,
            bytes,
        }
    }

    /// First byte address of the buffer.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Size of the buffer in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of `f32` elements that fit in the buffer.
    pub fn len_f32(&self) -> u64 {
        self.bytes / 4
    }
}

/// Byte-addressable device DRAM with transaction-level instrumentation.
///
/// Host-side transfers ([`GlobalMemory::write_f32s`],
/// [`GlobalMemory::read_f32s`]) move data without recording statistics —
/// they model `cudaMemcpy`, which the paper's measurements exclude.
/// Device-side warp accesses are only reachable through
/// [`WarpCtx`](crate::WarpCtx) and are always recorded.
#[derive(Debug)]
pub struct GlobalMemory {
    data: Vec<u8>,
    next: u64,
    capacity: u64,
    ld_transaction_bytes: u64,
    st_transaction_bytes: u64,
    ro_cache_bytes: u64,
    /// memcheck shadow: present only when uninitialized-read tracking is
    /// enabled.
    shadow: Option<Shadow>,
}

/// Alignment applied to every allocation (matches `cudaMalloc`'s 256-byte
/// guarantee, which kernels rely on for vectorized accesses).
const ALLOC_ALIGN: u64 = 256;

impl GlobalMemory {
    /// Creates a device memory of `capacity` bytes serviced in
    /// `ld_transaction_bytes` load segments and `st_transaction_bytes`
    /// store sectors, fronted by a per-SM read-only cache of
    /// `ro_cache_bytes`.
    ///
    /// Backing storage is committed lazily by the OS; creating a large
    /// device memory is cheap until pages are touched.
    pub fn new(
        capacity: u64,
        ld_transaction_bytes: u64,
        st_transaction_bytes: u64,
        ro_cache_bytes: u64,
    ) -> Self {
        assert!(
            ld_transaction_bytes.is_power_of_two() && st_transaction_bytes.is_power_of_two(),
            "transaction sizes must be powers of two"
        );
        assert!(
            ro_cache_bytes >= ld_transaction_bytes,
            "read-only cache must hold at least one line"
        );
        GlobalMemory {
            data: Vec::new(),
            next: 0,
            capacity,
            ld_transaction_bytes,
            st_transaction_bytes,
            ro_cache_bytes,
            shadow: None,
        }
    }

    /// Turns uninitialized-read tracking (memcheck) on. With
    /// `mark_existing`, every byte allocated so far is presumed valid —
    /// the conservative choice when enabling after allocations were made;
    /// without it, only writes from this point on count.
    pub fn enable_uninit_tracking(&mut self, mark_existing: bool) {
        let mut shadow = Shadow::new(self.next);
        if mark_existing {
            shadow.mark_all();
        }
        self.shadow = Some(shadow);
    }

    /// Turns uninitialized-read tracking off and drops the shadow.
    pub fn disable_uninit_tracking(&mut self) {
        self.shadow = None;
    }

    /// Load-transaction (segment) size in bytes.
    pub(crate) fn ld_transaction_bytes(&self) -> u64 {
        self.ld_transaction_bytes
    }

    /// Store-transaction (sector) size in bytes.
    pub(crate) fn st_transaction_bytes(&self) -> u64 {
        self.st_transaction_bytes
    }

    /// Line capacity of the per-SM read-only (texture) cache: its capacity
    /// in load-segment-sized lines.
    pub(crate) fn ro_capacity_lines(&self) -> usize {
        crate::pricing::ro_capacity_lines(self.ro_cache_bytes, self.ld_transaction_bytes)
    }

    /// Allocates `bytes` bytes, 256-byte aligned.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AllocTooLarge`] if the allocation does not fit.
    pub fn alloc(&mut self, bytes: u64) -> Result<GmBuf> {
        let offset = self.next.next_multiple_of(ALLOC_ALIGN);
        let end = offset.checked_add(bytes).ok_or(SimError::AllocTooLarge {
            requested: bytes,
            available: self.capacity - self.next.min(self.capacity),
            space: "global",
        })?;
        if end > self.capacity {
            return Err(SimError::AllocTooLarge {
                requested: bytes,
                available: self.capacity - self.next.min(self.capacity),
                space: "global",
            });
        }
        if self.data.len() < end as usize {
            self.data.resize(end as usize, 0);
        }
        self.next = end;
        if let Some(shadow) = &mut self.shadow {
            shadow.grow(end);
        }
        Ok(GmBuf { offset, bytes })
    }

    /// Allocates a buffer of `len` `f32` elements.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AllocTooLarge`] if the allocation does not fit.
    pub fn alloc_f32(&mut self, len: u64) -> Result<GmBuf> {
        self.alloc(len * 4)
    }

    /// Bytes allocated so far (including alignment padding).
    pub fn allocated_bytes(&self) -> u64 {
        self.next
    }

    /// Host write of consecutive `f32`s starting at element `elem_offset` of
    /// `buf` (models `cudaMemcpy` host-to-device; not counted in stats).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] if the range exceeds
    /// the buffer.
    pub fn write_f32s(&mut self, buf: GmBuf, elem_offset: u64, values: &[f32]) -> Result<()> {
        let byte_off = elem_offset * 4;
        let byte_len = values.len() as u64 * 4;
        if byte_off + byte_len > buf.bytes {
            return Err(SimError::HostTransferOutOfBounds {
                offset: byte_off,
                len: byte_len,
                buffer: buf.bytes,
            });
        }
        let start = (buf.offset + byte_off) as usize;
        for (i, v) in values.iter().enumerate() {
            self.data[start + i * 4..start + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        self.mark_init(buf.offset + byte_off, byte_len);
        Ok(())
    }

    /// Host read of `len` consecutive `f32`s starting at element
    /// `elem_offset` of `buf` (models `cudaMemcpy` device-to-host).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] if the range exceeds
    /// the buffer.
    pub fn read_f32s(&self, buf: GmBuf, elem_offset: u64, len: usize) -> Result<Vec<f32>> {
        let byte_off = elem_offset * 4;
        let byte_len = len as u64 * 4;
        if byte_off + byte_len > buf.bytes {
            return Err(SimError::HostTransferOutOfBounds {
                offset: byte_off,
                len: byte_len,
                buffer: buf.bytes,
            });
        }
        let start = (buf.offset + byte_off) as usize;
        Ok((0..len)
            .map(|i| {
                f32::from_le_bytes(
                    self.data[start + i * 4..start + i * 4 + 4]
                        .try_into()
                        .unwrap(),
                )
            })
            .collect())
    }

    /// Fills an entire buffer with a constant (host-side, uncounted).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HostTransferOutOfBounds`] if the buffer
    /// descriptor does not lie inside allocated device memory (a corrupt
    /// or stale `GmBuf`).
    pub fn fill_f32(&mut self, buf: GmBuf, value: f32) -> Result<()> {
        if buf.offset + buf.bytes > self.next {
            return Err(SimError::HostTransferOutOfBounds {
                offset: buf.offset,
                len: buf.bytes,
                buffer: self.next,
            });
        }
        let start = buf.offset as usize;
        let end = (buf.offset + buf.bytes) as usize;
        for chunk in self.data[start..end].chunks_exact_mut(4) {
            chunk.copy_from_slice(&value.to_le_bytes());
        }
        self.mark_init(buf.offset, buf.bytes);
        Ok(())
    }

    /// One past the last device-addressable byte: the bound every device
    /// access is checked against (by [`GmPlane`](crate::mem::plane::GmPlane),
    /// which raises a typed [`DeviceFault`](crate::DeviceFault) on
    /// violation).
    pub(crate) fn device_limit(&self) -> u64 {
        self.next
    }

    /// The memcheck shadow, when tracking is enabled.
    pub(crate) fn shadow(&self) -> Option<&Shadow> {
        self.shadow.as_ref()
    }

    /// Marks `[addr, addr + width)` as initialized (no-op when tracking is
    /// off).
    pub(crate) fn mark_init(&mut self, addr: u64, width: u64) {
        if let Some(shadow) = &mut self.shadow {
            shadow.mark(addr, width);
        }
    }

    /// Raw storage view (callers bounds-check against
    /// [`GlobalMemory::device_limit`] first).
    pub(crate) fn bytes(&self, addr: u64, len: usize) -> &[u8] {
        &self.data[addr as usize..addr as usize + len]
    }

    /// Mutable raw storage view.
    pub(crate) fn bytes_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        &mut self.data[addr as usize..addr as usize + len]
    }

    /// Replays a block's journaled stores into the backing storage, one
    /// maximal run of written bytes at a time. The journal's pages hold
    /// each byte's *last* value, so this address-ordered replay leaves
    /// memory (and the memcheck shadow) identical to replaying the stores
    /// in issue order — while touching each byte once. The launcher calls
    /// this once per block in block-id order, which reproduces the serial
    /// cross-block store order exactly. Journal entries were bounds-checked
    /// when the block recorded them.
    pub(crate) fn apply_journal(&mut self, journal: &WriteJournal) {
        let data = &mut self.data;
        let shadow = &mut self.shadow;
        journal.for_each_run(|addr, bytes| {
            data[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
            if let Some(shadow) = shadow {
                shadow.mark(addr, bytes.len() as u64);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{AccessKind, FaultKind, MemSpace, Site};
    use crate::mem::plane::GmPlane;
    use crate::mem::Lanes;
    use crate::spec::WARP_SIZE;
    use crate::stats::KernelStats;
    use crate::warp::{lane_addrs, lane_addrs_from, lane_addrs_uniform, LaneMask};

    fn gm() -> GlobalMemory {
        GlobalMemory::new(1 << 20, 128, 32, 48 * 1024)
    }

    #[test]
    fn alloc_is_aligned_and_bounded() {
        let mut m = gm();
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(a.offset() % 256, 0);
        assert_eq!(b.offset() % 256, 0);
        assert!(b.offset() >= a.offset() + 100);
        assert!(m.alloc(2 << 20).is_err());
    }

    #[test]
    fn subbuffer_views_alias_storage() {
        let mut m = gm();
        let buf = m.alloc_f32(16).unwrap();
        m.write_f32s(buf, 0, &(0..16).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        let view = buf.subbuffer(8 * 4, 4 * 4);
        assert_eq!(m.read_f32s(view, 0, 4).unwrap(), vec![8.0, 9.0, 10.0, 11.0]);
        assert_eq!(view.len_f32(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn subbuffer_bounds_checked() {
        let mut m = gm();
        let buf = m.alloc_f32(4).unwrap();
        buf.subbuffer(8, 16);
    }

    #[test]
    fn host_roundtrip() {
        let mut m = gm();
        let buf = m.alloc_f32(8).unwrap();
        let vals: Vec<f32> = (0..8).map(|i| i as f32 * 1.5).collect();
        m.write_f32s(buf, 0, &vals).unwrap();
        assert_eq!(m.read_f32s(buf, 0, 8).unwrap(), vals);
        // Partial read with offset.
        assert_eq!(m.read_f32s(buf, 2, 2).unwrap(), vec![3.0, 4.5]);
    }

    #[test]
    fn host_transfer_bounds_checked() {
        let mut m = gm();
        let buf = m.alloc_f32(4).unwrap();
        assert!(m.write_f32s(buf, 3, &[0.0, 0.0]).is_err());
        assert!(m.read_f32s(buf, 0, 5).is_err());
    }

    #[test]
    fn fill_sets_every_element() {
        let mut m = gm();
        let buf = m.alloc_f32(16).unwrap();
        m.fill_f32(buf, 7.5).unwrap();
        assert!(m.read_f32s(buf, 0, 16).unwrap().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn fill_rejects_corrupt_descriptor() {
        let mut m = gm();
        let _real = m.alloc_f32(16).unwrap();
        // A descriptor from a different (larger) device would point past
        // everything this one allocated.
        let stale = GmBuf {
            offset: 1 << 18,
            bytes: 64,
        };
        assert!(matches!(
            m.fill_f32(stale, 0.0),
            Err(SimError::HostTransferOutOfBounds { .. })
        ));
    }

    #[test]
    fn coalesced_load_is_one_transaction() {
        let mut m = gm();
        let buf = m.alloc_f32(64).unwrap();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        m.write_f32s(buf, 0, &vals).unwrap();
        let mut stats = KernelStats::default();
        // 32 lanes x 4 B contiguous from a 128 B-aligned base = 1 segment.
        let addrs = lane_addrs(buf.f32_addr(0), 4);
        let plane = GmPlane::Direct(&mut m);
        let out = plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(out[5][0], 5.0);
        assert_eq!(stats.gm_ld_transactions, 1);
        assert_eq!(stats.gm_ld_bytes_bus, 128);
        assert_eq!(stats.gm_ld_bytes_useful, 128);
    }

    #[test]
    fn strided_load_touches_many_segments() {
        let mut m = gm();
        let buf = m.alloc_f32(32 * 64).unwrap();
        let mut stats = KernelStats::default();
        // Stride of 256 B: every lane in its own segment.
        let addrs = lane_addrs(buf.f32_addr(0), 256);
        let plane = GmPlane::Direct(&mut m);
        plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(stats.gm_ld_transactions, 32);
        assert!(
            (KernelStats {
                gm_ld_bytes_bus: stats.gm_ld_bytes_bus,
                gm_ld_bytes_useful: stats.gm_ld_bytes_useful,
                ..Default::default()
            })
            .gm_coalescing_efficiency()
                < 0.05
        );
    }

    #[test]
    fn vector_load_counts_wide_segments() {
        let mut m = gm();
        let buf = m.alloc_f32(64).unwrap();
        let mut stats = KernelStats::default();
        // 32 lanes x float2 contiguous = 256 B = 2 segments.
        let addrs = lane_addrs(buf.f32_addr(0), 8);
        let plane = GmPlane::Direct(&mut m);
        plane.warp_ld::<2>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(stats.gm_ld_transactions, 2);
        assert_eq!(stats.gm_ld_bytes_useful, 256);
    }

    #[test]
    fn masked_lanes_do_not_count() {
        let mut m = gm();
        let buf = m.alloc_f32(64).unwrap();
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(buf.f32_addr(0), 4);
        let plane = GmPlane::Direct(&mut m);
        plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::first(8)),
        );
        assert_eq!(stats.gm_ld_transactions, 1);
        assert_eq!(stats.gm_ld_bytes_useful, 32);
    }

    #[test]
    fn uniform_access_is_one_transaction() {
        let mut m = gm();
        let buf = m.alloc_f32(64).unwrap();
        let mut stats = KernelStats::default();
        let addrs = lane_addrs_uniform(buf.f32_addr(3));
        let plane = GmPlane::Direct(&mut m);
        plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(stats.gm_ld_transactions, 1);
    }

    #[test]
    fn store_roundtrips_and_counts() {
        let mut m = gm();
        let buf = m.alloc_f32(32).unwrap();
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(buf.f32_addr(0), 4);
        let vals: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32]);
        let mut plane = GmPlane::Direct(&mut m);
        plane.warp_st::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        // 128 contiguous bytes through 32-byte store sectors.
        assert_eq!(stats.gm_st_transactions, 4);
        assert_eq!(stats.gm_st_bytes_bus, 128);
        assert_eq!(m.read_f32s(buf, 31, 1).unwrap()[0], 31.0);
    }

    #[test]
    fn misaligned_warp_spans_two_segments() {
        let mut m = gm();
        let buf = m.alloc_f32(64).unwrap();
        let mut stats = KernelStats::default();
        // Start 16 bytes into a segment: contiguous 128 B now straddles two.
        let addrs = lane_addrs(buf.f32_addr(4), 4);
        let plane = GmPlane::Direct(&mut m);
        plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(stats.gm_ld_transactions, 2);
    }

    /// Runs `f`, expecting it to raise a device fault; returns the kind.
    fn trap(f: impl FnOnce() + std::panic::UnwindSafe) -> FaultKind {
        crate::fault::install_quiet_hook();
        let payload = std::panic::catch_unwind(f).unwrap_err();
        payload
            .downcast::<crate::fault::FaultPayload>()
            .expect("expected a typed device fault")
            .kind
    }

    #[test]
    fn device_oob_raises_typed_fault() {
        let kind = trap(|| {
            let mut m = gm();
            let buf = m.alloc_f32(4).unwrap();
            let mut stats = KernelStats::default();
            let addrs = lane_addrs(buf.f32_addr(0), 4);
            let plane = GmPlane::Direct(&mut m);
            plane.warp_ld::<1>(
                &mut stats,
                Site::ZERO,
                Lanes::explicit(&addrs, LaneMask::ALL),
            ); // lanes 4..32 OOB
        });
        match kind {
            FaultKind::OutOfBounds {
                space: MemSpace::Global,
                access: AccessKind::Load,
                ..
            } => {}
            other => panic!("unexpected fault {other:?}"),
        }
    }

    #[test]
    fn uninit_read_detected_when_tracking() {
        let kind = trap(|| {
            let mut m = gm();
            m.enable_uninit_tracking(false);
            let buf = m.alloc_f32(32).unwrap();
            // Initialize only the first 16 elements.
            m.write_f32s(buf, 0, &[1.0; 16]).unwrap();
            let mut stats = KernelStats::default();
            let addrs = lane_addrs(buf.f32_addr(0), 4);
            let plane = GmPlane::Direct(&mut m);
            plane.warp_ld::<1>(
                &mut stats,
                Site::ZERO,
                Lanes::explicit(&addrs, LaneMask::ALL),
            );
        });
        match kind {
            FaultKind::UninitializedRead {
                space: MemSpace::Global,
                addr,
                ..
            } => assert_eq!(addr % 256, 64), // first untouched element
            other => panic!("unexpected fault {other:?}"),
        }
    }

    #[test]
    fn device_stores_mark_shadow() {
        let mut m = gm();
        m.enable_uninit_tracking(false);
        let buf = m.alloc_f32(32).unwrap();
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(buf.f32_addr(0), 4);
        let vals: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [l as f32]);
        let mut plane = GmPlane::Direct(&mut m);
        plane.warp_st::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        // Reading back what the device just wrote is clean.
        let out = plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(out[3][0], 3.0);
    }

    #[test]
    fn conservative_enable_marks_existing_allocations() {
        let mut m = gm();
        let buf = m.alloc_f32(8).unwrap();
        m.enable_uninit_tracking(true);
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(buf.f32_addr(0), 4);
        let plane = GmPlane::Direct(&mut m);
        // No fault: pre-existing allocation presumed initialized.
        plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::first(8)),
        );
    }

    #[test]
    fn byte_access_roundtrip() {
        let mut m = gm();
        let buf = m.alloc(64).unwrap();
        let mut stats = KernelStats::default();
        let addrs = lane_addrs(buf.offset(), 2);
        let vals: [[u8; 2]; WARP_SIZE] = std::array::from_fn(|l| [l as u8, 0xAB]);
        let mut plane = GmPlane::Direct(&mut m);
        plane.warp_st_bytes::<2>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
            &vals,
        );
        let back = plane.warp_ld_bytes::<2>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(back[7], [7, 0xAB]);
        // 64 B contiguous: two 32-byte store sectors, one 128-byte load
        // segment.
        assert_eq!(stats.gm_st_transactions, 2);
        assert_eq!(stats.gm_ld_transactions, 1);
        assert_eq!(stats.gm_ld_bytes_useful, 64);
    }

    #[test]
    fn scattered_from_fn_addresses() {
        let mut m = gm();
        let buf = m.alloc_f32(1024).unwrap();
        let mut stats = KernelStats::default();
        // Two clusters of 16 lanes: 2 segments.
        let addrs = lane_addrs_from(|l| {
            if l < 16 {
                buf.f32_addr(l as u64)
            } else {
                buf.f32_addr(512 + l as u64)
            }
        });
        let plane = GmPlane::Direct(&mut m);
        plane.warp_ld::<1>(
            &mut stats,
            Site::ZERO,
            Lanes::explicit(&addrs, LaneMask::ALL),
        );
        assert_eq!(stats.gm_ld_transactions, 2);
    }
}
