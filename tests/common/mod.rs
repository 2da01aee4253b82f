//! Digests shared by the kernel-family goldens.

use kconv::trace::Trace;

/// FNV-1a-64 state.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a-64 of a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = Fnv::new();
    for b in bytes {
        h.write(&[b]);
    }
    h.0
}

/// FNV-1a-64 of what a KTRC trace records, independent of how it is
/// encoded: per launch the kernel name, geometry and resources; per block
/// its id; per event `(op, warp, mask, lane_bytes)` and the canonical
/// lane addresses (inactive lanes zeroed).
pub fn decoded_digest(bytes: &[u8]) -> u64 {
    let trace = Trace::decode(bytes).expect("trace decodes");
    let mut h = Fnv::new();
    for launch in trace.launches() {
        let hd = &launch.header;
        h.write(hd.kernel.as_bytes());
        for v in [
            hd.grid_blocks,
            hd.executed_blocks,
            hd.threads_per_block,
            hd.smem_bytes,
            hd.regs_per_thread,
        ] {
            h.write(&v.to_le_bytes());
        }
        h.write(&[hd.overlap.as_u8()]);
        for block in launch.blocks() {
            h.write(&block.block_id.to_le_bytes());
            block.for_each(|head, access| {
                h.write(&[head.op as u8]);
                for v in [head.warp, head.mask.0, head.lane_bytes] {
                    h.write(&v.to_le_bytes());
                }
                for a in access.addrs(head.mask) {
                    h.write(&a.to_le_bytes());
                }
            });
        }
    }
    h.0
}
