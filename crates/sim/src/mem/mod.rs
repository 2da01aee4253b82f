//! Device memory spaces: global, shared and constant memory.
//!
//! Each space is both a **functional** store (kernels move real bytes through
//! it) and an **instrumented** one (every warp access records transactions,
//! bank-conflict replays or broadcast serializations into
//! [`KernelStats`](crate::KernelStats)).

pub(crate) mod constant;
mod global;
pub mod lanes;
pub(crate) mod plane;
pub(crate) mod shadow;
mod shared;

use crate::pricing::{PreparedAccess, WarpAccess};
use crate::warp::{LaneMask, WarpAddrs};

pub use constant::ConstantMemory;
pub use global::{GlobalMemory, GmBuf};
pub use shared::{bank_conflict_cycles, BankAccessOutcome, SharedMemory};

/// One warp access as the memory models take it: the lane form it is
/// priced from, its lane addresses (the form expanded, for data movement
/// and the per-lane fault path) and its live mask.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes<'a> {
    pub(crate) form: WarpAccess<'a>,
    pub(crate) addrs: &'a WarpAddrs,
    pub(crate) mask: LaneMask,
}

impl<'a> Lanes<'a> {
    /// An access given as explicit lane addresses.
    pub(crate) fn explicit(addrs: &'a WarpAddrs, mask: LaneMask) -> Self {
        Lanes {
            form: WarpAccess::Explicit(addrs),
            addrs,
            mask,
        }
    }

    /// The access of `width`-byte lanes readied for pricing: in closed
    /// form when its form has one, by the lane engine on the expanded
    /// lanes otherwise.
    #[inline]
    pub(crate) fn prepare(&self, width: u64) -> PreparedAccess<'a> {
        self.form.prepare(self.mask, width).or_lanes(self.addrs)
    }
}
