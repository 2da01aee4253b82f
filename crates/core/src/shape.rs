//! Architecture-derived kernel shapes (paper eq. 1 in reverse).
//!
//! The paper derives the mismatch factor `n = W_SMB / W_CD` (eq. 1) and then
//! *hard-wires* the Kepler conclusion (`n = 2` for `float`, hence the float2
//! layout) into its kernels. This module runs the equation the other way:
//! given any [`GpuSpec`] and a computation [`DataType`], it derives the
//! vectorization factor a matched kernel must use on that part, clamped to
//! the factors the kernel templates can actually instantiate. The
//! `kconv-arch` generator builds on this to emit matched variants for
//! 4-byte-bank parts (Fermi/Maxwell, `n = 1` for `f32`) and for short data
//! types (`fp16`/half2, `n = 2` on 4-byte banks) without any per-architecture
//! hand tuning.

use kconv_sim::GpuSpec;

use crate::dtype::DataType;

/// The vectorization shape of a generated kernel: which data type each lane
/// computes on and how many elements each thread moves as one unit through
/// shared memory.
///
/// A shape is *matched* for a spec when `vec_width * dtype.bytes()` equals
/// the shared-memory bank width, so one thread's access covers exactly one
/// bank word and the conventional-layout serialization of eq. 1 disappears.
///
/// # Examples
///
/// ```
/// use kconv_core::{DataType, KernelShape};
/// use kconv_sim::GpuSpec;
///
/// // float2 on Kepler's 8-byte banks — the paper's hand-derived layout.
/// let kepler = KernelShape::matched(&GpuSpec::kepler_k40m(), DataType::F32);
/// assert_eq!(kepler.vec_width, 2);
///
/// // Plain float on 4-byte-bank Maxwell: already matched at n = 1.
/// let maxwell = KernelShape::matched(&GpuSpec::maxwell_like(), DataType::F32);
/// assert_eq!(maxwell.vec_width, 1);
///
/// // half2 on 4-byte banks: the mismatch reappears and n = 2 removes it.
/// let half2 = KernelShape::matched(&GpuSpec::maxwell_like(), DataType::F16);
/// assert_eq!(half2.vec_width, 2);
/// assert_eq!(half2.lane_bytes(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelShape {
    /// Computation data type of one element (`W_CD = dtype.bytes()`).
    pub dtype: DataType,
    /// Elements each thread accesses as one vectorized unit (`n`).
    pub vec_width: usize,
}

impl KernelShape {
    /// Vector factors the kernel templates can instantiate for a data type.
    ///
    /// The general f32 kernel dispatches over `n ∈ {1, 2, 4}`. The special
    /// kernel, one body for every storage, dispatches over lane widths of
    /// 1..=16 bytes and accepts exactly these factors
    /// ([`SpecialConv::validate`](crate::SpecialConv::validate)): `f32` and
    /// `fp16` at `n ∈ {1, 2, 4}`, `int8` at `n ∈ {1, 2, 4, 8}`.
    pub fn supported_factors(dtype: DataType) -> &'static [usize] {
        match dtype {
            DataType::F32 => &[1, 2, 4],
            DataType::F16 => &[1, 2, 4],
            DataType::I8 => &[1, 2, 4, 8],
        }
    }

    /// Applies eq. 1 in reverse: the vector factor that matches `dtype` to
    /// `spec`'s shared-memory bank width, i.e. `W_SMB / W_CD` clamped to the
    /// largest factor in [`supported_factors`](Self::supported_factors) that
    /// does not exceed it (and at least 1).
    pub fn derive_n(spec: &GpuSpec, dtype: DataType) -> usize {
        let ideal = (spec.bank_width.bytes() as usize / dtype.bytes()).max(1);
        Self::supported_factors(dtype)
            .iter()
            .copied()
            .filter(|&f| f <= ideal)
            .max()
            .unwrap_or(1)
    }

    /// The matched shape for `dtype` on `spec`:
    /// `vec_width = derive_n(spec, dtype)`.
    pub fn matched(spec: &GpuSpec, dtype: DataType) -> Self {
        KernelShape {
            dtype,
            vec_width: Self::derive_n(spec, dtype),
        }
    }

    /// A shape with an explicitly forced vector factor — the knob the `arch`
    /// harness uses to reproduce the paper's wrong-`n` serialization on
    /// purpose. Returns `None` if `n` is not an instantiable factor for
    /// `dtype`.
    pub fn forced(dtype: DataType, n: usize) -> Option<Self> {
        Self::supported_factors(dtype)
            .contains(&n)
            .then_some(KernelShape {
                dtype,
                vec_width: n,
            })
    }

    /// Bytes of one element (`W_CD`).
    pub fn elem_bytes(&self) -> usize {
        self.dtype.bytes()
    }

    /// Bytes one thread moves per vectorized access
    /// (`vec_width * elem_bytes`).
    pub fn lane_bytes(&self) -> usize {
        self.vec_width * self.elem_bytes()
    }

    /// Whether this shape saturates `spec`'s shared-memory fabric: its lane
    /// width covers a whole bank word, or the bank is narrower than one
    /// element (in which case no factor can help and `n = 1` is optimal).
    pub fn is_matched_for(&self, spec: &GpuSpec) -> bool {
        let bank = spec.bank_width.bytes() as usize;
        self.lane_bytes() == bank || (self.elem_bytes() >= bank && self.vec_width == 1)
    }

    /// The serialization factor eq. 1 predicts for this shape on `spec`:
    /// how many shared-memory cycles a conventional request takes relative
    /// to a matched one. 1 when matched; `W_SMB / (n * W_CD)` otherwise.
    pub fn predicted_waste(&self, spec: &GpuSpec) -> u64 {
        let bank = spec.bank_width.bytes();
        let lane = self.lane_bytes() as u64;
        if lane >= bank {
            1
        } else {
            bank / lane
        }
    }
}

impl std::fmt::Display for KernelShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} n={}", self.dtype, self.vec_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_n_reproduces_the_papers_table() {
        let kepler = GpuSpec::kepler_k40m();
        let maxwell = GpuSpec::maxwell_like();
        // f32: float2 on Kepler's 8B banks, scalar on 4B banks.
        assert_eq!(KernelShape::derive_n(&kepler, DataType::F32), 2);
        assert_eq!(KernelShape::derive_n(&maxwell, DataType::F32), 1);
        // fp16: n = 4 on Kepler, half2 (n = 2) on 4B banks.
        assert_eq!(KernelShape::derive_n(&kepler, DataType::F16), 4);
        assert_eq!(KernelShape::derive_n(&maxwell, DataType::F16), 2);
        // int8: n = 8 on Kepler, n = 4 on 4B banks.
        assert_eq!(KernelShape::derive_n(&kepler, DataType::I8), 8);
        assert_eq!(KernelShape::derive_n(&maxwell, DataType::I8), 4);
    }

    #[test]
    fn matched_shapes_cover_one_bank_word() {
        for spec in GpuSpec::presets_all() {
            for dtype in [DataType::F32, DataType::F16, DataType::I8] {
                let shape = KernelShape::matched(&spec, dtype);
                assert!(shape.is_matched_for(&spec), "{shape} on {}", spec.name);
                assert_eq!(shape.predicted_waste(&spec), 1);
                assert_eq!(shape.lane_bytes() as u64, spec.bank_width.bytes());
            }
        }
    }

    #[test]
    fn forced_rejects_uninstantiable_factors() {
        assert!(KernelShape::forced(DataType::F32, 2).is_some());
        assert!(KernelShape::forced(DataType::F32, 3).is_none());
        assert!(KernelShape::forced(DataType::F32, 8).is_none());
        assert!(KernelShape::forced(DataType::I8, 8).is_some());
        assert_eq!(
            KernelShape::forced(DataType::F16, 1).unwrap().lane_bytes(),
            2
        );
    }

    #[test]
    fn wrong_n_predicts_the_papers_serialization() {
        let kepler = GpuSpec::kepler_k40m();
        let scalar = KernelShape::forced(DataType::F32, 1).unwrap();
        assert_eq!(scalar.predicted_waste(&kepler), 2);
        let maxwell = GpuSpec::maxwell_like();
        let half1 = KernelShape::forced(DataType::F16, 1).unwrap();
        assert_eq!(half1.predicted_waste(&maxwell), 2);
        // Overshooting the bank width never serializes.
        let quad = KernelShape::forced(DataType::F32, 4).unwrap();
        assert_eq!(quad.predicted_waste(&maxwell), 1);
    }

    #[test]
    fn display_names_dtype_and_factor() {
        let s = KernelShape::matched(&GpuSpec::kepler_k40m(), DataType::F16);
        assert_eq!(format!("{s}"), "fp16 n=4");
    }
}
