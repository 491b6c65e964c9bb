//! Portable SIMD lanes: a dependency-free `F64x4` the autovectorizer can
//! lower to real vector instructions on stable Rust.
//!
//! The rp-quadrature stencil gathers are short chains of elementwise f64
//! arithmetic over small fixed-width blocks (3-tap rows padded to 4). Rather than gating on nightly `std::simd` or
//! an external crate, this module spells those blocks out as `[f64; 4]`
//! arrays with per-lane loops — the exact shape LLVM's autovectorizer
//! reliably turns into `addpd`/`mulpd` (SSE2 baseline) or wider AVX forms
//! when the target allows, while staying plain portable Rust.
//!
//! Determinism rules (the backend bit-identity/ULP contract of
//! `tests/backend_equivalence.rs` and DESIGN.md §17 depend on these):
//!
//! * **No hardware FMA, no libm.** [`F64x4::fma`] is a documented
//!   multiply-then-add shim — `mul_add` would pick fused or unfused per
//!   target and break committed golden bit patterns across machines.
//! * **No runtime feature dispatch.** Every operation is the same portable
//!   op sequence everywhere; vector width only changes *how many* lanes an
//!   instruction covers, never the per-lane arithmetic.
//! * **Fixed-order horizontal folds.** [`F64x4::hsum3`] reduces lanes in
//!   one documented order, so a reduction is a deterministic function of
//!   its lane values — independent of pool width, scheduling, and
//!   repetition.

use std::ops::{Add, Mul};

/// Lanes per vector block — the SIMD width the vectorized quadrature
/// batches by, surfaced in `/status` as `simd_lane_width`.
pub const LANE_WIDTH: usize = 4;

/// Four f64 lanes computed in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0.0; 4]);

    /// Builds a vector from explicit lane values.
    #[inline(always)]
    pub fn new(l0: f64, l1: f64, l2: f64, l3: f64) -> Self {
        Self([l0, l1, l2, l3])
    }

    /// Broadcasts `v` to every lane.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Loads four consecutive values from `src` starting at `offset`.
    ///
    /// # Panics
    /// Panics when fewer than four values are available.
    #[inline(always)]
    pub fn load(src: &[f64], offset: usize) -> Self {
        let s: &[f64; 4] = src[offset..offset + 4].try_into().expect("4-lane load");
        Self(*s)
    }

    /// The lane values.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        self.0
    }

    /// Multiply-then-add `self * b + c`, elementwise.
    ///
    /// Deliberately **not** `f64::mul_add`: a fused contraction rounds once
    /// where this rounds twice, and whether the hardware fuses is
    /// target-dependent — two separate portable ops keep every machine on
    /// identical bits (the golden-corpus portability requirement).
    #[inline(always)]
    pub fn fma(self, b: Self, c: Self) -> Self {
        let mut out = [0.0; 4];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.0[l] * b.0[l] + c.0[l];
        }
        Self(out)
    }

    /// Horizontal sum of the first three lanes in the fixed order
    /// `(l0 + l1) + l2` — the fold for 3-wide stencil rows carried in a
    /// 4-lane block whose last lane is padding.
    #[inline(always)]
    pub fn hsum3(self) -> f64 {
        (self.0[0] + self.0[1]) + self.0[2]
    }
}

impl Add for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = [0.0; 4];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.0[l] + rhs.0[l];
        }
        Self(out)
    }
}

impl Mul for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = [0.0; 4];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.0[l] * rhs.0[l];
        }
        Self(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops_match_scalar() {
        let a = F64x4::new(1.5, -2.0, 0.25, 1e300);
        let b = F64x4::new(3.0, 0.5, -4.0, 1e-300);
        assert_eq!((a + b).to_array(), [4.5, -1.5, -3.75, 1e300]);
        assert_eq!((a * b).to_array(), [4.5, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn fma_is_unfused_mul_then_add() {
        // Values where fused and unfused rounding differ: x*x + (-x*x) is
        // exactly 0 unfused but exposes the low product bits when fused.
        let x = 1.0 + f64::EPSILON;
        let a = F64x4::splat(x);
        let c = F64x4::splat(-(x * x));
        let got = a.fma(a, c).to_array()[0];
        assert_eq!(got.to_bits(), (x * x + (-(x * x))).to_bits());
        assert_eq!(got, 0.0);
    }

    #[test]
    fn hsum3_order_is_fixed() {
        let v = F64x4::new(1e16, 1.0, -1e16, 1.0);
        // (1e16 + 1) rounds back to 1e16, so the documented order gives 0
        // where l0 + (l1 + l2) would give 1; lane 3 is never read.
        assert_eq!(v.hsum3(), (1e16 + 1.0) + -1e16);
    }

    #[test]
    fn load_reads_four_consecutive_values() {
        let data = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(F64x4::load(&data, 2).to_array(), [2.0, 3.0, 4.0, 5.0]);
    }
}
