//! The cloud-in-cell (bilinear) stencil shared by deposit and gather.
//!
//! Deposit ([`deposit_cic`](crate::deposit_cic)) spreads a particle over the
//! 2×2 cell patch around it; gather samples a field through the same patch
//! with the same weights. Both go through [`CicStencil::patch`], so the two
//! directions can never drift apart, and a fused particle pass that deposits
//! or gathers straight from the beam computes each particle's patch once.

use crate::grid::GridGeometry;

/// Per-geometry CIC constants, hoisted out of the per-particle loop.
///
/// The hoisted values are the exact f64s the geometry methods return
/// (`dx()`, `dy()`, `1 / (dx·dy)`), and [`CicStencil::patch`] performs the
/// remaining ops in the order [`GridGeometry::fractional`] does — no
/// division is replaced by a reciprocal multiply — so hoisting changes no
/// bit of any weight.
#[derive(Debug, Clone, Copy)]
pub struct CicStencil {
    /// The grid the stencil addresses.
    pub geometry: GridGeometry,
    dx: f64,
    dy: f64,
    /// `1 / (dx·dy)`: turns a deposited weight into a density.
    pub inv_area: f64,
    /// Largest lower-left patch corner along x (`nx − 2`).
    ix_max: isize,
    /// Largest lower-left patch corner along y (`ny − 2`).
    iy_max: isize,
}

/// One point's CIC footprint: the lower-left cell of its 2×2 patch (as a
/// row-major index) and the four bilinear weights in patch order
/// `(ix0, iy0)`, `(ix0 + 1, iy0)`, `(ix0, iy0 + 1)`, `(ix0 + 1, iy0 + 1)`.
#[derive(Debug, Clone, Copy)]
pub struct CicPatch {
    /// Row-major index `iy0 · nx + ix0` of the patch's lower-left cell.
    pub base: usize,
    /// Bilinear weights; they sum to 1 for every finite point.
    pub w: [f64; 4],
}

impl CicStencil {
    /// Hoists the constants of `geometry` (which needs at least 2×2 cells).
    pub fn new(geometry: GridGeometry) -> Self {
        let (dx, dy) = (geometry.dx(), geometry.dy());
        Self {
            geometry,
            dx,
            dy,
            inv_area: 1.0 / (dx * dy),
            ix_max: geometry.nx as isize - 2,
            iy_max: geometry.ny as isize - 2,
        }
    }

    /// The patch of physical point `(x, y)`. Points outside the rectangle
    /// clamp to the border patch, so border particles keep their full
    /// weight on the edge cells.
    #[inline]
    pub fn patch(&self, x: f64, y: f64) -> CicPatch {
        let g = &self.geometry;
        let fx = (x - g.x_min) / self.dx - 0.5;
        let fy = (y - g.y_min) / self.dy - 0.5;
        let ix0 = (fx.floor() as isize).clamp(0, self.ix_max) as usize;
        let iy0 = (fy.floor() as isize).clamp(0, self.iy_max) as usize;
        let tx = (fx - ix0 as f64).clamp(0.0, 1.0);
        let ty = (fy - iy0 as f64).clamp(0.0, 1.0);
        CicPatch {
            base: iy0 * g.nx + ix0,
            w: [
                (1.0 - tx) * (1.0 - ty),
                tx * (1.0 - ty),
                (1.0 - tx) * ty,
                tx * ty,
            ],
        }
    }

    /// Bilinear sample of a row-major field (`iy · nx + ix`) through
    /// `patch`: the four weighted corners summed left to right.
    #[inline]
    pub fn sample(&self, values: &[f64], patch: &CicPatch) -> f64 {
        let nx = self.geometry.nx;
        let v = &values[patch.base..patch.base + nx + 2];
        patch.w[0] * v[0] + patch.w[1] * v[1] + patch.w[2] * v[nx] + patch.w[3] * v[nx + 1]
    }
}
