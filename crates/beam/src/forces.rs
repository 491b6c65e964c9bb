//! Self-force evaluation — step 3 of the loop.
//!
//! The kernels produce the effective potential `Φ = φ − β A` on the grid;
//! the self-force on a particle is the negative gradient of `Φ`, computed by
//! central differences on the grid and gathered bilinearly at the particle
//! position.

use beamdyn_par::ThreadPool;
use beamdyn_pic::{CicStencil, GridGeometry};

use crate::particle::Beam;
use crate::push::Forces;

/// A scalar field sampled on the simulation grid (row-major `iy·nx + ix`).
#[derive(Debug, Clone)]
pub struct ScalarField {
    geometry: GridGeometry,
    values: Vec<f64>,
}

impl ScalarField {
    /// Wraps a row-major value vector.
    ///
    /// # Panics
    /// Panics when the length does not match the geometry.
    pub fn new(geometry: GridGeometry, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), geometry.len(), "field size mismatch");
        Self { geometry, values }
    }

    /// An all-zero field.
    pub fn zeros(geometry: GridGeometry) -> Self {
        Self::new(geometry, vec![0.0; geometry.len()])
    }

    /// A zero-cell placeholder for pooled slots that are (re)shaped with
    /// [`ScalarField::reset_for`] before first use (also the `Default`).
    pub fn empty() -> Self {
        Self::zeros(GridGeometry {
            nx: 0,
            ny: 0,
            x_min: 0.0,
            x_max: 0.0,
            y_min: 0.0,
            y_max: 0.0,
        })
    }

    /// Reshapes the field for `geometry`, keeping the existing value
    /// allocation when large enough — the pooled-scratch reuse primitive.
    /// Values are *not* cleared; callers overwrite every cell.
    pub fn reset_for(&mut self, geometry: GridGeometry) {
        self.geometry = geometry;
        self.values.resize(geometry.len(), 0.0);
    }

    /// Heap bytes held by the value storage (capacity, not length).
    pub fn bytes_capacity(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// Geometry of the field.
    pub fn geometry(&self) -> GridGeometry {
        self.geometry
    }

    /// Value at cell `(ix, iy)`.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        self.values[iy * self.geometry.nx + ix]
    }

    /// Mutable value access.
    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, v: f64) {
        self.values[iy * self.geometry.nx + ix] = v;
    }

    /// Raw values.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Bilinear (CIC) sample at a physical point (clamped at the borders).
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let stencil = CicStencil::new(self.geometry);
        stencil.sample(&self.values, &stencil.patch(x, y))
    }

    /// Negative-gradient fields `(−∂Φ/∂x, −∂Φ/∂y)` by central differences
    /// (one-sided at the borders).
    pub fn neg_gradient(&self) -> (ScalarField, ScalarField) {
        let mut fx = ScalarField::empty();
        let mut fy = ScalarField::empty();
        self.neg_gradient_into(&mut fx, &mut fy);
        (fx, fy)
    }

    /// [`ScalarField::neg_gradient`] into caller-owned (pooled) fields,
    /// which are reshaped for this field's geometry and fully overwritten.
    pub fn neg_gradient_into(&self, fx: &mut ScalarField, fy: &mut ScalarField) {
        let g = self.geometry;
        let (dx, dy) = (g.dx(), g.dy());
        fx.reset_for(g);
        fy.reset_for(g);
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let ddx = match ix {
                    0 => (self.get(1, iy) - self.get(0, iy)) / dx,
                    i if i == g.nx - 1 => (self.get(i, iy) - self.get(i - 1, iy)) / dx,
                    i => (self.get(i + 1, iy) - self.get(i - 1, iy)) / (2.0 * dx),
                };
                let ddy = match iy {
                    0 => (self.get(ix, 1) - self.get(ix, 0)) / dy,
                    j if j == g.ny - 1 => (self.get(ix, j) - self.get(ix, j - 1)) / dy,
                    j => (self.get(ix, j + 1) - self.get(ix, j - 1)) / (2.0 * dy),
                };
                fx.set(ix, iy, -ddx);
                fy.set(ix, iy, -ddy);
            }
        }
    }
}

impl Default for ScalarField {
    fn default() -> Self {
        Self::empty()
    }
}

/// Gathers the self-force at every particle from a potential field.
pub fn gather_forces(pool: &ThreadPool, potential: &ScalarField, beam: &Beam) -> Forces {
    let (fx, fy) = potential.neg_gradient();
    pool.parallel_map(&beam.particles, |p| {
        (fx.sample(p.x, p.y), fy.sample(p.x, p.y))
    })
}
