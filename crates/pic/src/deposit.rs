//! Cloud-in-cell (CIC) deposition of sampled particles onto a moment grid.

use std::sync::atomic::{AtomicUsize, Ordering};

use beamdyn_par::ThreadPool;

use crate::cic::CicStencil;
use crate::grid::MomentGrid;

/// One macro-particle's contribution to the deposition step.
#[derive(Debug, Clone, Copy)]
pub struct DepositSample {
    /// Longitudinal position.
    pub x: f64,
    /// Transverse position.
    pub y: f64,
    /// Macro-particle charge weight.
    pub weight: f64,
    /// Longitudinal velocity (deposits the `MOMENT_JX` current).
    pub vx: f64,
    /// Transverse velocity (deposits the `MOMENT_JY` current).
    pub vy: f64,
}

/// Particles per deposit chunk. A fixed constant — NOT derived from the
/// pool width — so the floating-point accumulation order, and therefore
/// the deposited grid, is bit-identical for every thread count.
pub const DEPOSIT_CHUNK: usize = 4096;

/// Deposits `samples` onto `grid` with first-order (bilinear / cloud-in-cell)
/// weighting, in parallel, producing **densities**: each weight is spread
/// over the 2×2 patch and divided by the cell area, so the grid values
/// approximate `ρ(x, y)` (and `J_x`, `J_y`) rather than per-cell charge.
/// Total charge is conserved in the sense `Σ cells · dx·dy = Σ weights`.
///
/// Particles outside the grid rectangle are dropped (counted in the return
/// value), matching the usual PIC convention for escaping particles. Each
/// [`DEPOSIT_CHUNK`]-particle chunk deposits into a private grid; privates
/// are then accumulated in chunk order, so the result is independent of
/// the pool width (tests/determinism.rs).
///
/// Returns the number of samples that fell outside the grid.
pub fn deposit_cic(pool: &ThreadPool, grid: &mut MomentGrid, samples: &[DepositSample]) -> usize {
    deposit_cic_from(pool, grid, &mut Vec::new(), samples, |s| *s)
}

/// [`deposit_cic`] straight from any particle slice, with pooled chunk
/// grids: `sample` projects a particle onto its deposit fields (inlined —
/// no staging copy of the particles is made), and `partials` holds the
/// per-chunk private grids across calls, so a steady-state step allocates
/// nothing. Same chunking, same per-particle ops, same accumulation order
/// as [`deposit_cic`], hence the same bits.
///
/// Returns the number of particles that fell outside the grid.
pub fn deposit_cic_from<T: Sync>(
    pool: &ThreadPool,
    grid: &mut MomentGrid,
    partials: &mut Vec<MomentGrid>,
    particles: &[T],
    sample: impl Fn(&T) -> DepositSample + Sync,
) -> usize {
    let geometry = grid.geometry();
    let stencil = CicStencil::new(geometry);
    let chunks = particles.len().div_ceil(DEPOSIT_CHUNK);
    if partials.len() < chunks {
        partials.resize_with(chunks, || MomentGrid::zeros(geometry));
    }
    let dropped = AtomicUsize::new(0);
    pool.parallel_chunks_mut(&mut partials[..chunks], 1, |first, locals| {
        for (c, local) in (first..).zip(locals) {
            local.reset_for(geometry);
            let end = ((c + 1) * DEPOSIT_CHUNK).min(particles.len());
            let mut missed = 0;
            for p in &particles[c * DEPOSIT_CHUNK..end] {
                if !deposit_one(local, &stencil, &sample(p)) {
                    missed += 1;
                }
            }
            dropped.fetch_add(missed, Ordering::Relaxed);
        }
    });
    for partial in &partials[..chunks] {
        grid.accumulate(partial);
    }
    dropped.into_inner()
}

/// Deposits a single sample; returns `false` if it lies outside the grid.
#[inline]
fn deposit_one(grid: &mut MomentGrid, stencil: &CicStencil, s: &DepositSample) -> bool {
    let g = stencil.geometry;
    if !g.contains(s.x, s.y) || !s.x.is_finite() || !s.y.is_finite() {
        return false;
    }
    // The patch is clamped so border particles deposit fully onto the edge
    // cells (weights still sum to 1).
    let patch = stencil.patch(s.x, s.y);
    let nx = g.nx;
    let [charge, jx, jy] = grid.planes_mut();
    let span = patch.base..patch.base + nx + 2;
    let (charge, jx, jy) = (
        &mut charge[span.clone()],
        &mut jx[span.clone()],
        &mut jy[span],
    );
    for (off, wi) in [0, 1, nx, nx + 1].into_iter().zip(patch.w) {
        let q = s.weight * wi * stencil.inv_area;
        charge[off] += q;
        jx[off] += q * s.vx;
        jy[off] += q * s.vy;
    }
    true
}
