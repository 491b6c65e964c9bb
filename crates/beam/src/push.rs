//! Leap-frog particle pusher — step 4 of the loop.
//!
//! The scheme is the standard kick–drift–kick (velocity Verlet) form the
//! paper cites for solving the Lorentz equation:
//!
//! ```text
//! v ← v + F(x)·dt/2        (half kick)     [`kick`]
//! x ← x + v·dt             (drift)         [`drift`]
//! v ← v + F(x')·dt/2       (half kick with refreshed forces)
//! ```
//!
//! The two half-kicks use forces evaluated at *different* positions, so a
//! full step is `kick(F, dt/2); drift(dt); recompute forces; kick(F', dt/2)`.
//! The driver in `beamdyn-core` folds the trailing half-kick of one step into
//! the leading half-kick of the next (one field solve per step, as usual in
//! PIC codes). The convenience wrapper [`half_step`] performs the first two
//! substeps, and [`gather_push`] is the driver's whole per-step particle
//! update — force gather, kick and drift — in one pass.

use beamdyn_par::ThreadPool;
use beamdyn_pic::CicStencil;

use crate::forces::ScalarField;
use crate::particle::Beam;

/// Per-particle force samples, one per beam particle, in beam order.
pub type Forces = Vec<(f64, f64)>;

/// Applies a velocity kick `v += F·dt` (use `dt/2` for a half kick).
pub fn kick(pool: &ThreadPool, beam: &mut Beam, forces: &Forces, dt: f64) {
    assert_eq!(beam.len(), forces.len(), "one force sample per particle");
    pool.parallel_chunks_mut(&mut beam.particles, 1024, |start, particles| {
        for (p, &(fx, fy)) in particles.iter_mut().zip(&forces[start..]) {
            p.vx += dt * fx;
            p.vy += dt * fy;
        }
    });
}

/// Advances positions `x += v·dt`.
pub fn drift(pool: &ThreadPool, beam: &mut Beam, dt: f64) {
    pool.parallel_chunks_mut(&mut beam.particles, 1024, |_, particles| {
        for p in particles {
            p.x += dt * p.vx;
            p.y += dt * p.vy;
        }
    });
}

/// The first half of a leap-frog step: half kick then drift. The caller must
/// finish the step with `kick(…, dt/2)` after refreshing the forces at the
/// new positions.
pub fn half_step(pool: &ThreadPool, beam: &mut Beam, forces: &Forces, dt: f64) {
    kick(pool, beam, forces, 0.5 * dt);
    drift(pool, beam, dt);
}

/// The fused per-step particle update: force gather, force scaling, kick
/// and drift in **one** parallel pass over the beam, with no per-particle
/// force buffer.
///
/// `grad_x`/`grad_y` are the negative-gradient fields of the potential
/// ([`ScalarField::neg_gradient_into`]). Each particle computes its CIC
/// patch once and samples both fields through it, then runs exactly the
/// reference op sequence — `f' = f·scale`, `v' = v + dt·f'`,
/// `x' = x + dt·v'` — so the result is bit-identical to
/// [`gather_forces`](crate::forces::gather_forces), a scaling loop,
/// [`kick`] and [`drift`], at any pool width (tests/determinism.rs).
pub fn gather_push(
    pool: &ThreadPool,
    beam: &mut Beam,
    grad_x: &ScalarField,
    grad_y: &ScalarField,
    force_scale: f64,
    dt: f64,
) {
    assert_eq!(
        grad_x.geometry(),
        grad_y.geometry(),
        "gradient fields must share one grid"
    );
    let stencil = CicStencil::new(grad_x.geometry());
    let (gx, gy) = (grad_x.as_slice(), grad_y.as_slice());
    pool.parallel_chunks_mut(&mut beam.particles, 1024, |_, particles| {
        for p in particles {
            let patch = stencil.patch(p.x, p.y);
            let fx = stencil.sample(gx, &patch) * force_scale;
            let fy = stencil.sample(gy, &patch) * force_scale;
            p.vx += dt * fx;
            p.vy += dt * fy;
            p.x += dt * p.vx;
            p.y += dt * p.vy;
        }
    });
}
