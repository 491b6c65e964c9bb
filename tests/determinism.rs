//! Determinism regression tests: the simulation must be a pure function of
//! its seeds — in particular independent of how many worker threads the
//! host pool runs, because every parallel combinator in `beamdyn-par` is
//! order-preserving (chunked writes to disjoint slices, ordered reduction).

use beamdyn::beam::forces::{gather_forces, ScalarField};
use beamdyn::beam::push::{drift, gather_push, kick};
use beamdyn::beam::{Beam, GaussianBunch, Particle, RpConfig};
use beamdyn::core::{KernelKind, Simulation, SimulationConfig};
use beamdyn::par::ThreadPool;
use beamdyn::pic::{
    deposit_cic, deposit_cic_from, DepositSample, GridGeometry, MomentGrid, DEPOSIT_CHUNK,
    MOMENT_CHARGE, MOMENT_JX, MOMENT_JY,
};
use beamdyn::simt::DeviceConfig;
use proptest::prelude::*;

fn config(kernel: KernelKind) -> SimulationConfig {
    let mut cfg = SimulationConfig::standard(GridGeometry::unit(12, 12), kernel);
    cfg.rp = RpConfig {
        kappa: 4,
        dt: 0.08,
        inner_points: 3,
        beta: 0.5,
        support_x: 0.25,
        support_y: 0.12,
        center: (0.5, 0.5),
    };
    cfg.tolerance = 1e-4;
    cfg
}

fn bunch() -> GaussianBunch {
    GaussianBunch {
        sigma_x: 0.11,
        sigma_y: 0.09,
        center_x: 0.5,
        center_y: 0.5,
        charge: 1.0,
        velocity_spread: 0.0,
        drift_vx: 0.05,
        chirp: 0.0,
    }
}

fn potentials_with_pool(kernel: KernelKind, threads: usize) -> Vec<Vec<f64>> {
    let pool = ThreadPool::new(threads);
    let device = DeviceConfig::test_tiny();
    let mut sim = Simulation::new(&pool, &device, config(kernel), bunch().sample(3000, 5));
    sim.run(3)
        .into_iter()
        .map(|t| t.potentials.potentials())
        .collect()
}

/// Same seed, pool sizes 0 / 1 / 4: the Predictive kernel's potential
/// fields must be **bit-identical** at every step — thread count may change
/// scheduling, never results.
#[test]
fn predictive_potentials_are_bit_identical_across_pool_sizes() {
    let reference = potentials_with_pool(KernelKind::Predictive, 0);
    for threads in [1usize, 4] {
        let got = potentials_with_pool(KernelKind::Predictive, threads);
        assert_eq!(reference.len(), got.len());
        for (step, (want, have)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(want.len(), have.len());
            for (i, (a, b)) in want.iter().zip(have).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step {step}, point {i}: {threads}-thread pool diverged ({a:e} vs {b:e})"
                );
            }
        }
    }
}

/// The baselines carry no learned state that could mask scheduling effects,
/// but they share the same combinators — hold them to the same bar.
#[test]
fn baseline_kernels_are_bit_identical_across_pool_sizes() {
    for kernel in [KernelKind::TwoPhase, KernelKind::Heuristic] {
        let reference = potentials_with_pool(kernel, 0);
        let got = potentials_with_pool(kernel, 4);
        for (want, have) in reference.iter().zip(&got) {
            let same = want
                .iter()
                .zip(have)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{kernel:?} diverged between 0- and 4-thread pools");
        }
    }
}

/// The fused-pass grid: off-origin, non-square, not the unit square, so
/// every hoisted geometry constant carries weight.
fn fused_geometry() -> GridGeometry {
    GridGeometry {
        nx: 11,
        ny: 7,
        x_min: -0.3,
        x_max: 1.7,
        y_min: 0.1,
        y_max: 0.9,
    }
}

/// Beam lengths around the 4-lane and 4096-chunk seams.
const AWKWARD_LENGTHS: [usize; 9] = [0, 1, 3, 5, 4095, 4097, 8191, 2 * DEPOSIT_CHUNK + 3, 9001];

/// A Gaussian bunch over `fused_geometry` (some particles fall off the
/// grid) of `n` particles, with the particles at `picks` overwritten by
/// awkward coordinates and weights: NaN and ±inf, exact grid borders and
/// cell edges, far out-of-grid points, and zero weights.
fn awkward_beam(n: usize, seed: u64, picks: &[usize]) -> Beam {
    let g = fused_geometry();
    let bunch = GaussianBunch {
        sigma_x: 0.6,
        sigma_y: 0.25,
        center_x: 0.7,
        center_y: 0.5,
        charge: 1.0,
        velocity_spread: 0.03,
        drift_vx: 0.02,
        chirp: 0.4,
    };
    let mut beam = match n {
        0 => Beam::new(Vec::new()),
        n => bunch.sample(n, seed),
    };
    let (dx, dy) = (g.dx(), g.dy());
    let xs = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        g.x_min,
        g.x_max,
        g.x_min + 3.0 * dx,
        g.x_min + 0.5 * dx,
        g.x_max + 1.0,
        -1e300,
    ];
    let ys = [
        g.y_min,
        g.y_max,
        g.y_min + 2.0 * dy,
        f64::NAN,
        0.5,
        f64::NEG_INFINITY,
        g.y_max + 1e-12,
    ];
    let weights = [0.0, -0.0, 1e-3];
    for (k, &pick) in picks.iter().enumerate() {
        if n == 0 {
            break;
        }
        let p = &mut beam.particles[pick % n];
        match k % 3 {
            0 => p.x = xs[pick % xs.len()],
            1 => p.y = ys[pick % ys.len()],
            _ => p.weight = weights[pick % weights.len()],
        }
    }
    beam
}

/// The CIC weights of the original scalar code, spelled out op for op from
/// the un-hoisted `GridGeometry` methods: lower-left patch cell and the
/// four bilinear weights.
fn textbook_cic(g: GridGeometry, x: f64, y: f64) -> (usize, usize, [f64; 4]) {
    let (fx, fy) = g.fractional(x, y);
    let ix0 = (fx.floor() as isize).clamp(0, g.nx as isize - 2) as usize;
    let iy0 = (fy.floor() as isize).clamp(0, g.ny as isize - 2) as usize;
    let tx = (fx - ix0 as f64).clamp(0.0, 1.0);
    let ty = (fy - iy0 as f64).clamp(0.0, 1.0);
    let w = [
        (1.0 - tx) * (1.0 - ty),
        tx * (1.0 - ty),
        (1.0 - tx) * ty,
        tx * ty,
    ];
    (ix0, iy0, w)
}

/// Serial oracle of the chunked deposit: per-chunk private grids filled
/// with the textbook weights, accumulated in chunk order.
fn textbook_deposit(g: GridGeometry, beam: &Beam) -> (MomentGrid, usize) {
    let mut grid = MomentGrid::zeros(g);
    let mut dropped = 0;
    for chunk in beam.particles.chunks(DEPOSIT_CHUNK) {
        let mut local = MomentGrid::zeros(g);
        for p in chunk {
            if !g.contains(p.x, p.y) || !p.x.is_finite() || !p.y.is_finite() {
                dropped += 1;
                continue;
            }
            let (ix0, iy0, w) = textbook_cic(g, p.x, p.y);
            let inv_area = 1.0 / (g.dx() * g.dy());
            let cells = [
                (ix0, iy0),
                (ix0 + 1, iy0),
                (ix0, iy0 + 1),
                (ix0 + 1, iy0 + 1),
            ];
            for (&(ix, iy), &wi) in cells.iter().zip(&w) {
                let q = p.weight * wi * inv_area;
                local.add(MOMENT_CHARGE, ix, iy, q);
                local.add(MOMENT_JX, ix, iy, q * p.vx);
                local.add(MOMENT_JY, ix, iy, q * p.vy);
            }
        }
        grid.accumulate(&local);
    }
    (grid, dropped)
}

/// Textbook bilinear sample of a field at a point.
fn textbook_sample(field: &ScalarField, x: f64, y: f64) -> f64 {
    let (ix0, iy0, w) = textbook_cic(field.geometry(), x, y);
    w[0] * field.get(ix0, iy0)
        + w[1] * field.get(ix0 + 1, iy0)
        + w[2] * field.get(ix0, iy0 + 1)
        + w[3] * field.get(ix0 + 1, iy0 + 1)
}

fn assert_grids_bit_equal(want: &MomentGrid, have: &MomentGrid, what: &str) {
    for c in 0..3 {
        for (i, (a, b)) in want.component(c).iter().zip(have.component(c)).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: component {c}, cell {i} diverged ({a:e} vs {b:e})"
            );
        }
    }
}

fn assert_beams_bit_equal(want: &Beam, have: &Beam, what: &str) {
    assert_eq!(want.len(), have.len());
    for (i, (a, b)) in want.particles.iter().zip(&have.particles).enumerate() {
        let bits = |p: &Particle| [p.x, p.y, p.vx, p.vy, p.weight].map(f64::to_bits);
        assert_eq!(
            bits(a),
            bits(b),
            "{what}: particle {i} diverged ({a:?} vs {b:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The driver's fused particle path equals the reference composition
    /// bit for bit, at pool widths 0, 1 and 4, on awkward beams:
    ///
    /// * deposit straight from the beam through pooled (previously dirtied)
    ///   chunk grids == `deposit_cic` over staged samples == the textbook
    ///   chunked CIC, dropped counts included;
    /// * the one-pass gather + scale + kick + drift == `gather_forces`, a
    ///   scaling loop, `kick` and `drift`, and every gathered force equals
    ///   the textbook bilinear sample.
    #[test]
    fn fused_particle_path_is_bit_identical_to_reference(
        len_pick in 0usize..AWKWARD_LENGTHS.len(),
        seed in 0u64..1_000_000,
        picks in prop::collection::vec(0usize..1_000_000, 0..48),
        force_scale in 1e-4f64..10.0,
        dt in 1e-3f64..0.2,
    ) {
        let g = fused_geometry();
        let beam = awkward_beam(AWKWARD_LENGTHS[len_pick], seed, &picks);
        let samples: Vec<DepositSample> = beam.particles.iter().map(DepositSample::from).collect();
        let (oracle, oracle_dropped) = textbook_deposit(g, &beam);

        let potential = {
            let mut f = ScalarField::zeros(g);
            for iy in 0..g.ny {
                for ix in 0..g.nx {
                    let (x, y) = g.cell_center(ix, iy);
                    f.set(ix, iy, (3.0 * x).sin() * (y - 0.4).powi(2) + 0.1 * x * y);
                }
            }
            f
        };
        let (gx, gy) = potential.neg_gradient();

        for threads in [0usize, 1, 4] {
            let pool = ThreadPool::new(threads);

            let mut reference = MomentGrid::zeros(g);
            let dropped = deposit_cic(&pool, &mut reference, &samples);
            prop_assert_eq!(dropped, oracle_dropped);
            assert_grids_bit_equal(&oracle, &reference, "deposit_cic vs textbook");

            // Dirty the pooled chunk grids with a longer beam on another
            // grid first: reuse must leave nothing stale behind.
            let mut partials = Vec::new();
            let dirt = awkward_beam(3 * DEPOSIT_CHUNK + 1, seed ^ 1, &[]);
            let mut scratch = MomentGrid::zeros(GridGeometry::unit(5, 9));
            deposit_cic_from(&pool, &mut scratch, &mut partials, &dirt.particles, |p| DepositSample::from(p));
            let mut fused = MomentGrid::zeros(g);
            let fused_dropped =
                deposit_cic_from(&pool, &mut fused, &mut partials, &beam.particles, |p| DepositSample::from(p));
            prop_assert_eq!(fused_dropped, oracle_dropped);
            assert_grids_bit_equal(&oracle, &fused, &format!("fused deposit, {threads} threads"));

            let mut want = beam.clone();
            let mut forces = gather_forces(&pool, &potential, &want);
            for (p, f) in want.particles.iter().zip(&forces) {
                let expect = (textbook_sample(&gx, p.x, p.y), textbook_sample(&gy, p.x, p.y));
                prop_assert_eq!(f.0.to_bits(), expect.0.to_bits());
                prop_assert_eq!(f.1.to_bits(), expect.1.to_bits());
            }
            for f in &mut forces {
                f.0 *= force_scale;
                f.1 *= force_scale;
            }
            kick(&pool, &mut want, &forces, dt);
            drift(&pool, &mut want, dt);

            let mut have = beam.clone();
            gather_push(&pool, &mut have, &gx, &gy, force_scale, dt);
            assert_beams_bit_equal(&want, &have, &format!("fused gather/push, {threads} threads"));
        }
    }
}
