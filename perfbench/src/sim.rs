//! The simulation workloads: repeated fixed-length episodes of the
//! four-stage beam-dynamics step, timed around `SimCore::run_step` and
//! `obs::flush_step`, with every step's output checked.
//!
//! An episode starts from a freshly sampled beam (the bunch drifts off the
//! grid over time, so one long run would not be stationary) and runs a
//! fixed number of steps. Episode beams come from the workload seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use beamdyn::beam::{Beam, GaussianBunch};
use beamdyn::core::kernels::build_kernel;
use beamdyn::core::{
    BackendKind, KernelKind, SimCore, SimulationConfig, StepTelemetry, StepWorkspace,
};
use beamdyn::obs;
use beamdyn::par::ThreadPool;
use beamdyn::simt::{DeviceConfig, KernelStats};

use crate::kernel::{KernelClock, TimedKernel};
use crate::stats::Digest;
use crate::trace::TraceLog;

/// One simulation workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Workload name.
    pub name: &'static str,
    /// Kernel of the timed episodes.
    pub kernel: KernelKind,
    /// Kernel the traced run also runs over the exact episodes' beams, as
    /// the reference of the simulated-GPU speed-up.
    pub baseline: Option<KernelKind>,
    /// Backend the timed episodes run on.
    pub backend: BackendKind,
    /// Backend the output check re-runs episode prefixes on.
    pub check_backend: BackendKind,
    /// Grid points per side.
    pub resolution: usize,
    /// Macro-particles per beam.
    pub particles: usize,
    /// Steps per episode.
    pub episode_steps: usize,
    /// Steps of each episode's prefix re-run by the output check.
    pub check_steps: usize,
    /// Episodes whose steps define the exact metrics
    /// (`fallback_per_point`, `simt.*`); the run fails without them.
    pub exact_episodes: usize,
    /// Traced workload whose exact episodes this workload's traced run
    /// replays for the `simt` layer.
    pub simt_companion: Option<&'static str>,
}

/// The three simulation workloads.
pub const SIM_WORKLOADS: [SimSpec; 3] = [
    SimSpec {
        name: "predictive-32",
        kernel: KernelKind::Predictive,
        baseline: None,
        backend: BackendKind::NativeFast,
        check_backend: BackendKind::TracedSimt,
        resolution: 32,
        particles: 20_000,
        episode_steps: 48,
        check_steps: 1,
        exact_episodes: 2,
        simt_companion: Some("paper-traced"),
    },
    SimSpec {
        name: "twophase-particles",
        kernel: KernelKind::TwoPhase,
        baseline: None,
        backend: BackendKind::NativeFast,
        check_backend: BackendKind::TracedSimt,
        resolution: 16,
        particles: 400_000,
        episode_steps: 48,
        check_steps: 1,
        exact_episodes: 2,
        simt_companion: None,
    },
    SimSpec {
        name: "paper-traced",
        kernel: KernelKind::Predictive,
        baseline: Some(KernelKind::Heuristic),
        backend: BackendKind::TracedSimt,
        check_backend: BackendKind::NativeFast,
        resolution: 16,
        particles: 10_000,
        episode_steps: 24,
        check_steps: 2,
        exact_episodes: 2,
        simt_companion: None,
    },
];

/// Looks a simulation workload up by name.
pub fn sim_spec(name: &str) -> Option<SimSpec> {
    SIM_WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl SimSpec {
    /// Points per step (one per grid node).
    pub fn points(&self) -> usize {
        self.resolution * self.resolution
    }

    /// The configuration of one episode: `standard_workload` physics with
    /// the backend named explicitly, never taken from the environment.
    pub fn config(&self, kernel: KernelKind, backend: BackendKind) -> SimulationConfig {
        let mut config = beamdyn_bench::standard_workload(self.resolution, 1, kernel).config;
        config.backend = backend;
        config
    }

    /// The beam of episode round `round`, sampled from the workload seed.
    pub fn beam(&self, seed: u64, round: usize) -> Beam {
        // The bunch of `standard_workload`; only the sampling seed differs.
        let bunch = GaussianBunch {
            sigma_x: 0.12,
            sigma_y: 0.025,
            center_x: 0.3,
            center_y: 0.5,
            charge: 1.0,
            velocity_spread: 0.0,
            drift_vx: 0.4,
            chirp: 0.0,
        };
        bunch.sample(self.particles, mix(seed, round as u64))
    }

    /// Computed bytes of the per-step working set once `workspace` is
    /// warm: the beam's particles plus the step workspace's buffers.
    pub fn working_set_bytes(&self, workspace: &StepWorkspace) -> usize {
        self.particles * std::mem::size_of::<beamdyn::beam::Particle>() + workspace.bytes_resident()
    }
}

/// SplitMix64 of a seed and a stream index.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one step did, as the benchmark measured and the program reported.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Host wall-clock of `run_step` plus `flush_step`.
    pub wall_ns: u64,
    /// Host wall-clock of `obs::flush_step` alone.
    pub flush_ns: u64,
    /// `StepTelemetry::deposit_time`.
    pub deposit_ns: u64,
    /// `StepTelemetry::potentials_time`.
    pub potentials_ns: u64,
    /// `StepTelemetry::push_time`.
    pub push_ns: u64,
    /// Benchmark-timed `PotentialsKernel::plan`.
    pub plan_ns: u64,
    /// Benchmark-timed `PotentialsKernel::observe`.
    pub observe_ns: u64,
    /// `PotentialsOutput::clustering_time`.
    pub cluster_ns: u64,
    /// `PotentialsOutput::training_time`.
    pub train_ns: u64,
    /// Cells forwarded to the adaptive fallback.
    pub fallback_cells: usize,
    /// Simulated kernel launches.
    pub launches: usize,
    /// Simulated GPU seconds (zero off the traced backend).
    pub gpu_s: f64,
    /// Merged machine counters of the step's launches.
    pub stats: KernelStats,
    /// Whether every point met τ with a finite potential.
    pub ok: bool,
    /// Digest of the step's potentials.
    pub potentials_digest: u64,
    /// Bytes the step workspace grew by during the step.
    pub grown_bytes: u64,
}

/// One episode's outcome.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Kernel the episode ran.
    pub kernel: KernelKind,
    /// Beam round (the beam is `spec.beam(seed, round)`).
    pub round: usize,
    /// Per-step records, in order.
    pub steps: Vec<StepRecord>,
    /// Wall-clock from beam sampling to the last step done.
    pub wall_ns: u64,
    /// Digest of the final potentials and beam; only for complete episodes.
    pub digest: Option<u64>,
}

impl Episode {
    /// True when the episode ran all its steps.
    pub fn complete(&self) -> bool {
        self.digest.is_some()
    }
}

/// Checks one step's output: every point within τ, every potential finite.
pub fn step_ok(t: &StepTelemetry, tolerance: f64) -> bool {
    t.potentials
        .points
        .iter()
        .all(|p| p.integral.is_finite() && p.error.is_finite() && p.error <= tolerance)
}

/// Digest of an episode's end state: final potentials and every particle.
pub fn end_digest(core: &SimCore) -> u64 {
    let mut d = Digest::default();
    if let Some(field) = core.last_potentials() {
        d.floats(field.as_slice());
    }
    for p in &core.beam().particles {
        d.floats(&[p.x, p.y, p.vx, p.vy, p.weight]);
    }
    d.value()
}

/// Runs episodes over one pool and one reused workspace.
pub struct Runner<'a> {
    pool: &'a ThreadPool,
    device: DeviceConfig,
    workspace: StepWorkspace,
    clock: Arc<KernelClock>,
    plan_delay: Duration,
    trace: Option<Arc<TraceLog>>,
    steps_run: u64,
}

impl<'a> Runner<'a> {
    /// A runner on `pool`; `plan_delay` is injected into every plan call.
    pub fn new(pool: &'a ThreadPool, plan_delay: Duration, trace: Option<Arc<TraceLog>>) -> Self {
        Self {
            pool,
            device: DeviceConfig::tesla_k40(),
            workspace: StepWorkspace::new(),
            clock: Arc::new(KernelClock::default()),
            plan_delay,
            trace,
            steps_run: 0,
        }
    }

    /// Builds the core of one episode (beam sampling included).
    pub fn build(
        &mut self,
        spec: &SimSpec,
        kernel: KernelKind,
        backend: BackendKind,
        seed: u64,
        round: usize,
    ) -> SimCore {
        let config = spec.config(kernel, backend);
        let beam = spec.beam(seed, round);
        let timed = TimedKernel::new(
            build_kernel(&config),
            Arc::clone(&self.clock),
            self.plan_delay,
        );
        self.workspace.reset_for_session();
        SimCore::with_kernel(config, beam, Box::new(timed))
    }

    /// Runs one step of `core`, timed and checked.
    pub fn step(&mut self, core: &mut SimCore) -> StepRecord {
        let plan0 = self.clock.plan_ns();
        let observe0 = self.clock.observe_ns();
        let id = self.steps_run;
        self.steps_run += 1;
        let resident = self.workspace.bytes_resident();
        let start = Instant::now();
        let telemetry = core.run_step(self.pool, &self.device, &mut self.workspace);
        let flush_start = Instant::now();
        obs::flush_step(telemetry.step);
        let flush_ns = flush_start.elapsed().as_nanos() as u64;
        let wall_ns = start.elapsed().as_nanos() as u64;
        if let Some(log) = &self.trace {
            log.record("flush_step", "bench_step", flush_start, id);
            log.record("run_step", "bench_step", start, id);
            log.record("bench_step", "episode", start, id);
        }
        let p = &telemetry.potentials;
        let mut digest = Digest::default();
        for point in &p.points {
            digest.word(point.integral.to_bits());
        }
        StepRecord {
            wall_ns,
            flush_ns,
            deposit_ns: telemetry.deposit_time.as_nanos() as u64,
            potentials_ns: telemetry.potentials_time.as_nanos() as u64,
            push_ns: telemetry.push_time.as_nanos() as u64,
            plan_ns: self.clock.plan_ns() - plan0,
            observe_ns: self.clock.observe_ns() - observe0,
            cluster_ns: p.clustering_time.as_nanos() as u64,
            train_ns: p.training_time.as_nanos() as u64,
            fallback_cells: p.fallback_cells,
            launches: p.launches,
            gpu_s: p.gpu_time.seconds(),
            stats: p.combined_stats(),
            ok: step_ok(&telemetry, core.config().tolerance),
            potentials_digest: digest.value(),
            grown_bytes: self.workspace.bytes_resident().saturating_sub(resident) as u64,
        }
    }

    /// Runs one episode, stopping early once `deadline` passes.
    pub fn episode(
        &mut self,
        spec: &SimSpec,
        kernel: KernelKind,
        seed: u64,
        round: usize,
        deadline: Option<Instant>,
    ) -> Episode {
        let start = Instant::now();
        let mut core = self.build(spec, kernel, spec.backend, seed, round);
        let mut steps = Vec::with_capacity(spec.episode_steps);
        for _ in 0..spec.episode_steps {
            steps.push(self.step(&mut core));
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
        }
        let complete = steps.len() == spec.episode_steps;
        if let Some(log) = &self.trace {
            log.record("episode", "", start, round as u64);
        }
        Episode {
            kernel,
            round,
            steps,
            wall_ns: start.elapsed().as_nanos() as u64,
            digest: complete.then(|| end_digest(&core)),
        }
    }

    /// Re-runs the first `spec.check_steps` steps of `episode` on the check
    /// backend; one entry per step, true when its output passed the step
    /// check and its potentials equal the episode's in every bit.
    pub fn check_prefix(&mut self, spec: &SimSpec, seed: u64, episode: &Episode) -> Vec<bool> {
        let mut core = self.build(
            spec,
            episode.kernel,
            spec.check_backend,
            seed,
            episode.round,
        );
        episode
            .steps
            .iter()
            .take(spec.check_steps)
            .map(|expected| {
                let got = self.step(&mut core);
                got.ok && got.potentials_digest == expected.potentials_digest
            })
            .collect()
    }

    /// The reused step workspace.
    pub fn workspace(&self) -> &StepWorkspace {
        &self.workspace
    }

    /// Starts or stops recording benchmark spans into `trace`.
    pub fn set_trace(&mut self, trace: Option<Arc<TraceLog>>) {
        self.trace = trace;
    }
}
