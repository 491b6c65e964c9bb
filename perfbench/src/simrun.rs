//! One run of a simulation workload: set-up, the timed episodes, the output
//! checks, and the metrics of the run's mode.

use std::sync::Arc;
use std::time::{Duration, Instant};

use beamdyn::obs;
use beamdyn::par::ThreadPool;

use beamdyn::core::BackendKind;

use crate::sim::{sim_spec, Episode, Runner, SimSpec, StepRecord};
use crate::stats::{cache_sizes, max, median, nproc, peak_rss_mb, quantile};
use crate::trace::TraceLog;
use crate::{write_out, Args, Outcome, OUT_DIR};

/// Set-ups measured before the warm-up episode. One more follows every
/// timed episode of the untraced half, so `setup_s`, the median of them
/// all, samples the host across the run rather than at its start.
pub const SETUP_REPS: usize = 5;

/// Beam rounds of the set-up measurements and the warm-up episode, clear
/// of the timed rounds.
const SETUP_ROUND: usize = 1 << 20;
const WARMUP_ROUND: usize = SETUP_ROUND - 1;

/// Worker threads of the stepping pool: one per core beside the caller,
/// which helps in every parallel loop.
pub fn pool_width() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Runs `spec` in the mode `args` selects; `plan_delay` is injected into
/// every `PotentialsKernel::plan` call (zero outside the self-test).
pub fn run(spec: &SimSpec, args: &Args, plan_delay: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|rep| setup_once(spec, args.seed, plan_delay, rep, &mut out))
        .collect();
    let pool = ThreadPool::new(pool_width());
    let mut runner = Runner::new(&pool, plan_delay, None);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // One untimed episode first: the workspace grows to its high-water
    // mark and caches fill, so the timed episodes are all alike.
    logged(runner.episode(spec, spec.kernel, args.seed, WARMUP_ROUND, None));
    let mut peak_rss = f64::NAN;
    let episodes = timed(&mut runner, spec, args.seed, seconds, |round| {
        if round == 0 {
            // The set-ups, the warm-up and one timed episode: read before
            // the first interleaved set-up, which would stack a second
            // beam and workspace on the runner's.
            peak_rss = peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
        }
        let rep = SETUP_REPS + round;
        setups.push(setup_once(spec, args.seed, plan_delay, rep, &mut out));
    });
    let setup = median(&setups);
    eprintln!(
        "[perfbench] {}: setup_s median of {} set-ups, {:.3}..{:.3} ms",
        spec.name,
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        max(&setups) * 1e3,
    );
    let (l2, l3) = cache_sizes();
    eprintln!(
        "[perfbench] {}: working set {} bytes (beam + step workspace); nproc {}, pool width {}, L2 {l2} B, L3 {l3} B",
        spec.name,
        spec.working_set_bytes(runner.workspace()),
        nproc(),
        pool_width(),
    );
    check_episodes(spec, args.seed, &episodes, &mut out);
    if args.trace {
        let log = TraceLog::new();
        let program = program_spans(spec, args.seed);
        runner.set_trace(Some(Arc::clone(&log)));
        let before = obs::snapshot();
        let traced = timed(&mut runner, spec, args.seed, seconds, |_| {});
        let after = obs::snapshot();
        obs::uninstall_all();
        runner.set_trace(None);
        out.op(program.is_some_and(|sink| match sink.finish() {
            Ok(path) => {
                let events = sink.event_count();
                eprintln!(
                    "[perfbench] {events} program events written to {}",
                    path.display()
                );
                true
            }
            Err(e) => {
                eprintln!("[perfbench] program span file: {e}");
                false
            }
        }));
        check_episodes(spec, args.seed, &traced, &mut out);
        per_layer(&episodes, &traced, &before, &after, &mut out);
        out.set(
            "workspace.bytes_resident",
            runner.workspace().bytes_resident() as f64,
        );
        match spec.simt_companion.and_then(sim_spec) {
            Some(paper) => simt_replay(&paper, args.seed, plan_delay, &mut out),
            None => {
                if spec.backend == BackendKind::TracedSimt {
                    out.set("simt.main_pass_ms", out.metrics["kernels.main_pass_ms"]);
                }
                simt_exact(spec, args.seed, plan_delay, &episodes, &mut out);
            }
        }
        pool_speedup(spec, args.seed, plan_delay, &episodes[0], &mut out);
        let file = format!("trace-{}-seed{}.json", spec.name, args.seed);
        match write_out(&file, &log.to_chrome_json()) {
            Ok(path) => eprintln!("[perfbench] {} spans written to {path}", log.len()),
            Err(e) => {
                eprintln!("[perfbench] span file: {e}");
                out.op(false);
            }
        }
    } else {
        end_to_end(spec, &episodes, setup, peak_rss, &mut out);
    }
    for (name, value) in &out.metrics {
        eprintln!("[perfbench]   {name:<28} {value:.6}");
    }
    out
}

/// Installs the program's Perfetto sink, which buffers every `beamdyn_obs`
/// span close and step marker of the traced episodes in memory.
fn program_spans(spec: &SimSpec, seed: u64) -> Option<Arc<obs::PerfettoSink>> {
    let path = format!("{OUT_DIR}/trace-{}-program-seed{seed}.json", spec.name);
    let sink = std::fs::create_dir_all(OUT_DIR).and_then(|()| obs::install_perfetto(&path));
    sink.map_err(|e| eprintln!("[perfbench] program span file {path}: {e}"))
        .ok()
}

/// One set-up: pool start, beam sampling, core construction and the first
/// step (which grows a fresh workspace), in seconds. Its step counts as an
/// operation.
fn setup_once(
    spec: &SimSpec,
    seed: u64,
    plan_delay: Duration,
    rep: usize,
    out: &mut Outcome,
) -> f64 {
    let start = Instant::now();
    let pool = ThreadPool::new(pool_width());
    let mut runner = Runner::new(&pool, plan_delay, None);
    let mut core = runner.build(spec, spec.kernel, spec.backend, seed, SETUP_ROUND + rep);
    let record = runner.step(&mut core);
    let elapsed = start.elapsed().as_secs_f64();
    out.op(record.ok);
    elapsed
}

/// Runs episodes for `seconds`, calling `between` with the round after
/// each one. The first `spec.exact_episodes` always run to completion, so
/// the exact metrics depend on the seed alone.
fn timed(
    runner: &mut Runner<'_>,
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    mut between: impl FnMut(usize),
) -> Vec<Episode> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut episodes: Vec<Episode> = Vec::new();
    for round in 0.. {
        let cut = (round >= spec.exact_episodes).then_some(deadline);
        episodes.push(logged(runner.episode(spec, spec.kernel, seed, round, cut)));
        between(round);
        if round + 1 >= spec.exact_episodes && Instant::now() >= deadline {
            break;
        }
    }
    episodes
}

/// Prints an episode's digest line (stable across runs and pool widths for
/// one seed) and passes the episode on.
fn logged(episode: Episode) -> Episode {
    eprintln!(
        "[perfbench] episode {:?} round {}: {} steps, {:.1} ms, digest {}",
        episode.kernel,
        episode.round,
        episode.steps.len(),
        episode.wall_ns as f64 / 1e6,
        episode
            .digest
            .map_or("-".to_string(), |d| format!("{d:016x}")),
    );
    episode
}

/// Counts every step as an operation, failed when its output check failed,
/// then re-runs each episode's prefix on the check backend over an inline
/// (width-0) pool: the potentials must match bit for bit across backends
/// and pool widths.
fn check_episodes(spec: &SimSpec, seed: u64, episodes: &[Episode], out: &mut Outcome) {
    for step in episodes.iter().flat_map(|e| &e.steps) {
        out.op(step.ok);
    }
    let inline = ThreadPool::new(0);
    let mut checker = Runner::new(&inline, Duration::ZERO, None);
    for episode in episodes {
        for matched in checker.check_prefix(spec, seed, episode) {
            out.op(matched);
        }
    }
}

fn steps(episodes: &[Episode]) -> impl Iterator<Item = &StepRecord> + Clone {
    episodes.iter().flat_map(|e| &e.steps)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Mean of `f` over the steps, in the unit `f` returns.
fn mean(episodes: &[Episode], f: impl Fn(&StepRecord) -> f64) -> f64 {
    let (sum, n) = steps(episodes).fold((0.0, 0usize), |(s, n), r| (s + f(r), n + 1));
    sum / n.max(1) as f64
}

/// The exact episodes: a fixed prefix, so their metrics depend on the
/// seed only.
fn exact<'e>(spec: &SimSpec, episodes: &'e [Episode]) -> &'e [Episode] {
    &episodes[..spec.exact_episodes.min(episodes.len())]
}

/// Fallback cells per grid point per step over the exact episodes.
fn fallback_per_point(spec: &SimSpec, episodes: &[Episode]) -> f64 {
    mean(exact(spec, episodes), |r| r.fallback_cells as f64) / spec.points() as f64
}

fn end_to_end(spec: &SimSpec, episodes: &[Episode], setup: f64, peak_rss: f64, out: &mut Outcome) {
    let walls: Vec<f64> = steps(episodes).map(|r| ms(r.wall_ns)).collect();
    let stepping_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let sessions: Vec<f64> = episodes
        .iter()
        .filter(|e| e.complete())
        .map(|e| ms(e.wall_ns))
        .collect();
    out.set("setup_s", setup);
    out.set("peak_rss_mb", peak_rss);
    out.set("steps_per_s", walls.len() as f64 / stepping_s);
    out.set("step_ms.p50", quantile(&walls, 0.5));
    out.set("step_ms.p95", quantile(&walls, 0.95));
    out.set("fallback_per_point", fallback_per_point(spec, episodes));
    out.set("session_ms.p50", quantile(&sessions, 0.5));
    out.set("session_ms.p90", quantile(&sessions, 0.9));
    eprintln!(
        "[perfbench] {}: {} timed steps in {} episodes ({} complete)",
        spec.name,
        walls.len(),
        episodes.len(),
        sessions.len()
    );
}

/// Per-layer metrics of the traced episodes, per step unless noted.
/// `untraced` are the run's untraced episodes, the reference of the
/// tracing overhead.
fn per_layer(
    untraced: &[Episode],
    traced: &[Episode],
    before: &obs::Snapshot,
    after: &obs::Snapshot,
    out: &mut Outcome,
) {
    let n = steps(traced).count().max(1) as f64;
    let span_ms = |path: &str| span_delta_ms(before, after, path) / n;
    let counter = |name: &str| {
        let value = |s: &obs::Snapshot| s.counter(name).unwrap_or(0);
        value(after).saturating_sub(value(before)) as f64
    };
    let deposit = mean(traced, |r| ms(r.deposit_ns));
    let push = mean(traced, |r| ms(r.push_ns));
    let potentials = mean(traced, |r| ms(r.potentials_ns));
    let plan = mean(traced, |r| ms(r.plan_ns));
    let observe = mean(traced, |r| ms(r.observe_ns));
    let flush = mean(traced, |r| ms(r.flush_ns));
    let wall = mean(traced, |r| ms(r.wall_ns));
    let main_pass = span_ms("step/potentials/main_pass");
    let fallback_pass = span_ms("step/potentials/fallback_pass");
    let commit = span_ms("step/commit");
    out.set("pic.deposit_ms", deposit);
    out.set("beam.gather_push_ms", push);
    out.set("kernels.plan_ms", plan);
    out.set("kernels.observe_ms", observe);
    out.set("kernels.main_pass_ms", main_pass);
    out.set("kernels.fallback_pass_ms", fallback_pass);
    out.set(
        "kernels.unattributed_ms",
        potentials - (plan + main_pass + fallback_pass + observe),
    );
    out.set(
        "kernels.fallback_cells",
        mean(traced, |r| r.fallback_cells as f64),
    );
    out.set("kernels.launches", mean(traced, |r| r.launches as f64));
    out.set("driver.commit_ms", commit);
    out.set("ml.cluster_ms", mean(traced, |r| ms(r.cluster_ns)));
    out.set("ml.train_ms", mean(traced, |r| ms(r.train_ns)));
    out.set(
        "predictive.clusters",
        obs::gauge_value("predictive.clusters").unwrap_or(0.0),
    );
    let evals = counter("quad.integrand_evals");
    let replays = counter("quad.integrand_replays");
    out.set("quad.integrand_evals", evals / n);
    out.set("quad.fresh_frac", evals / (evals + replays).max(1.0));
    out.set("par.steals", counter("par.steals") / n);
    out.set("par.parks", counter("par.parks") / n);
    out.set("par.helper_parks", counter("par.helper_parks") / n);
    out.set("obs.flush_ms", flush);
    let dropped = counter("telemetry.dropped_events")
        + counter("flight.events_dropped")
        + counter("timeline.samples_dropped");
    out.set("obs.dropped", dropped);
    out.set(
        "workspace.grown_bytes",
        steps(traced).map(|r| r.grown_bytes as f64).sum(),
    );
    let covered = deposit + plan + main_pass + fallback_pass + observe + push + commit + flush;
    out.set("step.unattributed_frac", 1.0 - covered / wall);
    let rate =
        |e: &[Episode]| steps(e).count() as f64 / steps(e).map(|r| r.wall_ns as f64).sum::<f64>();
    out.set("trace.overhead_frac", 1.0 - rate(traced) / rate(untraced));
    eprintln!(
        "[perfbench] per-layer metrics over {} traced steps",
        n as usize
    );
}

/// Total milliseconds the program's `path` span gained between snapshots.
fn span_delta_ms(before: &obs::Snapshot, after: &obs::Snapshot, path: &str) -> f64 {
    let total = |s: &obs::Snapshot| s.span(path).map_or(0, |st| st.total_ns);
    ms(total(after).saturating_sub(total(before)))
}

/// The `simt` layer of a native workload: the exact episodes of its traced
/// companion `paper`, run on the traced backend with the host time of
/// their main pass, then read as that workload's own ([`simt_exact`]).
fn simt_replay(paper: &SimSpec, seed: u64, plan_delay: Duration, out: &mut Outcome) {
    let pool = ThreadPool::new(pool_width());
    let mut runner = Runner::new(&pool, plan_delay, None);
    let before = obs::snapshot();
    let episodes: Vec<Episode> = (0..paper.exact_episodes)
        .map(|round| logged(runner.episode(paper, paper.kernel, seed, round, None)))
        .collect();
    let after = obs::snapshot();
    for step in steps(&episodes) {
        out.op(step.ok);
    }
    let n = steps(&episodes).count().max(1) as f64;
    out.set(
        "simt.main_pass_ms",
        span_delta_ms(&before, &after, "step/potentials/main_pass") / n,
    );
    simt_exact(paper, seed, plan_delay, &episodes, out);
}

/// The paper's simulated-GPU metrics over the exact episodes, per step:
/// the machine counters and warp execution efficiency of the workload's
/// kernel, and the baseline kernel's simulated GPU time over the workload
/// kernel's on the same beams. All read 0 off the traced backend, which
/// models no device.
fn simt_exact(
    spec: &SimSpec,
    seed: u64,
    plan_delay: Duration,
    episodes: &[Episode],
    out: &mut Outcome,
) {
    let device = beamdyn::simt::DeviceConfig::tesla_k40();
    let ours = exact(spec, episodes);
    let mut stats = beamdyn::simt::KernelStats::default();
    for r in steps(ours) {
        stats.merge(&r.stats);
    }
    let per_step = |total: u64| total as f64 / steps(ours).count().max(1) as f64;
    out.set(
        "simt.issued_instructions",
        per_step(stats.issued_instructions),
    );
    out.set(
        "simt.load_transferred_bytes",
        per_step(stats.load_transferred_bytes),
    );
    out.set("simt.dram_bytes", per_step(stats.dram_bytes));
    out.set(
        "simt.l1_hit",
        stats.l1_hits as f64 / stats.l1_accesses.max(1) as f64,
    );
    let warp_eff = if stats.issued_instructions == 0 {
        0.0
    } else {
        stats.warp_execution_efficiency(&device)
    };
    out.set("simt.warp_eff", warp_eff);
    let Some(baseline) = spec.baseline else {
        return;
    };
    let pool = ThreadPool::new(pool_width());
    let mut runner = Runner::new(&pool, plan_delay, None);
    let theirs: Vec<Episode> = ours
        .iter()
        .map(|e| logged(runner.episode(spec, baseline, seed, e.round, None)))
        .collect();
    for step in steps(&theirs) {
        out.op(step.ok);
    }
    let gpu = |e: &[Episode]| steps(e).map(|r| r.gpu_s).sum::<f64>();
    out.set("simt.gpu_speedup", gpu(&theirs) / gpu(ours));
}

/// `par.speedup`: the mean step time of one episode on an inline (width-0)
/// pool over that of the same episode on the stepping pool — the plain
/// single-thread baseline. The two episodes' end digests must be equal.
fn pool_speedup(
    spec: &SimSpec,
    seed: u64,
    plan_delay: Duration,
    pooled: &Episode,
    out: &mut Outcome,
) {
    let inline = ThreadPool::new(0);
    let mut runner = Runner::new(&inline, plan_delay, None);
    let single = runner.episode(spec, pooled.kernel, seed, pooled.round, None);
    out.op(single.digest.is_some() && single.digest == pooled.digest);
    let step_mean =
        |e: &Episode| e.steps.iter().map(|r| r.wall_ns as f64).sum::<f64>() / e.steps.len() as f64;
    out.set("par.speedup", step_mean(&single) / step_mean(pooled));
}
