//! beamdyn performance benchmark: the workloads `BENCHMARK.json` lists
//! (plus `paper-traced`, runnable by name), end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints, as its last stdout line, one JSON object
//! `{"correct","attempted","failed","metrics"}`. Untraced runs report the
//! end-to-end metrics ([`END_TO_END`]); traced runs report the per-layer
//! metrics ([`PER_LAYER`]) and write Chrome trace-event span files under
//! `.bench_out/`. Every workload reports every metric of its mode; a layer
//! a workload does not exercise reads 0. `workloads.json` next to this
//! crate records why each workload exists, its sizing, and which
//! end-to-end metric each per-layer metric should move.

pub mod fleet;
pub mod kernel;
pub mod sim;
pub mod simrun;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("steps_per_s", "1/s"),
    ("step_ms.p50", "ms"),
    ("step_ms.p95", "ms"),
    ("fallback_per_point", "cells"),
    ("session_ms.p50", "ms"),
    ("session_ms.p90", "ms"),
];

/// Per-layer metrics, reported by every traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("pic.deposit_ms", "ms"),
    ("beam.gather_push_ms", "ms"),
    ("kernels.plan_ms", "ms"),
    ("kernels.observe_ms", "ms"),
    ("kernels.main_pass_ms", "ms"),
    ("kernels.fallback_pass_ms", "ms"),
    ("kernels.unattributed_ms", "ms"),
    ("kernels.fallback_cells", "count"),
    ("kernels.launches", "count"),
    ("driver.commit_ms", "ms"),
    ("ml.cluster_ms", "ms"),
    ("ml.train_ms", "ms"),
    ("predictive.clusters", "count"),
    ("quad.integrand_evals", "count"),
    ("quad.fresh_frac", "ratio"),
    ("simt.main_pass_ms", "ms"),
    ("simt.issued_instructions", "count"),
    ("simt.load_transferred_bytes", "B"),
    ("simt.dram_bytes", "B"),
    ("simt.l1_hit", "ratio"),
    ("simt.warp_eff", "ratio"),
    ("simt.gpu_speedup", "x"),
    ("par.steals", "count"),
    ("par.parks", "count"),
    ("par.helper_parks", "count"),
    ("par.speedup", "x"),
    ("obs.flush_ms", "ms"),
    ("obs.dropped", "count"),
    ("workspace.bytes_resident", "B"),
    ("workspace.grown_bytes", "B"),
    ("step.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("session.wait_ms.p50", "ms"),
    ("session.wait_ms.p90", "ms"),
    ("session.active_ms.p50", "ms"),
    ("session.busy_frac", "ratio"),
    ("session.step_ms.p90", "ms"),
    ("workspace_pool.reuse_frac", "ratio"),
    ("serve.post_ms.p90", "ms"),
    ("serve.poll_ms.p90", "ms"),
    ("serve.delete_ms.p90", "ms"),
    ("serve.control_ms.p90", "ms"),
    ("serve.metrics_bytes", "B"),
    ("serve.non2xx", "count"),
    ("gen.late_ms.max", "ms"),
    ("gen.offered", "count"),
    ("gen.completed", "count"),
    ("gen.in_flight", "count"),
    ("gen.reconcile_mismatch", "count"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl Args {
    /// Parses `--workload --seed --seconds --trace`.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| "--seed must be an integer")?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| "--seconds must be a number")?;
                }
                "--trace" => trace = value == "1",
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// A run's result: operation counts and named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (steps, sessions, probes, output checks).
    pub attempted: u64,
    /// Operations that failed, checks included.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: every metric of the run's mode, by name and unit.
    /// A metric the workload did not produce reads 0; a non-finite value
    /// marks the run incorrect.
    pub fn to_json(&self, trace: bool) -> String {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        // A run that attempted nothing reports one failed operation.
        let (attempted, failed) = match self.attempted {
            0 => (1, 1),
            n => (n, self.failed),
        };
        let mut correct = failed == 0;
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                correct = false;
            }
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            attempted, failed,
        )
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if let Some(spec) = sim::sim_spec(&args.workload) {
        return Ok(simrun::run(&spec, args, std::time::Duration::ZERO));
    }
    if args.workload == fleet::NAME {
        return fleet::run(args);
    }
    Err(format!(
        "unknown workload '{}' (accepted: {}, {})",
        args.workload,
        sim::SIM_WORKLOADS.map(|s| s.name).join(", "),
        fleet::NAME
    ))
}

/// Directory span files are written to, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Writes `contents` to `OUT_DIR/file`, returning the path.
pub fn write_out(file: &str, contents: &str) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, contents).map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}
