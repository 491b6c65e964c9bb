//! `fleet-open`: a real `beamdyn-daemon` fed open-loop, at a fixed offered
//! rate, with small mixed-kernel sessions.
//!
//! One generator process, two threads, at most two connections at a time.
//! The submitting thread POSTs sessions on a fixed schedule whatever the
//! daemon does; the other thread polls every in-flight session at a fixed
//! interval, DELETEs finished ones, and scrapes `/metrics` at a fixed
//! interval. A session's latency runs from its *scheduled* submit time, so
//! a stall also charges the sessions queued behind it.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use beamdyn_bench::json;
use beamdyn_bench::scrape::{http_delete, http_get, http_post, parse_exposition, Exposition};

use crate::stats::{max, median, peak_rss_mb, quantile};
use crate::trace::TraceLog;
use crate::{write_out, Args, Outcome, OUT_DIR};

/// Workload name.
pub const NAME: &str = "fleet-open";
/// Offered load, sessions per second, at evenly spaced arrivals.
pub const RATE_PER_S: f64 = 10.0;
/// Grid points per side of every session.
pub const RESOLUTION: usize = 16;
/// Macro-particles per session.
pub const PARTICLES: usize = 3_000;
/// Steps per session.
pub const STEPS: usize = 12;
/// Kernels of successive sessions, in turn.
pub const KERNELS: [&str; 3] = ["two-phase", "heuristic", "predictive"];
/// Interval between polls of the in-flight sessions.
pub const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Interval between `/metrics` scrapes.
pub const SCRAPE_INTERVAL: Duration = Duration::from_millis(250);
/// A session not completed this long after its scheduled submit fails.
pub const COMPLETION_DEADLINE: Duration = Duration::from_secs(10);
/// Workspace slots of the daemon (sessions admitted at once).
pub const SLOTS: usize = 2;
/// Step workers of the daemon (sessions stepped at once).
pub const STEP_WORKERS: usize = 1;
/// Daemon start-ups measured per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The daemon's command-line flags, besides the address handshake.
pub fn daemon_flags() -> Vec<String> {
    let compute = crate::simrun::pool_width().to_string();
    let slots = SLOTS.to_string();
    let workers = STEP_WORKERS.to_string();
    [
        "--port",
        "0",
        "--no-scenario",
        "--backend",
        "native",
        "--threads",
        &compute,
        "--step-workers",
        &workers,
        "--slots",
        &slots,
        "--max-pending",
        "256",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Absolute path of the daemon binary: `$BEAMDYN_DAEMON_BIN`, else the
/// release build under `$CARGO_TARGET_DIR` (default `target`).
fn daemon_bin() -> Result<PathBuf, String> {
    let bin = match std::env::var("BEAMDYN_DAEMON_BIN") {
        Ok(bin) => PathBuf::from(bin),
        Err(_) => {
            let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
            PathBuf::from(target).join("release").join("beamdyn-daemon")
        }
    };
    std::fs::canonicalize(&bin).map_err(|e| format!("daemon binary {}: {e}", bin.display()))
}

/// A running daemon; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns a daemon and waits until `/readyz` answers 200; returns it
    /// with the time that took.
    fn start(traced: bool, ordinal: usize) -> Result<(Self, f64), String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        // The daemon runs inside the output directory, where a traced one
        // writes its Perfetto timeline on exit.
        let out_dir = std::fs::canonicalize(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let addr_file = out_dir.join(format!("daemon-{}-{ordinal}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let start = Instant::now();
        let bin = daemon_bin()?;
        let child = Command::new(&bin)
            .args(daemon_flags())
            .arg("--addr-file")
            .arg(&addr_file)
            .current_dir(&out_dir)
            .env("BEAMDYN_TRACE", if traced { "1" } else { "0" })
            .env("BEAMDYN_BENCH_DIR", &out_dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Self {
            child,
            addr: String::new(),
        };
        let deadline = start + Duration::from_secs(30);
        while Instant::now() < deadline {
            if daemon.addr.is_empty() {
                if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                    daemon.addr = addr.trim().to_string();
                }
            } else if matches!(http_get(&daemon.addr, "/readyz"), Ok((200, _))) {
                let setup = start.elapsed().as_secs_f64();
                let _ = std::fs::remove_file(&addr_file);
                return Ok((daemon, setup));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = std::fs::remove_file(&addr_file);
        Err("daemon never became ready".into())
    }

    /// Asks the daemon to quit and waits for it; true on a clean exit.
    fn stop(mut self) -> bool {
        let asked = matches!(http_get(&self.addr, "/quitz"), Ok((200, _)));
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return asked && status.success();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A session the poller is waiting on.
struct InFlight {
    id: u64,
    scheduled: Instant,
}

/// A session seen `done`, with its summary from the daemon.
#[derive(Debug, Clone)]
pub struct Completed {
    /// From the scheduled submit to the poll that saw it done.
    pub session_ms: f64,
    /// The daemon's `wait_ms`: submit to admission.
    pub wait_ms: f64,
    /// The daemon's `active_ms`: admission to the last step done.
    pub active_ms: f64,
    /// The daemon's `steps_completed`: steps the session actually ran.
    pub steps: f64,
    /// The daemon's `totals.fallback_cells`.
    pub fallback_cells: f64,
}

impl Completed {
    /// Reads a `done` session's summary JSON; a missing field reads `NaN`.
    pub fn from_summary(summary: &json::Value, session_ms: f64) -> Self {
        let num = |v: Option<&json::Value>| v.and_then(json::Value::as_f64).unwrap_or(f64::NAN);
        Self {
            session_ms,
            wait_ms: num(summary.get("wait_ms")),
            active_ms: num(summary.get("active_ms")),
            steps: num(summary.get("steps_completed")),
            fallback_cells: num(summary.get("totals").and_then(|t| t.get("fallback_cells"))),
        }
    }

    /// The output check of a completed session: it ran every one of its
    /// [`STEPS`] steps and reported its totals.
    pub fn ok(&self) -> bool {
        self.steps == STEPS as f64 && self.fallback_cells.is_finite()
    }
}

/// Everything one open-loop window measured.
#[derive(Default)]
struct Window {
    offered: u64,
    accepted: u64,
    rejected: u64,
    completed: Vec<Completed>,
    failed_seen: u64,
    cancelled_seen: u64,
    deadline_missed: u64,
    in_flight_at_stop: u64,
    late_ms: Vec<f64>,
    post_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    control_ms: Vec<f64>,
    metrics_bytes: Vec<f64>,
    probes_failed: u64,
    non2xx: u64,
    /// Wall-clock from the first scheduled submit to the end of the drain.
    elapsed_s: f64,
    /// Warm-up sessions the daemon accepted and completed before the window.
    warm_up: (u64, u64),
    /// The first scrape of the window, as it starts.
    first: Option<Exposition>,
    /// The scrape after the drain: the daemon's own accounting.
    last: Option<Exposition>,
    peak_rss_mb: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The POST body of session `index`: kernels in turn, seeds from the
/// workload seed.
fn session_body(seed: u64, index: u64) -> String {
    let kernel = KERNELS[index as usize % KERNELS.len()];
    let session_seed = crate::sim::mix(seed, index) >> 11;
    format!(
        r#"{{"name":"perfbench-{index}","kernel":"{kernel}","backend":"native","resolution":{RESOLUTION},"particles":{PARTICLES},"steps":{STEPS},"seed":{session_seed}}}"#
    )
}

/// POSTs a session; its id when the daemon answered 201.
fn submit(addr: &str, body: &str) -> Option<u64> {
    match http_post(addr, "/sessions", body) {
        Ok((201, response)) => json::parse(&response)
            .ok()
            .and_then(|v| v.get("id").and_then(json::Value::as_f64))
            .map(|id| id as u64),
        _ => None,
    }
}

/// A session's summary JSON when the daemon answered 200, with its state.
fn summary(addr: &str, id: u64) -> Option<(json::Value, String)> {
    let (200, body) = http_get(addr, &format!("/sessions/{id}")).ok()? else {
        return None;
    };
    let summary = json::parse(&body).ok()?;
    let state = summary.get("state")?.as_str()?.to_string();
    Some((summary, state))
}

/// Session indices of the warm-up, clear of the window's.
const WARMUP_INDEX: u64 = 1 << 40;

/// Before the window: one session per workspace slot, submitted together
/// and run to completion, so every slot of the daemon's workspace pool is
/// allocated before measuring (the even arrivals alone overlap sessions
/// only when one runs long). Each session is one operation. Returns how
/// many the daemon accepted and how many completed.
fn warm_up(daemon: &Daemon, seed: u64, out: &mut Outcome) -> (u64, u64) {
    let addr = daemon.addr.as_str();
    let ids: Vec<Option<u64>> = (0..SLOTS as u64)
        .map(|k| submit(addr, &session_body(seed, WARMUP_INDEX + k)))
        .collect();
    let deadline = Instant::now() + COMPLETION_DEADLINE;
    let mut counts = (0, 0);
    for id in ids {
        let Some(id) = id else {
            out.op(false);
            continue;
        };
        counts.0 += 1;
        let done = loop {
            match summary(addr, id).map(|(_, state)| state).as_deref() {
                Some("done") => break true,
                Some("queued" | "running") if Instant::now() < deadline => {
                    std::thread::sleep(POLL_INTERVAL)
                }
                _ => break false,
            }
        };
        counts.1 += u64::from(done);
        out.op(done
            && matches!(
                http_delete(addr, &format!("/sessions/{id}")),
                Ok((200..=299, _))
            ));
    }
    counts
}

/// Records a client-side span of session `id` when the run is traced.
fn span(log: Option<&Arc<TraceLog>>, name: &str, at: Instant, id: u64) {
    if let Some(log) = log {
        log.record(name, "session", at, id);
    }
}

/// Runs the open loop against `daemon` for `seconds`, then drains.
fn open_loop(daemon: &Daemon, seed: u64, seconds: f64, log: Option<&Arc<TraceLog>>) -> Window {
    let addr = daemon.addr.as_str();
    let window = Mutex::new(Window::default());
    let in_flight: Mutex<Vec<InFlight>> = Mutex::new(Vec::new());
    let submitting = AtomicBool::new(true);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        scope.spawn(|| poll_and_scrape(addr, &window, &in_flight, &submitting, log));
        for index in 0u64.. {
            let due = start + Duration::from_secs_f64(index as f64 / RATE_PER_S);
            if due >= end {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let late = sent.duration_since(due).as_secs_f64() * 1e3;
            let id = submit(addr, &session_body(seed, index));
            let post_ms = ms_since(sent);
            span(log, "post", sent, id.unwrap_or(0));
            let mut w = window.lock().expect("window lock");
            w.offered += 1;
            w.late_ms.push(late);
            w.post_ms.push(post_ms);
            match id {
                Some(id) => {
                    w.accepted += 1;
                    in_flight
                        .lock()
                        .expect("in-flight lock")
                        .push(InFlight { id, scheduled: due });
                }
                None => {
                    w.rejected += 1;
                    w.non2xx += 1;
                }
            }
        }
        let mut w = window.lock().expect("window lock");
        w.in_flight_at_stop = in_flight.lock().expect("in-flight lock").len() as u64;
        drop(w);
        submitting.store(false, Ordering::Release);
    });
    let mut w = window.into_inner().expect("window lock");
    w.elapsed_s = start.elapsed().as_secs_f64();
    w.peak_rss_mb = peak_rss_mb(daemon.child.id()).unwrap_or(f64::NAN);
    w
}

/// The reading thread: polls in-flight sessions every [`POLL_INTERVAL`],
/// DELETEs finished ones, scrapes `/metrics` every [`SCRAPE_INTERVAL`];
/// returns once submission stopped and nothing is in flight.
///
/// Each round polls in submission order and stops at the first session
/// still `queued`: the daemon admits in submission order, so the ones
/// behind it are queued too. Polling them would make the generator's own
/// load grow with the daemon's backlog and keep a transient stall from
/// draining.
fn poll_and_scrape(
    addr: &str,
    window: &Mutex<Window>,
    in_flight: &Mutex<Vec<InFlight>>,
    submitting: &AtomicBool,
    log: Option<&Arc<TraceLog>>,
) {
    let mut next_scrape = Instant::now();
    loop {
        let done_submitting = !submitting.load(Ordering::Acquire);
        let ids: Vec<(u64, Instant)> = in_flight
            .lock()
            .expect("in-flight lock")
            .iter()
            .map(|f| (f.id, f.scheduled))
            .collect();
        if done_submitting && ids.is_empty() {
            break;
        }
        for (id, scheduled) in ids {
            let at = Instant::now();
            let response = summary(addr, id);
            let poll_ms = ms_since(at);
            span(log, "poll", at, id);
            let late = scheduled.elapsed() > COMPLETION_DEADLINE;
            let state = response.as_ref().map(|(_, state)| state.as_str());
            let finished = matches!(state, Some("done" | "failed" | "cancelled"));
            let queued = state == Some("queued");
            let mut w = window.lock().expect("window lock");
            w.poll_ms.push(poll_ms);
            if response.is_none() {
                w.non2xx += 1;
                w.probes_failed += 1;
            }
            if queued && !late {
                break;
            }
            if !finished && !late {
                continue;
            }
            match response {
                Some((s, state)) if state == "done" => {
                    let session_ms = scheduled.elapsed().as_secs_f64() * 1e3;
                    w.completed.push(Completed::from_summary(&s, session_ms));
                }
                Some((_, state)) if state == "failed" => w.failed_seen += 1,
                Some((_, state)) if state == "cancelled" => w.cancelled_seen += 1,
                _ => w.deadline_missed += 1,
            }
            drop(w);
            let at = Instant::now();
            let deleted = http_delete(addr, &format!("/sessions/{id}"));
            let delete_ms = ms_since(at);
            span(log, "delete", at, id);
            let mut w = window.lock().expect("window lock");
            w.delete_ms.push(delete_ms);
            if !matches!(deleted, Ok((200..=299, _))) {
                w.non2xx += 1;
                w.probes_failed += 1;
            }
            in_flight
                .lock()
                .expect("in-flight lock")
                .retain(|f| f.id != id);
        }
        if Instant::now() >= next_scrape {
            next_scrape = (next_scrape + SCRAPE_INTERVAL).max(Instant::now());
            let exposition = scrape(addr, window, log);
            let mut w = window.lock().expect("window lock");
            if w.first.is_none() {
                w.first = exposition;
            }
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    let last = scrape(addr, window, log);
    window.lock().expect("window lock").last = last;
}

/// One timed `/metrics` probe; a non-200 answer or a torn exposition fails.
fn scrape(addr: &str, window: &Mutex<Window>, log: Option<&Arc<TraceLog>>) -> Option<Exposition> {
    let at = Instant::now();
    let response = http_get(addr, "/metrics");
    let control_ms = ms_since(at);
    if let Some(log) = log {
        log.record("scrape", "", at, 0);
    }
    let parsed = match &response {
        Ok((200, text)) => parse_exposition(text).ok().map(|e| (e, text.len())),
        _ => None,
    };
    let mut w = window.lock().expect("window lock");
    w.control_ms.push(control_ms);
    match parsed {
        Some((exposition, bytes)) => {
            w.metrics_bytes.push(bytes as f64);
            Some(exposition)
        }
        None => {
            w.non2xx += u64::from(!matches!(response, Ok((200, _))));
            w.probes_failed += 1;
            None
        }
    }
}

/// A counter from the final scrape (`name` in registry spelling).
fn counter(e: &Exposition, name: &str) -> f64 {
    e.value(&format!("beamdyn_{}_total", name.replace('.', "_")))
        .unwrap_or(0.0)
}

/// Total nanoseconds and closes of one span path from the final scrape.
fn span_stat(e: &Exposition, path: &str) -> (f64, f64) {
    let total = e.labelled("beamdyn_span_duration_ns_total", "path", path);
    let closes = e.labelled("beamdyn_span_closes_total", "path", path);
    (total.unwrap_or(0.0), closes.unwrap_or(0.0))
}

/// Upper bound of the bucket holding quantile `q` of a histogram family.
fn histogram_quantile(e: &Exposition, family: &str, q: f64) -> f64 {
    let mut buckets: Vec<(f64, f64)> = e
        .family(&format!("{family}_bucket"))
        .iter()
        .filter_map(|s| {
            let le = s.label("le")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let Some(&(_, total)) = buckets.last() else {
        return 0.0;
    };
    buckets
        .iter()
        .find(|(_, cumulative)| *cumulative >= q * total)
        .map_or(0.0, |(bound, _)| *bound)
}

/// Counts the window's operations and output checks into `out`.
fn account(w: &Window, out: &mut Outcome) {
    for _ in 0..w.rejected {
        out.op(false);
    }
    for c in &w.completed {
        out.op(c.ok());
    }
    for _ in 0..(w.failed_seen + w.cancelled_seen + w.deadline_missed) {
        out.op(false);
    }
    let probes = w.poll_ms.len() + w.delete_ms.len() + w.control_ms.len();
    out.attempted += probes as u64;
    out.failed += w.probes_failed;
    for mismatch in reconcile(w) {
        eprintln!("[perfbench] reconciliation: {mismatch}");
        out.op(false);
    }
}

/// Client-side counts against the daemon's `sessions.*` counters, after
/// the drain (nothing is in flight any more, and the warm-up sessions
/// count on both sides): accepted = completed + failed + cancelled.
fn reconcile(w: &Window) -> Vec<String> {
    let Some(e) = &w.last else {
        return vec!["no final scrape".into()];
    };
    let accepted = (w.accepted + w.warm_up.0) as f64;
    let completed = (w.completed.len() as u64 + w.warm_up.1) as f64;
    let cancelled = (w.cancelled_seen + w.deadline_missed) as f64;
    let failed = w.failed_seen as f64;
    let pairs = [
        ("submitted", accepted, counter(e, "sessions.submitted")),
        ("completed", completed, counter(e, "sessions.completed")),
        ("failed", failed, counter(e, "sessions.failed")),
        ("cancelled", cancelled, counter(e, "sessions.cancelled")),
        (
            "accepted = completed + failed + cancelled",
            accepted,
            completed + failed + cancelled,
        ),
    ];
    pairs
        .iter()
        .filter(|(_, ours, theirs)| ours != theirs)
        .map(|(what, ours, theirs)| format!("{what}: {ours} vs {theirs}"))
        .collect()
}

/// Share of the window the daemon's step workers spent stepping: the
/// growth of its `session.step_ns` sum from the first scrape to the last,
/// over [`STEP_WORKERS`] times the window.
fn busy_frac(w: &Window) -> f64 {
    let stepped_ns = |e: &Option<Exposition>| {
        e.as_ref()
            .and_then(|e| e.value("beamdyn_session_step_ns_sum"))
            .unwrap_or(f64::NAN)
    };
    (stepped_ns(&w.last) - stepped_ns(&w.first)) / 1e9 / (STEP_WORKERS as f64 * w.elapsed_s)
}

fn end_to_end(w: &Window, setup: f64, out: &mut Outcome) {
    let session_ms: Vec<f64> = w.completed.iter().map(|c| c.session_ms).collect();
    let step_ms: Vec<f64> = w.completed.iter().map(|c| c.active_ms / c.steps).collect();
    let steps: f64 = w.completed.iter().map(|c| c.steps).sum();
    let fallback: f64 = w.completed.iter().map(|c| c.fallback_cells).sum();
    out.set("setup_s", setup);
    out.set("peak_rss_mb", w.peak_rss_mb);
    out.set("steps_per_s", steps / w.elapsed_s);
    out.set("step_ms.p50", quantile(&step_ms, 0.5));
    out.set("step_ms.p95", quantile(&step_ms, 0.95));
    out.set(
        "fallback_per_point",
        fallback / (steps * (RESOLUTION * RESOLUTION) as f64),
    );
    out.set("session_ms.p50", quantile(&session_ms, 0.5));
    out.set("session_ms.p90", quantile(&session_ms, 0.9));
}

fn per_layer(w: &Window, untraced: &Window, out: &mut Outcome) {
    let p90 = |xs: &[f64]| quantile(xs, 0.9);
    let waits: Vec<f64> = w.completed.iter().map(|c| c.wait_ms).collect();
    let actives: Vec<f64> = w.completed.iter().map(|c| c.active_ms).collect();
    out.set("session.wait_ms.p50", median(&waits));
    out.set("session.wait_ms.p90", p90(&waits));
    out.set("session.active_ms.p50", median(&actives));
    out.set("session.busy_frac", busy_frac(w));
    out.set("serve.post_ms.p90", p90(&w.post_ms));
    out.set("serve.poll_ms.p90", p90(&w.poll_ms));
    out.set("serve.delete_ms.p90", p90(&w.delete_ms));
    out.set("serve.control_ms.p90", p90(&w.control_ms));
    out.set("serve.metrics_bytes", median(&w.metrics_bytes));
    out.set("serve.non2xx", w.non2xx as f64);
    out.set("gen.late_ms.max", max(&w.late_ms));
    out.set("gen.offered", w.offered as f64);
    out.set("gen.completed", w.completed.len() as f64);
    out.set("gen.in_flight", w.in_flight_at_stop as f64);
    out.set("gen.reconcile_mismatch", reconcile(w).len() as f64);
    let session_p50 =
        |w: &Window| median(&w.completed.iter().map(|c| c.session_ms).collect::<Vec<_>>());
    out.set(
        "trace.overhead_frac",
        session_p50(w) / session_p50(untraced) - 1.0,
    );
    let Some(e) = &w.last else {
        return;
    };
    out.set(
        "session.step_ms.p90",
        histogram_quantile(e, "beamdyn_session_step_ns", 0.9) / 1e6,
    );
    out.set(
        "workspace_pool.reuse_frac",
        counter(e, "workspace_pool.reuses") / counter(e, "workspace_pool.acquires").max(1.0),
    );
    out.set(
        "obs.dropped",
        counter(e, "telemetry.dropped_events")
            + counter(e, "flight.events_dropped")
            + counter(e, "timeline.samples_dropped"),
    );
    // The daemon's own spans, per step: the simulation layers as the fleet
    // runs them.
    let (step_ns, steps) = span_stat(e, "step");
    let per_step_ms = |path: &str| span_stat(e, path).0 / steps.max(1.0) / 1e6;
    out.set("pic.deposit_ms", per_step_ms("step/deposit"));
    out.set("beam.gather_push_ms", per_step_ms("step/gather_push"));
    out.set(
        "kernels.main_pass_ms",
        per_step_ms("step/potentials/main_pass"),
    );
    out.set(
        "kernels.fallback_pass_ms",
        per_step_ms("step/potentials/fallback_pass"),
    );
    out.set("ml.cluster_ms", per_step_ms("step/potentials/cluster"));
    out.set("ml.train_ms", per_step_ms("step/potentials/train"));
    out.set("driver.commit_ms", per_step_ms("step/commit"));
    let per_step = |name: &str| counter(e, name) / steps.max(1.0);
    out.set("kernels.fallback_cells", per_step("kernels.fallback_cells"));
    out.set("kernels.launches", per_step("kernels.launches"));
    let evals = counter(e, "quad.integrand_evals");
    let replays = counter(e, "quad.integrand_replays");
    out.set("quad.integrand_evals", per_step("quad.integrand_evals"));
    out.set("quad.fresh_frac", evals / (evals + replays).max(1.0));
    out.set("par.steals", per_step("par.steals"));
    out.set("par.parks", per_step("par.parks"));
    out.set("par.helper_parks", per_step("par.helper_parks"));
    out.set(
        "workspace.bytes_resident",
        e.value("beamdyn_workspace_pool_bytes_resident")
            .unwrap_or(0.0),
    );
    out.set(
        "predictive.clusters",
        e.value("beamdyn_predictive_clusters").unwrap_or(0.0),
    );
    let covered: f64 = ["deposit", "potentials", "gather_push", "commit"]
        .iter()
        .map(|stage| span_stat(e, &format!("step/{stage}")).0)
        .sum();
    out.set("step.unattributed_frac", 1.0 - covered / step_ns.max(1.0));
}

/// Runs the fleet workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let (d, setup) = Daemon::start(false, rep)?;
        setups.push(setup);
        if last {
            daemon = Some(d);
        } else {
            out.op(d.stop());
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let warm = warm_up(&daemon, args.seed, &mut out);
    let mut window = open_loop(&daemon, args.seed, seconds, None);
    window.warm_up = warm;
    out.op(daemon.stop());
    account(&window, &mut out);
    log_window(&window);
    if !args.trace {
        end_to_end(&window, median(&setups), &mut out);
        return Ok(out);
    }
    let log = TraceLog::new();
    let (daemon, _) = Daemon::start(true, SETUP_REPS)?;
    let warm = warm_up(&daemon, args.seed, &mut out);
    let mut traced = open_loop(&daemon, args.seed, seconds, Some(&log));
    traced.warm_up = warm;
    out.op(daemon.stop());
    let timeline = format!("{OUT_DIR}/trace-{NAME}-daemon-seed{}.json", args.seed);
    if let Err(e) = std::fs::rename(format!("{OUT_DIR}/beamdyn_daemon.perfetto.json"), &timeline) {
        eprintln!("[perfbench] daemon timeline: {e}");
        out.op(false);
    }
    account(&traced, &mut out);
    log_window(&traced);
    per_layer(&traced, &window, &mut out);
    let path = write_out(
        &format!("trace-{NAME}-seed{}.json", args.seed),
        &log.to_chrome_json(),
    )?;
    eprintln!(
        "[perfbench] {} client spans written to {path}, the daemon's timeline to {timeline}",
        log.len()
    );
    Ok(out)
}

fn log_window(w: &Window) {
    eprintln!(
        "[perfbench] fleet: offered {} accepted {} completed {} failed {} cancelled {} deadline-missed {} \
         in flight at stop {}, late max {:.2} ms, {} probes ({} failed), step workers {:.2} busy",
        w.offered,
        w.accepted,
        w.completed.len(),
        w.failed_seen,
        w.cancelled_seen,
        w.deadline_missed,
        w.in_flight_at_stop,
        max(&w.late_ms),
        w.poll_ms.len() + w.delete_ms.len() + w.control_ms.len(),
        w.probes_failed,
        busy_frac(w),
    );
}
