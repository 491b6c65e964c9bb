//! Attribution self-test: a busy-wait injected into
//! `PotentialsKernel::plan`, about 30 % of a step, must show up in the
//! layer that was slowed and in the end-to-end step time, and nowhere else.
//!
//! Timing-based, so it runs on optimized builds only:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use beamdyn_perfbench::sim::{sim_spec, SimSpec};
use beamdyn_perfbench::stats::median;
use beamdyn_perfbench::{simrun, Args};

/// A shortened workload: six short exact episodes and nothing else (the
/// run's seconds elapse during them), so the slowed and the plain run
/// time the same steps of the same beams. No simt replay: it is not
/// what this test measures.
fn short(name: &str) -> SimSpec {
    SimSpec {
        episode_steps: 8,
        exact_episodes: 6,
        simt_companion: None,
        ..sim_spec(name).expect("known workload")
    }
}

fn metric(spec: &SimSpec, trace: bool, delay: Duration, name: &str) -> f64 {
    let args = Args {
        workload: spec.name.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
    };
    let outcome = simrun::run(spec, &args, delay);
    assert_eq!(outcome.failed, 0, "{} failed its output checks", spec.name);
    outcome.metrics[name]
}

/// Medians of `name` over three alternating pairs of plain and slowed
/// runs, so a change of host speed between two runs can neither pass for
/// the injected delay nor hide it.
fn paired(spec: &SimSpec, trace: bool, delay: Duration, name: &str) -> (f64, f64) {
    let (mut plain, mut slowed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plain.push(metric(spec, trace, Duration::ZERO, name));
        slowed.push(metric(spec, trace, delay, name));
    }
    (median(&plain), median(&slowed))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
fn injected_plan_delay_is_attributed_to_the_plan_layer() {
    let predictive = short("predictive-32");
    let delay_ms = 0.3 * metric(&predictive, false, Duration::ZERO, "step_ms.p50");
    let delay = Duration::from_secs_f64(delay_ms / 1e3);
    let (plan, slow_plan) = paired(&predictive, true, delay, "kernels.plan_ms");
    let (step, slow_step) = paired(&predictive, false, delay, "step_ms.p50");
    assert!(
        slow_plan - plan > 0.8 * delay_ms,
        "kernels.plan_ms {plan:.3} -> {slow_plan:.3} ms does not carry the {delay_ms:.3} ms delay"
    );
    assert!(
        slow_step - step > 0.5 * delay_ms,
        "step_ms.p50 {step:.3} -> {slow_step:.3} ms does not show the {delay_ms:.3} ms delay"
    );

    let twophase = short("twophase-particles");
    let step = metric(&twophase, false, Duration::ZERO, "step_ms.p50");
    let delay = Duration::from_secs_f64(0.3 * step / 1e3);
    for layer in ["pic.deposit_ms", "beam.gather_push_ms"] {
        let (base, slowed) = paired(&twophase, true, delay, layer);
        assert!(
            slowed < 1.25 * base,
            "{layer} rose from {base:.3} to {slowed:.3} ms under a delay injected elsewhere"
        );
    }
}
