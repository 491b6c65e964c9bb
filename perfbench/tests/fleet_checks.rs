//! The fleet workload's per-session output check reads what the daemon
//! reports a session actually ran, not what the client asked for.

use beamdyn_bench::json;
use beamdyn_perfbench::fleet::{Completed, STEPS};

fn summary(steps_completed: usize) -> json::Value {
    json::parse(&format!(
        r#"{{"id":3,"name":"perfbench-3","kernel":"heuristic","backend":"native-fast","state":"done","steps_completed":{steps_completed},"steps_total":{STEPS},"wait_ms":1.250,"active_ms":40.500,"totals":{{"gpu_time_s":0,"fallback_cells":321,"launches":24}}}}"#
    ))
    .expect("summary parses")
}

#[test]
fn a_session_that_ran_every_step_passes() {
    let c = Completed::from_summary(&summary(STEPS), 70.0);
    assert!(c.ok(), "{c:?}");
    assert_eq!(c.active_ms / c.steps, 40.5 / STEPS as f64);
}

#[test]
fn a_done_session_short_of_its_steps_fails() {
    let c = Completed::from_summary(&summary(STEPS - 5), 70.0);
    assert!(
        !c.ok(),
        "a session that ran {} of {STEPS} steps passed",
        c.steps
    );
}

#[test]
fn a_summary_without_totals_fails() {
    let body = format!(r#"{{"state":"done","steps_completed":{STEPS},"steps_total":{STEPS}}}"#);
    let c = Completed::from_summary(&json::parse(&body).expect("parses"), 70.0);
    assert!(!c.ok(), "{c:?}");
}
