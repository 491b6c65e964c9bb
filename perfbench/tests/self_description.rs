//! `workloads.json` describes the benchmark the code runs: its sizing
//! figures and metric names must match the constants they come from.

use beamdyn_bench::json::{self, Value};
use beamdyn_perfbench::{fleet, sim, simrun, END_TO_END, PER_LAYER};

fn load(file: &str) -> Value {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing number {key}"))
}

#[test]
fn simulation_workloads_match_their_specs() {
    let doc = load("workloads.json");
    let workloads = doc.get("workloads").expect("workloads");
    for spec in sim::SIM_WORKLOADS {
        let w = workloads.get(spec.name).expect(spec.name);
        assert_eq!(num(w, "grid"), spec.resolution as f64, "{}", spec.name);
        assert_eq!(num(w, "particles"), spec.particles as f64, "{}", spec.name);
        assert_eq!(
            num(w, "episode_steps"),
            spec.episode_steps as f64,
            "{}",
            spec.name
        );
        assert_eq!(
            num(w, "setup_reps_before_warm_up"),
            simrun::SETUP_REPS as f64
        );
    }
}

#[test]
fn fleet_workload_matches_its_constants() {
    let doc = load("workloads.json");
    let w = doc
        .get("workloads")
        .and_then(|w| w.get(fleet::NAME))
        .expect("fleet");
    assert_eq!(num(w, "offered_rate_per_s"), fleet::RATE_PER_S);
    assert_eq!(num(w, "setup_reps"), fleet::SETUP_REPS as f64);
    let session = w.get("session").expect("session");
    assert_eq!(num(session, "grid"), fleet::RESOLUTION as f64);
    assert_eq!(num(session, "particles"), fleet::PARTICLES as f64);
    assert_eq!(num(session, "steps"), fleet::STEPS as f64);
    let flags: Vec<&str> = w
        .get("daemon_flags")
        .and_then(Value::as_array)
        .expect("daemon_flags")
        .iter()
        .map(|f| f.as_str().expect("flag"))
        .collect();
    let mut expected = fleet::daemon_flags();
    let threads = expected
        .iter()
        .position(|f| f == "--threads")
        .expect("--threads")
        + 1;
    assert_eq!(expected[threads], simrun::pool_width().to_string());
    expected[threads] = "nproc - 1".to_string();
    assert_eq!(flags, expected);
}

#[test]
fn metric_names_match_benchmark_json() {
    let bench = load("../BENCHMARK.json");
    let names = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), ours(&END_TO_END));
    assert_eq!(names("per_layer"), ours(&PER_LAYER));
    let moves = load("workloads.json");
    let moves = moves
        .get("per_layer_moves")
        .and_then(Value::as_object)
        .expect("per_layer_moves");
    for (name, _) in PER_LAYER {
        assert!(moves.contains_key(name), "per_layer_moves lacks {name}");
    }
    assert_eq!(moves.len(), PER_LAYER.len());
}
