//! Episode digests are the benchmark's record of what a run computed: for
//! one seed they must repeat exactly across runs and pool widths.

use beamdyn::par::ThreadPool;
use beamdyn_perfbench::sim::{sim_spec, Runner, SimSpec};

#[test]
fn episode_digests_repeat_across_runs_and_pool_widths() {
    for name in ["predictive-32", "paper-traced"] {
        let spec = SimSpec {
            episode_steps: 3,
            ..sim_spec(name).expect("known workload")
        };
        let digest = |width: usize| {
            let pool = ThreadPool::new(width);
            let mut runner = Runner::new(&pool, std::time::Duration::ZERO, None);
            runner
                .episode(&spec, spec.kernel, 42, 1, None)
                .digest
                .expect("complete episode")
        };
        let first = digest(1);
        assert_eq!(first, digest(1), "{name}: digest differs between runs");
        assert_eq!(first, digest(0), "{name}: digest differs on an inline pool");
        assert_eq!(first, digest(3), "{name}: digest differs on a wider pool");
    }
}
