//! A timing wrapper around a [`PotentialsKernel`]: the benchmark's own
//! measurement of the kernel engine's plan and observe stages, installed
//! through `SimCore::with_kernel` so no span is added inside the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use beamdyn::core::kernels::{ExecutionPlan, StepObservation};
use beamdyn::core::points::GridPoint;
use beamdyn::core::predictor::Predictor;
use beamdyn::core::{PotentialsKernel, RpProblem, StepWorkspace};

/// Nanoseconds spent in `plan` and `observe`, accumulated across steps.
/// Shared with the caller, which reads per-step deltas.
#[derive(Debug, Default)]
pub struct KernelClock {
    plan_ns: AtomicU64,
    observe_ns: AtomicU64,
}

impl KernelClock {
    /// Accumulated plan time.
    pub fn plan_ns(&self) -> u64 {
        self.plan_ns.load(Ordering::Relaxed)
    }

    /// Accumulated observe time.
    pub fn observe_ns(&self) -> u64 {
        self.observe_ns.load(Ordering::Relaxed)
    }
}

/// Wraps a kernel, timing its `plan` and `observe` calls. `plan_delay`
/// injects a busy-wait into every plan call: the benchmark's own
/// attribution self-test uses it to slow one layer on purpose.
pub struct TimedKernel {
    inner: Box<dyn PotentialsKernel>,
    clock: Arc<KernelClock>,
    plan_delay: Duration,
}

impl TimedKernel {
    /// Wraps `inner`, accumulating into `clock`.
    pub fn new(
        inner: Box<dyn PotentialsKernel>,
        clock: Arc<KernelClock>,
        plan_delay: Duration,
    ) -> Self {
        Self {
            inner,
            clock,
            plan_delay,
        }
    }
}

fn spin(delay: Duration) {
    let start = Instant::now();
    while start.elapsed() < delay {
        std::hint::spin_loop();
    }
}

impl PotentialsKernel for TimedKernel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(
        &mut self,
        problem: &RpProblem<'_>,
        points: &mut [GridPoint],
        ws: &mut StepWorkspace,
    ) -> ExecutionPlan {
        let start = Instant::now();
        let plan = self.inner.plan(problem, points, ws);
        if !self.plan_delay.is_zero() {
            spin(self.plan_delay);
        }
        self.clock
            .plan_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        plan
    }

    fn observe(
        &mut self,
        problem: &RpProblem<'_>,
        points: &[GridPoint],
        observation: &StepObservation<'_>,
    ) -> Duration {
        let start = Instant::now();
        let trained = self.inner.observe(problem, points, observation);
        self.clock
            .observe_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        trained
    }

    fn predictor(&self) -> Option<&Predictor> {
        self.inner.predictor()
    }
}
