//! Pluggable compute backends: how the planned kernel launches actually
//! execute.
//!
//! The three [`PotentialsKernel`](crate::kernels::PotentialsKernel)
//! strategies only *plan* — every launch happens inside the shared engine
//! ([`compute_potentials`](crate::kernels::compute_potentials)), which makes
//! that engine the single seam where execution strategy can be swapped:
//!
//! * [`TracedSimt`] — the reference path. Each lane records its op stream,
//!   a warp-lockstep replayer simulates the device (coalescing, L1/L2,
//!   occupancy), and every simulated machine metric the paper profiles is
//!   produced.
//! * [`NativeFast`] — the answers-only path. The *same* lane bodies run to
//!   retirement as plain indexed parallel work, with all tracing
//!   monomorphized away; simulated metrics come back zero. Per-lane
//!   arithmetic, the seeded-Simpson plans, the CSR cell lists, and the
//!   pooled [`LaneScratchArena`] are all shared with the traced path, so
//!   the potentials are **bit-identical** — `tests/backend_equivalence.rs`
//!   is the differential harness pinning that contract.
//! * [`NativeSimd`] — the vectorized-quadrature path. The same lane bodies
//!   again, but fresh integrand evaluations take the 4-wide stencil gather.
//!   Control flow and operation counts stay exactly equal to the other
//!   backends; produced *values* differ from them by the documented
//!   fixed-order SIMD reassociation — deterministic (bit-identical across
//!   pool widths and runs) but held to a ≤4 ulp per-cell bound rather than
//!   bit identity. See DESIGN.md §17 for the full contract.
//!
//! Backends cover the potentials stage only: deposit and gather/push are
//! one particle path the driver runs identically under every backend.
//!
//! Selection is per-run: [`SimulationConfig::backend`]
//! (crate::driver::SimulationConfig::backend) defaults from the
//! `BEAMDYN_BACKEND` environment variable (`traced` unless told otherwise),
//! and the daemon/bench surfaces expose explicit flags that override it.

use beamdyn_simt::LaunchOutput;

use crate::kernels::threads::{self, ThreadResult};
use crate::kernels::{FallbackTask, RpProblem};
use crate::workspace::{AdaptiveScratch, CellLists, FixedLaneScratch, LaneScratchArena};

/// Per-point `(x, y, radius)` lookup both launch shapes share.
pub type PointXyr<'a> = &'a (dyn Fn(u32) -> (f64, f64, f64) + Sync);

/// Which compute backend executes the planned launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Simulated-GPU reference path: op recording, warp replay, all gated
    /// machine metrics.
    #[default]
    TracedSimt,
    /// Host-speed path: identical numerics, zero simulated metrics.
    NativeFast,
    /// SIMD host path: 4-wide lane blocks, fixed-order reductions,
    /// ≤4 ulp from the scalar backends, zero simulated metrics.
    NativeSimd,
}

impl BackendKind {
    /// Parses a backend name as accepted by `BEAMDYN_BACKEND` and the
    /// `--backend` flags.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "traced" | "traced-simt" | "simt" => Some(Self::TracedSimt),
            "native" | "native-fast" | "fast" => Some(Self::NativeFast),
            "native-simd" | "simd" => Some(Self::NativeSimd),
            _ => None,
        }
    }

    /// The default backend for this process: `BEAMDYN_BACKEND` when set
    /// (loudly rejecting unknown values — a typo must not silently run the
    /// wrong backend), [`BackendKind::TracedSimt`] otherwise.
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(kind) => kind,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Non-panicking [`BackendKind::from_env`]: the service entry points
    /// (daemon startup, request handlers) use this so an environment typo
    /// becomes a clean diagnostic instead of a process abort.
    pub fn try_from_env() -> Result<Self, String> {
        match std::env::var("BEAMDYN_BACKEND") {
            Ok(v) => Self::parse(&v).ok_or_else(|| {
                format!(
                    "BEAMDYN_BACKEND must be one of {} — got '{v}'",
                    Self::accepted_values().join(", ")
                )
            }),
            Err(_) => Ok(Self::default()),
        }
    }

    /// Every name [`BackendKind::parse`] accepts (for diagnostics and
    /// structured API errors).
    pub fn accepted_values() -> &'static [&'static str] {
        &[
            "traced",
            "traced-simt",
            "simt",
            "native",
            "native-fast",
            "fast",
            "native-simd",
            "simd",
        ]
    }

    /// Canonical name for reports, status surfaces, and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Self::TracedSimt => "traced-simt",
            Self::NativeFast => "native-fast",
            Self::NativeSimd => "native-simd",
        }
    }

    /// SIMD lane width of the backend's hot loops: 1 for the scalar
    /// backends, [`beamdyn_par::simd::LANE_WIDTH`] for [`NativeSimd`].
    /// Surfaced in `/status` and the daemon banner.
    pub fn lane_width(self) -> usize {
        match self {
            Self::TracedSimt | Self::NativeFast => 1,
            Self::NativeSimd => beamdyn_par::simd::LANE_WIDTH,
        }
    }
}

/// A kernel-execution strategy: runs the engine's two launch shapes (the
/// uniform fixed-cells main pass and the adaptive fallback) over the
/// workspace's prepared buffers.
///
/// Implementations must preserve the engine's result contract:
/// `results[tid]` holds lane `tid`'s outcome (padding lanes `None`), so the
/// per-point accumulation order downstream — and with it every produced
/// bit — is backend-independent.
pub trait ComputeBackend: Send + Sync {
    /// Which selector this backend answers to.
    fn kind(&self) -> BackendKind;

    /// Canonical backend name (mirrors [`BackendKind::name`]).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Runs the planned fixed-cells main pass. `scratch` is prepared for
    /// `cells`; `threads_per_block` is the plan's block shape (advisory for
    /// backends with no blocks).
    fn run_fixed<'w>(
        &self,
        problem: &RpProblem<'_>,
        threads_per_block: usize,
        cells: &CellLists,
        scratch: &'w LaneScratchArena,
        point_xyr: PointXyr<'_>,
    ) -> LaunchOutput<ThreadResult<FixedLaneScratch<'w>>>;

    /// Runs the adaptive pass, one lane per task. `scratch` is prepared for
    /// `tasks.len()` lanes.
    #[allow(clippy::mut_from_ref)] // the `&mut` slots come from the arena's claim contract
    fn run_adaptive<'w>(
        &self,
        problem: &RpProblem<'_>,
        threads_per_block: usize,
        tasks: &[FallbackTask],
        scratch: &'w LaneScratchArena,
        point_xyr: PointXyr<'_>,
        min_depth: u32,
    ) -> LaunchOutput<ThreadResult<&'w mut AdaptiveScratch>>;
}

/// The reference backend: simulated-device launches with full tracing.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedSimt;

impl ComputeBackend for TracedSimt {
    fn kind(&self) -> BackendKind {
        BackendKind::TracedSimt
    }

    fn run_fixed<'w>(
        &self,
        problem: &RpProblem<'_>,
        threads_per_block: usize,
        cells: &CellLists,
        scratch: &'w LaneScratchArena,
        point_xyr: PointXyr<'_>,
    ) -> LaunchOutput<ThreadResult<FixedLaneScratch<'w>>> {
        threads::launch_fixed(problem, threads_per_block, cells, scratch, point_xyr)
    }

    fn run_adaptive<'w>(
        &self,
        problem: &RpProblem<'_>,
        threads_per_block: usize,
        tasks: &[FallbackTask],
        scratch: &'w LaneScratchArena,
        point_xyr: PointXyr<'_>,
        min_depth: u32,
    ) -> LaunchOutput<ThreadResult<&'w mut AdaptiveScratch>> {
        threads::launch_adaptive(
            problem,
            threads_per_block,
            tasks,
            scratch,
            point_xyr,
            min_depth,
        )
    }
}

/// The answers-only backend: identical lane bodies, no simulated device.
#[derive(Debug, Default, Clone, Copy)]
pub struct NativeFast;

impl ComputeBackend for NativeFast {
    fn kind(&self) -> BackendKind {
        BackendKind::NativeFast
    }

    fn run_fixed<'w>(
        &self,
        problem: &RpProblem<'_>,
        _threads_per_block: usize,
        cells: &CellLists,
        scratch: &'w LaneScratchArena,
        point_xyr: PointXyr<'_>,
    ) -> LaunchOutput<ThreadResult<FixedLaneScratch<'w>>> {
        threads::native_fixed(problem, cells, scratch, point_xyr)
    }

    fn run_adaptive<'w>(
        &self,
        problem: &RpProblem<'_>,
        _threads_per_block: usize,
        tasks: &[FallbackTask],
        scratch: &'w LaneScratchArena,
        point_xyr: PointXyr<'_>,
        min_depth: u32,
    ) -> LaunchOutput<ThreadResult<&'w mut AdaptiveScratch>> {
        threads::native_adaptive(problem, tasks, scratch, point_xyr, min_depth)
    }
}

/// The SIMD backend: same lane bodies, vectorized fresh evaluations, no
/// simulated device. Quadrature control flow is shared with [`NativeFast`]
/// by construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NativeSimd;

impl ComputeBackend for NativeSimd {
    fn kind(&self) -> BackendKind {
        BackendKind::NativeSimd
    }

    fn run_fixed<'w>(
        &self,
        problem: &RpProblem<'_>,
        _threads_per_block: usize,
        cells: &CellLists,
        scratch: &'w LaneScratchArena,
        point_xyr: PointXyr<'_>,
    ) -> LaunchOutput<ThreadResult<FixedLaneScratch<'w>>> {
        threads::simd_fixed(problem, cells, scratch, point_xyr)
    }

    fn run_adaptive<'w>(
        &self,
        problem: &RpProblem<'_>,
        _threads_per_block: usize,
        tasks: &[FallbackTask],
        scratch: &'w LaneScratchArena,
        point_xyr: PointXyr<'_>,
        min_depth: u32,
    ) -> LaunchOutput<ThreadResult<&'w mut AdaptiveScratch>> {
        threads::simd_adaptive(problem, tasks, scratch, point_xyr, min_depth)
    }
}

/// Builds the backend object a [`BackendKind`] selects.
pub fn build_backend(kind: BackendKind) -> Box<dyn ComputeBackend> {
    match kind {
        BackendKind::TracedSimt => Box::new(TracedSimt),
        BackendKind::NativeFast => Box::new(NativeFast),
        BackendKind::NativeSimd => Box::new(NativeSimd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_and_short_names() {
        for s in ["traced", "traced-simt", "simt"] {
            assert_eq!(BackendKind::parse(s), Some(BackendKind::TracedSimt));
        }
        for s in ["native", "native-fast", "fast"] {
            assert_eq!(BackendKind::parse(s), Some(BackendKind::NativeFast));
        }
        for s in ["native-simd", "simd"] {
            assert_eq!(BackendKind::parse(s), Some(BackendKind::NativeSimd));
        }
        assert_eq!(BackendKind::parse("cuda"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    #[test]
    fn names_roundtrip_through_parse() {
        for kind in [
            BackendKind::TracedSimt,
            BackendKind::NativeFast,
            BackendKind::NativeSimd,
        ] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(build_backend(kind).kind(), kind);
            assert_eq!(build_backend(kind).name(), kind.name());
        }
    }

    #[test]
    fn lane_widths_reflect_vectorization() {
        assert_eq!(BackendKind::TracedSimt.lane_width(), 1);
        assert_eq!(BackendKind::NativeFast.lane_width(), 1);
        assert_eq!(
            BackendKind::NativeSimd.lane_width(),
            beamdyn_par::simd::LANE_WIDTH
        );
    }
}
