//! Reusable per-step buffers: the steady-state step loop's working memory.
//!
//! The paper's whole contribution is turning an irregular, allocation-heavy
//! adaptive computation into a precomputed, regular one — and that discipline
//! has to extend to the *host* side of the step loop, or the marginal cost of
//! a step is allocator churn rather than compute. [`StepWorkspace`] owns
//! every buffer the step needs — the per-chunk deposit grids, the flat CSR
//! cell lists each SIMT lane borrows a slice of, the break/need
//! accumulators, the fallback task list, the previous-partition store, the
//! recycled deposition grid, and the force-gradient fields — cleared and
//! refilled in place, so after warm-up a step performs **no workspace heap
//! growth**.
//!
//! Reuse is observable: [`StepWorkspace::publish_gauges`] exports
//! `workspace.bytes_resident` (total capacity held) and
//! `workspace.grown_this_step` (bytes of capacity growth since the previous
//! step) through `beamdyn-obs`, and `tests/workspace_reuse.rs` pins the
//! steady-state-growth-is-zero invariant for all three kernels.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::size_of;

use beamdyn_beam::forces::ScalarField;
use beamdyn_obs as obs;
use beamdyn_pic::{GridGeometry, MomentGrid};
use beamdyn_quad::{Partition, SimpsonSamples};

use crate::kernels::threads::AdaptiveItem;
use crate::kernels::FallbackTask;
use crate::points::GridPoint;

/// Total bytes of buffer capacity the workspace currently holds.
static BYTES_RESIDENT: obs::Gauge = obs::Gauge::new("workspace.bytes_resident");
/// Capacity growth (bytes) since the previous step's publish — zero once the
/// step loop has warmed up.
static GROWN_THIS_STEP: obs::Gauge = obs::Gauge::new("workspace.grown_this_step");

/// Sentinel point index marking a padding lane (inserted so every warp is
/// fully populated; it costs warp efficiency like an early-exit thread on
/// real hardware, but performs no integral).
pub const PAD_LANE: u32 = u32::MAX;

/// Flat CSR cell lists: each SIMT lane's precomputed integration cells,
/// packed into one contiguous buffer that lanes *borrow* slices of.
///
/// `lanes[l]` is the grid-point index lane `l` evaluates ([`PAD_LANE`] for
/// padding), and its cells are `cells[offsets[l] .. offsets[l + 1]]` — the
/// same packed layout a real GPU kernel would read the cell buffer in, and
/// the replacement for the old per-lane `Vec<(f64, f64)>` clones.
#[derive(Debug, Clone, Default)]
pub struct CellLists {
    lanes: Vec<u32>,
    offsets: Vec<u32>,
    cells: Vec<(f64, f64)>,
}

impl CellLists {
    /// Empties the lists, keeping all capacity.
    pub fn clear(&mut self) {
        self.lanes.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.cells.clear();
    }

    /// Number of lanes (including padding lanes).
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when no lanes have been pushed.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Total packed cells across all lanes.
    pub fn total_cells(&self) -> usize {
        self.cells.len()
    }

    /// Appends a lane evaluating `point` over `cells`.
    pub fn push_lane(&mut self, point: u32, cells: impl IntoIterator<Item = (f64, f64)>) {
        debug_assert!(point != PAD_LANE, "point index collides with PAD_LANE");
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.lanes.push(point);
        self.cells.extend(cells);
        self.offsets.push(self.cells.len() as u32);
    }

    /// Appends a lane evaluating `point` over `merged`'s cells clipped to
    /// `[0, radius]` — the packed equivalent of
    /// [`cells_for_point`](crate::kernels::cells_for_point), written straight
    /// into the CSR buffer instead of a fresh `Vec` per lane. A degenerate
    /// radius (`radius <= 0`) yields an empty cell list.
    pub fn push_clipped_lane(&mut self, point: u32, merged: &Partition, radius: f64) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.lanes.push(point);
        if radius > 0.0 {
            for (a, b) in merged.iter_cells() {
                if a >= radius {
                    break;
                }
                let b = b.min(radius);
                if b > a {
                    self.cells.push((a, b));
                }
            }
            if self.offsets.last().copied() == Some(self.cells.len() as u32) {
                // The merged partition lies entirely beyond the radius (the
                // old `cells_for_point` fallback): one whole-interval cell.
                self.cells.push((0.0, radius));
            }
        }
        self.offsets.push(self.cells.len() as u32);
    }

    /// Appends a padding lane (no point, no cells).
    pub fn push_padding(&mut self) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.lanes.push(PAD_LANE);
        self.offsets.push(self.cells.len() as u32);
    }

    /// Lane `tid`'s assignment: the point index and a borrowed slice of its
    /// packed cells, or `None` for padding / out-of-range lanes.
    pub fn lane(&self, tid: usize) -> Option<(u32, &[(f64, f64)])> {
        let &point = self.lanes.get(tid)?;
        if point == PAD_LANE {
            return None;
        }
        let lo = self.offsets[tid] as usize;
        let hi = self.offsets[tid + 1] as usize;
        Some((point, &self.cells[lo..hi]))
    }

    fn bytes_capacity(&self) -> usize {
        self.lanes.capacity() * size_of::<u32>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.cells.capacity() * size_of::<(f64, f64)>()
    }
}

/// A lane's bounded region of a flat scratch buffer, with `Vec::push`-like
/// ergonomics. The region's capacity is a per-launch bound the arena proved
/// when it carved the buffer (a fixed-cells lane accepts or fails at most
/// one entry per planned cell), so pushing never allocates — exceeding the
/// bound is a logic error and panics via the slice index.
#[derive(Debug)]
pub struct LaneList<'w, T> {
    data: &'w mut [T],
    len: &'w mut u32,
}

impl<T> LaneList<'_, T> {
    /// Appends `v`; panics if the lane exceeds its proven bound.
    #[inline]
    pub fn push(&mut self, v: T) {
        let i = *self.len as usize;
        self.data[i] = v;
        *self.len = i as u32 + 1;
    }

    /// The entries pushed so far.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data[..*self.len as usize]
    }
}

/// A cell the fixed pass failed, with the five Simpson samples it already
/// spent on it. The error estimate rides along so the host can grade how
/// deep each τ-miss was (the `predict.tau_miss_depth` histogram); the
/// samples ride along so the fallback task can re-open the cell with zero
/// fresh integrand evaluations ([`SimpsonSamples::full_seed`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FailedFixedCell {
    /// Cell lower bound.
    pub a: f64,
    /// Cell upper bound.
    pub b: f64,
    /// The Simpson error estimate that caused rejection.
    pub error: f64,
    /// All five integrand samples of the rejecting estimate.
    pub samples: SimpsonSamples,
}

/// One fixed-cells lane's view of the pooled scratch: regions of the
/// arena's flat CSR buffers, sized by the lane's planned cell count.
#[derive(Debug)]
pub struct FixedLaneScratch<'w> {
    /// Right edges of accepted cells (the partition actually used), in
    /// evaluation order; the host sorts and merges them.
    pub breaks: LaneList<'w, f64>,
    /// Cells whose Simpson error missed their tolerance (`COMPUTE-RP-
    /// INTEGRAL`'s list `L'`), samples attached.
    pub failed: LaneList<'w, FailedFixedCell>,
    /// Per-subregion *need* estimate: each accepted cell contributes
    /// `(error / tol_cell)^{1/4}` to the subregion containing it. Simpson's
    /// error scales as h⁴, so this sum estimates the number of cells the
    /// subregion actually requires independently of how finely it happened
    /// to be evaluated — the resolution-independent access pattern the
    /// online model must train on (training on provision ratchets).
    pub need: &'w mut [f64],
}

/// One adaptive lane's reusable scratch. Unlike the fixed pass, an adaptive
/// task has no static bound on its accepted-leaf count, so these stay
/// per-slot `Vec`s — the adaptive lane population (the fallback task list)
/// is small and stabilizes with the rest of the workspace.
#[derive(Debug, Default)]
pub struct AdaptiveScratch {
    /// Right edges of accepted leaves (see [`FixedLaneScratch::breaks`]).
    pub breaks: Vec<f64>,
    /// Per-subregion need estimate (see [`FixedLaneScratch::need`]).
    pub need: Vec<f64>,
    /// The explicit subdivision worklist.
    pub stack: Vec<AdaptiveItem>,
}

impl AdaptiveScratch {
    /// Upper bound on the subdivision worklist: a depth-first bisection
    /// holds at most one pending sibling per level plus the working item.
    const STACK_BOUND: usize = crate::kernels::threads::MAX_ADAPTIVE_DEPTH as usize + 2;

    /// One-time sizing when a slot joins the ready pool (and again when the
    /// arena's breaks quota is lifted): reserve the worklist's hard bound
    /// and the quota's worth of leaf storage so launches allocate nothing.
    fn activate(&mut self, breaks_quota: usize, kappa: usize) {
        self.breaks.clear();
        self.stack.clear();
        self.need.clear();
        if self.stack.capacity() < Self::STACK_BOUND {
            self.stack.reserve_exact(Self::STACK_BOUND);
        }
        if self.breaks.capacity() < breaks_quota {
            self.breaks.reserve_exact(breaks_quota);
        }
        if self.need.capacity() < kappa {
            self.need.reserve_exact(kappa);
        }
    }

    fn reset(&mut self, kappa: usize) {
        self.breaks.clear();
        self.stack.clear();
        self.need.clear();
        self.need.resize(kappa, 0.0);
    }

    fn bytes_capacity(&self) -> usize {
        self.breaks.capacity() * size_of::<f64>()
            + self.need.capacity() * size_of::<f64>()
            + self.stack.capacity() * size_of::<AdaptiveItem>()
    }
}

/// Uniform read access to a lane's result lists, however they are stored —
/// lets the engine fold fixed-pass and adaptive-pass results with one code
/// path ([`apply_results`](crate::kernels)).
pub trait ScratchLists {
    /// Accepted right edges, in evaluation order.
    fn breaks(&self) -> &[f64];
    /// Failed cells with their spent samples.
    fn failed(&self) -> &[FailedFixedCell];
    /// Per-subregion need accumulators.
    fn need(&self) -> &[f64];
}

impl ScratchLists for FixedLaneScratch<'_> {
    fn breaks(&self) -> &[f64] {
        self.breaks.as_slice()
    }
    fn failed(&self) -> &[FailedFixedCell] {
        self.failed.as_slice()
    }
    fn need(&self) -> &[f64] {
        self.need
    }
}

impl ScratchLists for &mut AdaptiveScratch {
    fn breaks(&self) -> &[f64] {
        &self.breaks
    }
    fn failed(&self) -> &[FailedFixedCell] {
        // Adaptive threads subdivide to convergence; they never fail cells.
        &[]
    }
    fn need(&self) -> &[f64] {
        &self.need
    }
}

/// Carves `cells[lo..hi]` out as an exclusive region.
///
/// # Safety
/// The caller must guarantee no other live reference overlaps `[lo, hi)`.
#[allow(clippy::mut_from_ref)]
unsafe fn cell_region_mut<T>(cells: &[UnsafeCell<T>], lo: usize, hi: usize) -> &mut [T] {
    // `UnsafeCell<T>` is `repr(transparent)` over `T`.
    unsafe { std::slice::from_raw_parts_mut(cells[lo..hi].as_ptr() as *mut T, hi - lo) }
}

/// Per-lane scratch pool shared (read-only from the borrow checker's view)
/// across the simulated SMs of one launch — the per-thread lists the old
/// `ThreadResult` heap-allocated afresh on every launch, now pooled in the
/// workspace and reused across launches and steps.
///
/// Region/slot `tid` belongs exclusively to the lane with global thread id
/// `tid`: the launch layer materialises each thread id exactly once per
/// launch, so handing lane `tid` a `&mut` into its region through
/// [`UnsafeCell`] never aliases — the same disjoint-slots argument
/// `parallel_map_indexed` makes for its output buffer. Regions are indexed
/// by `tid` (not popped from a shared freelist) so the lane→scratch
/// pairing, and with it every capacity high-water mark the reuse gauges
/// report, is scheduling-independent.
///
/// The fixed pass uses flat CSR buffers mirroring [`CellLists`]: lane
/// `tid`'s regions hold exactly its planned cell count (each cell is
/// accepted or failed, never both), so total capacity tracks the *sum* of
/// lane demands — stable once the cell lists are — rather than ratcheting
/// per-slot high-water marks, which under shuffling lane assignments creep
/// toward `lanes × max` and would never let `workspace.grown_this_step`
/// settle at zero.
#[derive(Default)]
pub struct LaneScratchArena {
    /// Cell-count prefix sums per fixed lane (copied from [`CellLists`]).
    fixed_offsets: Vec<u32>,
    /// Flat accepted-edge storage, region `tid` = `offsets[tid]..offsets[tid+1]`.
    fixed_breaks: Vec<UnsafeCell<f64>>,
    /// Flat failed-cell storage, same regions.
    fixed_failed: Vec<UnsafeCell<FailedFixedCell>>,
    /// Entries used in each lane's breaks region.
    breaks_len: Vec<UnsafeCell<u32>>,
    /// Entries used in each lane's failed region.
    failed_len: Vec<UnsafeCell<u32>>,
    /// Flat need accumulators, `need_width` per fixed lane.
    fixed_need: Vec<UnsafeCell<f64>>,
    need_width: usize,
    /// Per-task slots for the adaptive pass.
    adaptive: Vec<UnsafeCell<AdaptiveScratch>>,
    /// Slots activated (pre-sized) so far; grown with 1.5× overshoot.
    adaptive_ready: usize,
    /// Per-slot breaks reservation every ready slot carries.
    breaks_quota: usize,
    /// `kappa` the ready slots were activated with.
    adaptive_kappa: usize,
}

// SAFETY: concurrent access is only through `claim_fixed` / `claim_adaptive`,
// whose contracts limit each launch to one exclusive claim per disjoint
// region (see type-level comment).
unsafe impl Sync for LaneScratchArena {}

impl fmt::Debug for LaneScratchArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneScratchArena")
            .field("fixed_lanes", &self.fixed_offsets.len().saturating_sub(1))
            .field("fixed_cells", &self.fixed_breaks.len())
            .field("adaptive_slots", &self.adaptive.len())
            .finish()
    }
}

impl LaneScratchArena {
    /// Sizes the fixed-pass CSR buffers for `cells`' lane layout (growing,
    /// never shrinking) and zeroes the active lengths and need accumulators.
    pub(crate) fn prepare_fixed(&mut self, cells: &CellLists, kappa: usize) {
        self.fixed_offsets.clone_from(&cells.offsets);
        let lanes = cells.len();
        let total = cells.total_cells();
        if self.fixed_breaks.len() < total {
            self.fixed_breaks.resize_with(total, Default::default);
        }
        if self.fixed_failed.len() < total {
            self.fixed_failed.resize_with(total, Default::default);
        }
        if self.breaks_len.len() < lanes {
            self.breaks_len.resize_with(lanes, Default::default);
        }
        if self.failed_len.len() < lanes {
            self.failed_len.resize_with(lanes, Default::default);
        }
        let need_len = lanes * kappa;
        if self.fixed_need.len() < need_len {
            self.fixed_need.resize_with(need_len, Default::default);
        }
        self.need_width = kappa;
        for l in &mut self.breaks_len[..lanes] {
            *l.get_mut() = 0;
        }
        for l in &mut self.failed_len[..lanes] {
            *l.get_mut() = 0;
        }
        for n in &mut self.fixed_need[..need_len] {
            *n.get_mut() = 0.0;
        }
    }

    /// Readies the adaptive slot pool for `lanes` tasks and resets the first
    /// `lanes` slots for a launch with `kappa` subregions.
    ///
    /// The adaptive population (the fallback task list) fluctuates from step
    /// to step, and a task has no static bound on its accepted-leaf count —
    /// so unlike the fixed pass's exact CSR regions, steadiness here comes
    /// from *headroom*: the pool is activated with 1.5× overshoot whenever
    /// the task count sets a record, every ready slot carries the arena-wide
    /// per-task breaks quota (lifted, rarely, when some task outgrows it),
    /// and the worklist has a hard depth bound. Record events decay
    /// geometrically, so steady-state launches allocate nothing even though
    /// per-launch demands keep shuffling across slots.
    pub(crate) fn prepare_adaptive(&mut self, lanes: usize, kappa: usize) {
        // Lift the quota to the largest per-task leaf storage any slot ended
        // up with (Vec doubling makes that a power of two).
        let mut quota = self.breaks_quota;
        for slot in &mut self.adaptive[..self.adaptive_ready] {
            quota = quota.max(slot.get_mut().breaks.capacity());
        }
        let grow_ready = lanes > self.adaptive_ready;
        if grow_ready {
            self.adaptive_ready = lanes + lanes / 2;
            if self.adaptive.len() < self.adaptive_ready {
                self.adaptive
                    .resize_with(self.adaptive_ready, Default::default);
            }
        }
        if grow_ready || quota > self.breaks_quota || kappa != self.adaptive_kappa {
            self.breaks_quota = quota;
            self.adaptive_kappa = kappa;
            for slot in &mut self.adaptive[..self.adaptive_ready] {
                slot.get_mut().activate(quota, kappa);
            }
        }
        for slot in &mut self.adaptive[..lanes] {
            slot.get_mut().reset(kappa);
        }
    }

    /// Exclusive access to fixed lane `tid`'s scratch regions.
    ///
    /// # Safety
    /// `tid` must be a lane of the [`CellLists`] the arena was last
    /// [`prepare_fixed`](Self::prepare_fixed)'d for, each `tid` must be
    /// claimed at most once per launch, and all claims must be dropped
    /// before the next `prepare_*` or
    /// [`bytes_capacity`](Self::bytes_capacity) call.
    pub(crate) unsafe fn claim_fixed(&self, tid: usize) -> FixedLaneScratch<'_> {
        let lo = self.fixed_offsets[tid] as usize;
        let hi = self.fixed_offsets[tid + 1] as usize;
        let w = self.need_width;
        // SAFETY: regions of distinct `tid` are disjoint by CSR construction,
        // and the caller claims each `tid` at most once per launch.
        unsafe {
            FixedLaneScratch {
                breaks: LaneList {
                    data: cell_region_mut(&self.fixed_breaks, lo, hi),
                    len: &mut *self.breaks_len[tid].get(),
                },
                failed: LaneList {
                    data: cell_region_mut(&self.fixed_failed, lo, hi),
                    len: &mut *self.failed_len[tid].get(),
                },
                need: cell_region_mut(&self.fixed_need, tid * w, (tid + 1) * w),
            }
        }
    }

    /// Exclusive access to adaptive lane `tid`'s scratch slot.
    ///
    /// # Safety
    /// Same contract as [`claim_fixed`](Self::claim_fixed), against the last
    /// [`prepare_adaptive`](Self::prepare_adaptive) call.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn claim_adaptive(&self, tid: usize) -> &mut AdaptiveScratch {
        unsafe { &mut *self.adaptive[tid].get() }
    }

    /// Total bytes of capacity held by the pool. Must not race a launch
    /// (callers only read it between steps).
    fn bytes_capacity(&self) -> usize {
        self.fixed_offsets.capacity() * size_of::<u32>()
            + self.fixed_breaks.capacity() * size_of::<f64>()
            + self.fixed_failed.capacity() * size_of::<FailedFixedCell>()
            + self.breaks_len.capacity() * size_of::<u32>()
            + self.failed_len.capacity() * size_of::<u32>()
            + self.fixed_need.capacity() * size_of::<f64>()
            + self.adaptive.capacity() * size_of::<UnsafeCell<AdaptiveScratch>>()
            + self
                .adaptive
                .iter()
                // SAFETY: no claims are live outside a launch (see
                // `claim_adaptive`).
                .map(|slot| unsafe { &*slot.get() }.bytes_capacity())
                .sum::<usize>()
    }
}

/// The per-step working memory owned by a
/// [`Simulation`](crate::driver::Simulation): every reusable buffer of the
/// deposit → plan → execute → finalize → commit loop.
///
/// All fields are cleared (never shrunk) at the start of each step, so the
/// steady-state loop allocates nothing here once buffer capacities have
/// reached the workload's high-water mark.
#[derive(Debug, Default)]
pub struct StepWorkspace {
    /// Per-chunk private grids of the deposit (step 1), one per
    /// 4096-particle chunk, reset and reused every step.
    pub(crate) deposit_partials: Vec<MomentGrid>,
    /// CSR lane assignments of the main (fixed-cells) pass.
    pub(crate) cells: CellLists,
    /// Fallback tasks gathered from the main pass (the paper's list `L`).
    pub(crate) tasks: Vec<FallbackTask>,
    /// Scratch task list for the fallback pass's own results (must stay
    /// empty — adaptive threads never report failures).
    pub(crate) spare_tasks: Vec<FallbackTask>,
    /// Accepted-cell right edges, as `(point, edge)` pairs in result order;
    /// finalize sorts them by point and rebuilds each partition.
    pub(crate) break_edges: Vec<(u32, f64)>,
    /// Flat per-point need accumulator, `need_width` entries per point.
    pub(crate) need: Vec<f64>,
    /// Stride of [`StepWorkspace::need`] (κ, at least 1).
    pub(crate) need_width: usize,
    /// Partitions observed at the previous step, moved (not cloned) out of
    /// the step's output points at commit. Read by the Heuristic kernel's
    /// data-reuse pass and Predictive-RP's adaptive transformation.
    pub(crate) previous_partitions: Vec<Option<Partition>>,
    /// Pooled per-lane result scratch, reused across launches and steps.
    pub(crate) lane_scratch: LaneScratchArena,
    /// A moment grid evicted from the history ring, reset and reused as the
    /// next step's deposition target.
    recycled_grid: Option<MomentGrid>,
    /// Negative-gradient field `−∂Φ/∂x` the fused gather/push samples.
    pub(crate) gradient_x: ScalarField,
    /// Negative-gradient field `−∂Φ/∂y` the fused gather/push samples.
    pub(crate) gradient_y: ScalarField,
    /// Bytes of buffer capacity at the previous publish.
    bytes_last: usize,
}

impl StepWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the per-step buffers (keeping capacity) and fixes the need
    /// stride for a step over `n_points` points with `kappa` subregions.
    pub(crate) fn begin_step(&mut self, n_points: usize, kappa: usize) {
        self.cells.clear();
        self.tasks.clear();
        self.spare_tasks.clear();
        self.break_edges.clear();
        self.need_width = kappa.max(1);
        self.need.clear();
        self.need.resize(n_points * self.need_width, 0.0);
    }

    /// The previous step's partition for `point`, if one was observed.
    pub(crate) fn previous_partition(&self, point: usize) -> Option<&Partition> {
        self.previous_partitions.get(point).and_then(Option::as_ref)
    }

    /// Commits the step: **moves** every point's observed partition into the
    /// previous-partition store (leaving `partition = None` behind), instead
    /// of deep-cloning each one the way the old driver did.
    pub(crate) fn store_partitions(&mut self, points: &mut [GridPoint]) {
        self.previous_partitions.clear();
        self.previous_partitions
            .extend(points.iter_mut().map(|p| p.partition.take()));
    }

    /// A zeroed deposition grid: the recycled evicted grid when one is
    /// available, a fresh allocation otherwise (first `capacity` steps).
    pub(crate) fn take_grid(&mut self, geometry: GridGeometry) -> MomentGrid {
        match self.recycled_grid.take() {
            Some(mut grid) if grid.geometry() == geometry => {
                grid.reset();
                grid
            }
            _ => MomentGrid::zeros(geometry),
        }
    }

    /// Stores a history-evicted grid for reuse by the next step.
    pub(crate) fn recycle_grid(&mut self, grid: MomentGrid) {
        self.recycled_grid = Some(grid);
    }

    /// Clears every cross-step *content* the workspace carries — CSR lists,
    /// task lists, accumulators, and crucially the previous-partition store
    /// the Heuristic/Predictive kernels read — while keeping all buffer
    /// capacity. A pooled workspace handed to a new session therefore
    /// behaves exactly like a fresh one numerically (capacities never feed
    /// the numerics; `take_grid` and the deposit zero any kept grid) but
    /// re-allocates nothing, which is what lets a warm
    /// [`WorkspacePool`](crate::session::WorkspacePool) hold
    /// `workspace.bytes_resident` flat across session churn.
    pub fn reset_for_session(&mut self) {
        self.cells.clear();
        self.tasks.clear();
        self.spare_tasks.clear();
        self.break_edges.clear();
        self.need.clear();
        self.need_width = 0;
        self.previous_partitions.clear();
    }

    /// Total bytes of buffer capacity the workspace holds. Counts the
    /// workspace's own reusable buffers; the *contents* of the
    /// previous-partition store (per-step products moved in from the
    /// points) and the recycled moment grid (storage handed over by the
    /// history ring, not allocated here) are not part of the reuse
    /// invariant.
    pub fn bytes_resident(&self) -> usize {
        self.cells.bytes_capacity()
            + self.tasks.capacity() * size_of::<FallbackTask>()
            + self.spare_tasks.capacity() * size_of::<FallbackTask>()
            + self.break_edges.capacity() * size_of::<(u32, f64)>()
            + self.need.capacity() * size_of::<f64>()
            + self.previous_partitions.capacity() * size_of::<Option<Partition>>()
            + self.lane_scratch.bytes_capacity()
            + self.deposit_partials.capacity() * size_of::<MomentGrid>()
            + self
                .deposit_partials
                .iter()
                .map(MomentGrid::bytes_capacity)
                .sum::<usize>()
            + self.gradient_x.bytes_capacity()
            + self.gradient_y.bytes_capacity()
    }

    /// Bytes of capacity held by the pooled per-lane result scratch (part
    /// of [`StepWorkspace::bytes_resident`], broken out so tests can pin
    /// that lane scratch is actually pooled here rather than reallocated
    /// per launch).
    pub fn lane_scratch_bytes(&self) -> usize {
        self.lane_scratch.bytes_capacity()
    }

    /// Publishes the reuse gauges (`workspace.bytes_resident`,
    /// `workspace.grown_this_step`) for the step just completed.
    pub(crate) fn publish_gauges(&mut self) {
        let bytes = self.bytes_resident();
        BYTES_RESIDENT.set(bytes as f64);
        GROWN_THIS_STEP.set(bytes.saturating_sub(self.bytes_last) as f64);
        self.bytes_last = bytes;
    }
}
