//! Streaming sessions: flat-memory serving of unbounded request streams.
//!
//! [`crate::Runtime::serve_stream`] materialises every [`Response`] into one
//! `Vec`, so a long-running stream's memory grows with the total request
//! count even though the *input* side is bounded by the work queue. A
//! [`StreamSession`] closes that gap: callers
//! [`submit`](StreamSession::submit) rows from any thread into the bounded
//! queue and consume completed responses incrementally — in submission order
//! through a bounded reorder window (the default), or in completion order
//! with explicit request ids ([`SessionOptions::unordered`]). Nothing in the
//! loop scales with the stream length: queued groups, the reorder window,
//! and the in-flight groups workers hold are all bounded, so an unbounded
//! stream runs at flat memory.
//!
//! # Tenants
//!
//! Every session serves at least one tenant (the [`TenantId`] in
//! [`SessionOptions`]); multi-tenant sessions
//! [`register_tenant`](StreamSession::register_tenant) further tenants with
//! scheduling weights and route rows with
//! [`submit_for`](StreamSession::submit_for). Each tenant owns its own
//! bounded group queue inside the scheduler engine, drained by
//! deficit-weighted round-robin with each group charged at the circuit's
//! gate-class-weighted plane-op estimate — a tenant that bursts thousands
//! of groups saturates *its own* queue and gets its weighted share of the
//! workers, instead of starving every tenant queued behind it (head-of-line
//! starvation, the PR 2 FIFO failure mode). Ordered delivery is per tenant:
//! each tenant's responses arrive in that tenant's submission order.
//!
//! The session also owns a [`ResponsePool`]: consumed responses (their
//! `outputs` storage) are recycled from the consumer back to the scheduler
//! workers via the [`PooledResponse`] guard, and spent row buffers flow
//! back to submitters the same way. Together with the per-worker
//! [`PlaneArena`](tc_circuit::PlaneArena), this extends the kernel's
//! zero-allocation guarantee to the whole serve loop — pinned by the
//! counting-allocator test in `crates/runtime/tests/alloc_steady_state.rs`.

use crate::backend::{plane_op_charge, Detail, Lanes, Response};
use crate::faults::FaultPlan;
use crate::metrics::{Histogram, StageHistograms};
use crate::ordered::{LockRank, OrderedMutex, OrderedMutexGuard};
use crate::runtime::Runtime;
use crate::scheduler::{AdmissionPolicy, Engine, PushOrTake, PushOutcome, Take};
use crate::trace::{FlightRecorder, TraceEventKind};
use crate::{Result, RuntimeError, TenantId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::time::{Duration, Instant};
use tc_circuit::{CompiledCircuit, PlaneArena};

/// Per-session tunables for [`crate::Runtime::open_session`].
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// How much of each evaluation every response carries
    /// ([`Detail::Outputs`], the only level).
    pub detail: Detail,
    /// Deliver responses in submission order through the bounded reorder
    /// window (`true`, the default) or in completion order, identified by
    /// [`PooledResponse::request_id`] (`false`). Strict submission order is
    /// a *single-consumer* contract: concurrent consumers receive disjoint
    /// responses whose interleaving is scheduling-dependent (each still
    /// carries its request id). With multiple tenants, ordering is **per
    /// tenant**: each tenant's responses arrive in that tenant's submission
    /// order, round-robin-interleaved across tenants.
    pub ordered: bool,
    /// Size of the delivery window in lane groups per tenant (completed
    /// groups held for the consumer). `0` picks twice the worker count;
    /// explicit values are clamped to at least 2. Workers that finish a
    /// group the window cannot admit yet block until the consumer catches
    /// up — this is what bounds response-side memory.
    pub reorder_window: usize,
    /// Expected total request count, if known (`0` for a genuinely
    /// unbounded stream). Used to pick the backend's lane width and to
    /// bound the worker count for small batches; falls back to
    /// [`crate::RuntimeBuilder::stream_batch_hint`].
    pub batch_hint: usize,
    /// The tenant un-tagged [`StreamSession::submit`] calls belong to.
    pub tenant: TenantId,
    /// The default tenant's scheduling weight (≥ 1): its share of served
    /// cost relative to other tenants while both are backlogged.
    pub weight: u32,
    /// Per-request deadline, measured from the row's accepted-at stamp.
    /// When the scheduler pops a group whose remaining budget no longer
    /// covers the session's running average of measured group evals
    /// (an EWMA, 0 until the first group evaluates), evaluation is
    /// *skipped* and every row in the group is answered with
    /// [`RuntimeError::DeadlineExceeded`] through the normal delivery
    /// window — shedding doomed work instead of burning workers on answers
    /// nobody is waiting for. `None` (the default) disables the check
    /// entirely; no clock is read for it.
    pub deadline: Option<Duration>,
    /// What to do when a tenant's bounded queue is full at submit time:
    /// block the submitter (the default) or shed — see [`AdmissionPolicy`].
    /// Shed rows are answered with [`RuntimeError::Shed`], never dropped.
    pub admission: AdmissionPolicy,
    /// A programmatic fault-injection plan ([`FaultPlan`]); `None` falls
    /// back to the `TCMM_FAULTS` environment variable. Test-only machinery:
    /// leave unset in production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            detail: Detail::Outputs,
            ordered: true,
            reorder_window: 0,
            batch_hint: 0,
            tenant: TenantId::DEFAULT,
            weight: 1,
            deadline: None,
            admission: AdmissionPolicy::Block,
            faults: None,
        }
    }
}

impl SessionOptions {
    /// Sets the [`Detail`] level of every response (a no-op: responses
    /// always carry outputs and the firing count).
    pub fn detail(mut self, detail: Detail) -> Self {
        self.detail = detail;
        self
    }

    /// Switches to completion-order delivery with explicit request ids.
    pub fn unordered(mut self) -> Self {
        self.ordered = false;
        self
    }

    /// Sets the delivery-window size in lane groups (0 = auto).
    pub fn reorder_window(mut self, groups: usize) -> Self {
        self.reorder_window = groups;
        self
    }

    /// Declares the expected total request count (0 = unbounded).
    pub fn batch_hint(mut self, requests: usize) -> Self {
        self.batch_hint = requests;
        self
    }

    /// Tags un-tagged submissions with `tenant` (default [`TenantId::DEFAULT`]).
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the default tenant's scheduling weight (clamped to ≥ 1).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the per-request deadline (see [`SessionOptions::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the full-queue admission policy (see
    /// [`SessionOptions::admission`]).
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Arms a programmatic fault-injection plan (see
    /// [`SessionOptions::faults`]).
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// The backend decision a session makes on its first submitted row (so an
/// empty session resolves nothing).
#[derive(Debug, Clone, Copy)]
struct Plan {
    lanes: Lanes,
    /// `lanes.group()`, read once per submitted row.
    lane_group: usize,
    /// 1 means inline mode: the submitting thread evaluates groups itself —
    /// no worker threads, fully deterministic (and what `serve_batch` uses
    /// for single-worker runtimes).
    target_workers: usize,
    /// DRR cost of evaluating one lane group of this session's circuit, in
    /// gate-class-weighted plane-op units ([`plane_op_charge`]).
    charge: u64,
}

/// A group of packed rows travelling from submitters to workers.
struct RowGroup {
    tenant: TenantId,
    rows: Vec<Vec<bool>>,
    /// Global request id of each row (rows of one tenant are consecutive
    /// *per tenant*, not globally, so ids travel with the group).
    ids: Vec<u64>,
    /// When each row was accepted by `submit` (pooled, like `ids`): the
    /// start of the row's end-to-end latency clock.
    times: Vec<Instant>,
    /// When this group must be *finished* by ([`SessionOptions::deadline`]
    /// anchored at the group's first — oldest — row stamp, so the bound is
    /// conservative for every row). `None` when deadlines are off.
    deadline: Option<Instant>,
}

/// An evaluated group travelling from workers to the consumer.
struct DoneGroup {
    tenant: TenantId,
    ids: Vec<u64>,
    /// Per-row submit timestamps, carried through from the [`RowGroup`].
    times: Vec<Instant>,
    responses: Vec<Response>,
    /// When the evaluating side finished the group: the start of the
    /// delivery-wait clock.
    done_at: Instant,
    /// The tenant's stage histograms, carried along so the consumer records
    /// without a map lookup.
    stages: Arc<StageHistograms>,
    /// `Some` when the group was answered with a typed error instead of
    /// being evaluated (deadline miss, admission shed): `responses` is
    /// empty and every id in `ids` receives this error.
    error: Option<RuntimeError>,
}

/// Recycled buffers flowing backwards through the session: spent row
/// buffers, row-set and id-set containers to the submit side, consumed
/// [`Response`] shells and group containers to the workers. After warm-up
/// every buffer in the serve loop comes from here instead of the allocator.
#[derive(Debug, Default)]
struct ResponsePool {
    rows: Vec<Vec<bool>>,
    row_sets: Vec<Vec<Vec<bool>>>,
    id_sets: Vec<Vec<u64>>,
    /// Submit-timestamp buffers (one [`Instant`] per row, alongside
    /// `id_sets`) — pooled so stage metrics stay allocation-free too.
    time_sets: Vec<Vec<Instant>>,
    shells: Vec<Response>,
    containers: Vec<Vec<Response>>,
    /// Shells served from the pool / freshly allocated (telemetry).
    hits: u64,
    misses: u64,
}

/// One tenant's packing lane: the group currently being filled plus the
/// per-tenant serving tallies.
struct TenantLane {
    id: TenantId,
    /// This tenant's queue slot inside the scheduler engine.
    slot: usize,
    current_rows: Vec<Vec<bool>>,
    current_ids: Vec<u64>,
    /// Submit timestamp of each row in the current group (pooled).
    current_times: Vec<Instant>,
    /// When the current group's first row was packed — the pack-stage
    /// clock. Meaningless while `current_rows` is empty; reset on the next
    /// first row.
    packed_at: Instant,
    /// The latest strided clock sample (see [`TIME_SAMPLE_STRIDE`]); rows
    /// packed between samples reuse it as their submit stamp.
    stamp: Instant,
    /// This tenant's stage histograms (shared with the runtime ledger).
    stages: Arc<StageHistograms>,
    requests: u64,
    groups: u64,
    /// A submitter extracted a group of this lane and is pushing it with
    /// the packing lock released. Serialises same-tenant dispatches (so a
    /// tenant's groups always enqueue in sequence order) without coupling
    /// tenants to each other: competing submitters of THIS lane wait on
    /// [`SessionShared::pack_cv`]; other lanes proceed.
    dispatching: bool,
}

/// Packing state on the submit side, under one lock so concurrent
/// submitters pack rows into their tenant's current group atomically.
struct PackState {
    lanes: Vec<TenantLane>,
    next_request: u64,
    spawned: usize,
    finished: bool,
}

/// The consumer cursor: the group currently being handed out response by
/// response, plus deliveries taken from the engine but not yet drained.
struct ConsumeState {
    current: Option<DrainCursor>,
    pending: std::collections::VecDeque<DoneGroup>,
}

struct DrainCursor {
    tenant: TenantId,
    ids: Vec<u64>,
    responses: Vec<Response>,
    /// The group-level error every remaining id answers with (see
    /// [`DoneGroup::error`]); `responses` is empty when set.
    error: Option<RuntimeError>,
    pos: usize,
}

/// A reusable `&[bool]` table for handing a group's rows to
/// [`Lanes::eval_group`] without a per-group allocation: the
/// allocation persists across groups, the borrows do not (the table is
/// emptied before every refill).
#[derive(Debug, Default)]
struct RefsBuf(Vec<*const [bool]>);

// SAFETY: the raw pointers are only written from live `&[bool]` borrows
// immediately before the evaluation call that reads them, and the buffer is
// cleared before each refill — nothing dangling is ever dereferenced.
unsafe impl Send for RefsBuf {}

impl RefsBuf {
    fn fill<'a>(&mut self, rows: &'a [Vec<bool>]) -> &[&'a [bool]] {
        self.0.clear();
        self.0.extend(
            rows.iter()
                .map(|r| std::ptr::from_ref::<[bool]>(r.as_slice())),
        );
        // SAFETY: `*const [bool]` and `&'a [bool]` have identical layout and
        // every pointer above came from a live `&'a` borrow of `rows`.
        unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast::<&'a [bool]>(), self.0.len()) }
    }
}

/// Scratch the inline (single-worker) mode evaluates in; worker threads own
/// their scratch privately instead.
#[derive(Debug, Default)]
struct InlineScratch {
    arena: PlaneArena,
    refs: RefsBuf,
}

// Poison-tolerant locking for the session's buffer pools and scratch
// (crate-wide helper): their state is plain owned data, so the worst a
// poisoning panic leaves behind is a half-filled buffer that the next user
// clears or overwrites.
use crate::lock_tolerant;

/// How often the packing path reads the clock: a fresh sample on a group's
/// first row and every 16th row after it; rows in between reuse the latest
/// sample as their submit stamp (see `pack_row_locked`). Amortises the
/// dominant per-request metrics cost — the `Instant::now()` syscall-free
/// vDSO read still costs tens of nanoseconds against a sub-300ns pack.
const TIME_SAMPLE_STRIDE: usize = 16;

/// Nanoseconds from `earlier` to `now`, saturating at 0 (stage clocks read
/// on different threads may observe a tiny skew).
#[inline]
fn ns_between(earlier: Instant, now: Instant) -> u64 {
    // u64 arithmetic only — `Duration::as_nanos` widens to u128, which is
    // measurable on the per-row consume path. Latencies beyond ~584 years
    // saturate harmlessly.
    let d = now.saturating_duration_since(earlier);
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(d.subsec_nanos() as u64)
}

/// Locks a session mutex, surfacing a poisoning panic as a typed
/// [`RuntimeError`] instead of propagating an opaque panic into the caller
/// (one crashed thread must not take down the consumer).
fn lock_checked<'m, T>(
    m: &'m OrderedMutex<T>,
    context: &'static str,
) -> Result<OrderedMutexGuard<'m, T>> {
    m.lock()
        .map_err(|_| RuntimeError::SessionPanicked { context })
}

/// Everything a session's submitters, workers, and consumers share.
pub(crate) struct SessionShared<'a> {
    runtime: &'a Runtime,
    circuit: &'a CompiledCircuit,
    opts: SessionOptions,
    engine: Engine<RowGroup, DoneGroup>,
    plan: OnceLock<Plan>,
    pack: OrderedMutex<PackState>,
    /// Wakes submitters waiting out a same-lane dispatch
    /// ([`TenantLane::dispatching`]).
    pack_cv: Condvar,
    consume: OrderedMutex<ConsumeState>,
    pool: OrderedMutex<ResponsePool>,
    inline_scratch: OrderedMutex<InlineScratch>,
    /// The served circuit's class mix (`[Unit, Pow2, General]`): telemetry
    /// reports the classes the kernel dispatches on.
    class_counts: [usize; 3],
    /// Responses handed to the consumer (for the in-flight depth gauge).
    delivered: AtomicU64,
    peak_in_flight: AtomicU64,
    /// Per-slot stage histograms, indexed by engine slot so workers reach a
    /// tenant's histograms straight from `pop`'s slot (no tenant lookup).
    stage_sets: OrderedMutex<Vec<Arc<StageHistograms>>>,
    /// The chosen backend's eval-latency histogram (set by `ensure_plan`).
    eval_hist: OnceLock<Arc<Histogram>>,
    /// `TCMM_TRACE` flight recorder (None unless enabled at session start).
    recorder: Option<FlightRecorder>,
    /// Armed fault plan ([`SessionOptions::faults`] or `TCMM_FAULTS`);
    /// `None` in production — the hot path pays one `Option` check.
    faults: Option<Arc<FaultPlan>>,
    /// EWMA of measured per-group eval nanoseconds, used by the pop-time
    /// deadline check. 0 until the first group evaluates (the check then
    /// only sheds groups already past their deadline outright).
    eval_ns_estimate: AtomicU64,
}

impl<'a> SessionShared<'a> {
    pub(crate) fn new(
        runtime: &'a Runtime,
        circuit: &'a CompiledCircuit,
        opts: SessionOptions,
    ) -> Self {
        let ordered = opts.ordered;
        let faults = opts.faults.clone().or_else(FaultPlan::from_env);
        SessionShared {
            runtime,
            circuit,
            opts,
            engine: Engine::new(ordered),
            plan: OnceLock::new(),
            pack: OrderedMutex::new(
                LockRank::SESSION_PACK,
                "session.pack",
                PackState {
                    lanes: Vec::new(),
                    next_request: 0,
                    spawned: 0,
                    finished: false,
                },
            ),
            pack_cv: Condvar::new(),
            consume: OrderedMutex::new(
                LockRank::SESSION_CONSUME,
                "session.consume",
                ConsumeState {
                    current: None,
                    pending: std::collections::VecDeque::new(),
                },
            ),
            pool: OrderedMutex::new(
                LockRank::RESPONSE_POOL,
                "session.pool",
                ResponsePool::default(),
            ),
            inline_scratch: OrderedMutex::new(
                LockRank::INLINE_SCRATCH,
                "session.inline_scratch",
                InlineScratch::default(),
            ),
            class_counts: circuit.class_counts(),
            delivered: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            stage_sets: OrderedMutex::new(LockRank::STAGE_SETS, "session.stage_sets", Vec::new()),
            eval_hist: OnceLock::new(),
            recorder: FlightRecorder::from_env(),
            faults,
            eval_ns_estimate: AtomicU64::new(0),
        }
    }

    /// Records one flight-recorder event (no-op unless `TCMM_TRACE` is on).
    fn trace(&self, tenant: TenantId, seq: u64, kind: TraceEventKind, detail: u64) {
        if let Some(rec) = &self.recorder {
            rec.record(tenant, seq, kind, detail);
        }
    }

    /// Aborts the engine, dumping the flight recorder first so the
    /// post-mortem survives even if the process exits right after.
    fn abort_session(&self, e: RuntimeError) {
        if let Some(rec) = &self.recorder {
            rec.record(self.opts.tenant, 0, TraceEventKind::Aborted, 0);
            rec.dump(&format!("session abort: {e}"));
        }
        self.engine.abort(e);
    }

    /// Dumps the flight recorder to stderr (the panic-teardown hook).
    pub(crate) fn dump_trace(&self, why: &str) {
        if let Some(rec) = &self.recorder {
            rec.dump(why);
        }
    }

    /// The stage histograms serving engine slot `slot`.
    fn stages_for_slot(&self, slot: usize) -> Arc<StageHistograms> {
        Arc::clone(&lock_tolerant(&self.stage_sets)[slot])
    }

    /// Unblocks every party and drops queued work (session teardown).
    pub(crate) fn shutdown(&self) {
        self.engine.abandon();
    }

    /// Flushes the session's gauges into the runtime's telemetry.
    pub(crate) fn flush_telemetry(&self) {
        let (hits, misses) = {
            let pool = lock_tolerant(&self.pool);
            (pool.hits, pool.misses)
        };
        self.runtime.telemetry_ref().record_session(
            self.peak_in_flight.load(Ordering::Relaxed),
            self.engine.peak_window() as u64,
            hits,
            misses,
        );
        let engine_stats = self.engine.tenant_stats();
        let pack = lock_tolerant(&self.pack);
        for lane in &pack.lanes {
            let stats = engine_stats.get(lane.slot).copied().unwrap_or_default();
            self.runtime
                .telemetry_ref()
                .record_tenant(lane.id, lane.requests, lane.groups, stats);
        }
    }

    /// Resolves the backend, worker plan, and engine bounds on the first
    /// submitted row — an empty session resolves nothing.
    fn ensure_plan(&self) -> Result<Plan> {
        if let Some(plan) = self.plan.get() {
            return Ok(*plan);
        }
        let batch = if self.opts.batch_hint > 0 {
            self.opts.batch_hint
        } else {
            self.runtime.options().stream_batch_hint
        };
        let lanes = match self.runtime.pick_backend(self.circuit, batch) {
            Ok(lanes) => lanes,
            Err(e) => {
                // Wake consumers blocked on a session that can never serve.
                self.abort_session(e.clone());
                return Err(e);
            }
        };
        let _ = self
            .eval_hist
            .set(self.runtime.telemetry_ref().backend_eval(lanes.name()));
        let lane_group = lanes.group();
        let mut target_workers = self.runtime.options().effective_workers();
        if self.opts.batch_hint > 0 {
            target_workers = target_workers.min(self.opts.batch_hint.div_ceil(lane_group));
        }
        let target_workers = target_workers.max(1);
        let queue_capacity = self
            .runtime
            .options()
            .effective_queue_capacity(target_workers);
        // Minimum 2: `finish` must always be able to deliver the final
        // partial group even when the last full group is still unconsumed
        // (a window of 1 could deadlock a single-thread driver there).
        let window = if self.opts.reorder_window > 0 {
            self.opts.reorder_window.max(2)
        } else {
            (2 * target_workers).max(2)
        };
        self.engine
            .configure(queue_capacity, window, self.opts.admission);
        let plan = Plan {
            lanes,
            lane_group,
            target_workers,
            charge: plane_op_charge(self.circuit),
        };
        Ok(*self.plan.get_or_init(|| plan))
    }

    /// The lane (and engine slot) serving `tenant`, registering it on first
    /// sight. The first registration fixes the weight. Must run after
    /// [`SessionShared::ensure_plan`] (lanes borrow pooled group buffers
    /// sized by the plan's lane group).
    fn lane_index(
        &self,
        pack: &mut PackState,
        tenant: TenantId,
        weight: u32,
        plan: &Plan,
    ) -> usize {
        if let Some(i) = pack.lanes.iter().position(|l| l.id == tenant) {
            return i;
        }
        let slot = self.engine.register_tenant(tenant, weight);
        // Report the weight the engine schedules by (clamped to ≥ 1).
        let stages = self
            .runtime
            .telemetry_ref()
            .tenant_stages(tenant, weight.max(1));
        {
            let mut sets = lock_tolerant(&self.stage_sets);
            debug_assert_eq!(slot, sets.len(), "slots register in order");
            if slot == sets.len() {
                sets.push(Arc::clone(&stages));
            }
        }
        pack.lanes.push(TenantLane {
            id: tenant,
            slot,
            current_rows: self.pool_row_set(plan.lane_group),
            current_ids: self.pool_id_set(plan.lane_group),
            current_times: self.pool_time_set(plan.lane_group),
            packed_at: Instant::now(),
            stamp: Instant::now(),
            stages,
            requests: 0,
            groups: 0,
            dispatching: false,
        });
        pack.lanes.len() - 1
    }

    // ---- pool plumbing ----------------------------------------------------

    fn pool_row(&self) -> Vec<bool> {
        let mut pool = lock_tolerant(&self.pool);
        pool.rows
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.circuit.num_inputs()))
    }

    fn pool_row_set(&self, lane_group: usize) -> Vec<Vec<bool>> {
        let mut pool = lock_tolerant(&self.pool);
        pool.row_sets
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(lane_group))
    }

    fn pool_id_set(&self, lane_group: usize) -> Vec<u64> {
        let mut pool = lock_tolerant(&self.pool);
        pool.id_sets
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(lane_group))
    }

    fn pool_time_set(&self, lane_group: usize) -> Vec<Instant> {
        let mut pool = lock_tolerant(&self.pool);
        pool.time_sets
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(lane_group))
    }

    /// A response container pre-loaded with up to `n` recycled shells.
    fn pool_container(&self, n: usize) -> Vec<Response> {
        let mut pool = lock_tolerant(&self.pool);
        let mut container = pool.containers.pop().unwrap_or_default();
        let recycled = pool.shells.len().min(n);
        let from = pool.shells.len() - recycled;
        container.extend(pool.shells.drain(from..));
        pool.hits += recycled as u64;
        pool.misses += (n - recycled) as u64;
        container
    }

    fn recycle_rows(&self, mut rows: Vec<Vec<bool>>) {
        let mut pool = lock_tolerant(&self.pool);
        for mut row in rows.drain(..) {
            row.clear();
            pool.rows.push(row);
        }
        pool.row_sets.push(rows);
    }

    fn recycle_ids(&self, mut ids: Vec<u64>) {
        ids.clear();
        lock_tolerant(&self.pool).id_sets.push(ids);
    }

    fn recycle_times(&self, mut times: Vec<Instant>) {
        times.clear();
        lock_tolerant(&self.pool).time_sets.push(times);
    }

    fn recycle_container(&self, mut container: Vec<Response>) {
        // Consumed slots hold capacity-less default shells; dropping them
        // touches no heap.
        container.clear();
        lock_tolerant(&self.pool).containers.push(container);
    }

    fn recycle_shell(&self, mut resp: Response) {
        resp.outputs.clear();
        lock_tolerant(&self.pool).shells.push(resp);
    }

    // ---- evaluation -------------------------------------------------------

    /// Evaluates one group on `lanes` into a pooled container: the shared
    /// hot path of worker threads and the inline mode. `primary` marks the
    /// planned backend (fault hooks fire, the planned eval histogram
    /// records); the scalar-failover retry passes `false` so a
    /// retried group cannot re-trip the fault that failed it and telemetry
    /// attributes the eval to the backend that actually ran it.
    fn eval_group_with(
        &self,
        lanes: Lanes,
        group: &RowGroup,
        arena: &mut PlaneArena,
        refs: &mut RefsBuf,
        stages: &StageHistograms,
        primary: bool,
    ) -> Result<Vec<Response>> {
        if primary {
            if let Some(faults) = &self.faults {
                faults.before_eval()?;
            }
        }
        let mut responses = self.pool_container(group.rows.len());
        let rows = refs.fill(&group.rows);
        let t0 = Instant::now();
        lanes.eval_group(self.circuit, rows, arena, &mut responses)?;
        let busy_ns = t0.elapsed().as_nanos() as u64;
        stages.eval.record(busy_ns);
        if primary {
            if let Some(h) = self.eval_hist.get() {
                h.record(busy_ns);
            }
        } else {
            self.runtime
                .telemetry_ref()
                .backend_eval(lanes.name())
                .record(busy_ns);
        }
        // Keep the deadline check's eval estimate warm (EWMA, α = 1/8):
        // two relaxed atomics per group, noise against the eval itself.
        let prev = self.eval_ns_estimate.load(Ordering::Relaxed);
        let next = if prev == 0 {
            busy_ns
        } else {
            prev - prev / 8 + busy_ns / 8
        };
        self.eval_ns_estimate.store(next, Ordering::Relaxed);
        // A wrong response count would corrupt request→response order during
        // delivery; `Lanes::eval_group` answers every row by construction.
        debug_assert_eq!(responses.len(), rows.len(), "one response per row");
        // Padding only exists for fixed-lane-width (bit-sliced) passes; for
        // `scalar` the lane group is just a scheduling hint.
        let group_width = if lanes.bit_sliced() {
            lanes.group()
        } else {
            rows.len()
        };
        let requests = rows.len() as u64;
        // One pass over the fresh responses feeds both the per-request
        // firing histogram and the tally's firing sum. Recording at eval
        // time (rather than consume time) keeps it off the serial consumer
        // and aligned with the tally's request accounting.
        let mut firing_sum = 0u64;
        stages.firings.record_iter(responses.iter().map(|r| {
            let f = r.firing_count as u64;
            firing_sum += f;
            f
        }));
        self.runtime.telemetry_ref().record_group(
            lanes.name(),
            requests,
            group_width as u64,
            self.class_counts.map(|c| c as u64 * requests),
            firing_sum,
            busy_ns,
        );
        Ok(responses)
    }

    /// Evaluates a group on the planned backend with one bounded retry on
    /// the always-safe scalar backend when the primary *errors or panics* —
    /// graceful degradation instead of a session abort. The failed backend
    /// is quarantined in the runtime ([`Runtime::note_backend_failure`]):
    /// new sessions skip it for an exponential-backoff number of picks, then
    /// re-probe. The nested result keeps the worker loop's three-way match:
    /// outer `Err` is a panic (of the *retry* — a primary panic that the
    /// scalar retry absorbs never escapes), inner `Err` a typed failure.
    fn eval_group_failover(
        &self,
        group: &RowGroup,
        arena: &mut PlaneArena,
        refs: &mut RefsBuf,
        stages: &StageHistograms,
        seq: u64,
    ) -> std::thread::Result<Result<Vec<Response>>> {
        // lint:allow(no_panic): `plan` is a OnceLock set in ensure_plan
        // before any group can be built, so it is present here by
        // construction.
        let plan = self.plan.get().expect("groups exist only after planning");
        let primary = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.eval_group_with(plan.lanes, group, arena, refs, stages, true)
        }));
        if matches!(&primary, Ok(Ok(_))) {
            self.runtime.note_backend_ok(plan.lanes);
            return primary;
        }
        let strikes = self.runtime.note_backend_failure(plan.lanes);
        self.trace(
            group.tenant,
            seq,
            TraceEventKind::Quarantined,
            strikes as u64,
        );
        // Retry once on the scalar fallback — unless scalar IS the planned
        // backend (nothing safer to fall back to).
        if plan.lanes == Lanes::Scalar {
            return primary;
        }
        if primary.is_err() {
            // The panic may have interrupted the arena mid-write; hand the
            // retry a fresh one (cold path — failures only).
            *arena = PlaneArena::new();
        }
        let n = group.ids.len() as u64;
        self.runtime.telemetry_ref().record_retries(n);
        self.trace(group.tenant, seq, TraceEventKind::Retried, n);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.eval_group_with(Lanes::Scalar, group, arena, refs, stages, false)
        }))
    }

    /// Whether a group with this deadline can no longer finish in time:
    /// the remaining budget is below the session's EWMA of measured group
    /// evals. Deadline-free groups cost one `Option` check — no clock.
    fn past_deadline(&self, deadline: Option<Instant>) -> bool {
        let Some(deadline) = deadline else {
            return false;
        };
        let now = Instant::now();
        now >= deadline || ns_between(now, deadline) < self.eval_ns_estimate.load(Ordering::Relaxed)
    }

    /// The deadline of a group whose rows were stamped `times`, anchored at
    /// the first (oldest) row so the bound is conservative for every row.
    fn group_deadline(&self, times: &[Instant]) -> Option<Instant> {
        let budget = self.opts.deadline?;
        times.first().map(|t| *t + budget)
    }

    /// Answers every row of an unevaluated group with a typed error through
    /// the normal delivery window: rows recycled, ids and submit stamps
    /// carried through, the consumer hands out one [`PooledResponse`] per
    /// id with [`PooledResponse::outcome`] reporting `err`. This is how
    /// accepted-implies-answered survives shedding — a shed row is refused
    /// *with an answer*, never silently dropped. Returns `deliver`'s
    /// verdict (`false` = the engine aborted while waiting).
    fn deliver_error(
        &self,
        slot: usize,
        seq: u64,
        group: RowGroup,
        err: RuntimeError,
        queued: bool,
    ) -> bool {
        let stages = self.stages_for_slot(slot);
        let n = group.ids.len() as u64;
        match &err {
            RuntimeError::DeadlineExceeded => {
                self.runtime.telemetry_ref().record_deadline_misses(n);
                self.trace(group.tenant, seq, TraceEventKind::DeadlineMiss, n);
            }
            RuntimeError::Shed => {
                self.runtime.telemetry_ref().record_sheds(n);
                self.trace(group.tenant, seq, TraceEventKind::Shed, n);
            }
            _ => {}
        }
        let RowGroup {
            tenant,
            rows,
            ids,
            times,
            ..
        } = group;
        self.recycle_rows(rows);
        let done = DoneGroup {
            tenant,
            ids,
            times,
            responses: self.pool_container(0),
            done_at: Instant::now(),
            stages,
            error: Some(err),
        };
        self.engine.deliver(slot, seq, done, queued)
    }

    /// The worker-thread loop: drain groups until the engine reports
    /// exhaustion or an abort. A failing evaluation — typed error or
    /// panic — retries once on the scalar fallback
    /// ([`SessionShared::eval_group_failover`]); only when the *retry*
    /// fails too does the worker abort the engine, which *drops* all
    /// queued groups — nothing behind the failure is evaluated, in any
    /// tenant. A panicking retry is caught and surfaced as
    /// [`RuntimeError::SessionPanicked`], so one crashed worker cannot
    /// wedge the session or take the consumer down with it. Groups whose
    /// deadline can no longer be met are shed here — answered, not
    /// evaluated.
    fn worker_loop(&self) {
        let mut arena = PlaneArena::new();
        let mut refs = RefsBuf::default();
        while let Some((slot, seq, group, wait_ns)) = self.engine.pop() {
            let stages = self.stages_for_slot(slot);
            stages.queue_wait.record(wait_ns);
            self.trace(group.tenant, seq, TraceEventKind::Popped, wait_ns);
            if self.past_deadline(group.deadline) {
                if !self.deliver_error(slot, seq, group, RuntimeError::DeadlineExceeded, true) {
                    return;
                }
                continue;
            }
            let outcome = self.eval_group_failover(&group, &mut arena, &mut refs, &stages, seq);
            if !matches!(
                self.complete_group(slot, seq, group, stages, outcome, true),
                Ok(true)
            ) {
                return;
            }
        }
    }

    /// Finishes one evaluated group for both dispatch paths. On success the
    /// group's rows are recycled and its responses delivered; `Ok(false)`
    /// means the engine aborted while waiting and refused the delivery. A
    /// typed failure or a panic that survived the scalar failover aborts
    /// the session and is returned. `queued` is `deliver`'s flag: popped by
    /// a worker (`true`) or evaluated inline by the submitter (`false`).
    fn complete_group(
        &self,
        slot: usize,
        seq: u64,
        group: RowGroup,
        stages: Arc<StageHistograms>,
        outcome: std::thread::Result<Result<Vec<Response>>>,
        queued: bool,
    ) -> Result<bool> {
        let err = match outcome {
            Ok(Ok(responses)) => {
                let n = responses.len() as u64;
                self.trace(group.tenant, seq, TraceEventKind::Evaluated, n);
                let RowGroup {
                    tenant,
                    rows,
                    ids,
                    times,
                    ..
                } = group;
                self.recycle_rows(rows);
                let done = DoneGroup {
                    tenant,
                    ids,
                    times,
                    responses,
                    done_at: Instant::now(),
                    stages,
                    error: None,
                };
                if !self.engine.deliver(slot, seq, done, queued) {
                    return Ok(false);
                }
                self.trace(tenant, seq, TraceEventKind::Delivered, n);
                return Ok(true);
            }
            Ok(Err(e)) => {
                self.recycle_rows(group.rows);
                self.recycle_ids(group.ids);
                self.recycle_times(group.times);
                e
            }
            // The group's buffers may be in any state; let them drop rather
            // than recycling half-written storage.
            Err(_panic) => RuntimeError::SessionPanicked { context: "worker" },
        };
        self.abort_session(err.clone());
        Err(err)
    }

    /// Inline-mode dispatch: evaluate on the submitting thread and deliver.
    /// Shares the worker loop's deadline shedding and scalar failover; a
    /// panicking retry surfaces as a typed
    /// [`RuntimeError::SessionPanicked`] to the submitter instead of
    /// unwinding through it.
    fn dispatch_inline(&self, slot: usize, group: RowGroup) -> Result<()> {
        let seq = self.engine.alloc_seq(slot);
        // The inline path has no queue: record its zero wait, so every
        // dispatched group counts in `queue_wait` on both paths.
        let stages = self.stages_for_slot(slot);
        stages.queue_wait.record(0);
        if self.past_deadline(group.deadline) {
            self.deliver_error(slot, seq, group, RuntimeError::DeadlineExceeded, false);
            return Ok(());
        }
        let mut scratch = lock_tolerant(&self.inline_scratch);
        let InlineScratch { arena, refs } = &mut *scratch;
        let outcome = self.eval_group_failover(&group, arena, refs, &stages, seq);
        drop(scratch);
        self.complete_group(slot, seq, group, stages, outcome, false)
            .map(drop)
    }

    // ---- consumption ------------------------------------------------------

    /// Queues a delivery for the consumer. Ordered sessions keep `pending`
    /// sorted by first request id so two consumers racing between the
    /// engine take and this push cannot invert group order (per-tenant ids
    /// are monotone, so the sort preserves every tenant's internal order).
    fn queue_pending(&self, consume: &mut ConsumeState, d: DoneGroup) {
        if self.opts.ordered {
            let key = d.ids.first().copied().unwrap_or(u64::MAX);
            let pos = consume
                .pending
                .iter()
                .position(|p| p.ids.first().copied().unwrap_or(u64::MAX) > key)
                .unwrap_or(consume.pending.len());
            consume.pending.insert(pos, d);
        } else {
            consume.pending.push_back(d);
        }
    }

    /// Pops one response from the cursor (installing the next pending group
    /// if needed); `None` when neither holds anything.
    fn pop_locked(&self, consume: &mut ConsumeState) -> Option<PooledResponse<'_>> {
        if consume.current.is_none() {
            let d = consume.pending.pop_front()?;
            // One clock read covers the whole group: delivery-wait is
            // recorded once per group, and every response in the group
            // shares this instant as its end-to-end finish (responses of a
            // group become consumable together, so the shared timestamp is
            // exact for the first response and at most the drain time of
            // the group stale for the last).
            let now = Instant::now();
            d.stages.delivery_wait.record(ns_between(d.done_at, now));
            // Batch-record the group's rows: pack stamps repeat in strided
            // runs (`TIME_SAMPLE_STRIDE`), so each run of equal stamps
            // costs one latency computation and one bucketed
            // `Histogram::record_n` — a handful of atomics per group
            // instead of 3 per row.
            let times = &d.times;
            let mut i = 0;
            while i < times.len() {
                let t = times[i];
                let mut j = i + 1;
                while j < times.len() && times[j] == t {
                    j += 1;
                }
                d.stages
                    .end_to_end
                    .record_n(ns_between(t, now), (j - i) as u64);
                i = j;
            }
            self.trace(d.tenant, 0, TraceEventKind::Consumed, d.ids.len() as u64);
            let DoneGroup {
                tenant,
                ids,
                times,
                responses,
                error,
                ..
            } = d;
            self.recycle_times(times);
            consume.current = Some(DrainCursor {
                tenant,
                ids,
                responses,
                error,
                pos: 0,
            });
        }
        // lint:allow(no_panic): the branch above installed `current` under
        // this same lock guard, so it cannot have been taken since.
        let cursor = consume.current.as_mut().expect("installed above");
        // Error groups (deadline miss, shed) carry ids but no responses:
        // every id answers with the group's error instead of a payload.
        let resp = if cursor.error.is_none() {
            Some(std::mem::take(&mut cursor.responses[cursor.pos]))
        } else {
            None
        };
        let error = cursor.error.clone();
        let id = cursor.ids[cursor.pos];
        let tenant = cursor.tenant;
        cursor.pos += 1;
        if cursor.pos == cursor.ids.len() {
            // lint:allow(no_panic): `current` was read two statements up
            // under the same guard; nothing in between can clear it.
            let done = consume.current.take().expect("still installed");
            self.recycle_container(done.responses);
            self.recycle_ids(done.ids);
        }
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Some(PooledResponse {
            shared: self,
            resp,
            error,
            id,
            tenant,
        })
    }

    /// Pops the next response, blocking if asked. `Ok(None)` means the
    /// session finished and every response has been consumed (or nothing is
    /// ready, for non-blocking calls).
    fn next_from_cursor(&self, block: bool) -> Result<Option<PooledResponse<'_>>> {
        loop {
            {
                // The consume lock is only ever held briefly: a blocking
                // consumer parks in `engine.take` *without* it, so
                // submitters probing for ready responses (and
                // `install_and_pop`) never deadlock against a consumer
                // waiting out an idle stream. A poisoned lock (a panicking
                // sibling consumer) surfaces as a typed error instead of a
                // second panic.
                let mut consume = if block {
                    lock_checked(&self.consume, "consumer lock")?
                } else {
                    match self.consume.try_lock() {
                        Ok(guard) => guard,
                        Err(std::sync::TryLockError::WouldBlock) => return Ok(None),
                        Err(std::sync::TryLockError::Poisoned(_)) => {
                            return Err(RuntimeError::SessionPanicked {
                                context: "consumer lock",
                            })
                        }
                    }
                };
                if let Some(resp) = self.pop_locked(&mut consume) {
                    return Ok(Some(resp));
                }
            }
            match self.engine.take(block)? {
                Take::Item(d) => {
                    let mut consume = lock_checked(&self.consume, "consumer lock")?;
                    self.queue_pending(&mut consume, d);
                }
                Take::Done => {
                    // Between our cursor check and the engine reporting
                    // drained, a concurrent taker (`install_and_pop`, or
                    // another consumer) may have moved the final deliveries
                    // into `consume.pending` — re-check before declaring
                    // the stream fully consumed.
                    let mut consume = lock_checked(&self.consume, "consumer lock")?;
                    return Ok(self.pop_locked(&mut consume));
                }
                Take::WouldBlock => return Ok(None),
            }
        }
    }

    /// Queues an already-taken delivery behind whatever the consumer is
    /// draining and pops the next response in line (the `push_or_take`
    /// fast path — ordering is preserved because the engine handed groups
    /// out in delivery order).
    fn install_and_pop(&self, d: DoneGroup) -> Result<PooledResponse<'_>> {
        let mut consume = lock_checked(&self.consume, "consumer lock")?;
        self.queue_pending(&mut consume, d);
        let popped = self.pop_locked(&mut consume);
        // lint:allow(no_panic): queue_pending pushed `d` under this held
        // guard, so pop_locked must find at least that group.
        Ok(popped.expect("a pending group was just queued"))
    }
}

/// A live streaming session against one compiled circuit.
///
/// Created by [`crate::Runtime::open_session`]; shared by reference across
/// threads (`&StreamSession` is `Send`), so producers can
/// [`submit`](StreamSession::submit) while consumers iterate
/// [`responses`](StreamSession::responses) concurrently. Single-threaded
/// drivers should use [`StreamSession::submit_draining`] (or
/// [`StreamSession::submit_or_next`]) so backpressure yields ready
/// responses instead of deadlocking against themselves.
pub struct StreamSession<'scope, 'env> {
    pub(crate) shared: &'scope SessionShared<'scope>,
    pub(crate) scope: &'scope std::thread::Scope<'scope, 'env>,
}

/// Outcome of [`StreamSession::submit_or_next`].
pub enum SubmitOrNext<'s> {
    /// The row was accepted under this request id.
    Submitted(u64),
    /// Backpressure (or an already-completed group) surfaced a response
    /// first; the row was **not** submitted — call again.
    Next(PooledResponse<'s>),
}

impl<'scope, 'env> StreamSession<'scope, 'env> {
    /// Submits one request row for the session's default tenant, blocking
    /// under queue backpressure, and returns its request id (0-based
    /// submission index). Rows are copied into pooled buffers, so the
    /// caller's slice is free immediately.
    ///
    /// Errors if a worker failed (the submit side is unblocked and every
    /// queued group behind the failure is dropped), if the pinned backend
    /// name is unknown, or with [`RuntimeError::SessionFinished`] after
    /// [`StreamSession::finish`].
    ///
    /// Do not drive an entire stream with blocking submits from the one
    /// thread that also consumes: when the queue and the delivery window
    /// are both full, `submit` waits for a consumer that would never run.
    /// Use [`StreamSession::submit_draining`] there instead.
    pub fn submit(&self, row: &[bool]) -> Result<u64> {
        self.submit_for(self.shared.opts.tenant, row)
    }

    /// Like [`StreamSession::submit`], for an explicit tenant (registered
    /// on first sight with weight 1 — call
    /// [`StreamSession::register_tenant`] first for a different weight).
    /// Each tenant owns a bounded queue drained by deficit-weighted
    /// round-robin, so one tenant's burst backpressures only that tenant.
    pub fn submit_for(&self, tenant: TenantId, row: &[bool]) -> Result<u64> {
        let mut pack = lock_checked(&self.shared.pack, "submit lock")?;
        if pack.finished {
            return Err(RuntimeError::SessionFinished);
        }
        if let Some(e) = self.shared.engine.error() {
            return Err(e);
        }
        let plan = self.shared.ensure_plan()?;
        let weight = if tenant == self.shared.opts.tenant {
            self.shared.opts.weight
        } else {
            1
        };
        let lane = self.shared.lane_index(&mut pack, tenant, weight, &plan);
        pack = self.dispatch_lane_full(pack, lane, plan)?;
        Ok(self.pack_row_locked(&mut pack, lane, row))
    }

    /// One serialised dispatch round for `lane` — THE locking protocol
    /// every dispatch path (submit, flush, finish) shares. Waits out a
    /// competing dispatch of the same lane ([`TenantLane::dispatching`] —
    /// same-tenant groups must enqueue in sequence order, or inversions
    /// deeper than the delivery window would wedge every worker in an
    /// inadmissible `deliver`), extracts the lane's current group, and
    /// pushes it with the packing lock **released**, so THIS tenant's
    /// backpressure cannot convoy other tenants' submitters (head-of-line
    /// starvation reborn one lock up). Every lane access — packing
    /// included — waits the flag out first, so an unlocked dispatch window
    /// never races lane state (in particular, `push_or_take`'s handed-back
    /// group can be restored without clobbering concurrently packed rows).
    ///
    /// `full_only` marks the submit path: the extraction is skipped while
    /// the lane is below the lane-group bound, and the session finishing
    /// during any unlocked window fails with
    /// [`RuntimeError::SessionFinished`] — the caller is about to pack a
    /// new row that `finish`'s final dispatch can no longer see.
    /// Waits until no dispatch of `lane` is in flight — the shared wake-up
    /// loop of every lane access. `submit_path` callers are about to pack
    /// or dispatch a *new* row, so the session finishing during the wait
    /// fails with [`RuntimeError::SessionFinished`]; flush/finish callers
    /// tolerate it (finish sets the flag itself before dispatching).
    fn wait_lane_idle<'m>(
        &'m self,
        mut pack: OrderedMutexGuard<'m, PackState>,
        lane: usize,
        submit_path: bool,
    ) -> Result<OrderedMutexGuard<'m, PackState>> {
        while pack.lanes[lane].dispatching {
            pack = pack
                .wait(&self.shared.pack_cv)
                .map_err(|_| RuntimeError::SessionPanicked {
                    context: "submit lock",
                })?;
            if submit_path && pack.finished {
                return Err(RuntimeError::SessionFinished);
            }
            if let Some(e) = self.shared.engine.error() {
                return Err(e);
            }
        }
        Ok(pack)
    }

    fn dispatch_lane_once<'m>(
        &'m self,
        mut pack: OrderedMutexGuard<'m, PackState>,
        lane: usize,
        plan: Plan,
        full_only: bool,
    ) -> Result<OrderedMutexGuard<'m, PackState>> {
        pack = self.wait_lane_idle(pack, lane, full_only)?;
        if full_only && pack.lanes[lane].current_rows.len() < plan.lane_group {
            return Ok(pack);
        }
        if let Some((slot, seq, group)) = self.extract_locked(&mut pack, lane, plan)? {
            pack.lanes[lane].dispatching = true;
            drop(pack);
            let pushed = self.push_extracted(slot, seq, group, plan);
            pack = lock_checked(&self.shared.pack, "submit lock")?;
            pack.lanes[lane].dispatching = false;
            self.shared.pack_cv.notify_all();
            pushed?;
            if full_only && pack.finished {
                return Err(RuntimeError::SessionFinished);
            }
        }
        Ok(pack)
    }

    /// Ensures `lane` is safe to pack into: waits out any in-flight
    /// dispatch of the lane, then dispatch rounds until its current group
    /// is below the lane-group bound. Returns with the lock re-acquired,
    /// the lane idle, and the session still accepting submissions.
    fn dispatch_lane_full<'m>(
        &'m self,
        mut pack: OrderedMutexGuard<'m, PackState>,
        lane: usize,
        plan: Plan,
    ) -> Result<OrderedMutexGuard<'m, PackState>> {
        loop {
            // The once-helper waits the lane idle first (and early-returns
            // below the bound), so this loop only re-checks after a
            // dispatch round released and re-acquired the lock.
            pack = self.dispatch_lane_once(pack, lane, plan, true)?;
            if pack.lanes[lane].current_rows.len() < plan.lane_group {
                return Ok(pack);
            }
        }
    }

    /// Registers `tenant` with a scheduling `weight` (clamped to ≥ 1)
    /// before its first submission. The first registration fixes the
    /// weight; re-registering is a no-op returning the existing tenant.
    /// Weights are relative: while two tenants stay backlogged, the
    /// scheduler serves their groups in proportion to their weights
    /// (deficit round-robin over each group's plane-op charge).
    pub fn register_tenant(&self, tenant: TenantId, weight: u32) -> Result<()> {
        let mut pack = lock_checked(&self.shared.pack, "submit lock")?;
        if pack.finished {
            return Err(RuntimeError::SessionFinished);
        }
        let plan = self.shared.ensure_plan()?;
        self.shared
            .lane_index(&mut pack, tenant, weight.max(1), &plan);
        Ok(())
    }

    /// Like [`StreamSession::submit`], but backpressure hands back a ready
    /// response instead of blocking — the single-thread driver primitive.
    /// With in-order delivery (the default) responses surface in submission
    /// order. Serves the session's default tenant.
    pub fn submit_or_next(&self, row: &[bool]) -> Result<SubmitOrNext<'_>> {
        // Drain anything already deliverable first: it keeps the window
        // empty, so inline evaluation below can always deliver.
        if let Some(resp) = self.try_next_response()? {
            return Ok(SubmitOrNext::Next(resp));
        }
        let mut pack = lock_checked(&self.shared.pack, "submit lock")?;
        if pack.finished {
            return Err(RuntimeError::SessionFinished);
        }
        let plan = self.shared.ensure_plan()?;
        let lane = self.shared.lane_index(
            &mut pack,
            self.shared.opts.tenant,
            self.shared.opts.weight,
            &plan,
        );
        // Wait out a concurrent thread mid-dispatch of this lane (exotic
        // for a single-thread driver, but mixing submit threads with a
        // submit_or_next driver must not reorder the tenant's groups).
        pack = self.wait_lane_idle(pack, lane, true)?;
        if pack.lanes[lane].current_rows.len() >= plan.lane_group {
            if plan.target_workers <= 1 {
                // Inline plans evaluate during extraction; nothing to push.
                self.extract_locked(&mut pack, lane, plan)?;
            } else {
                self.spawn_workers_locked(&mut pack, plan);
                let lane_state = &mut pack.lanes[lane];
                let slot = lane_state.slot;
                let deadline = self.shared.group_deadline(&lane_state.current_times);
                let group = RowGroup {
                    tenant: lane_state.id,
                    rows: std::mem::take(&mut lane_state.current_rows),
                    ids: std::mem::take(&mut lane_state.current_ids),
                    times: std::mem::take(&mut lane_state.current_times),
                    deadline,
                };
                // Recorded only if the push sticks: a `Took` hand-back
                // restores the group, and its pack stage ends later.
                let pack_ns = ns_between(lane_state.packed_at, Instant::now());
                lane_state.groups += 1;
                // Same claim-then-push protocol as dispatch_lane_once: a
                // driver parked in push_or_take (own queue full, nothing
                // deliverable) must hold the lane flag, not the packing
                // lock — other tenants' submitters stay unconvoyed.
                lane_state.dispatching = true;
                drop(pack);
                let outcome = self.shared.engine.push_or_take(slot, group, plan.charge);
                pack = lock_checked(&self.shared.pack, "submit lock")?;
                pack.lanes[lane].dispatching = false;
                self.shared.pack_cv.notify_all();
                match outcome? {
                    PushOrTake::Pushed => {
                        let lane_state = &mut pack.lanes[lane];
                        lane_state.stages.pack.record(pack_ns);
                        self.shared
                            .trace(lane_state.id, 0, TraceEventKind::Enqueued, 0);
                        lane_state.current_rows = self.shared.pool_row_set(plan.lane_group);
                        lane_state.current_ids = self.shared.pool_id_set(plan.lane_group);
                        lane_state.current_times = self.shared.pool_time_set(plan.lane_group);
                        if pack.finished {
                            // finish() raced the unlocked window; it can no
                            // longer see the row we are about to pack.
                            return Err(RuntimeError::SessionFinished);
                        }
                    }
                    PushOrTake::Took(d, group) => {
                        let lane_state = &mut pack.lanes[lane];
                        lane_state.current_rows = group.rows;
                        lane_state.current_ids = group.ids;
                        lane_state.current_times = group.times;
                        lane_state.groups -= 1;
                        drop(pack);
                        return Ok(SubmitOrNext::Next(self.shared.install_and_pop(d)?));
                    }
                }
            }
        }
        Ok(SubmitOrNext::Submitted(
            self.pack_row_locked(&mut pack, lane, row),
        ))
    }

    /// Submits `row`, pushing any responses that surface under backpressure
    /// onto `out` (detached from the pool). The convenience loop the
    /// materialising `serve_*` wrappers are built on; like them, it has no
    /// way to hand back a per-row error, so a drained row that was shed or
    /// missed its deadline fails the call with that row's error.
    pub fn submit_draining(&self, row: &[bool], out: &mut Vec<Response>) -> Result<u64> {
        loop {
            match self.submit_or_next(row)? {
                SubmitOrNext::Submitted(id) => return Ok(id),
                SubmitOrNext::Next(resp) => match resp.error() {
                    None => out.push(resp.into_response()),
                    Some(err) => return Err(err.clone()),
                },
            }
        }
    }

    /// Dispatches every tenant's partially-filled current group immediately
    /// instead of waiting for it to fill (a latency valve for bursty
    /// streams). Each push happens with the packing lock released, so a
    /// backpressured tenant cannot convoy the others. A flush may still
    /// block under that tenant's own backpressure — single-thread drivers
    /// at a full queue *and* full delivery window should drain responses
    /// first ([`StreamSession::try_next_response`]).
    pub fn flush(&self) -> Result<()> {
        let mut pack = lock_checked(&self.shared.pack, "submit lock")?;
        if let Some(plan) = self.shared.plan.get().copied() {
            // Re-read the lane count every round: each dispatch releases
            // the packing lock, and a tenant registered in that window
            // must still be flushed (lanes only ever append).
            let mut lane = 0;
            while lane < pack.lanes.len() {
                pack = self.dispatch_lane_once(pack, lane, plan, false)?;
                lane += 1;
            }
        }
        Ok(())
    }

    /// Closes the submit side: every tenant's current partial group is
    /// dispatched, workers drain what is queued, and once every response is
    /// consumed [`StreamSession::next_response`] reports `None`. Idempotent.
    pub fn finish(&self) {
        let mut pack = lock_tolerant(&self.shared.pack);
        if pack.finished {
            return;
        }
        // Refuse new submissions FIRST: every dispatch round below
        // releases the packing lock, and a row accepted into an
        // already-flushed lane during that window would never be
        // dispatched or answered. With the flag set, racing submitters
        // fail with `SessionFinished` at their next lock acquisition, so
        // accepted-implies-delivered holds. (The lane count is fixed too:
        // `register_tenant` refuses once finished.)
        pack.finished = true;
        if let Some(plan) = self.shared.plan.get().copied() {
            for lane in 0..pack.lanes.len() {
                if let Ok(p) = self.dispatch_lane_once(pack, lane, plan, false) {
                    pack = p;
                } else {
                    // The engine aborted (or a lock was poisoned):
                    // queued work is dropped anyway, and the consumer
                    // observes the recorded error — stop dispatching
                    // the remaining partial groups.
                    pack = lock_tolerant(&self.shared.pack);
                    break;
                }
            }
        }
        drop(pack);
        self.shared.engine.finish();
    }

    /// The next completed response, blocking until one is ready. `None`
    /// means the session [`finish`](StreamSession::finish)ed and everything
    /// was consumed. Errors surface the first worker failure.
    ///
    /// Dropping the returned [`PooledResponse`] recycles its payload
    /// buffers to the workers — keep the steady state allocation-free by
    /// reading what you need and letting the guard drop.
    pub fn next_response(&self) -> Result<Option<PooledResponse<'_>>> {
        self.shared.next_from_cursor(true)
    }

    /// Non-blocking [`StreamSession::next_response`]: `None` when nothing
    /// is deliverable right now.
    pub fn try_next_response(&self) -> Result<Option<PooledResponse<'_>>> {
        self.shared.next_from_cursor(false)
    }

    /// Iterates responses until the stream completes, blocking between
    /// items (pair with a producer thread that eventually calls
    /// [`StreamSession::finish`]).
    pub fn responses<'s>(
        &'s self,
    ) -> impl Iterator<Item = Result<PooledResponse<'s>>> + use<'s, 'scope, 'env> {
        std::iter::from_fn(move || self.next_response().transpose())
    }

    // lint:hot-path-begin — one call per submitted row; the steady-state
    // zero-allocs budget (tests/alloc_steady_state.rs) covers this body.
    fn pack_row_locked(&self, pack: &mut PackState, lane: usize, row: &[bool]) -> u64 {
        let mut buf = self.shared.pool_row();
        buf.extend_from_slice(row);
        let id = pack.next_request;
        pack.next_request += 1;
        let lane_state = &mut pack.lanes[lane];
        // Strided clock sampling: a fresh reading on the group's first row
        // and every `TIME_SAMPLE_STRIDE`-th row after it; rows in between
        // reuse the latest sample as their submit stamp. The stamp is never
        // NEWER than the true pack time, so per-request end_to_end is
        // biased upward by at most the gap to the previous sample — a few
        // pack iterations, far inside the histogram's own error band —
        // while the hot path pays a fraction of a clock read per request.
        if lane_state
            .current_rows
            .len()
            .is_multiple_of(TIME_SAMPLE_STRIDE)
        {
            // lint:allow(hot_path): the stride above is the point — one
            // clock read amortized over TIME_SAMPLE_STRIDE rows.
            lane_state.stamp = Instant::now();
        }
        let now = lane_state.stamp;
        if lane_state.current_rows.is_empty() {
            lane_state.packed_at = now;
        }
        lane_state.current_rows.push(buf);
        lane_state.current_ids.push(id);
        lane_state.current_times.push(now);
        lane_state.requests += 1;
        let in_flight = (id + 1).saturating_sub(self.shared.delivered.load(Ordering::Relaxed));
        self.shared
            .peak_in_flight
            .fetch_max(in_flight, Ordering::Relaxed);
        id
    }
    // lint:hot-path-end

    /// Extracts lane's current group under the packing lock, claiming its
    /// per-tenant sequence so per-tenant delivery order is fixed *here*
    /// even though the caller pushes after releasing the lock. Inline
    /// (single-worker) plans evaluate the group immediately instead and
    /// return `None`, as does an empty lane.
    fn extract_locked(
        &self,
        pack: &mut PackState,
        lane: usize,
        plan: Plan,
    ) -> Result<Option<(usize, u64, RowGroup)>> {
        if pack.lanes[lane].current_rows.is_empty() {
            return Ok(None);
        }
        let lane_state = &mut pack.lanes[lane];
        let slot = lane_state.slot;
        let deadline = self.shared.group_deadline(&lane_state.current_times);
        let group = RowGroup {
            tenant: lane_state.id,
            rows: std::mem::replace(
                &mut lane_state.current_rows,
                self.shared.pool_row_set(plan.lane_group),
            ),
            ids: std::mem::replace(
                &mut lane_state.current_ids,
                self.shared.pool_id_set(plan.lane_group),
            ),
            times: std::mem::replace(
                &mut lane_state.current_times,
                self.shared.pool_time_set(plan.lane_group),
            ),
            deadline,
        };
        lane_state
            .stages
            .pack
            .record(ns_between(lane_state.packed_at, Instant::now()));
        lane_state.groups += 1;
        if plan.target_workers <= 1 {
            self.shared.dispatch_inline(slot, group)?;
            return Ok(None);
        }
        self.spawn_workers_locked(pack, plan);
        let seq = self.shared.engine.begin_dispatch(slot);
        self.shared.trace(
            group.tenant,
            seq,
            TraceEventKind::Enqueued,
            group.rows.len() as u64,
        );
        Ok(Some((slot, seq, group)))
    }

    /// Pushes an extracted group onto its tenant's queue, blocking under
    /// that tenant's backpressure (`Block`) or answering a shed group with
    /// [`RuntimeError::Shed`] (the shedding policies — admission never
    /// silently drops). Every caller
    /// ([`StreamSession::dispatch_lane_once`]) releases the packing lock
    /// first and holds the lane's `dispatching` flag instead, so the block
    /// is invisible to other tenants and same-tenant sequence order is
    /// preserved.
    fn push_extracted(&self, slot: usize, seq: u64, group: RowGroup, plan: Plan) -> Result<()> {
        let force_full = self
            .shared
            .faults
            .as_ref()
            .is_some_and(|f| f.force_queue_full());
        match self
            .shared
            .engine
            .push(slot, seq, group, plan.charge, force_full)
        {
            PushOutcome::Pushed => Ok(()),
            // Refused = the engine aborted mid-push. An abort without a
            // recorded error is session shutdown (the consumer walked
            // away), which submitters observe as a finished session —
            // a typed error either way, never a panic.
            PushOutcome::Refused => Err(self
                .shared
                .engine
                .error()
                .unwrap_or(RuntimeError::SessionFinished)),
            PushOutcome::ShedNew(group) => {
                self.shared
                    .deliver_error(slot, seq, group, RuntimeError::Shed, true);
                Ok(())
            }
            PushOutcome::ShedOld {
                seq: old_seq,
                group,
            } => {
                self.shared
                    .deliver_error(slot, old_seq, group, RuntimeError::Shed, true);
                Ok(())
            }
        }
    }

    /// Grows the worker pool towards the plan's target, one thread per
    /// dispatched group, so a two-group session never pays for a
    /// sixteen-thread spawn.
    fn spawn_workers_locked(&self, pack: &mut PackState, plan: Plan) {
        if pack.spawned < plan.target_workers {
            pack.spawned += 1;
            let shared = self.shared;
            self.scope.spawn(move || shared.worker_loop());
        }
    }
}

/// A response borrowed from the session's response pool: dereferences to
/// [`Response`], and recycles the payload buffers back to the scheduler
/// workers on drop. [`PooledResponse::into_response`] detaches it instead
/// (keeping the buffers, at the cost of one pool miss later).
///
/// With deadlines or a shedding [`AdmissionPolicy`] enabled, a row may be
/// answered with a typed error instead of a payload — check
/// [`PooledResponse::outcome`] (or [`PooledResponse::error`]) before
/// dereferencing; [`Deref`](std::ops::Deref) and
/// [`PooledResponse::into_response`] panic on error rows.
pub struct PooledResponse<'s> {
    shared: &'s SessionShared<'s>,
    resp: Option<Response>,
    /// `Some` when the row was answered with a typed error (deadline miss,
    /// admission shed) instead of being evaluated; `resp` is `None` then.
    error: Option<RuntimeError>,
    id: u64,
    tenant: TenantId,
}

impl PooledResponse<'_> {
    /// The 0-based submission index of the request this response answers
    /// (how out-of-order consumers correlate; in-order single-tenant
    /// sessions see consecutive ids).
    pub fn request_id(&self) -> u64 {
        self.id
    }

    /// The tenant whose submission this response answers.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The row's outcome: the evaluated [`Response`], or the typed error
    /// it was answered with instead ([`RuntimeError::DeadlineExceeded`],
    /// [`RuntimeError::Shed`]). Every accepted row gets exactly one of the
    /// two — shed rows are answered, never dropped.
    pub fn outcome(&self) -> std::result::Result<&Response, &RuntimeError> {
        match &self.error {
            // lint:allow(no_panic): construction guarantees error.is_none()
            // implies resp.is_some(); only into_response takes it, and that
            // consumes self.
            None => Ok(self.resp.as_ref().expect("present until dropped")),
            Some(e) => Err(e),
        }
    }

    /// The typed error this row was answered with, if it was not evaluated.
    pub fn error(&self) -> Option<&RuntimeError> {
        self.error.as_ref()
    }

    /// Detaches the response from the pool, keeping its buffers.
    ///
    /// # Panics
    ///
    /// On an error row (see [`PooledResponse::outcome`]).
    pub fn into_response(mut self) -> Response {
        let resp = self.resp.take();
        // lint:allow(no_panic): the `# Panics` section above documents this
        // as the API contract for error rows.
        resp.expect("error row: check PooledResponse::outcome first")
    }
}

impl std::ops::Deref for PooledResponse<'_> {
    type Target = Response;
    fn deref(&self) -> &Response {
        let resp = self.resp.as_ref();
        // lint:allow(no_panic): Deref on an error row is the same documented
        // misuse as into_response — callers check outcome() first.
        resp.expect("error row: check PooledResponse::outcome first")
    }
}

impl std::fmt::Debug for PooledResponse<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledResponse")
            .field("request_id", &self.id)
            .field("tenant", &self.tenant)
            .field("response", &self.resp)
            .field("error", &self.error)
            .finish()
    }
}

impl Drop for PooledResponse<'_> {
    fn drop(&mut self) {
        if let Some(resp) = self.resp.take() {
            self.shared.recycle_shell(resp);
        }
    }
}
