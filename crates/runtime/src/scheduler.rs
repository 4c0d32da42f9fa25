//! The streaming scheduler engine: per-tenant bounded work queues drained
//! by deficit-weighted round-robin on the submit side and per-tenant
//! bounded delivery windows on the consume side, under one lock so combined
//! wait conditions ("room to push *or* a response to take") need no
//! cross-queue signalling.
//!
//! The engine is deliberately backend-agnostic: it moves opaque *groups*
//! (`G`, packed rows) from producers to workers and *deliveries* (`D`,
//! evaluated responses) from workers to consumers. Sessions
//! ([`crate::StreamSession`]) put packing, pooling, and backend dispatch on
//! top. Every queue is bounded, so an unbounded request stream runs at flat
//! memory: when workers fall behind, producers block instead of buffering
//! the world, and when consumers fall behind, workers block instead of
//! materialising every response.
//!
//! # Tenants and fairness
//!
//! The predecessor engine drained one FIFO queue, so a tenant that burst
//! thousands of groups starved every group queued behind it (head-of-line
//! starvation). Work is now segregated per [`TenantId`]: each tenant owns a
//! bounded FIFO of its own groups, and workers pop through a classic
//! **deficit round robin** cursor — on each visit a tenant's deficit grows
//! by `quantum × weight` cost units, and its head groups are handed out
//! while the deficit covers their *charge* (the caller-supplied cost of
//! evaluating the group, its gate-class-weighted plane-op estimate). Over any interval in which two tenants stay backlogged, the
//! served cost per tenant tracks the weight ratio to within one maximal
//! group charge — the standard DRR fairness bound. Backpressure is also per
//! tenant: a bursty tenant fills *its own* queue and blocks, leaving other
//! tenants' admission untouched.
//!
//! # Close semantics
//!
//! Closing distinguishes *completion* from *failure*:
//!
//! * [`Engine::finish`] — the submit side is done; workers **drain** every
//!   tenant's queue, then [`Engine::pop`] reports exhaustion.
//! * [`Engine::abort`] — a worker failed (or the session was abandoned);
//!   every tenant's queued groups are **dropped** and every blocked party
//!   wakes immediately. In-flight groups (already popped) finish, matching
//!   the session contract, but nothing queued behind the failure is
//!   evaluated — in any tenant.

use crate::ordered::{LockRank, OrderedMutex, OrderedMutexGuard};
use crate::{RuntimeError, TenantId};
use std::collections::VecDeque;
use std::sync::Condvar;
use std::time::Instant;

/// What happens when a submission arrives while its tenant's bounded queue
/// is already full ([`crate::SessionOptions::admission`]).
///
/// Shedding never drops a row silently: a shed group is answered with
/// [`RuntimeError::Shed`] through the normal delivery window, in its claimed
/// per-tenant sequence position, so accepted-implies-answered holds under
/// every policy. Backpressure (and shedding) stays per tenant either way —
/// one tenant's overload never touches another tenant's admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitter until the queue has room (the default, and the
    /// only policy before deadline-aware shedding existed). Unbounded
    /// streams run at flat memory; an overloaded tenant's submitters wait.
    #[default]
    Block,
    /// Refuse the *incoming* group: the newest submission is answered with
    /// [`RuntimeError::Shed`] and everything already queued keeps its place.
    /// Favors work already admitted (likely closer to its deadline budget).
    ShedNewest,
    /// Evict the *oldest* queued group to make room for the incoming one.
    /// The evicted head is answered with [`RuntimeError::Shed`]; the new
    /// submission enqueues. Favors fresh work (the queue head has waited
    /// longest and is most likely to miss its deadline anyway).
    ShedOldest,
}

/// Outcome of [`Engine::push`] — what the engine did with a claimed group.
#[derive(Debug)]
pub(crate) enum PushOutcome<G> {
    /// Enqueued normally.
    Pushed,
    /// The engine aborted while the push waited; the group was dropped and
    /// the dispatch claim released (the old `false`).
    Refused,
    /// `ShedNewest` (or `ShedOldest` with nothing queued to evict): the
    /// incoming group is handed back unenqueued. Its claimed sequence is
    /// counted in flight — the caller MUST answer it via
    /// [`Engine::deliver`] with `queued = true`.
    ShedNew(G),
    /// `ShedOldest`: the tenant's queue head was evicted and the incoming
    /// group took its place in the queue. The evicted group's sequence is
    /// counted in flight — the caller MUST answer it via
    /// [`Engine::deliver`] with `queued = true`.
    ShedOld {
        /// The evicted head's per-tenant sequence.
        seq: u64,
        /// The evicted head's group payload (rows to recycle).
        group: G,
    },
}

/// Outcome of a consumer take.
#[derive(Debug)]
pub(crate) enum Take<D> {
    /// The oldest admissible delivery (per-tenant submission order for
    /// ordered engines, with a round-robin cursor across tenants).
    Item(D),
    /// The session finished and every delivery has been taken.
    Done,
    /// Nothing deliverable right now (non-blocking takes only).
    WouldBlock,
}

/// Outcome of a combined push-or-take (single-thread driver loops).
#[derive(Debug)]
pub(crate) enum PushOrTake<G, D> {
    /// The group was enqueued.
    Pushed,
    /// A delivery was ready instead; the group is handed back untouched.
    Took(D, G),
}

/// A group waiting in a tenant's queue.
#[derive(Debug)]
struct Queued<G> {
    /// Per-tenant group sequence number.
    seq: u64,
    group: G,
    /// Cost of evaluating this group, in the caller's cost-model units.
    charge: u64,
    /// When the group entered the queue (queue-wait telemetry).
    at: Instant,
}

/// Aggregate queue statistics for one tenant (telemetry).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TenantQueueStats {
    /// Groups handed to workers (queued pops only, not inline groups).
    pub(crate) popped_groups: u64,
    /// Summed charge of those groups.
    pub(crate) served_charge: u64,
    /// Total nanoseconds those groups spent queued.
    pub(crate) wait_ns_total: u64,
    /// Longest any single group spent queued, in nanoseconds.
    pub(crate) wait_ns_max: u64,
}

#[derive(Debug)]
struct Tenant<G, D> {
    id: TenantId,
    /// DRR weight (≥ 1): relative share of served cost under contention.
    weight: u32,
    /// Remaining cost credit this DRR round.
    deficit: u64,
    /// Queued groups awaiting a worker, FIFO within the tenant.
    queue: VecDeque<Queued<G>>,
    /// Per-tenant group sequence assigned so far.
    next_seq: u64,
    /// Groups popped by workers but not yet delivered or dropped.
    in_flight: usize,
    /// Ordered mode: slot `i` holds the delivery for group
    /// `next_deliver + i` (always `window` entries once sized).
    ring: VecDeque<Option<(u64, D)>>,
    /// Next group sequence the ordered consumer hands out.
    next_deliver: u64,
    /// Deliveries currently held for the consumer, in groups.
    held: usize,
    stats: TenantQueueStats,
}

#[derive(Debug)]
struct EngineState<G, D> {
    tenants: Vec<Tenant<G, D>>,
    /// Bound on each tenant's queue (set by [`Engine::configure`]).
    queue_capacity: usize,
    /// Bound on each tenant's held deliveries, in groups.
    window: usize,
    /// DRR cursor: the tenant currently being served.
    cursor: usize,
    /// Whether the cursor tenant already received this visit's quantum.
    cursor_granted: bool,
    /// Cost units granted per visit is `quantum × weight`. Tracks the
    /// largest charge ever pushed (so one grant always covers one group).
    quantum: u64,
    /// Round-robin cursor for *taking* across tenants' delivery rings.
    take_cursor: usize,
    /// Unordered mode: deliveries in completion order (tenant slot kept so
    /// the tenant's window occupancy can be released on take).
    bag: VecDeque<(usize, D)>,
    /// What to do with a submission against a full tenant queue.
    admission: AdmissionPolicy,
    /// Queued groups across all tenants.
    total_queued: usize,
    /// Groups whose sequence was claimed by [`Engine::begin_dispatch`] but
    /// whose (lock-free, possibly blocking) push has not landed yet. Keeps
    /// `drained` honest while a submitter is between the two calls.
    dispatching: usize,
    /// Deliveries held across all tenants.
    held_total: usize,
    /// Peak of `held_total` — the reorder-window occupancy telemetry gauge.
    peak_held: usize,
    /// The submit side is complete; workers drain every queue.
    finished: bool,
    /// A failure or abandon: queued groups are dropped, waiters wake.
    aborted: bool,
    /// First worker error, surfaced to submitters and consumers.
    error: Option<RuntimeError>,
}

impl<G, D> EngineState<G, D> {
    /// Everything submitted has been popped, delivered, and taken.
    fn drained(&self) -> bool {
        self.dispatching == 0
            && self.total_queued == 0
            && self.held_total == 0
            && self.tenants.iter().all(|t| t.in_flight == 0)
    }
}

/// The bounded multi-tenant scheduler core. One instance per stream session.
#[derive(Debug)]
pub(crate) struct Engine<G, D> {
    state: OrderedMutex<EngineState<G, D>>,
    /// Single condvar for every transition (group granularity keeps the
    /// thundering cost negligible, and one wait set makes the combined
    /// "push or take" conditions race-free by construction).
    cv: Condvar,
    /// Deliver groups in submission order through per-tenant rings (true)
    /// or in completion order through the bag (false).
    ordered: bool,
}

impl<G, D> Engine<G, D> {
    pub(crate) fn new(ordered: bool) -> Self {
        Engine {
            state: OrderedMutex::new(
                LockRank::ENGINE_STATE,
                "scheduler.state",
                EngineState {
                    tenants: Vec::new(),
                    queue_capacity: 0,
                    window: 0,
                    cursor: 0,
                    cursor_granted: false,
                    quantum: 1,
                    take_cursor: 0,
                    bag: VecDeque::new(),
                    admission: AdmissionPolicy::Block,
                    total_queued: 0,
                    dispatching: 0,
                    held_total: 0,
                    peak_held: 0,
                    finished: false,
                    aborted: false,
                    error: None,
                },
            ),
            cv: Condvar::new(),
            ordered,
        }
    }

    /// Locks the engine state. A poisoned engine lock means a thread
    /// panicked halfway through a scheduler-invariant update (queue counts,
    /// DRR deficits, window occupancy); no recovery is sound, so the panic
    /// propagates rather than serving from torn state.
    fn lock_state(&self) -> OrderedMutexGuard<'_, EngineState<G, D>> {
        // lint:allow(no_panic): propagating a poisoned engine lock is the
        // only safe option — see the doc comment above.
        self.state.lock().unwrap()
    }

    /// Blocks on the engine condvar; same poison policy as
    /// [`Engine::lock_state`].
    fn wait_state<'a>(
        &self,
        s: OrderedMutexGuard<'a, EngineState<G, D>>,
    ) -> OrderedMutexGuard<'a, EngineState<G, D>> {
        // lint:allow(no_panic): propagating a poisoned engine lock is the
        // only safe option — see `lock_state`.
        s.wait(&self.cv).unwrap()
    }

    /// Sets the per-tenant queue and window bounds (idempotent; must run
    /// before the first push/deliver — the session configures on its first
    /// submit, once the backend's lane group and worker count are known).
    /// Tenants registered earlier have their buffers sized here.
    pub(crate) fn configure(
        &self,
        queue_capacity: usize,
        window: usize,
        admission: AdmissionPolicy,
    ) {
        let mut s = self.lock_state();
        if s.queue_capacity == 0 {
            s.queue_capacity = queue_capacity.max(1);
            s.window = window.max(1);
            s.admission = admission;
            let (capacity, window, ordered) = (s.queue_capacity, s.window, self.ordered);
            for t in &mut s.tenants {
                Self::size_tenant(t, capacity, window, ordered);
            }
            if !ordered {
                s.bag.reserve(window);
            }
        }
    }

    fn size_tenant(t: &mut Tenant<G, D>, capacity: usize, window: usize, ordered: bool) {
        t.queue.reserve(capacity);
        if ordered {
            t.ring.resize_with(window, || None);
        }
    }

    /// Registers (or looks up) the tenant `id`, returning its slot. The
    /// first registration fixes the weight (clamped to ≥ 1); later calls
    /// with the same id return the existing slot unchanged.
    pub(crate) fn register_tenant(&self, id: TenantId, weight: u32) -> usize {
        let mut s = self.lock_state();
        if let Some(slot) = s.tenants.iter().position(|t| t.id == id) {
            return slot;
        }
        let mut tenant = Tenant {
            id,
            weight: weight.max(1),
            deficit: 0,
            queue: VecDeque::new(),
            next_seq: 0,
            in_flight: 0,
            ring: VecDeque::new(),
            next_deliver: 0,
            held: 0,
            stats: TenantQueueStats::default(),
        };
        if s.queue_capacity > 0 {
            let (capacity, window) = (s.queue_capacity, s.window);
            Self::size_tenant(&mut tenant, capacity, window, self.ordered);
        }
        s.tenants.push(tenant);
        s.tenants.len() - 1
    }

    /// Claims the next group sequence of tenant `slot` for a push that will
    /// land *after* the caller releases its own locks (sessions allocate the
    /// sequence under their packing lock — fixing per-tenant order — then
    /// push without holding it, so one tenant's blocking backpressure never
    /// convoys another tenant's submitters). The engine counts the claim as
    /// in flight until the matching [`Engine::push`] lands or aborts, so
    /// consumers cannot observe a drained stream mid-dispatch.
    pub(crate) fn begin_dispatch(&self, slot: usize) -> u64 {
        let mut s = self.lock_state();
        s.dispatching += 1;
        let t = &mut s.tenants[slot];
        let seq = t.next_seq;
        t.next_seq += 1;
        seq
    }

    /// Enqueues `g` under the sequence claimed by
    /// [`Engine::begin_dispatch`], charged `charge` cost units against the
    /// tenant's DRR deficit. Against a full tenant queue the configured
    /// [`AdmissionPolicy`] decides: `Block` waits for room (the classic
    /// backpressure path), the shed policies return immediately with a
    /// [`PushOutcome`] naming the group the caller must answer with
    /// [`RuntimeError::Shed`]. `force_full` makes the queue *count as* full
    /// for this call under a shedding policy (deterministic queue-full fault
    /// injection); `Block` ignores it, since blocking on pressure that never
    /// drains would wedge the submitter.
    ///
    /// Backpressure is per tenant: a full queue blocks only this tenant's
    /// submitters — and the caller holds no session lock here, so it blocks
    /// only *itself*. Callers must land one tenant's pushes in sequence
    /// order (the session serialises same-tenant dispatches): the delivery
    /// ring tolerates inversions only shallower than the window, beyond
    /// which every worker would block on an inadmissible `deliver` while
    /// the admissible sequences sit unpopped behind them.
    pub(crate) fn push(
        &self,
        slot: usize,
        seq: u64,
        g: G,
        charge: u64,
        force_full: bool,
    ) -> PushOutcome<G> {
        let mut s = self.lock_state();
        debug_assert!(s.queue_capacity > 0, "push before configure");
        loop {
            if s.aborted {
                s.dispatching -= 1;
                self.cv.notify_all();
                return PushOutcome::Refused;
            }
            let shedding = s.admission != AdmissionPolicy::Block;
            let full = s.tenants[slot].queue.len() >= s.queue_capacity || (force_full && shedding);
            if !full {
                Self::enqueue_at(&mut s, slot, seq, g, charge);
                s.dispatching -= 1;
                self.cv.notify_all();
                return PushOutcome::Pushed;
            }
            match s.admission {
                AdmissionPolicy::Block => {}
                AdmissionPolicy::ShedNewest => {
                    // The incoming group is refused; its claimed sequence
                    // becomes an in-flight error delivery (keeps `drained`
                    // honest until the caller answers it).
                    s.dispatching -= 1;
                    s.tenants[slot].in_flight += 1;
                    self.cv.notify_all();
                    return PushOutcome::ShedNew(g);
                }
                AdmissionPolicy::ShedOldest => {
                    if let Some(old) = s.tenants[slot].queue.pop_front() {
                        s.total_queued -= 1;
                        s.tenants[slot].in_flight += 1;
                        Self::enqueue_at(&mut s, slot, seq, g, charge);
                        s.dispatching -= 1;
                        self.cv.notify_all();
                        return PushOutcome::ShedOld {
                            seq: old.seq,
                            group: old.group,
                        };
                    }
                    // force_full with nothing queued: nothing older to
                    // evict, so degrade to refusing the incoming group.
                    s.dispatching -= 1;
                    s.tenants[slot].in_flight += 1;
                    self.cv.notify_all();
                    return PushOutcome::ShedNew(g);
                }
            }
            s = self.wait_state(s);
        }
    }

    fn enqueue_at(s: &mut EngineState<G, D>, slot: usize, seq: u64, g: G, charge: u64) {
        let charge = charge.max(1);
        s.quantum = s.quantum.max(charge);
        let t = &mut s.tenants[slot];
        t.queue.push_back(Queued {
            seq,
            group: g,
            charge,
            at: Instant::now(),
        });
        s.total_queued += 1;
    }

    /// Combined single-thread driver step: prefer taking a ready delivery
    /// (handing `g` back), otherwise push `g` onto tenant `slot`'s queue,
    /// otherwise block until either becomes possible. Draining before
    /// pushing keeps the delivery windows from filling up while the queue
    /// still has room, so a lone thread can drive an unbounded stream
    /// without a consumer thread. The single-thread driver never sheds:
    /// it drains responses instead of queueing deeper, so its queue only
    /// fills when workers are genuinely behind — blocking is the right
    /// pressure there under every [`AdmissionPolicy`].
    pub(crate) fn push_or_take(
        &self,
        slot: usize,
        g: G,
        charge: u64,
    ) -> Result<PushOrTake<G, D>, RuntimeError> {
        let mut s = self.lock_state();
        debug_assert!(s.queue_capacity > 0, "push before configure");
        loop {
            if let Some(e) = &s.error {
                return Err(e.clone());
            }
            if s.aborted {
                // Abandoned without an error is session shutdown, the same
                // state a refused `push` reports as a finished session.
                return Err(RuntimeError::SessionFinished);
            }
            if let Some(d) = Self::take_ready(&mut s, self.ordered) {
                self.cv.notify_all();
                return Ok(PushOrTake::Took(d, g));
            }
            if s.tenants[slot].queue.len() < s.queue_capacity {
                // The single-thread driver allocates its sequence at
                // enqueue time: it holds the lane's `dispatching` flag
                // across this call, so no other thread extracts from this
                // tenant's lane and extraction order and sequence order
                // agree.
                let t = &mut s.tenants[slot];
                let seq = t.next_seq;
                t.next_seq += 1;
                Self::enqueue_at(&mut s, slot, seq, g, charge);
                self.cv.notify_all();
                return Ok(PushOrTake::Pushed);
            }
            s = self.wait_state(s);
        }
    }

    /// Allocates a per-tenant group sequence without queueing (inline
    /// evaluation mode, where the submitting thread evaluates the group
    /// itself).
    pub(crate) fn alloc_seq(&self, slot: usize) -> u64 {
        let mut s = self.lock_state();
        let t = &mut s.tenants[slot];
        let seq = t.next_seq;
        t.next_seq += 1;
        seq
    }

    /// Worker side: blocks for the next group the DRR cursor selects,
    /// returned as `(slot, seq, group, wait_ns)` — the last element is how
    /// long this group sat queued (the same figure accumulated into
    /// [`TenantQueueStats`], surfaced per group so callers can feed their
    /// queue-wait histograms without a second clock read). `None` once the
    /// engine is finished **and drained**, or immediately after an abort —
    /// queued groups behind a failure are dropped, never evaluated, in
    /// every tenant.
    pub(crate) fn pop(&self) -> Option<(usize, u64, G, u64)> {
        let mut s = self.lock_state();
        loop {
            if s.aborted {
                return None;
            }
            if s.total_queued > 0 {
                let (slot, q, wait_ns) = Self::drr_pop(&mut s);
                self.cv.notify_all();
                return Some((slot, q.seq, q.group, wait_ns));
            }
            // A claimed-but-unpushed dispatch may still land after finish;
            // workers only exit once those have drained into the queue too.
            if s.finished && s.dispatching == 0 {
                return None;
            }
            s = self.wait_state(s);
        }
    }

    /// The deficit-round-robin select. Caller guarantees `total_queued > 0`.
    ///
    /// Terminates: `quantum ≥` every queued charge and `weight ≥ 1`, so one
    /// grant always covers a head group — the cursor finds a servable
    /// nonempty queue within two sweeps.
    fn drr_pop(s: &mut EngineState<G, D>) -> (usize, Queued<G>, u64) {
        let n = s.tenants.len();
        loop {
            let slot = s.cursor;
            let quantum = s.quantum;
            let t = &mut s.tenants[slot];
            let Some(head) = t.queue.front() else {
                // An idle tenant forfeits its deficit (classic DRR: credit
                // must not accumulate while there is nothing to serve).
                t.deficit = 0;
                s.cursor = (slot + 1) % n;
                s.cursor_granted = false;
                continue;
            };
            if !s.cursor_granted {
                t.deficit = t.deficit.saturating_add(quantum * t.weight as u64);
                s.cursor_granted = true;
            }
            if t.deficit < head.charge {
                s.cursor = (slot + 1) % n;
                s.cursor_granted = false;
                continue;
            }
            // lint:allow(no_panic): the loop above just probed a non-empty head.
            let q = t.queue.pop_front().expect("head probed above");
            t.deficit -= q.charge;
            t.in_flight += 1;
            let wait_ns = q.at.elapsed().as_nanos() as u64;
            t.stats.popped_groups += 1;
            t.stats.served_charge += q.charge;
            t.stats.wait_ns_total += wait_ns;
            t.stats.wait_ns_max = t.stats.wait_ns_max.max(wait_ns);
            if t.queue.is_empty() {
                t.deficit = 0;
                s.cursor = (slot + 1) % n;
                s.cursor_granted = false;
            }
            s.total_queued -= 1;
            return (slot, q, wait_ns);
        }
    }

    /// Worker side: hands an evaluated group to the consumer, blocking
    /// while the tenant's delivery window refuses it (ordered mode admits
    /// sequence `seq` only once `seq < next_deliver + window`; unordered
    /// mode admits up to `window` held groups per tenant). Returns `false`
    /// if the engine aborted while waiting — the delivery is dropped by the
    /// caller.
    ///
    /// `queued` says whether the group was popped from a queue (workers) or
    /// evaluated inline by the submitter.
    pub(crate) fn deliver(&self, slot: usize, seq: u64, d: D, queued: bool) -> bool {
        let mut s = self.lock_state();
        loop {
            if s.aborted {
                if queued {
                    s.tenants[slot].in_flight -= 1;
                    self.cv.notify_all();
                }
                return false;
            }
            let window = s.window;
            let t = &mut s.tenants[slot];
            let admissible = if self.ordered {
                seq < t.next_deliver + window as u64
            } else {
                t.held < window
            };
            if admissible {
                if self.ordered {
                    let pos = (seq - t.next_deliver) as usize;
                    debug_assert!(
                        t.ring[pos].is_none(),
                        "double delivery of group {seq} for tenant {:?}",
                        t.id
                    );
                    t.ring[pos] = Some((seq, d));
                } else {
                    s.bag.push_back((slot, d));
                }
                let t = &mut s.tenants[slot];
                t.held += 1;
                if queued {
                    t.in_flight -= 1;
                }
                s.held_total += 1;
                s.peak_held = s.peak_held.max(s.held_total);
                self.cv.notify_all();
                return true;
            }
            s = self.wait_state(s);
        }
    }

    /// Records a worker failure: the first error wins, every tenant's
    /// queued groups are dropped (close-on-error must not evaluate work
    /// behind the failure), and every blocked submitter, worker, and
    /// consumer wakes.
    pub(crate) fn abort(&self, e: RuntimeError) {
        let mut s = self.lock_state();
        s.error.get_or_insert(e);
        Self::drop_queued(&mut s);
        self.cv.notify_all();
    }

    /// Drops queued work and wakes everyone without recording an error
    /// (session shutdown after the consumer walked away).
    pub(crate) fn abandon(&self) {
        let mut s = self.lock_state();
        Self::drop_queued(&mut s);
        self.cv.notify_all();
    }

    fn drop_queued(s: &mut EngineState<G, D>) {
        s.aborted = true;
        for t in &mut s.tenants {
            t.queue.clear();
        }
        s.total_queued = 0;
    }

    /// Marks the submit side complete: workers drain what is queued, then
    /// [`Engine::pop`] reports exhaustion and consumers see [`Take::Done`].
    pub(crate) fn finish(&self) {
        let mut s = self.lock_state();
        s.finished = true;
        self.cv.notify_all();
    }

    /// The first worker error, if any.
    pub(crate) fn error(&self) -> Option<RuntimeError> {
        self.lock_state().error.clone()
    }

    /// Consumer side: the next delivery. Blocking mode waits until a
    /// delivery is ready, the engine errors, or it finishes and drains.
    pub(crate) fn take(&self, block: bool) -> Result<Take<D>, RuntimeError> {
        let mut s = self.lock_state();
        loop {
            if let Some(e) = &s.error {
                return Err(e.clone());
            }
            if let Some(d) = Self::take_ready(&mut s, self.ordered) {
                self.cv.notify_all();
                return Ok(Take::Item(d));
            }
            if (s.finished && s.drained()) || s.aborted {
                return Ok(Take::Done);
            }
            if !block {
                return Ok(Take::WouldBlock);
            }
            s = self.wait_state(s);
        }
    }

    /// Pops the next deliverable group: unordered engines drain the shared
    /// completion bag; ordered engines round-robin a cursor across tenants'
    /// rings (each ring releases groups strictly in that tenant's
    /// submission order).
    fn take_ready(s: &mut EngineState<G, D>, ordered: bool) -> Option<D> {
        let (slot, d) = if ordered {
            let n = s.tenants.len();
            let mut found = None;
            for i in 0..n {
                let slot = (s.take_cursor + i) % n;
                let t = &mut s.tenants[slot];
                if t.ring.front().is_some_and(std::option::Option::is_some) {
                    // lint:allow(no_panic): front() == Some(Some(_)) was just
                    // checked, so both layers are present.
                    let (_seq, d) = t.ring.pop_front().unwrap().unwrap();
                    t.ring.push_back(None);
                    t.next_deliver += 1;
                    s.take_cursor = (slot + 1) % n;
                    found = Some((slot, d));
                    break;
                }
            }
            found?
        } else {
            s.bag.pop_front()?
        };
        s.tenants[slot].held -= 1;
        s.held_total -= 1;
        Some(d)
    }

    /// Peak delivery-window occupancy across tenants, in groups (telemetry).
    pub(crate) fn peak_window(&self) -> usize {
        self.lock_state().peak_held
    }

    /// Per-tenant queue statistics, in slot order (telemetry).
    pub(crate) fn tenant_stats(&self) -> Vec<TenantQueueStats> {
        let s = self.lock_state();
        s.tenants.iter().map(|t| t.stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use tc_circuit::CircuitError;

    /// A single-tenant engine with tenant 0 pre-registered — the PR 4 shape
    /// every legacy test drives.
    fn engine(ordered: bool, cap: usize, window: usize) -> Engine<u32, u32> {
        let e = Engine::new(ordered);
        e.configure(cap, window, AdmissionPolicy::Block);
        assert_eq!(e.register_tenant(TenantId(0), 1), 0);
        e
    }

    /// A single-tenant engine under a shedding admission policy.
    fn shedding_engine(
        ordered: bool,
        cap: usize,
        window: usize,
        admission: AdmissionPolicy,
    ) -> Engine<u32, u32> {
        let e = Engine::new(ordered);
        e.configure(cap, window, admission);
        assert_eq!(e.register_tenant(TenantId(0), 1), 0);
        e
    }

    /// Claim-then-push in one step (sessions split the two around their
    /// packing lock; tests have no lock to protect). `true` = enqueued.
    fn push(e: &Engine<u32, u32>, slot: usize, g: u32, charge: u64) -> bool {
        let seq = e.begin_dispatch(slot);
        matches!(e.push(slot, seq, g, charge, false), PushOutcome::Pushed)
    }

    #[test]
    fn abort_drops_queued_groups_but_finish_drains_them() {
        // Regression for the close-on-error bug: the old queue's single
        // `close()` kept handing out queued groups after a *failing* worker
        // closed it, so every group behind the failure was still fully
        // evaluated before the error surfaced.
        let e = engine(false, 64, 64);
        for g in 0..10u32 {
            assert!(push(&e, 0, g, 1));
        }
        assert!(matches!(e.pop(), Some((0, 0, 0, _))));
        e.abort(RuntimeError::Circuit(CircuitError::EmptyFanIn));
        // Nine groups were still queued; none may be handed out now.
        assert!(e.pop().is_none());
        assert!(e.error().is_some());

        // Close-on-complete is the opposite: everything queued drains.
        let e = engine(false, 64, 64);
        for g in 0..5u32 {
            assert!(push(&e, 0, g, 1));
        }
        e.finish();
        for g in 0..5u32 {
            let (slot, seq, got, _wait) = e.pop().unwrap();
            assert_eq!((slot, seq, got), (0, g as u64, g));
        }
        assert!(e.pop().is_none());
        assert!(e.error().is_none());
    }

    #[test]
    fn no_group_behind_a_failure_is_evaluated_once_closed() {
        // Threaded version of the same regression, shaped like the session
        // worker loop: a deep queue, a failing first group, and a second
        // worker whose in-flight group is allowed to finish. Nothing queued
        // behind the failure may be popped after the abort — in any tenant.
        let failed = AtomicBool::new(false);
        let evaluated = Mutex::new(Vec::new());
        let e = engine(false, 64, 64);
        let second = e.register_tenant(TenantId(7), 1);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while let Some((slot, seq, _, _)) = e.pop() {
                        if (slot, seq) == (0, 0) {
                            failed.store(true, Ordering::SeqCst);
                            e.abort(RuntimeError::Circuit(CircuitError::EmptyFanIn));
                            return;
                        }
                        // An in-flight group "finishes" only after the
                        // failure lands, so every pop below observes a
                        // closed queue.
                        while !failed.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        evaluated.lock().unwrap().push((slot, seq));
                        e.deliver(slot, seq, 0, true);
                    }
                });
            }
            for g in 0..32u32 {
                if !push(&e, 0, g, 1) || !push(&e, second, g, 1) {
                    break;
                }
            }
            e.finish();
        });
        let evaluated = evaluated.lock().unwrap();
        // At most the one in-flight group ever evaluates; everything queued
        // behind the failure — in both tenants — is dropped.
        assert!(
            evaluated.len() <= 1,
            "groups behind the failing one were evaluated: {evaluated:?}"
        );
        assert_eq!(
            e.error(),
            Some(RuntimeError::Circuit(CircuitError::EmptyFanIn))
        );
    }

    #[test]
    fn ordered_delivery_reorders_within_a_bounded_window() {
        let e = engine(true, 8, 2);
        for g in 0..3u32 {
            assert!(push(&e, 0, g, 1));
        }
        let (s0, i0, g0, _) = e.pop().unwrap();
        let (s1, i1, g1, _) = e.pop().unwrap();
        let (s2, i2, g2, _) = e.pop().unwrap();
        // Group 1 completes first; the window holds it for ordering.
        assert!(e.deliver(s1, i1, g1 + 100, true));
        match e.take(false).unwrap() {
            Take::WouldBlock => {}
            other => panic!("group 0 not delivered yet, got {other:?}"),
        }
        // Group 2 is outside the 2-group window until group 0 is consumed:
        // a worker delivering it must block, which we probe via a thread.
        let delivered_2 = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(e.deliver(s2, i2, g2 + 100, true));
                delivered_2.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!delivered_2.load(Ordering::SeqCst), "window bound ignored");
            assert!(e.deliver(s0, i0, g0 + 100, true));
            // Consuming 0 then 1 opens the window for 2.
            for expect in 0..3u64 {
                match e.take(true).unwrap() {
                    Take::Item(d) => {
                        assert_eq!(d, expect as u32 + 100);
                    }
                    other => panic!("expected item {expect}, got {other:?}"),
                }
            }
        });
        assert!(delivered_2.load(Ordering::SeqCst));
        e.finish();
        assert!(matches!(e.take(true).unwrap(), Take::Done));
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        // Capacity 1 with a slow consumer: producers must block rather than
        // buffer, so queued + in-flight never exceeds capacity + workers.
        let e = engine(false, 1, 64);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while let Some((slot, seq, g, _)) = e.pop() {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        e.deliver(slot, seq, g, true);
                    }
                });
            }
            scope.spawn(|| {
                let mut taken = 0;
                while let Ok(t) = e.take(true) {
                    match t {
                        Take::Item(..) => taken += 1,
                        Take::Done => break,
                        Take::WouldBlock => unreachable!(),
                    }
                }
                assert_eq!(taken, 50);
            });
            for g in 0..50u32 {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                assert!(push(&e, 0, g, 1));
            }
            e.finish();
        });
        // queue capacity (1) + workers (2) + the one the producer holds.
        assert!(peak.load(Ordering::SeqCst) <= 4, "peak {peak:?}");
    }

    #[test]
    fn push_or_take_drains_before_queueing() {
        // Inline-style single-thread driving: deliveries ready in the
        // window are preferred over enqueueing more work.
        let e = engine(true, 1, 4);
        assert!(matches!(
            e.push_or_take(0, 7, 1).unwrap(),
            PushOrTake::Pushed
        ));
        let (slot, seq, g, _) = e.pop().unwrap();
        e.deliver(slot, seq, g + 1, true);
        match e.push_or_take(0, 9, 1).unwrap() {
            PushOrTake::Took(8, 9) => {}
            other => panic!("expected the ready delivery first, got {other:?}"),
        }
        assert!(matches!(
            e.push_or_take(0, 9, 1).unwrap(),
            PushOrTake::Pushed
        ));
    }

    #[test]
    fn per_tenant_queues_isolate_backpressure() {
        // A bursty tenant at queue capacity must not block another tenant's
        // admission: per-tenant bounds make backpressure tenant-local.
        let e = engine(false, 2, 64);
        let quiet = e.register_tenant(TenantId(1), 1);
        // Fill the bursty tenant's queue to capacity.
        assert!(push(&e, 0, 1, 1));
        assert!(push(&e, 0, 2, 1));
        // The quiet tenant still pushes without blocking.
        assert!(push(&e, quiet, 10, 1));
        assert!(push(&e, quiet, 11, 1));
    }

    #[test]
    fn drr_interleaves_a_burst_with_a_steady_tenant() {
        // Head-of-line regression: 8 bursty groups queued ahead of 2 steady
        // groups must NOT all be served first — the DRR cursor alternates
        // (weights 1:1, equal charges), so the steady groups are served
        // within the first few pops instead of waiting out the burst.
        let e = engine(false, 64, 64);
        let steady = e.register_tenant(TenantId(1), 1);
        for g in 0..8u32 {
            assert!(push(&e, 0, g, 10));
        }
        for g in 100..102u32 {
            assert!(push(&e, steady, g, 10));
        }
        e.finish();
        let mut order = Vec::new();
        while let Some((slot, _seq, g, _)) = e.pop() {
            order.push((slot, g));
        }
        assert_eq!(order.len(), 10);
        let steady_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, (slot, _))| *slot == steady)
            .map(|(i, _)| i)
            .collect();
        assert!(
            *steady_positions.last().unwrap() <= 4,
            "steady tenant served at positions {steady_positions:?} — \
             it waited out the burst (FIFO head-of-line)"
        );
    }

    #[test]
    fn weighted_drr_tracks_the_weight_ratio() {
        // Weights 3:1 with equal charges: while both tenants stay
        // backlogged, every DRR round serves ~3 heavy groups per light one.
        let e = engine(false, 256, 256);
        let light = e.register_tenant(TenantId(1), 1);
        let heavy = e.register_tenant(TenantId(2), 3);
        for g in 0..60u32 {
            assert!(push(&e, light, g, 5));
            assert!(push(&e, heavy, g, 5));
        }
        // Serve 40 groups while both queues stay nonempty.
        let mut heavy_served = 0u32;
        let mut light_served = 0u32;
        for _ in 0..40 {
            let (slot, _, _, _) = e.pop().unwrap();
            if slot == heavy {
                heavy_served += 1;
            } else if slot == light {
                light_served += 1;
            }
        }
        assert!(light_served > 0, "light tenant starved");
        let ratio = heavy_served as f64 / light_served as f64;
        assert!(
            (2.0..=4.0).contains(&ratio),
            "heavy:light served ratio {ratio:.2} (expected ~3 for weights 3:1)"
        );
        e.abandon();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The DRR deficit invariant: over an interval where two tenants
        /// are continuously backlogged, the served cost per unit weight
        /// diverges by at most one quantum (= one maximal group charge)
        /// per round, regardless of weights or charge mix.
        #[test]
        fn drr_deficit_invariant_holds_for_random_weights(
            weight_a in 1u32..8,
            weight_b in 1u32..8,
            charges_a in proptest::collection::vec(1u64..100, 40),
            charges_b in proptest::collection::vec(1u64..100, 40),
        ) {
            let e: Engine<u32, u32> = Engine::new(false);
            e.configure(256, 256, AdmissionPolicy::Block);
            let a = e.register_tenant(TenantId(10), weight_a);
            let b = e.register_tenant(TenantId(20), weight_b);
            let max_charge = charges_a
                .iter()
                .chain(&charges_b)
                .copied()
                .max()
                .unwrap();
            for (i, &c) in charges_a.iter().enumerate() {
                assert!(push(&e, a, i as u32, c));
            }
            for (i, &c) in charges_b.iter().enumerate() {
                assert!(push(&e, b, i as u32, c));
            }
            // Pop while BOTH tenants stay backlogged, tracking served cost.
            let mut served = [0u64; 2];
            let mut remaining = [charges_a.len(), charges_b.len()];
            loop {
                let (slot, seq, _, _) = e.pop().unwrap();
                let charge = if slot == a {
                    charges_a[seq as usize]
                } else {
                    charges_b[seq as usize]
                };
                let idx = usize::from(slot == b);
                served[idx] += charge;
                remaining[idx] -= 1;
                if remaining[idx] == 0 {
                    break;
                }
                // The invariant is only claimed while both are backlogged.
                let per_weight_a = served[0] as f64 / weight_a as f64;
                let per_weight_b = served[1] as f64 / weight_b as f64;
                // Each visit grants quantum × weight, so per unit weight
                // the lead is bounded by one quantum plus one max charge
                // (the group that overshoots the deficit).
                let bound = (max_charge as f64) * 2.0 + 1.0;
                prop_assert!(
                    (per_weight_a - per_weight_b).abs() <= bound,
                    "served-per-weight diverged: a={per_weight_a:.1} \
                     b={per_weight_b:.1} bound={bound:.1} \
                     (weights {weight_a}:{weight_b})"
                );
            }
            e.abandon();
        }
    }

    /// Drains every delivery from an unordered engine after `finish`.
    fn take_all(e: &Engine<u32, u32>) -> Vec<u32> {
        let mut taken = Vec::new();
        loop {
            match e.take(true).unwrap() {
                Take::Item(d) => taken.push(d),
                Take::Done => break,
                Take::WouldBlock => unreachable!(),
            }
        }
        taken
    }

    #[test]
    fn shed_newest_hands_back_the_incoming_group_when_full() {
        let e = shedding_engine(false, 2, 64, AdmissionPolicy::ShedNewest);
        assert!(push(&e, 0, 1, 1));
        assert!(push(&e, 0, 2, 1));
        // Queue at capacity: the incoming group is refused, not blocked on.
        let seq = e.begin_dispatch(0);
        match e.push(0, seq, 3, 1, false) {
            PushOutcome::ShedNew(g) => assert_eq!(g, 3),
            other => panic!("expected ShedNew, got {other:?}"),
        }
        // The shed claim is answered through the normal delivery window —
        // drained() must not report done before this lands.
        assert!(e.deliver(0, seq, 103, true));
        e.finish();
        while let Some((slot, pseq, g, _)) = e.pop() {
            assert!(e.deliver(slot, pseq, g + 100, true));
        }
        let taken = take_all(&e);
        assert_eq!(taken.len(), 3, "both queued + the shed answer: {taken:?}");
        assert!(taken.contains(&101) && taken.contains(&102) && taken.contains(&103));
    }

    #[test]
    fn shed_oldest_evicts_the_queue_head_for_the_incoming_group() {
        let e = shedding_engine(false, 2, 64, AdmissionPolicy::ShedOldest);
        assert!(push(&e, 0, 1, 1)); // seq 0 — the head that gets evicted
        assert!(push(&e, 0, 2, 1)); // seq 1
        let seq = e.begin_dispatch(0);
        assert_eq!(seq, 2);
        match e.push(0, seq, 3, 1, false) {
            PushOutcome::ShedOld {
                seq: old_seq,
                group,
            } => {
                assert_eq!((old_seq, group), (0, 1));
            }
            other => panic!("expected ShedOld, got {other:?}"),
        }
        // The evicted head is answered as an error delivery.
        assert!(e.deliver(0, 0, 100, true));
        e.finish();
        // The queue now holds seqs 1 and 2 (the incoming group was admitted).
        let mut popped = Vec::new();
        while let Some((_, pseq, g, _)) = e.pop() {
            popped.push((pseq, g));
            assert!(e.deliver(0, pseq, g + 100, true));
        }
        assert_eq!(popped, vec![(1, 2), (2, 3)]);
        assert_eq!(take_all(&e).len(), 3);
    }

    #[test]
    fn forced_queue_full_sheds_under_a_shedding_policy_only() {
        // force_full simulates queue pressure for fault injection: shed
        // policies shed even with an empty queue (ShedOldest degrades to
        // refusing the incoming group — nothing older to evict), while
        // Block ignores the flag entirely.
        for policy in [AdmissionPolicy::ShedNewest, AdmissionPolicy::ShedOldest] {
            let e = shedding_engine(false, 8, 8, policy);
            let seq = e.begin_dispatch(0);
            match e.push(0, seq, 5, 1, true) {
                PushOutcome::ShedNew(g) => assert_eq!(g, 5),
                other => panic!("{policy:?}: expected ShedNew, got {other:?}"),
            }
            assert!(e.deliver(0, seq, 105, true));
            e.finish();
            assert!(e.pop().is_none());
            assert_eq!(take_all(&e), vec![105]);
        }
        let e = shedding_engine(false, 8, 8, AdmissionPolicy::Block);
        let seq = e.begin_dispatch(0);
        assert!(matches!(e.push(0, seq, 5, 1, true), PushOutcome::Pushed));
        e.abandon();
    }

    #[test]
    fn pop_reports_per_group_queue_wait() {
        // The wait returned per pop is exactly what accumulates into the
        // tenant's aggregate stats — one clock read, two consumers.
        let e = engine(false, 8, 8);
        assert!(push(&e, 0, 1, 1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(push(&e, 0, 2, 1));
        e.finish();
        let mut total = 0u64;
        let mut max = 0u64;
        while let Some((_, _, _, wait_ns)) = e.pop() {
            total += wait_ns;
            max = max.max(wait_ns);
        }
        let stats = e.tenant_stats();
        assert_eq!(stats[0].wait_ns_total, total);
        assert_eq!(stats[0].wait_ns_max, max);
        assert!(max >= 2_000_000, "first group queued ≥ 2ms, saw {max}ns");
    }

    #[test]
    fn abort_between_drain_and_queue_insert_surfaces_the_error() {
        // Race regression for the single-thread driver: `push_or_take`
        // returns `Took` (the group handed back), the caller consumes the
        // delivery, and an abort lands BEFORE the caller retries the push.
        // The retry must surface the recorded error — not panic, not block
        // forever, and not silently enqueue work behind a failure.
        let e = engine(true, 1, 4);
        assert!(matches!(
            e.push_or_take(0, 1, 1).unwrap(),
            PushOrTake::Pushed
        ));
        let (slot, seq, g, _) = e.pop().unwrap();
        assert!(e.deliver(slot, seq, g + 1, true));
        // The driver drains the ready delivery; its group comes back.
        let retry = match e.push_or_take(0, 3, 1).unwrap() {
            PushOrTake::Took(d, g) => {
                assert_eq!(d, 2);
                g
            }
            PushOrTake::Pushed => panic!("expected the ready delivery, got Pushed"),
        };
        // Abort lands between the drain and the retried insert.
        e.abort(RuntimeError::Circuit(CircuitError::EmptyFanIn));
        match e.push_or_take(0, retry, 1) {
            Err(RuntimeError::Circuit(CircuitError::EmptyFanIn)) => {}
            other => panic!("retry after abort must fail with the error, got {other:?}"),
        }
        // And nothing was enqueued behind the failure.
        assert!(e.pop().is_none());
    }

    #[test]
    fn push_or_take_on_an_abandoned_engine_reports_a_finished_session() {
        let e = engine(true, 2, 2);
        e.abandon();
        assert!(matches!(
            e.push_or_take(0, 1, 1),
            Err(RuntimeError::SessionFinished)
        ));
    }

    #[test]
    fn threaded_abort_races_push_or_take_without_losing_the_error() {
        // The same race driven hot from two threads: a driver loops
        // push_or_take while another thread aborts at a random point. The
        // driver must always terminate with the recorded error.
        for round in 0..50 {
            let e = engine(false, 2, 4);
            let err = RuntimeError::Circuit(CircuitError::EmptyFanIn);
            std::thread::scope(|scope| {
                let aborter = scope.spawn(|| {
                    for _ in 0..(round % 7) {
                        std::thread::yield_now();
                    }
                    e.abort(RuntimeError::Circuit(CircuitError::EmptyFanIn));
                });
                scope.spawn(|| {
                    // Drain whatever the driver queued so it never blocks on
                    // a full queue with no consumer.
                    while let Some((slot, seq, g, _)) = e.pop() {
                        e.deliver(slot, seq, g, true);
                    }
                });
                let mut g = 0u32;
                let observed = loop {
                    match e.push_or_take(0, g, 1) {
                        Ok(_) => g += 1,
                        Err(e) => break e,
                    }
                };
                assert_eq!(observed, err);
                aborter.join().unwrap();
            });
        }
    }
}
