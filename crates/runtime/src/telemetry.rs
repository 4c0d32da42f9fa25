//! Serving telemetry: request, lane, gate-eval, firing-energy, and
//! per-tenant fairness counters, plus per-stage latency histograms and the
//! machine-readable export surface (JSON and Prometheus text exposition,
//! both versioned by [`TELEMETRY_SCHEMA_VERSION`]).

use crate::metrics::{Histogram, HistogramSnapshot, StageHistograms, StageSnapshot};
use crate::ordered::{LockRank, OrderedMutex};
use crate::scheduler::TenantQueueStats;
use crate::TenantId;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version of the telemetry export schema. Bump whenever a field or metric
/// family is renamed, removed, or changes meaning in
/// [`TelemetrySummary::to_json`] / [`TelemetrySummary::to_prometheus`]
/// (additions are backwards-compatible and do not bump it). Exported as the
/// JSON `schema_version` field and the `tcmm_telemetry_schema_version`
/// gauge.
///
/// v2 added the robustness counter families (`tcmm_shed_total`,
/// `tcmm_retries_total`, `tcmm_deadline_miss_total`,
/// `tcmm_quarantines_total`) and made them part of the guaranteed family
/// set — scrapers may rely on their presence from this version on, which is
/// a contract change, not a plain addition.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Lock-light counters accumulated across everything a [`crate::Runtime`]
/// serves. Each backend and each tenant has one ledger entry: its tallies
/// next to the histograms sessions record into. The backend map is locked
/// once per lane group and the tenant map once per lane registration and
/// session close; the histograms are handed out as [`Arc`]s, so the
/// per-request recording path is lock-free. Global work totals are summed
/// from the backend ledger when a snapshot is taken.
#[derive(Debug)]
pub struct Telemetry {
    padded_lanes: AtomicU64,
    /// Gate evaluations split by kernel class (`[Unit, Pow2, General]`).
    class_gate_evals: [AtomicU64; 3],
    /// Per-backend tallies and eval-latency histograms (nanoseconds per
    /// group inside the backend), keyed by backend name.
    per_backend: OrderedMutex<BTreeMap<&'static str, (BackendTally, Arc<Histogram>)>>,
    /// Streaming sessions opened (every `serve_batch`/`serve_stream` call
    /// is one session under the hood).
    sessions: AtomicU64,
    /// Deepest submitted-but-unconsumed request backlog any session saw.
    peak_in_flight_requests: AtomicU64,
    /// Fullest any session's delivery (reorder) window ever got, in groups.
    peak_reorder_window_groups: AtomicU64,
    /// Response payload buffers recycled through a session pool vs freshly
    /// allocated (pool misses; warm-up is all misses).
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    /// Per-tenant serving and queue-wait tallies and lifecycle-stage
    /// histograms, keyed by tenant id. The entry is created when a session
    /// lane registers the tenant.
    per_tenant: OrderedMutex<BTreeMap<TenantId, (TenantTally, Arc<StageHistograms>)>>,
    /// Requests shed at admission (full tenant queue under a shedding
    /// [`crate::AdmissionPolicy`]).
    sheds: AtomicU64,
    /// Requests whose group was retried on the scalar fallback after the
    /// primary backend failed.
    retries: AtomicU64,
    /// Requests shed at pop time because their deadline budget no longer
    /// covered the eval estimate.
    deadline_misses: AtomicU64,
    /// Backend quarantine events (one per failed group eval).
    quarantines: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry {
            padded_lanes: AtomicU64::new(0),
            class_gate_evals: Default::default(),
            per_backend: OrderedMutex::new(
                LockRank::TELEMETRY_BACKEND,
                "telemetry.per_backend",
                BTreeMap::new(),
            ),
            sessions: AtomicU64::new(0),
            peak_in_flight_requests: AtomicU64::new(0),
            peak_reorder_window_groups: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            per_tenant: OrderedMutex::new(
                LockRank::TELEMETRY_TENANT,
                "telemetry.per_tenant",
                BTreeMap::new(),
            ),
            sheds: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }
}

/// Per-backend slice of the telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendTally {
    /// Lane groups evaluated by this backend.
    pub groups: u64,
    /// Requests those groups carried.
    pub requests: u64,
    /// Wall-clock nanoseconds spent inside the backend.
    pub busy_ns: u64,
    /// Gate evaluations this backend performed (gates × requests) — with
    /// [`BackendTally::busy_ns`], the per-backend work mix.
    pub gate_evals: u64,
    /// Gate firings this backend observed (Uchizawa–Douglas–Maass energy,
    /// in spikes).
    pub firings: u64,
}

/// Per-tenant slice of the telemetry: what one traffic source submitted and
/// how long its groups sat in the scheduler queue — the raw signal behind
/// the [`TelemetrySummary::max_queue_wait_ratio`] fairness metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantTally {
    /// The tenant's scheduling weight (last registration wins).
    pub weight: u32,
    /// Requests this tenant submitted.
    pub requests: u64,
    /// Lane groups those requests packed into (queued, inline-evaluated,
    /// and — after an abort — dropped groups all count).
    pub groups: u64,
    /// Lane groups a worker actually popped from the tenant's queue — the
    /// denominator of the queue-wait mean (inline-evaluated groups never
    /// queue; groups dropped behind an abort were never popped).
    pub queued_groups: u64,
    /// Summed DRR charge of the popped groups, in gate-class-weighted
    /// plane-op units — what "served cost tracks the weights" is measured
    /// in.
    pub served_cost: u64,
    /// Total nanoseconds the tenant's groups spent queued before a worker
    /// popped them.
    pub queue_wait_ns_total: u64,
    /// Longest any single group of this tenant spent queued.
    pub queue_wait_ns_max: u64,
}

impl TenantTally {
    /// Mean queue wait per popped group, in nanoseconds (0 if none ever
    /// queued).
    pub fn mean_queue_wait_ns(&self) -> f64 {
        if self.queued_groups == 0 {
            0.0
        } else {
            self.queue_wait_ns_total as f64 / self.queued_groups as f64
        }
    }
}

impl Telemetry {
    /// Records one evaluated lane group. `class_gate_evals` carries the
    /// gate-evaluation count split by kernel class (`[Unit, Pow2, General]`
    /// — the served circuit's class mix times the group's request count).
    pub(crate) fn record_group(
        &self,
        backend: &'static str,
        requests: u64,
        lane_group: u64,
        class_gate_evals: [u64; 3],
        firings: u64,
        busy_ns: u64,
    ) {
        self.padded_lanes
            .fetch_add(lane_group.saturating_sub(requests), Ordering::Relaxed);
        for (counter, evals) in self.class_gate_evals.iter().zip(class_gate_evals) {
            counter.fetch_add(evals, Ordering::Relaxed);
        }
        // Poison-tolerant throughout this module: a worker that panicked
        // mid-record must not wedge every later snapshot — counters are
        // monotone tallies, so the worst a torn update costs is one group's
        // increments.
        let mut map = crate::lock_tolerant(&self.per_backend);
        let (tally, _) = map.entry(backend).or_default();
        tally.groups += 1;
        tally.requests += requests;
        tally.busy_ns += busy_ns;
        tally.gate_evals += class_gate_evals.iter().sum::<u64>();
        tally.firings += firings;
    }

    /// Records one closed streaming session's gauges: the peak
    /// submitted-but-unconsumed request depth, the peak delivery-window
    /// occupancy in groups, and the session pool's recycle tally.
    pub(crate) fn record_session(
        &self,
        peak_in_flight: u64,
        peak_window_groups: u64,
        pool_hits: u64,
        pool_misses: u64,
    ) {
        self.sessions.fetch_add(1, Ordering::Relaxed);
        self.peak_in_flight_requests
            .fetch_max(peak_in_flight, Ordering::Relaxed);
        self.peak_reorder_window_groups
            .fetch_max(peak_window_groups, Ordering::Relaxed);
        self.pool_hits.fetch_add(pool_hits, Ordering::Relaxed);
        self.pool_misses.fetch_add(pool_misses, Ordering::Relaxed);
    }

    /// Merges one closed session's per-tenant tallies (requests, groups,
    /// and scheduler queue-wait aggregates) into the runtime-wide ledger.
    pub(crate) fn record_tenant(
        &self,
        tenant: TenantId,
        requests: u64,
        groups: u64,
        queue: TenantQueueStats,
    ) {
        let mut map = crate::lock_tolerant(&self.per_tenant);
        let (tally, _) = map.entry(tenant).or_default();
        tally.requests += requests;
        tally.groups += groups;
        tally.queued_groups += queue.popped_groups;
        tally.served_cost += queue.served_charge;
        tally.queue_wait_ns_total += queue.wait_ns_total;
        tally.queue_wait_ns_max = tally.queue_wait_ns_max.max(queue.wait_ns_max);
    }

    /// Registers `tenant` at scheduling `weight` (last registration wins)
    /// and returns its shared stage-histogram set. Sessions call this once
    /// per lane registration and record through the returned [`Arc`]
    /// lock-free afterwards.
    pub(crate) fn tenant_stages(&self, tenant: TenantId, weight: u32) -> Arc<StageHistograms> {
        let mut map = crate::lock_tolerant(&self.per_tenant);
        let (tally, stages) = map.entry(tenant).or_default();
        tally.weight = weight;
        Arc::clone(stages)
    }

    /// The shared eval-latency histogram for `backend` (created on first
    /// sight). Sessions resolve this once, with the plan.
    pub(crate) fn backend_eval(&self, backend: &'static str) -> Arc<Histogram> {
        Arc::clone(
            &crate::lock_tolerant(&self.per_backend)
                .entry(backend)
                .or_default()
                .1,
        )
    }

    /// Counts `n` requests shed at admission (full tenant queue under a
    /// shedding admission policy).
    pub(crate) fn record_sheds(&self, n: u64) {
        self.sheds.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` requests retried on the scalar fallback after their
    /// primary backend failed.
    pub(crate) fn record_retries(&self, n: u64) {
        self.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` requests shed at pop time for an expired deadline budget.
    pub(crate) fn record_deadline_misses(&self, n: u64) {
        self.deadline_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` backend quarantine events.
    pub(crate) fn record_quarantines(&self, n: u64) {
        self.quarantines.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters and histograms.
    pub fn snapshot(&self) -> TelemetrySummary {
        let mut per_backend = BTreeMap::new();
        let mut per_backend_eval = BTreeMap::new();
        for (name, (tally, eval)) in crate::lock_tolerant(&self.per_backend).iter() {
            // Sessions resolve the eval histogram with the plan, so a backend
            // whose every group failed over has an entry but no tally: it
            // is listed with its eval histogram only.
            if tally.groups > 0 {
                per_backend.insert(*name, *tally);
            }
            per_backend_eval.insert(*name, eval.snapshot());
        }
        let mut per_tenant = BTreeMap::new();
        let mut per_tenant_stages = BTreeMap::new();
        for (id, (tally, stages)) in crate::lock_tolerant(&self.per_tenant).iter() {
            per_tenant.insert(*id, *tally);
            per_tenant_stages.insert(*id, stages.snapshot());
        }
        let total = |field: fn(&BackendTally) -> u64| per_backend.values().map(field).sum();
        // Every recording goes through a tenant lane (serve_batch and
        // serve_stream ride the default tenant), so the global stage view
        // is exactly the merge of the per-tenant ones.
        let mut stages = StageSnapshot::default();
        for s in per_tenant_stages.values() {
            stages.merge(s);
        }
        TelemetrySummary {
            requests: total(|t| t.requests),
            groups: total(|t| t.groups),
            padded_lanes: self.padded_lanes.load(Ordering::Relaxed),
            gate_evals: total(|t| t.gate_evals),
            class_gate_evals: self
                .class_gate_evals
                .each_ref()
                .map(|c| c.load(Ordering::Relaxed)),
            firings: total(|t| t.firings),
            busy_ns: total(|t| t.busy_ns),
            per_backend,
            sessions: self.sessions.load(Ordering::Relaxed),
            peak_in_flight_requests: self.peak_in_flight_requests.load(Ordering::Relaxed),
            peak_reorder_window_groups: self.peak_reorder_window_groups.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            per_tenant,
            stages,
            per_tenant_stages,
            per_backend_eval,
            sheds: self.sheds.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Telemetry`]'s counters and histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Requests served.
    pub requests: u64,
    /// Lane groups evaluated.
    pub groups: u64,
    /// Unused lanes across partial (ragged-tail) groups.
    pub padded_lanes: u64,
    /// Total gate evaluations (gates × requests).
    pub gate_evals: u64,
    /// Gate evaluations split by kernel dispatch class, as
    /// `[Unit, Pow2, General]` (see [`tc_circuit::GateClass`]) — the class
    /// mix of everything served, weighted by request count.
    pub class_gate_evals: [u64; 3],
    /// Total gate firings (the Uchizawa–Douglas–Maass energy, in spikes).
    pub firings: u64,
    /// Wall-clock nanoseconds spent inside backends (summed across workers).
    pub busy_ns: u64,
    /// Per-backend tallies, keyed by backend name.
    pub per_backend: BTreeMap<&'static str, BackendTally>,
    /// Streaming sessions opened (each `serve_batch`/`serve_stream` call is
    /// one session under the hood).
    pub sessions: u64,
    /// Deepest submitted-but-unconsumed request backlog any session saw —
    /// the in-flight depth the bounded queue and delivery window held to.
    pub peak_in_flight_requests: u64,
    /// Fullest any session's delivery (reorder) window got, in lane groups.
    pub peak_reorder_window_groups: u64,
    /// Response payload buffers served from a session pool (recycled).
    pub pool_hits: u64,
    /// Response payload buffers freshly allocated (warm-up and detached
    /// responses count here).
    pub pool_misses: u64,
    /// Per-tenant tallies, keyed by tenant id — requests, groups, weight,
    /// and scheduler queue-wait aggregates.
    pub per_tenant: BTreeMap<TenantId, TenantTally>,
    /// Global lifecycle-stage histograms (latencies in nanoseconds,
    /// firings in spikes) — the merge of every tenant's
    /// [`TelemetrySummary::per_tenant_stages`] entry.
    pub stages: StageSnapshot,
    /// Per-tenant lifecycle-stage histograms, keyed by tenant id.
    pub per_tenant_stages: BTreeMap<TenantId, StageSnapshot>,
    /// Per-backend eval-latency histograms (nanoseconds per group inside
    /// the backend), keyed by backend name.
    pub per_backend_eval: BTreeMap<&'static str, HistogramSnapshot>,
    /// Requests shed at admission — a full tenant queue under a shedding
    /// [`crate::AdmissionPolicy`] answered them with
    /// [`crate::RuntimeError::Shed`]. Exported as `tcmm_shed_total`.
    pub sheds: u64,
    /// Requests whose group was retried on the scalar fallback after the
    /// primary backend panicked or errored. Exported as
    /// `tcmm_retries_total`.
    pub retries: u64,
    /// Requests answered with [`crate::RuntimeError::DeadlineExceeded`]
    /// because their remaining deadline budget no longer covered the eval
    /// estimate when a worker reached them. Exported as
    /// `tcmm_deadline_miss_total`.
    pub deadline_misses: u64,
    /// Backend quarantine events — one per failed group eval; while
    /// quarantined a backend is skipped by fresh picks with exponential
    /// backoff. Exported as `tcmm_quarantines_total`.
    pub quarantines: u64,
}

/// Cumulative-bucket (`le`) bounds for Prometheus latency families, in
/// nanoseconds: 1µs times powers of 4, up to ~16.8s, then `+Inf`.
const LATENCY_LE_NS: [u64; 13] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
    16_777_216_000,
];

/// Cumulative-bucket (`le`) bounds for the firings-per-request families
/// (raw spike counts), then `+Inf`.
const FIRINGS_LE: [u64; 13] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024, 4_096, 16_384, 65_536,
];

/// One JSON histogram object (counts exact; quantiles carry the
/// [`crate::metrics::RELATIVE_ERROR`] bound).
fn hist_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.1}, \
         \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        h.count(),
        h.sum(),
        h.max(),
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.95),
        h.quantile(0.99),
    )
}

/// The six stage histograms of one [`StageSnapshot`] as a JSON object.
fn stages_json(s: &StageSnapshot) -> String {
    let mut out = String::from("{");
    for (i, (name, h)) in s.latency_stages().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {}", hist_json(h));
    }
    let _ = write!(out, ", \"firings\": {}", hist_json(&s.firings));
    out.push('}');
    out
}

/// Emits a `# HELP` + `# TYPE` header for one metric family.
fn prom_family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Emits one single-label family: its `# HELP` + `# TYPE` header, then one
/// `name{label="key"} value` sample per entry of `samples`.
fn prom_labelled<K: fmt::Display, V: fmt::Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    label: &str,
    samples: impl IntoIterator<Item = (K, V)>,
) {
    prom_family(out, name, kind, help);
    for (key, value) in samples {
        let _ = writeln!(out, "{name}{{{label}=\"{key}\"}} {value}");
    }
}

/// Emits the `_bucket`/`_sum`/`_count` samples of one histogram under
/// `family{labels}`. Latency histograms export `le` in seconds; raw-valued
/// ones (firings) export their native unit. Cumulative bucket counts are
/// computed at the histogram's own bucket resolution
/// ([`HistogramSnapshot::count_at_or_below`]).
fn prom_hist(out: &mut String, family: &str, labels: &str, h: &HistogramSnapshot, seconds: bool) {
    let bounds: &[u64] = if seconds { &LATENCY_LE_NS } else { &FIRINGS_LE };
    let sep = if labels.is_empty() { "" } else { "," };
    for &bound in bounds {
        let le = if seconds {
            (bound as f64 / 1e9).to_string()
        } else {
            bound.to_string()
        };
        let _ = writeln!(
            out,
            "{family}_bucket{{{labels}{sep}le=\"{le}\"}} {}",
            h.count_at_or_below(bound)
        );
    }
    let _ = writeln!(
        out,
        "{family}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    let sum = if seconds {
        (h.sum() as f64 / 1e9).to_string()
    } else {
        h.sum().to_string()
    };
    let brace = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{family}_sum{brace} {sum}");
    let _ = writeln!(out, "{family}_count{brace} {}", h.count());
}

impl TelemetrySummary {
    /// The fairness metric: the worst tenant's mean queue wait over the
    /// best tenant's, across tenants that queued at least one group. `1.0`
    /// is perfectly fair *for equal weights*; under a FIFO scheduler a
    /// steady tenant stuck behind a burst drives this towards the backlog
    /// ratio, while deficit round-robin keeps it near the weight ratio.
    /// Means are clamped to ≥ 1 ns so a tenant whose waits all measured
    /// 0 ns on a coarse clock still participates (as the best case) rather
    /// than silently dropping out of the ratio. Returns `1.0` with fewer
    /// than two tenants that ever queued a group.
    pub fn max_queue_wait_ratio(&self) -> f64 {
        let means: Vec<f64> = self
            .per_tenant
            .values()
            .filter(|t| t.queued_groups > 0)
            .map(|t| t.mean_queue_wait_ns().max(1.0))
            .collect();
        if means.len() < 2 {
            return 1.0;
        }
        let max = means.iter().copied().fold(f64::MIN, f64::max);
        let min = means.iter().copied().fold(f64::MAX, f64::min);
        max / min
    }
    /// Aggregate gate-evaluation throughput over backend busy time
    /// (gate-evals per second); zero when nothing was served.
    pub fn gate_evals_per_sec(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.gate_evals as f64 / (self.busy_ns as f64 / 1e9)
        }
    }

    /// Mean firings per served request; zero when nothing was served.
    pub fn mean_firings(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.firings as f64 / self.requests as f64
        }
    }

    /// The counters and histogram mass recorded since `prev` was taken
    /// (`prev` must be an earlier snapshot of the same [`Telemetry`]).
    /// Monotone counters and histograms subtract; gauges and peaks
    /// (`peak_*`, per-tenant `weight` and `queue_wait_ns_max`) keep their
    /// current values, since per-interval peaks are not recoverable from
    /// two cumulative snapshots.
    pub fn delta_since(&self, prev: &TelemetrySummary) -> TelemetrySummary {
        let per_backend = self
            .per_backend
            .iter()
            .map(|(name, now)| {
                let then = prev.per_backend.get(name).copied().unwrap_or_default();
                (
                    *name,
                    BackendTally {
                        groups: now.groups.saturating_sub(then.groups),
                        requests: now.requests.saturating_sub(then.requests),
                        busy_ns: now.busy_ns.saturating_sub(then.busy_ns),
                        gate_evals: now.gate_evals.saturating_sub(then.gate_evals),
                        firings: now.firings.saturating_sub(then.firings),
                    },
                )
            })
            .collect();
        let per_tenant = self
            .per_tenant
            .iter()
            .map(|(id, now)| {
                let then = prev.per_tenant.get(id).copied().unwrap_or_default();
                (
                    *id,
                    TenantTally {
                        weight: now.weight,
                        requests: now.requests.saturating_sub(then.requests),
                        groups: now.groups.saturating_sub(then.groups),
                        queued_groups: now.queued_groups.saturating_sub(then.queued_groups),
                        served_cost: now.served_cost.saturating_sub(then.served_cost),
                        queue_wait_ns_total: now
                            .queue_wait_ns_total
                            .saturating_sub(then.queue_wait_ns_total),
                        queue_wait_ns_max: now.queue_wait_ns_max,
                    },
                )
            })
            .collect();
        let default_stages = StageSnapshot::default();
        let per_tenant_stages = self
            .per_tenant_stages
            .iter()
            .map(|(id, now)| {
                let then = prev.per_tenant_stages.get(id).unwrap_or(&default_stages);
                (*id, now.delta_since(then))
            })
            .collect();
        let default_hist = HistogramSnapshot::default();
        let per_backend_eval = self
            .per_backend_eval
            .iter()
            .map(|(name, now)| {
                let then = prev.per_backend_eval.get(name).unwrap_or(&default_hist);
                (*name, now.delta_since(then))
            })
            .collect();
        TelemetrySummary {
            requests: self.requests.saturating_sub(prev.requests),
            groups: self.groups.saturating_sub(prev.groups),
            padded_lanes: self.padded_lanes.saturating_sub(prev.padded_lanes),
            gate_evals: self.gate_evals.saturating_sub(prev.gate_evals),
            class_gate_evals: [
                self.class_gate_evals[0].saturating_sub(prev.class_gate_evals[0]),
                self.class_gate_evals[1].saturating_sub(prev.class_gate_evals[1]),
                self.class_gate_evals[2].saturating_sub(prev.class_gate_evals[2]),
            ],
            firings: self.firings.saturating_sub(prev.firings),
            busy_ns: self.busy_ns.saturating_sub(prev.busy_ns),
            per_backend,
            sessions: self.sessions.saturating_sub(prev.sessions),
            peak_in_flight_requests: self.peak_in_flight_requests,
            peak_reorder_window_groups: self.peak_reorder_window_groups,
            pool_hits: self.pool_hits.saturating_sub(prev.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(prev.pool_misses),
            per_tenant,
            stages: self.stages.delta_since(&prev.stages),
            per_tenant_stages,
            per_backend_eval,
            sheds: self.sheds.saturating_sub(prev.sheds),
            retries: self.retries.saturating_sub(prev.retries),
            deadline_misses: self.deadline_misses.saturating_sub(prev.deadline_misses),
            quarantines: self.quarantines.saturating_sub(prev.quarantines),
        }
    }

    /// The summary as a self-contained JSON object (hand-rolled — the
    /// runtime carries no serialization dependency). Schema: see the
    /// README "Observability" section; versioned by the `schema_version`
    /// field ([`TELEMETRY_SCHEMA_VERSION`]). Histogram objects carry exact
    /// `count`/`sum`/`max`/`mean` plus `p50`/`p95`/`p99` under the
    /// histogram's documented relative-error bound; latencies are in
    /// nanoseconds, firings in spikes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {TELEMETRY_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"requests\": {},", self.requests);
        let _ = writeln!(out, "  \"groups\": {},", self.groups);
        let _ = writeln!(out, "  \"padded_lanes\": {},", self.padded_lanes);
        let _ = writeln!(out, "  \"gate_evals\": {},", self.gate_evals);
        let _ = writeln!(
            out,
            "  \"class_gate_evals\": {{\"unit\": {}, \"pow2\": {}, \"general\": {}}},",
            self.class_gate_evals[0], self.class_gate_evals[1], self.class_gate_evals[2]
        );
        let _ = writeln!(out, "  \"firings\": {},", self.firings);
        let _ = writeln!(out, "  \"busy_ns\": {},", self.busy_ns);
        let _ = writeln!(out, "  \"sessions\": {},", self.sessions);
        let _ = writeln!(
            out,
            "  \"peak_in_flight_requests\": {},",
            self.peak_in_flight_requests
        );
        let _ = writeln!(
            out,
            "  \"peak_reorder_window_groups\": {},",
            self.peak_reorder_window_groups
        );
        let _ = writeln!(out, "  \"pool_hits\": {},", self.pool_hits);
        let _ = writeln!(out, "  \"pool_misses\": {},", self.pool_misses);
        let _ = writeln!(out, "  \"sheds\": {},", self.sheds);
        let _ = writeln!(out, "  \"retries\": {},", self.retries);
        let _ = writeln!(out, "  \"deadline_misses\": {},", self.deadline_misses);
        let _ = writeln!(out, "  \"quarantines\": {},", self.quarantines);
        let _ = writeln!(out, "  \"stages\": {},", stages_json(&self.stages));
        out.push_str("  \"backends\": [");
        for (i, (name, tally)) in self.per_backend.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let eval = self
                .per_backend_eval
                .get(name)
                .map_or_else(|| hist_json(&HistogramSnapshot::default()), hist_json);
            let _ = write!(
                out,
                "\n    {{\"name\": \"{name}\", \"groups\": {}, \"requests\": {}, \
                 \"busy_ns\": {}, \"gate_evals\": {}, \"firings\": {}, \"eval\": {eval}}}",
                tally.groups, tally.requests, tally.busy_ns, tally.gate_evals, tally.firings
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"tenants\": [");
        for (i, (id, t)) in self.per_tenant.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let stages = self
                .per_tenant_stages
                .get(id)
                .map_or_else(|| stages_json(&StageSnapshot::default()), stages_json);
            let _ = write!(
                out,
                "\n    {{\"id\": {}, \"weight\": {}, \"requests\": {}, \"groups\": {}, \
                 \"queued_groups\": {}, \"served_cost\": {}, \"queue_wait_ns_total\": {}, \
                 \"queue_wait_ns_max\": {}, \"stages\": {stages}}}",
                id.0,
                t.weight,
                t.requests,
                t.groups,
                t.queued_groups,
                t.served_cost,
                t.queue_wait_ns_total,
                t.queue_wait_ns_max
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The summary in the Prometheus text exposition format (hand-rolled —
    /// no client library). Every family is prefixed `tcmm_` and carries
    /// `# HELP`/`# TYPE` headers even when it has no samples yet, so
    /// scrapers can rely on the family set. Latency histograms export
    /// seconds with a fixed `le` ladder (1µs × powers of 4); cumulative
    /// bucket counts are resolved at the underlying histogram's bucket
    /// granularity. The schema is versioned by the
    /// `tcmm_telemetry_schema_version` gauge.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        prom_family(
            &mut out,
            "tcmm_telemetry_schema_version",
            "gauge",
            "Version of the tcmm telemetry export schema.",
        );
        let _ = writeln!(
            out,
            "tcmm_telemetry_schema_version {TELEMETRY_SCHEMA_VERSION}"
        );

        for (name, help, value) in [
            ("tcmm_requests_total", "Requests served.", self.requests),
            ("tcmm_groups_total", "Lane groups evaluated.", self.groups),
            (
                "tcmm_padded_lanes_total",
                "Unused lanes across partial (ragged-tail) groups.",
                self.padded_lanes,
            ),
            (
                "tcmm_gate_evals_total",
                "Gate evaluations (gates x requests).",
                self.gate_evals,
            ),
            (
                "tcmm_firings_total",
                "Gate firings (Uchizawa-Douglas-Maass energy, in spikes).",
                self.firings,
            ),
            (
                "tcmm_sessions_total",
                "Streaming sessions opened.",
                self.sessions,
            ),
            (
                "tcmm_pool_hits_total",
                "Response buffers recycled through a session pool.",
                self.pool_hits,
            ),
            (
                "tcmm_pool_misses_total",
                "Response buffers freshly allocated.",
                self.pool_misses,
            ),
            (
                "tcmm_shed_total",
                "Requests shed at admission (full tenant queue under a shedding policy).",
                self.sheds,
            ),
            (
                "tcmm_retries_total",
                "Requests retried on the scalar fallback after a backend failure.",
                self.retries,
            ),
            (
                "tcmm_deadline_miss_total",
                "Requests shed at pop time for an expired deadline budget.",
                self.deadline_misses,
            ),
            (
                "tcmm_quarantines_total",
                "Backend quarantine events (one per failed group eval).",
                self.quarantines,
            ),
        ] {
            prom_family(&mut out, name, "counter", help);
            let _ = writeln!(out, "{name} {value}");
        }

        prom_labelled(
            &mut out,
            "tcmm_class_gate_evals_total",
            "counter",
            "Gate evaluations by kernel dispatch class.",
            "class",
            ["unit", "pow2", "general"]
                .iter()
                .zip(self.class_gate_evals),
        );

        for (name, help, value) in [
            (
                "tcmm_peak_in_flight_requests",
                "Deepest submitted-but-unconsumed request backlog any session saw.",
                self.peak_in_flight_requests,
            ),
            (
                "tcmm_peak_reorder_window_groups",
                "Fullest any session's delivery (reorder) window got, in groups.",
                self.peak_reorder_window_groups,
            ),
        ] {
            prom_family(&mut out, name, "gauge", help);
            let _ = writeln!(out, "{name} {value}");
        }

        let backends = &self.per_backend;
        prom_labelled(
            &mut out,
            "tcmm_backend_groups_total",
            "counter",
            "Lane groups evaluated, by backend.",
            "backend",
            backends.iter().map(|(name, t)| (name, t.groups)),
        );
        prom_labelled(
            &mut out,
            "tcmm_backend_requests_total",
            "counter",
            "Requests evaluated, by backend.",
            "backend",
            backends.iter().map(|(name, t)| (name, t.requests)),
        );
        prom_labelled(
            &mut out,
            "tcmm_backend_gate_evals_total",
            "counter",
            "Gate evaluations, by backend.",
            "backend",
            backends.iter().map(|(name, t)| (name, t.gate_evals)),
        );
        prom_labelled(
            &mut out,
            "tcmm_backend_firings_total",
            "counter",
            "Gate firings, by backend.",
            "backend",
            backends.iter().map(|(name, t)| (name, t.firings)),
        );
        prom_labelled(
            &mut out,
            "tcmm_backend_busy_seconds_total",
            "counter",
            "Wall-clock seconds inside the backend, summed across workers.",
            "backend",
            backends
                .iter()
                .map(|(name, t)| (name, t.busy_ns as f64 / 1e9)),
        );

        let tenants = &self.per_tenant;
        prom_labelled(
            &mut out,
            "tcmm_tenant_weight",
            "gauge",
            "DRR scheduling weight, by tenant.",
            "tenant",
            tenants.iter().map(|(id, t)| (id.0, t.weight)),
        );
        prom_labelled(
            &mut out,
            "tcmm_tenant_requests_total",
            "counter",
            "Requests submitted, by tenant.",
            "tenant",
            tenants.iter().map(|(id, t)| (id.0, t.requests)),
        );
        prom_labelled(
            &mut out,
            "tcmm_tenant_groups_total",
            "counter",
            "Lane groups packed, by tenant.",
            "tenant",
            tenants.iter().map(|(id, t)| (id.0, t.groups)),
        );
        prom_labelled(
            &mut out,
            "tcmm_tenant_queue_wait_seconds_total",
            "counter",
            "Total seconds the tenant's groups spent queued.",
            "tenant",
            tenants
                .iter()
                .map(|(id, t)| (id.0, t.queue_wait_ns_total as f64 / 1e9)),
        );

        prom_family(
            &mut out,
            "tcmm_stage_latency_seconds",
            "histogram",
            "Per-group/per-request latency by lifecycle stage (all tenants).",
        );
        for (stage, h) in self.stages.latency_stages() {
            prom_hist(
                &mut out,
                "tcmm_stage_latency_seconds",
                &format!("stage=\"{stage}\""),
                h,
                true,
            );
        }
        prom_family(
            &mut out,
            "tcmm_request_firings",
            "histogram",
            "Gate firings per request (spikes; all tenants).",
        );
        prom_hist(
            &mut out,
            "tcmm_request_firings",
            "",
            &self.stages.firings,
            false,
        );

        prom_family(
            &mut out,
            "tcmm_tenant_stage_latency_seconds",
            "histogram",
            "Per-group/per-request latency by lifecycle stage and tenant.",
        );
        for (id, stages) in &self.per_tenant_stages {
            for (stage, h) in stages.latency_stages() {
                prom_hist(
                    &mut out,
                    "tcmm_tenant_stage_latency_seconds",
                    &format!("tenant=\"{}\",stage=\"{stage}\"", id.0),
                    h,
                    true,
                );
            }
        }
        prom_family(
            &mut out,
            "tcmm_tenant_request_firings",
            "histogram",
            "Gate firings per request, by tenant (spikes).",
        );
        for (id, stages) in &self.per_tenant_stages {
            prom_hist(
                &mut out,
                "tcmm_tenant_request_firings",
                &format!("tenant=\"{}\"", id.0),
                &stages.firings,
                false,
            );
        }
        prom_family(
            &mut out,
            "tcmm_backend_eval_seconds",
            "histogram",
            "Backend eval wall-clock per lane group, by backend.",
        );
        for (name, h) in &self.per_backend_eval {
            prom_hist(
                &mut out,
                "tcmm_backend_eval_seconds",
                &format!("backend=\"{name}\""),
                h,
                true,
            );
        }
        out
    }
}

impl fmt::Display for TelemetrySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {}  groups: {}  padded lanes: {}",
            self.requests, self.groups, self.padded_lanes
        )?;
        writeln!(
            f,
            "gate-evals: {}  ({:.3e}/sec busy)  firings: {}  (mean {:.1}/request)",
            self.gate_evals,
            self.gate_evals_per_sec(),
            self.firings,
            self.mean_firings()
        )?;
        writeln!(
            f,
            "class mix: unit {} / pow2 {} / general {} gate-evals",
            self.class_gate_evals[0], self.class_gate_evals[1], self.class_gate_evals[2]
        )?;
        writeln!(
            f,
            "sessions: {}  peak in-flight: {} requests  peak window: {} groups  \
             pool: {} recycled / {} allocated",
            self.sessions,
            self.peak_in_flight_requests,
            self.peak_reorder_window_groups,
            self.pool_hits,
            self.pool_misses
        )?;
        if self.sheds + self.retries + self.deadline_misses + self.quarantines > 0 {
            writeln!(
                f,
                "robustness: {} shed  {} deadline-missed  {} retried  {} quarantines",
                self.sheds, self.deadline_misses, self.retries, self.quarantines
            )?;
        }
        if !self.stages.end_to_end.is_empty() {
            write!(f, "stage p50/p95/p99 (ms):")?;
            for (name, h) in self.stages.latency_stages() {
                if h.is_empty() {
                    continue;
                }
                write!(
                    f,
                    "  {name} {:.3}/{:.3}/{:.3}",
                    h.quantile(0.5) as f64 / 1e6,
                    h.quantile(0.95) as f64 / 1e6,
                    h.quantile(0.99) as f64 / 1e6
                )?;
            }
            writeln!(f)?;
        }
        for (name, tally) in &self.per_backend {
            writeln!(
                f,
                "  {name:>14}: {} groups, {} requests, {:.3}s busy, \
                 {} gate-evals, {} firings",
                tally.groups,
                tally.requests,
                tally.busy_ns as f64 / 1e9,
                tally.gate_evals,
                tally.firings
            )?;
        }
        if !self.per_tenant.is_empty() {
            writeln!(
                f,
                "tenants: {}  max queue-wait ratio: {:.2}",
                self.per_tenant.len(),
                self.max_queue_wait_ratio()
            )?;
            for (id, t) in &self.per_tenant {
                writeln!(
                    f,
                    "  {id:>14}: weight {}, {} requests in {} groups, \
                     queue wait mean {:.3}ms / max {:.3}ms",
                    t.weight,
                    t.requests,
                    t.groups,
                    t.mean_queue_wait_ns() / 1e6,
                    t.queue_wait_ns_max as f64 / 1e6
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let t = Telemetry::default();
        t.record_group("sliced64", 64, 64, [64 * 60, 64 * 30, 64 * 10], 640, 1_000);
        t.record_group("sliced64", 10, 64, [10 * 60, 10 * 30, 10 * 10], 50, 500);
        t.record_group(
            "wide256",
            256,
            256,
            [256 * 60, 256 * 30, 256 * 10],
            2_560,
            2_000,
        );
        let s = t.snapshot();
        assert_eq!(s.requests, 330);
        assert_eq!(s.groups, 3);
        assert_eq!(s.padded_lanes, 54);
        assert_eq!(s.gate_evals, (64 + 10 + 256) * 100);
        assert_eq!(s.class_gate_evals, [330 * 60, 330 * 30, 330 * 10]);
        assert_eq!(s.firings, 3_250);
        assert_eq!(s.per_backend["sliced64"].groups, 2);
        assert_eq!(s.per_backend["sliced64"].requests, 74);
        assert_eq!(s.per_backend["sliced64"].gate_evals, 74 * 100);
        assert_eq!(s.per_backend["sliced64"].firings, 690);
        assert_eq!(s.per_backend["wide256"].busy_ns, 2_000);
        assert_eq!(s.per_backend["wide256"].firings, 2_560);
        assert!(s.gate_evals_per_sec() > 0.0);
        let display = s.to_string();
        assert!(display.contains("sliced64"));
        assert!(display.contains("padded lanes: 54"));
    }

    fn queue(popped_groups: u64, served_charge: u64, total: u64, max: u64) -> TenantQueueStats {
        TenantQueueStats {
            popped_groups,
            served_charge,
            wait_ns_total: total,
            wait_ns_max: max,
        }
    }

    #[test]
    // The ratio is clamped to an exact constant, so `==` is the right check.
    #[allow(clippy::float_cmp)]
    fn zero_ns_queue_waits_participate_in_the_fairness_ratio() {
        let t = Telemetry::default();
        // A tenant whose every queued group measured 0 ns on a coarse
        // clock, against one that accumulated real wait: the ratio must
        // treat the former as the (clamped) best case, not drop it and
        // report a vacuous 1.0.
        t.record_tenant(TenantId(1), 64, 4, queue(4, 100, 0, 0));
        t.record_tenant(TenantId(2), 64, 4, queue(4, 100, 4_000, 2_000));
        let s = t.snapshot();
        assert_eq!(s.max_queue_wait_ratio(), 1_000.0);
        // A tenant that never queued (inline-only) still stays out.
        t.record_tenant(TenantId(3), 64, 4, queue(0, 0, 0, 0));
        assert_eq!(t.snapshot().max_queue_wait_ratio(), 1_000.0);
    }

    #[test]
    fn stage_histograms_merge_into_the_global_view() {
        let t = Telemetry::default();
        let a = t.tenant_stages(TenantId(1), 1);
        let b = t.tenant_stages(TenantId(2), 1);
        assert!(
            Arc::ptr_eq(&a, &t.tenant_stages(TenantId(1), 1)),
            "same tenant must share one histogram set"
        );
        a.end_to_end.record(1_000);
        a.firings.record(10);
        b.end_to_end.record(3_000);
        b.firings.record(30);
        t.backend_eval("sliced64").record(500);
        let s = t.snapshot();
        assert_eq!(s.stages.end_to_end.count(), 2);
        assert_eq!(s.stages.firings.sum(), 40);
        assert_eq!(s.per_tenant_stages[&TenantId(1)].end_to_end.count(), 1);
        assert_eq!(s.per_backend_eval["sliced64"].count(), 1);
    }

    #[test]
    fn delta_since_yields_interval_deltas() {
        let t = Telemetry::default();
        let stages = t.tenant_stages(TenantId::DEFAULT, 1);
        t.record_group("sliced64", 64, 64, [100, 0, 0], 10, 1_000);
        stages.end_to_end.record(5_000);
        let start = t.snapshot();
        t.record_group("sliced64", 32, 64, [50, 0, 0], 5, 500);
        stages.end_to_end.record(7_000);
        stages.end_to_end.record(9_000);
        let now = t.snapshot();
        let delta = now.delta_since(&start);
        assert_eq!(delta.requests, 32);
        assert_eq!(delta.groups, 1);
        assert_eq!(delta.firings, 5);
        assert_eq!(delta.per_backend["sliced64"].requests, 32);
        assert_eq!(delta.stages.end_to_end.count(), 2);
        assert_eq!(delta.stages.end_to_end.sum(), 16_000);
        // The next interval starts from here: an idle interval is all-zero.
        let idle = t.snapshot().delta_since(&now);
        assert_eq!(idle.requests, 0);
        assert_eq!(idle.stages.end_to_end.count(), 0);
    }

    #[test]
    fn exports_match_the_pinned_golden_files() {
        // The recording order a session follows: eval histograms resolve
        // with the plan (`wide256` stands for a planned backend whose every
        // group failed over), tenant lanes register, groups serve, and the
        // session flushes its gauges and tenant tallies on close.
        let t = Telemetry::default();
        let sliced = t.backend_eval("sliced64");
        let scalar = t.backend_eval("scalar");
        let _failed = t.backend_eval("wide256");
        let a = t.tenant_stages(TenantId(1), 2);
        let b = t.tenant_stages(TenantId(4), 1);
        for (stages, ns) in [(&a, 1_500u64), (&a, 40_000), (&b, 3_000_000)] {
            stages.queue_wait.record(ns / 3);
            stages.pack.record(ns / 5);
            stages.eval.record(ns / 2);
            stages.delivery_wait.record(ns / 7);
            stages.end_to_end.record(ns);
            stages.firings.record(ns % 97);
        }
        t.record_group("sliced64", 64, 64, [64 * 60, 64 * 30, 64 * 10], 640, 12_000);
        sliced.record(12_000);
        t.record_group("sliced64", 10, 64, [10 * 60, 10 * 30, 10 * 10], 50, 5_000);
        sliced.record(5_000);
        t.record_group("scalar", 3, 3, [3 * 60, 3 * 30, 3 * 10], 21, 900);
        scalar.record(900);
        t.record_sheds(5);
        t.record_retries(3);
        t.record_deadline_misses(2);
        t.record_quarantines(1);
        t.record_session(70, 3, 40, 12);
        t.record_tenant(TenantId(1), 64, 2, queue(2, 400, 6_000, 5_000));
        t.record_tenant(TenantId(4), 13, 2, queue(1, 100, 1_000, 1_000));
        let s = t.snapshot();
        assert_eq!(
            s.to_json(),
            include_str!("../testdata/telemetry_golden.json")
        );
        assert_eq!(
            s.to_prometheus(),
            include_str!("../testdata/telemetry_golden.prom")
        );
    }
}
