//! The serving facade: batch, stream, and session submission against any
//! compiled circuit, with rule-picked backend choice and scheduler sharding.

use crate::backend::{pick_by_rule, Lanes, Response};
use crate::session::{SessionOptions, SessionShared, StreamSession};
use crate::telemetry::{Telemetry, TelemetrySummary};
use crate::Result;
use std::sync::atomic::{AtomicU32, Ordering};
use tc_circuit::CompiledCircuit;

/// Tunables of a [`Runtime`], set through [`RuntimeBuilder`].
#[derive(Debug, Clone)]
pub(crate) struct RuntimeOptions {
    /// Worker threads sharding lane groups (0 = one per available core).
    pub workers: usize,
    /// Maximum lane groups in flight in the bounded work queue.
    pub queue_capacity: usize,
    /// Assumed batch size when picking the backend for an unbounded stream.
    pub stream_batch_hint: usize,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            workers: 0,
            queue_capacity: 0,
            stream_batch_hint: 4096,
        }
    }
}

impl RuntimeOptions {
    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        }
    }

    pub(crate) fn effective_queue_capacity(&self, workers: usize) -> usize {
        if self.queue_capacity > 0 {
            self.queue_capacity
        } else {
            2 * workers
        }
    }
}

/// Builder for a configured [`Runtime`].
#[derive(Debug)]
pub struct RuntimeBuilder {
    opts: RuntimeOptions,
    fixed: Option<String>,
}

impl RuntimeBuilder {
    /// Worker thread count for group sharding (0 = one per core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.opts.workers = workers;
        self
    }

    /// Bounded queue capacity in lane groups (0 = twice the workers).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.opts.queue_capacity = capacity;
        self
    }

    /// Assumed batch size when picking the backend for unbounded streams.
    pub fn stream_batch_hint(mut self, hint: usize) -> Self {
        self.opts.stream_batch_hint = hint.max(1);
        self
    }

    /// Always serves on the backend named `name` instead of the lane-width
    /// rule; an unknown name fails every submission with
    /// [`crate::RuntimeError::UnknownBackend`].
    pub fn fixed_backend(mut self, name: &str) -> Self {
        self.fixed = Some(name.to_string());
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Runtime {
        Runtime {
            fixed: self.fixed,
            opts: self.opts,
            telemetry: Telemetry::default(),
            health: Default::default(),
        }
    }
}

/// Per-backend quarantine state: consecutive eval failures and the
/// exponential-backoff pick budget that must drain before a re-probe.
/// Lock-free (two relaxed atomics) because [`Runtime::pick_backend`] sits
/// on the session-open path.
#[derive(Debug, Default)]
struct BackendHealth {
    /// Consecutive failed group evals on this backend (0 = healthy).
    strikes: AtomicU32,
    /// Picks to refuse before the next probe is allowed through.
    skip: AtomicU32,
}

/// A circuit-agnostic serving runtime.
///
/// One instance owns a selection policy, per-backend health, and telemetry;
/// it holds no circuit state, so the same runtime serves any number of
/// compiled circuits concurrently (`&self` everywhere, all state
/// interior-mutable and thread-safe).
#[derive(Debug)]
pub struct Runtime {
    /// The backend [`RuntimeBuilder::fixed_backend`] pinned, if any.
    fixed: Option<String>,
    opts: RuntimeOptions,
    telemetry: Telemetry,
    /// One entry per backend, indexed like [`Lanes::ALL`].
    health: [BackendHealth; Lanes::ALL.len()],
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::builder().build()
    }
}

impl Runtime {
    /// A runtime with the lane-width rule and one worker per core.
    pub fn new() -> Self {
        Runtime::default()
    }

    /// Starts configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder {
            opts: RuntimeOptions::default(),
            fixed: None,
        }
    }

    /// The name of the backend the runtime would use for `batch` requests
    /// against `circuit`. Evaluates nothing and changes nothing: the pick is
    /// a rule over lane widths, and a quarantined pick reports `scalar`
    /// while its skip budget remains without spending any of it.
    pub fn backend_for(&self, circuit: &CompiledCircuit, batch: usize) -> Result<&'static str> {
        let lanes = self.rule_or_fixed(circuit, batch)?;
        let h = self.health(lanes);
        let quarantined =
            h.strikes.load(Ordering::Relaxed) != 0 && h.skip.load(Ordering::Relaxed) != 0;
        Ok(if quarantined { Lanes::Scalar } else { lanes }.name())
    }

    /// A snapshot of everything served so far.
    pub fn telemetry(&self) -> TelemetrySummary {
        self.telemetry.snapshot()
    }

    /// Opens a streaming session against `circuit` and runs `f` with it.
    ///
    /// The session outlives nothing: scoped worker threads spawn lazily as
    /// groups are dispatched (none for an empty session, one per group up
    /// to the worker target) and join when `f` returns, so borrows of the
    /// runtime and circuit stay plain references. Submit rows from any
    /// thread inside `f` (spawn your own scoped threads around the
    /// `&StreamSession` if you like) and consume responses incrementally —
    /// see [`StreamSession`] for the flat-memory contract.
    ///
    /// The backend is picked lazily on the first submitted row, so opening
    /// (and closing) a session that never submits costs nothing.
    pub fn open_session<T>(
        &self,
        circuit: &CompiledCircuit,
        opts: SessionOptions,
        f: impl FnOnce(&StreamSession<'_, '_>) -> T,
    ) -> T {
        /// Unblocks and drains workers even when `f` unwinds: without this,
        /// a panicking consumer would leave workers parked in the engine
        /// and `thread::scope` would join them forever instead of
        /// propagating the panic.
        struct Shutdown<'a>(&'a SessionShared<'a>);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    // Driver-side panic teardown: emit the flight-recorder
                    // post-mortem (no-op unless TCMM_TRACE is on) before
                    // unblocking the workers.
                    self.0.dump_trace("session panic teardown");
                }
                self.0.shutdown();
            }
        }

        let shared = SessionShared::new(self, circuit, opts);
        let out = std::thread::scope(|scope| {
            let _shutdown = Shutdown(&shared);
            let session = StreamSession {
                shared: &shared,
                scope,
            };
            f(&session)
        });
        shared.flush_telemetry();
        out
    }

    /// Serves a batch of requests, returning one [`Response`] per request in
    /// submission order. Any batch size is accepted — requests are packed
    /// into full lane groups with a single ragged tail.
    ///
    /// A thin wrapper over [`Runtime::open_session`] with the default
    /// [`SessionOptions`] (the default tenant) sized by the batch length;
    /// open a session directly for any other option.
    pub fn serve_batch<R: AsRef<[bool]> + Sync>(
        &self,
        circuit: &CompiledCircuit,
        rows: &[R],
    ) -> Result<Vec<Response>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let opts = SessionOptions::default().batch_hint(rows.len());
        self.serve_materialised(circuit, opts, rows.len(), rows)
    }

    /// Serves an unbounded request stream: rows are packed into full lane
    /// groups as they arrive and flow through the bounded queue, so the
    /// *input* side is never buffered beyond `queue_capacity` groups (plus
    /// the ones workers hold). The returned responses are fully
    /// materialised, in submission order — memory still grows with the
    /// response count (outputs and firing count per request), so size
    /// long-running streams accordingly, or use [`Runtime::open_session`]
    /// directly to consume responses incrementally at flat memory.
    ///
    /// The calling thread drives submission and drains completed responses
    /// whenever the queue pushes back. The backend is picked lazily on the
    /// first packed row.
    pub fn serve_stream<I>(&self, circuit: &CompiledCircuit, requests: I) -> Result<Vec<Response>>
    where
        I: IntoIterator<Item = Vec<bool>>,
    {
        self.serve_materialised(circuit, SessionOptions::default(), 0, requests)
    }

    /// The body of [`Runtime::serve_batch`] and [`Runtime::serve_stream`]:
    /// submits every row through one session and collects the responses in
    /// submission order.
    fn serve_materialised<R: AsRef<[bool]>>(
        &self,
        circuit: &CompiledCircuit,
        opts: SessionOptions,
        capacity: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> Result<Vec<Response>> {
        self.open_session(circuit, opts, |session| {
            let mut out = Vec::with_capacity(capacity);
            for row in rows {
                session.submit_draining(row.as_ref(), &mut out)?;
            }
            session.finish();
            while let Some(resp) = session.next_response()? {
                // A materialising call has no way to hand back per-row
                // errors, so the first shed/expired row fails the call.
                if let Some(err) = resp.error() {
                    return Err(err.clone());
                }
                out.push(resp.into_response());
            }
            Ok(out)
        })
    }

    /// The pinned backend, or the lane-width rule's pick.
    fn rule_or_fixed(&self, circuit: &CompiledCircuit, batch: usize) -> Result<Lanes> {
        match &self.fixed {
            Some(name) => Lanes::from_name(name),
            None => Ok(pick_by_rule(circuit, batch)),
        }
    }

    fn health(&self, lanes: Lanes) -> &BackendHealth {
        &self.health[lanes as usize]
    }

    /// The backend a new session serves on. A quarantined pick falls back
    /// to the always-safe `scalar` until the backoff grants a re-probe
    /// (each refusal spends one unit of the skip budget); failover inside
    /// the session still retries each failed group once on `scalar`.
    pub(crate) fn pick_backend(&self, circuit: &CompiledCircuit, batch: usize) -> Result<Lanes> {
        let lanes = self.rule_or_fixed(circuit, batch)?;
        Ok(if self.backend_usable(lanes) {
            lanes
        } else {
            Lanes::Scalar
        })
    }

    /// Records a failed group eval (error or panic) on `lanes`: the
    /// backend is quarantined, so fresh picks skip it for `2^strikes`
    /// selections (capped at 64) before one probe is let through. Returns
    /// the new consecutive-strike count (for tracing).
    pub(crate) fn note_backend_failure(&self, lanes: Lanes) -> u32 {
        let h = self.health(lanes);
        let strikes = h.strikes.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        h.skip.store(1u32 << strikes.min(6), Ordering::Relaxed);
        self.telemetry.record_quarantines(1);
        strikes
    }

    /// Records a clean group eval on `lanes`, lifting any quarantine.
    /// The healthy path is a single relaxed load.
    pub(crate) fn note_backend_ok(&self, lanes: Lanes) {
        let h = self.health(lanes);
        if h.strikes.load(Ordering::Relaxed) != 0 {
            h.strikes.store(0, Ordering::Relaxed);
            h.skip.store(0, Ordering::Relaxed);
        }
    }

    /// Whether a fresh pick of `lanes` may proceed: healthy backends
    /// always; quarantined ones only once their skip budget is spent (each
    /// refusal decrements it — counter-based, so re-probing is
    /// deterministic and needs no wall clock).
    fn backend_usable(&self, lanes: Lanes) -> bool {
        let h = self.health(lanes);
        if h.strikes.load(Ordering::Relaxed) == 0 {
            return true;
        }
        let mut cur = h.skip.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return true; // backoff drained: probe granted
            }
            match h
                .skip
                .compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return false,
                Err(now) => cur = now,
            }
        }
    }

    pub(crate) fn options(&self) -> &RuntimeOptions {
        &self.opts
    }

    pub(crate) fn telemetry_ref(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultPlan};
    use std::sync::Arc;
    use tc_circuit::{CircuitBuilder, CircuitError, Wire};

    /// 3-input full adder compiled once.
    fn adder() -> CompiledCircuit {
        let mut b = CircuitBuilder::new(3);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let z = Wire::input(2);
        let carry = b.add_gate([(x, 1), (y, 1), (z, 1)], 2).unwrap();
        let sum = b
            .add_gate([(x, 1), (y, 1), (z, 1), (carry, -2)], 1)
            .unwrap();
        b.mark_output(sum);
        b.mark_output(carry);
        b.build().compile().unwrap()
    }

    fn rows(n: usize) -> Vec<Vec<bool>> {
        (0..n)
            .map(|i| vec![i % 2 == 0, i % 3 == 0, i % 5 == 0])
            .collect()
    }

    fn check_against_scalar(cc: &CompiledCircuit, rows: &[Vec<bool>], responses: &[Response]) {
        assert_eq!(responses.len(), rows.len());
        for (i, (row, response)) in rows.iter().zip(responses).enumerate() {
            let ev = cc.evaluate(row).unwrap();
            assert_eq!(response.outputs, ev.outputs(), "request {i}");
            assert_eq!(
                response.firing_count as usize,
                ev.firing_count(),
                "request {i}"
            );
        }
    }

    #[test]
    fn serve_batch_matches_scalar_for_every_fixed_backend() {
        let cc = adder();
        let requests = rows(731); // ragged for every lane width
        for name in Lanes::ALL.map(Lanes::name) {
            let runtime = Runtime::builder().fixed_backend(name).workers(3).build();
            let responses = runtime.serve_batch(&cc, &requests).unwrap();
            check_against_scalar(&cc, &requests, &responses);
            let summary = runtime.telemetry();
            assert_eq!(summary.requests, 731, "backend {name}");
            assert_eq!(summary.per_backend.len(), 1);
            assert!(summary.per_backend.contains_key(name));
        }
    }

    #[test]
    fn serve_stream_packs_lane_groups_incrementally() {
        let cc = adder();
        let requests = rows(1000);
        let runtime = Runtime::builder()
            .fixed_backend("wide128")
            .workers(4)
            .queue_capacity(2)
            .build();
        let responses = runtime.serve_stream(&cc, requests.iter().cloned()).unwrap();
        check_against_scalar(&cc, &requests, &responses);
        let summary = runtime.telemetry();
        assert_eq!(summary.groups, 1000usize.div_ceil(128) as u64);
        // 1000 = 7 full 128-lane groups + a 104-lane tail.
        assert_eq!(summary.padded_lanes, (128 - 1000 % 128) as u64);
    }

    #[test]
    fn empty_submissions_are_served_trivially() {
        let cc = adder();
        let runtime = Runtime::new();
        let no_rows: Vec<Vec<bool>> = Vec::new();
        assert!(runtime.serve_batch(&cc, &no_rows).unwrap().is_empty());
        assert!(runtime.serve_stream(&cc, no_rows).unwrap().is_empty());
        assert_eq!(runtime.telemetry().requests, 0);
    }

    /// A bank-shaped circuit like the paper's Lemma 3.1 blocks: 40
    /// thresholds over one 40-input row, 1,600 source edges stored once.
    fn thermometer() -> CompiledCircuit {
        let mut b = CircuitBuilder::new(40);
        let terms: Vec<_> = (0..40).map(|i| (Wire::input(i), 1)).collect();
        for g in b.add_bank(terms, 1..=40).unwrap() {
            b.mark_output(g);
        }
        let circuit = b.build();
        assert!(circuit.num_edges() > 1_000);
        circuit.compile().unwrap()
    }

    /// The rule's bit-sliced pick for `batch`, derived from the host's SIMD
    /// level: the smallest group covering the batch, capped at the widest
    /// vectorized one.
    fn sliced_pick(batch: usize) -> &'static str {
        let widest = [8, 4, 2]
            .into_iter()
            .find(|&w| tc_circuit::simd::vectorized_width(w))
            .map_or(64, |w| 64 * w);
        match batch.min(widest) {
            0..=64 => "sliced64",
            65..=128 => "wide128",
            129..=256 => "wide256",
            _ => "wide512",
        }
    }

    #[test]
    fn rule_picks_the_smallest_group_the_batch_fills() {
        let adder = adder();
        let bank = thermometer();
        let runtime = Runtime::new();
        for batch in [1, 63, 64, 65, 100, 256, 389, 635, 1024, 4096] {
            // Scalar undercuts a 64-lane pass only for one request on the
            // 7-edge adder; the bank's shared row keeps it sliced.
            let expected = if batch == 1 {
                "scalar"
            } else {
                sliced_pick(batch)
            };
            assert_eq!(runtime.backend_for(&adder, batch).unwrap(), expected);
            assert_eq!(
                runtime.backend_for(&bank, batch).unwrap(),
                sliced_pick(batch)
            );

            // A default runtime serves the batch on that pick, correctly.
            let served = Runtime::new();
            let requests = rows(batch);
            let responses = served.serve_batch(&adder, &requests).unwrap();
            check_against_scalar(&adder, &requests, &responses);
            let summary = served.telemetry();
            assert_eq!(
                summary.per_backend.keys().copied().collect::<Vec<_>>(),
                vec![expected]
            );
        }
    }

    #[test]
    fn malformed_requests_surface_the_circuit_error() {
        let cc = adder();
        let runtime = Runtime::builder()
            .fixed_backend("sliced64")
            .workers(2)
            .build();
        let mut requests = rows(100);
        requests[77] = vec![true]; // wrong width
        let err = runtime.serve_batch(&cc, &requests).unwrap_err();
        assert!(matches!(
            err,
            crate::RuntimeError::Circuit(CircuitError::InputLengthMismatch { .. })
        ));
    }

    #[test]
    fn per_request_backends_report_no_phantom_padding() {
        let cc = adder();
        let runtime = Runtime::builder().fixed_backend("scalar").build();
        runtime.serve_batch(&cc, &rows(3)).unwrap();
        assert_eq!(runtime.telemetry().padded_lanes, 0);
        let sliced = Runtime::builder().fixed_backend("sliced64").build();
        sliced.serve_batch(&cc, &rows(3)).unwrap();
        assert_eq!(sliced.telemetry().padded_lanes, 61);
    }

    #[test]
    fn unknown_fixed_backend_is_reported() {
        let cc = adder();
        let runtime = Runtime::builder().fixed_backend("tpu").build();
        assert!(matches!(
            runtime.serve_batch(&cc, &rows(4)),
            Err(crate::RuntimeError::UnknownBackend { .. })
        ));
    }

    /// Serves one 8-row group (one lane group on every backend) through a
    /// one-worker session, with `faults` armed when given.
    fn serve_one_group(runtime: &Runtime, cc: &CompiledCircuit, faults: Option<Arc<FaultPlan>>) {
        let opts = SessionOptions {
            faults,
            ..SessionOptions::default()
        };
        let served = runtime.open_session(cc, opts, |session| {
            let mut out = Vec::new();
            for row in rows(8) {
                session.submit_draining(&row, &mut out).unwrap();
            }
            session.finish();
            while let Some(resp) = session.next_response().unwrap() {
                out.push(resp.into_response());
            }
            out
        });
        check_against_scalar(cc, &rows(8), &served);
    }

    /// Groups served so far on each backend.
    fn groups_by_backend(runtime: &Runtime) -> Vec<(&'static str, u64)> {
        let summary = runtime.telemetry();
        summary
            .per_backend
            .iter()
            .map(|(name, tally)| (*name, tally.groups))
            .collect()
    }

    #[test]
    fn quarantine_skips_two_picks_then_one_clean_probe_clears_the_strikes() {
        let cc = adder();
        let runtime = Runtime::builder()
            .fixed_backend("sliced64")
            .workers(1)
            .build();
        let panic_once = Arc::new(FaultPlan::new().inject(FaultKind::Panic, 1, 0, Some(1)));
        // The panicking group fails over to scalar and quarantines sliced64
        // with one strike: the next 2^1 picks skip it.
        serve_one_group(&runtime, &cc, Some(panic_once));
        assert_eq!(groups_by_backend(&runtime), vec![("scalar", 1)]);
        assert_eq!(runtime.health(Lanes::W1).strikes.load(Ordering::Relaxed), 1);
        serve_one_group(&runtime, &cc, None);
        serve_one_group(&runtime, &cc, None);
        assert_eq!(groups_by_backend(&runtime), vec![("scalar", 3)]);
        // The budget is spent: the third session probes sliced64, and its
        // clean group lifts the quarantine.
        serve_one_group(&runtime, &cc, None);
        assert_eq!(
            groups_by_backend(&runtime),
            vec![("scalar", 3), ("sliced64", 1)]
        );
        assert_eq!(runtime.health(Lanes::W1).strikes.load(Ordering::Relaxed), 0);
        assert_eq!(runtime.telemetry().quarantines, 1);
    }

    #[test]
    fn backend_for_reports_a_quarantine_without_spending_it() {
        let cc = adder();
        let runtime = Runtime::builder()
            .fixed_backend("sliced64")
            .workers(1)
            .build();
        let panic_once = Arc::new(FaultPlan::new().inject(FaultKind::Panic, 1, 0, Some(1)));
        serve_one_group(&runtime, &cc, Some(panic_once));
        for _ in 0..10 {
            assert_eq!(runtime.backend_for(&cc, 64).unwrap(), "scalar");
        }
        // Ten queries later the skip budget is still whole: the next two
        // sessions are still served on scalar.
        serve_one_group(&runtime, &cc, None);
        serve_one_group(&runtime, &cc, None);
        assert_eq!(groups_by_backend(&runtime), vec![("scalar", 3)]);
        assert_eq!(runtime.backend_for(&cc, 64).unwrap(), "sliced64");
    }
}
