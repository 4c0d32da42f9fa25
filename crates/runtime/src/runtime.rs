//! The serving facade: batch, stream, and session submission against any
//! compiled circuit, with rule-picked backend choice and scheduler sharding.

use crate::backend::{BackendRegistry, EvalBackend, Response};
use crate::session::{SessionOptions, SessionShared, StreamSession};
use crate::telemetry::{Telemetry, TelemetrySummary};
use crate::tuner::{pick_by_rule, TunerPolicy};
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
    /// Assumed batch size when tuning for an unbounded stream.
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
    registry: BackendRegistry,
    opts: RuntimeOptions,
    policy: TunerPolicy,
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

    /// Assumed batch size when tuning for unbounded streams.
    pub fn stream_batch_hint(mut self, hint: usize) -> Self {
        self.opts.stream_batch_hint = hint.max(1);
        self
    }

    /// Replaces the whole backend registry.
    pub fn registry(mut self, registry: BackendRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers an additional backend (may shadow a standard one by name).
    pub fn register(mut self, backend: Box<dyn EvalBackend>) -> Self {
        self.registry.register(backend);
        self
    }

    /// Sets the backend-selection policy.
    pub fn policy(mut self, policy: TunerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for [`TunerPolicy::Fixed`].
    pub fn fixed_backend(self, name: &str) -> Self {
        self.policy(TunerPolicy::Fixed(name.to_string()))
    }

    /// Finishes the builder.
    pub fn build(self) -> Runtime {
        let health = (0..self.registry.backends().len())
            .map(|_| BackendHealth::default())
            .collect();
        Runtime {
            registry: self.registry,
            policy: self.policy,
            opts: self.opts,
            telemetry: Telemetry::default(),
            health,
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
/// One instance owns a backend registry, a selection policy, and telemetry;
/// it holds no circuit state, so the same runtime serves any number of
/// compiled circuits concurrently (`&self` everywhere, all state
/// interior-mutable and thread-safe).
#[derive(Debug)]
pub struct Runtime {
    registry: BackendRegistry,
    policy: TunerPolicy,
    opts: RuntimeOptions,
    telemetry: Telemetry,
    /// One entry per registered backend, indexed like the registry.
    health: Vec<BackendHealth>,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::builder().build()
    }
}

impl Runtime {
    /// A runtime with the standard backend registry, the lane-width rule
    /// ([`TunerPolicy::Rule`]), and one worker per core.
    pub fn new() -> Self {
        Runtime::default()
    }

    /// Starts configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder {
            registry: BackendRegistry::standard(),
            opts: RuntimeOptions::default(),
            policy: TunerPolicy::default(),
        }
    }

    /// The registered backends.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// The name of the backend the runtime would use for `batch` requests
    /// against `circuit`. Evaluates nothing: the pick is a rule over lane
    /// widths and cost models.
    pub fn backend_for(&self, circuit: &CompiledCircuit, batch: usize) -> Result<&'static str> {
        let idx = self.pick_backend(circuit, batch)?;
        Ok(self.registry.backends()[idx].caps().name)
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
    /// [`SessionOptions`] ([`crate::Detail::Outputs`], the default tenant) sized by
    /// the batch length; open a session directly for any other option.
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

    pub(crate) fn pick_backend(&self, circuit: &CompiledCircuit, batch: usize) -> Result<usize> {
        let idx = match &self.policy {
            TunerPolicy::Fixed(name) => self.registry.index_of(name),
            TunerPolicy::Rule => pick_by_rule(&self.registry, circuit, batch),
        }?;
        if self.backend_usable(idx) {
            return Ok(idx);
        }
        // Quarantined: prefer the always-safe scalar fallback until the
        // backoff grants a re-probe. Keep the original pick when scalar is
        // absent (custom registries) or is the quarantined backend itself —
        // failover inside the session still retries each group once.
        match self.registry.index_of("scalar") {
            Ok(scalar) if scalar != idx => Ok(scalar),
            _ => Ok(idx),
        }
    }

    /// Records a failed group eval (error or panic) on backend `idx`: the
    /// backend is quarantined, so fresh picks skip it for `2^strikes`
    /// selections (capped at 64) before one probe is let through. Returns
    /// the new consecutive-strike count (for tracing).
    pub(crate) fn note_backend_failure(&self, idx: usize) -> u32 {
        let Some(h) = self.health.get(idx) else {
            return 0;
        };
        let strikes = h.strikes.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        h.skip.store(1u32 << strikes.min(6), Ordering::Relaxed);
        self.telemetry.record_quarantines(1);
        strikes
    }

    /// Records a clean group eval on backend `idx`, lifting any quarantine.
    /// The healthy path is a single relaxed load.
    pub(crate) fn note_backend_ok(&self, idx: usize) {
        let Some(h) = self.health.get(idx) else {
            return;
        };
        if h.strikes.load(Ordering::Relaxed) != 0 {
            h.strikes.store(0, Ordering::Relaxed);
            h.skip.store(0, Ordering::Relaxed);
        }
    }

    /// Whether a fresh pick of backend `idx` may proceed: healthy backends
    /// always; quarantined ones only once their skip budget is spent (each
    /// refusal decrements it — counter-based, so re-probing is
    /// deterministic and needs no wall clock).
    fn backend_usable(&self, idx: usize) -> bool {
        let Some(h) = self.health.get(idx) else {
            return true;
        };
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
    use crate::Detail;
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
        for name in BackendRegistry::standard().names() {
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

    /// A bit-sliced backend that must never run.
    struct Unreachable(&'static str, usize);
    impl crate::EvalBackend for Unreachable {
        fn caps(&self) -> crate::BackendCaps {
            crate::BackendCaps {
                name: self.0,
                lane_group: self.1,
                bit_sliced: true,
            }
        }
        fn cost_model(&self, _: &CompiledCircuit, _: usize) -> f64 {
            0.0
        }
        fn eval_group(
            &self,
            _: &CompiledCircuit,
            _: &[&[bool]],
            _: Detail,
            _: &mut tc_circuit::PlaneArena,
            _: &mut Vec<crate::Response>,
        ) -> crate::Result<()> {
            panic!("backend {} evaluated outside a served request", self.0);
        }
    }

    #[test]
    fn picking_a_backend_evaluates_nothing() {
        let cc = thermometer();
        // Shadow the rule's pick for a large batch (wide512 on an AVX2 or
        // AVX-512 host, sliced64 with SIMD off) with a backend that panics
        // when evaluated.
        let shadowed = Runtime::new().backend_for(&cc, 4096).unwrap();
        let standard = BackendRegistry::standard();
        let lanes = standard.backends()[standard.index_of(shadowed).unwrap()]
            .caps()
            .lane_group;
        let runtime = Runtime::builder()
            .register(Box::new(Unreachable(shadowed, lanes)))
            .build();
        let unreachable = runtime.registry().backends().len() - 1;
        assert_eq!(runtime.pick_backend(&cc, 4096).unwrap(), unreachable);
        assert_eq!(runtime.backend_for(&cc, 4096).unwrap(), shadowed);

        let no_rows: Vec<Vec<bool>> = Vec::new();
        assert!(runtime.serve_stream(&cc, no_rows).unwrap().is_empty());
        let out = runtime.open_session(&cc, SessionOptions::default(), |session| {
            session.finish();
            session.next_response().map(|r| r.is_none())
        });
        assert!(out.unwrap());
        assert_eq!(runtime.telemetry().requests, 0);
    }

    #[test]
    fn detail_full_carries_the_evaluation() {
        let cc = adder();
        let runtime = Runtime::builder().fixed_backend("wide256").build();
        let requests = rows(70);
        let full = SessionOptions::default().detail(Detail::Full);
        let responses = runtime.open_session(&cc, full, |session| {
            let mut out = Vec::new();
            for row in &requests {
                session.submit_draining(row, &mut out).unwrap();
            }
            session.finish();
            while let Some(resp) = session.next_response().unwrap() {
                out.push(resp.into_response());
            }
            out
        });
        assert_eq!(responses.len(), requests.len());
        for (row, response) in requests.iter().zip(&responses) {
            assert_eq!(
                response.evaluation.as_ref().unwrap(),
                &cc.evaluate(row).unwrap()
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

    /// A buggy custom backend returning one response too few per group.
    struct ShortChanger(&'static str);
    impl crate::EvalBackend for ShortChanger {
        fn caps(&self) -> crate::BackendCaps {
            crate::BackendCaps {
                name: self.0,
                lane_group: 16,
                bit_sliced: false,
            }
        }
        fn cost_model(&self, _: &CompiledCircuit, _: usize) -> f64 {
            0.0
        }
        fn eval_group(
            &self,
            circuit: &CompiledCircuit,
            rows: &[&[bool]],
            detail: Detail,
            arena: &mut tc_circuit::PlaneArena,
            responses: &mut Vec<crate::Response>,
        ) -> crate::Result<()> {
            crate::ScalarBackend.eval_group(circuit, rows, detail, arena, responses)?;
            responses.pop();
            Ok(())
        }
    }

    #[test]
    fn short_changing_backends_fail_over_to_scalar() {
        let cc = adder();
        let runtime = Runtime::builder()
            .register(Box::new(ShortChanger("short_changer")))
            .fixed_backend("short_changer")
            .workers(1)
            .build();
        // Every group trips the contract check, is retried once on the
        // scalar fallback, and completes — the batch never aborts.
        let requests = rows(40);
        let responses = runtime.serve_batch(&cc, &requests).unwrap();
        check_against_scalar(&cc, &requests, &responses);
        let summary = runtime.telemetry();
        assert_eq!(summary.retries, 40, "every row retried on scalar");
        assert!(summary.quarantines >= 1, "failing backend quarantined");
    }

    #[test]
    fn short_changing_scalar_shadow_still_surfaces_the_contract_error() {
        let cc = adder();
        // Shadow the scalar fallback with the same bug: the retry also
        // short-changes, so the violation must surface, not be swallowed.
        let runtime = Runtime::builder()
            .register(Box::new(ShortChanger("short_changer")))
            .register(Box::new(ShortChanger("scalar")))
            .fixed_backend("short_changer")
            .workers(1)
            .build();
        assert!(matches!(
            runtime.serve_batch(&cc, &rows(40)),
            Err(crate::RuntimeError::BackendContract {
                backend: "scalar",
                expected: 16,
                actual: 15,
            })
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
}
