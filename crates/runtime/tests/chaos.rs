//! Fault-injection (chaos) suite: under deterministically injected worker
//! panics, backend eval errors, stragglers, and queue-full pressure, the
//! session contract must hold — every accepted row is answered exactly
//! once (with a payload or a typed error), non-faulted rows are
//! byte-identical to a fault-free run, failed backends degrade to the
//! scalar fallback instead of aborting, and one tenant's faults never take
//! another tenant down.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tc_circuit::{CircuitBuilder, CompiledCircuit, Wire};
use tc_runtime::{
    AdmissionPolicy, FaultKind, FaultPlan, Runtime, RuntimeError, SessionOptions, TenantId,
};

/// `SessionShared::new` consults the `TCMM_FAULTS` environment variable, so
/// tests in this binary must not race one that sets it — each test holds
/// this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

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

fn row_for(i: usize) -> Vec<bool> {
    vec![
        i.is_multiple_of(2),
        i.is_multiple_of(3),
        i.is_multiple_of(5),
    ]
}

fn rows(n: usize) -> Vec<Vec<bool>> {
    (0..n).map(row_for).collect()
}

/// Drives `n` rows through a session and returns, per request id, either
/// the response outputs or the typed error the row was answered with.
/// Panics if any id is answered twice — the exactly-once half of
/// "accepted implies answered".
fn drive(
    runtime: &Runtime,
    cc: &CompiledCircuit,
    opts: SessionOptions,
    n: usize,
) -> std::collections::BTreeMap<u64, Result<Vec<bool>, RuntimeError>> {
    runtime.open_session(cc, opts, |session| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    session.submit(&row_for(i)).unwrap();
                }
                session.finish();
            });
            let mut seen = std::collections::BTreeMap::new();
            for resp in session.responses() {
                let resp = resp.unwrap();
                let outcome = match resp.outcome() {
                    Ok(r) => Ok(r.outputs.clone()),
                    Err(e) => Err(e.clone()),
                };
                let prev = seen.insert(resp.request_id(), outcome);
                assert!(prev.is_none(), "row {} answered twice", resp.request_id());
            }
            seen
        })
    })
}

/// Asserts every id 0..n was answered, and every successful row's outputs
/// are byte-identical to the scalar oracle.
fn check_answered(
    cc: &CompiledCircuit,
    seen: &std::collections::BTreeMap<u64, Result<Vec<bool>, RuntimeError>>,
    n: usize,
) {
    assert_eq!(seen.len(), n, "every accepted row must be answered");
    for (id, outcome) in seen {
        if let Ok(outputs) = outcome {
            let oracle = cc.evaluate(&row_for(*id as usize)).unwrap();
            assert_eq!(outputs, oracle.outputs(), "row {id} corrupted");
        }
    }
}

#[test]
fn injected_worker_panics_fail_over_and_answer_every_row() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    // Both dispatch paths: inline on the submitter (one worker) and queued
    // (two workers) catch the panic and retry the group once on scalar.
    for workers in [1usize, 2] {
        let runtime = Runtime::builder()
            .fixed_backend("sliced64")
            .workers(workers)
            .build();
        let plan = Arc::new(FaultPlan::new().inject(FaultKind::Panic, 5, 0, None));
        let opts = SessionOptions::default().faults(Arc::clone(&plan));
        let seen = drive(&runtime, &cc, opts, 2_000);
        check_answered(&cc, &seen, 2_000);
        assert!(seen.values().all(|o| o.is_ok()), "failover answers rows");
        // 2,000 rows are 32 groups; every 5th eval panics: 7 groups.
        assert_eq!(plan.fires(), 7, "workers={workers}");
        let summary = runtime.telemetry();
        assert_eq!(summary.quarantines, 7, "one strike per failed group");
        // Each panicked group's rows are retried: 64 per full group, 16 for
        // the tail, which only a queued run can draw a fault for.
        if workers == 1 {
            assert_eq!(summary.retries, 7 * 64);
        } else {
            assert!(
                summary.retries >= 6 * 64 + 16,
                "retries {}",
                summary.retries
            );
        }
        assert_eq!(summary.per_backend["scalar"].requests, summary.retries);
    }
}

#[test]
fn a_panicking_planned_scalar_surfaces_the_typed_error() {
    // With scalar itself planned there is nothing safer to fail over to:
    // the session aborts with the typed `SessionPanicked`, which both the
    // consumer and the submitters observe through the normal error
    // channel, never a wedge or an opaque PoisonError. With one worker the
    // group runs inline on the submitter, whose `submit` returns the error
    // itself.
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    let panicked = RuntimeError::SessionPanicked { context: "worker" };
    for workers in [1usize, 2] {
        let runtime = Runtime::builder()
            .fixed_backend("scalar")
            .workers(workers)
            .build();
        // The 13th eval (rows 96..104 of 8-row scalar groups) panics.
        let plan = Arc::new(FaultPlan::new().inject(FaultKind::Panic, 1_000, 12, Some(1)));
        let opts = SessionOptions::default().faults(plan);
        let (submit_err, err) = runtime.open_session(&cc, opts, |session| {
            std::thread::scope(|s| {
                let producer = s.spawn(|| {
                    let mut submit_err = None;
                    for i in 0..2_000usize {
                        if let Err(e) = session.submit(&row_for(i)) {
                            submit_err = Some((i, e));
                            break;
                        }
                    }
                    session.finish();
                    submit_err
                });
                let err = loop {
                    match session.next_response() {
                        Ok(Some(_)) => {}
                        Ok(None) => panic!("stream ended without surfacing the panic"),
                        Err(e) => break e,
                    }
                };
                (producer.join().unwrap(), err)
            })
        });
        assert_eq!(err, panicked, "consumer (workers={workers})");
        if workers == 1 {
            // Row 104 is the first that does not fit the faulted group, so
            // its submit dispatches that group inline and must return the
            // error itself, not leave it to a later call.
            assert_eq!(submit_err, Some((104, panicked.clone())));
        }
        assert_eq!(runtime.telemetry().retries, 0, "workers={workers}");
    }
}

#[test]
fn an_eval_error_on_a_planned_scalar_surfaces_through_serve_batch() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // SAFETY: single-threaded with respect to env access — the SERIAL
    // guard above keeps every test in this binary (the only ones reading
    // TCMM_FAULTS mid-run) out of this window.
    unsafe { std::env::set_var("TCMM_FAULTS", "error@every=3,offset=2,limit=1") };
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("scalar")
        .workers(1)
        .build();
    let result = runtime.serve_batch(&cc, &rows(40));
    // SAFETY: still inside the SERIAL guard's window — same argument as the
    // set_var above.
    unsafe { std::env::remove_var("TCMM_FAULTS") };
    assert_eq!(result, Err(RuntimeError::FaultInjected("eval_error")));
    let summary = runtime.telemetry();
    assert_eq!(summary.retries, 0, "scalar has no fallback to retry on");
    assert_eq!(summary.quarantines, 1);
}

#[test]
fn streamed_outputs_and_firing_counts_match_the_scalar_evaluator() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("wide128")
        .workers(2)
        .build();
    let n = 300;
    runtime.open_session(&cc, SessionOptions::default(), |session| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    session.submit(&row_for(i)).unwrap();
                }
                session.finish();
            });
            let mut seen = 0usize;
            for resp in session.responses() {
                let resp = resp.unwrap();
                let id = resp.request_id();
                let expected = cc.evaluate(&row_for(id as usize)).unwrap();
                assert_eq!(resp.outputs, expected.outputs(), "request {id}");
                assert_eq!(
                    resp.firing_count as usize,
                    expected.firing_count(),
                    "request {id}"
                );
                seen += 1;
            }
            assert_eq!(seen, n);
        });
    });
}

#[test]
fn picking_a_backend_evaluates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    let runtime = Runtime::new();
    runtime.backend_for(&cc, 4096).unwrap();
    let no_rows: Vec<Vec<bool>> = Vec::new();
    assert!(runtime.serve_stream(&cc, no_rows).unwrap().is_empty());
    let empty = runtime.open_session(&cc, SessionOptions::default(), |session| {
        session.finish();
        session.next_response().map(|r| r.is_none())
    });
    assert!(empty.unwrap());
    let summary = runtime.telemetry();
    assert_eq!(summary.groups, 0);
    assert_eq!(summary.requests, 0);
    assert!(summary.per_backend.is_empty());
}

#[test]
fn injected_eval_errors_fail_over_through_the_batch_wrapper() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("wide128")
        .workers(2)
        .build();
    let plan = Arc::new(FaultPlan::new().inject(FaultKind::EvalError, 3, 1, None));
    let requests = rows(900);
    // The materialising wrapper rides the same failover: errors never
    // surface because every faulted group completes on the scalar retry.
    let responses = runtime.open_session(
        &cc,
        SessionOptions::default().faults(plan).batch_hint(900),
        |session| {
            let mut out = Vec::with_capacity(900);
            for row in &requests {
                session.submit_draining(row, &mut out).unwrap();
            }
            session.finish();
            while let Some(resp) = session.next_response().unwrap() {
                assert!(resp.error().is_none());
                out.push(resp.into_response());
            }
            out
        },
    );
    assert_eq!(responses.len(), 900);
    for (i, resp) in responses.iter().enumerate() {
        let oracle = cc.evaluate(&requests[i]).unwrap();
        assert_eq!(resp.outputs, oracle.outputs(), "request {i}");
    }
    assert!(runtime.telemetry().retries > 0);
}

#[test]
fn stragglers_answer_every_row_without_retries() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(3)
        .build();
    // A slow eval is not a failure: no deadline is armed, so stragglers
    // must neither retry nor shed — just answer late.
    let plan = Arc::new(FaultPlan::new().inject(
        FaultKind::Slow(Duration::from_millis(2)),
        16,
        0,
        Some(8),
    ));
    let opts = SessionOptions::default().faults(plan);
    let seen = drive(&runtime, &cc, opts, 1_500);
    check_answered(&cc, &seen, 1_500);
    assert!(seen.values().all(|o| o.is_ok()));
    let summary = runtime.telemetry();
    assert_eq!(summary.retries, 0);
    assert_eq!(summary.deadline_misses, 0);
}

#[test]
fn expired_deadlines_answer_every_row_with_the_typed_error() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    // Both dispatch paths: inline (single worker) and queued (two workers).
    for workers in [1usize, 2] {
        let runtime = Runtime::builder()
            .fixed_backend("sliced64")
            .workers(workers)
            .build();
        // A 1 ns budget has always expired by the time a group is reached:
        // every row must shed, and every shed row must still be answered.
        let opts = SessionOptions::default().deadline(Duration::from_nanos(1));
        let seen = drive(&runtime, &cc, opts, 640);
        assert_eq!(seen.len(), 640, "workers={workers}");
        for (id, outcome) in &seen {
            assert_eq!(
                outcome.as_ref().err(),
                Some(&RuntimeError::DeadlineExceeded),
                "row {id} (workers={workers}) must shed with the typed error"
            );
        }
        assert_eq!(runtime.telemetry().deadline_misses, 640);
    }
}

#[test]
fn queue_full_faults_shed_newest_with_typed_errors() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .queue_capacity(2)
        .build();
    let plan = Arc::new(FaultPlan::new().inject(FaultKind::QueueFull, 3, 0, None));
    let opts = SessionOptions::default()
        .admission(AdmissionPolicy::ShedNewest)
        .faults(plan);
    let seen = drive(&runtime, &cc, opts, 1_280);
    check_answered(&cc, &seen, 1_280);
    let sheds = seen
        .values()
        .filter(|o| o.as_ref().err() == Some(&RuntimeError::Shed))
        .count() as u64;
    assert!(sheds > 0, "forced queue-full pressure must shed something");
    assert!(
        seen.values().all(|o| match o {
            Ok(_) => true,
            Err(e) => *e == RuntimeError::Shed,
        }),
        "only Shed errors are expected"
    );
    assert_eq!(runtime.telemetry().sheds, sheds);
}

#[test]
fn queue_full_faults_shed_oldest_evicting_the_queue_head() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .queue_capacity(2)
        .build();
    let plan = Arc::new(FaultPlan::new().inject(FaultKind::QueueFull, 4, 1, None));
    let opts = SessionOptions::default()
        .admission(AdmissionPolicy::ShedOldest)
        .faults(plan);
    let seen = drive(&runtime, &cc, opts, 1_280);
    check_answered(&cc, &seen, 1_280);
    let sheds = seen
        .values()
        .filter(|o| o.as_ref().err() == Some(&RuntimeError::Shed))
        .count() as u64;
    assert!(sheds > 0);
    assert_eq!(runtime.telemetry().sheds, sheds);
}

#[test]
fn one_tenants_faults_do_not_disturb_another_tenant() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .build();
    let plan = Arc::new(FaultPlan::new().inject(FaultKind::Panic, 4, 0, None));
    let (faulted, steady) = (TenantId(1), TenantId(2));
    let per_tenant = 800usize;
    let opts = SessionOptions::default().faults(plan);
    let (answered, correct) = runtime.open_session(&cc, opts, |session| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..per_tenant {
                    session.submit_for(faulted, &row_for(i)).unwrap();
                    session.submit_for(steady, &row_for(i + 1)).unwrap();
                }
                session.finish();
            });
            let mut answered = std::collections::BTreeMap::new();
            let mut correct = 0usize;
            for resp in session.responses() {
                let resp = resp.unwrap();
                let key = (resp.tenant(), resp.request_id());
                assert!(answered.insert(key, ()).is_none(), "{key:?} answered twice");
                let resp = resp.into_response();
                correct += 1;
                std::hint::black_box(&resp.outputs);
            }
            (answered.len(), correct)
        })
    });
    // Faults land on whichever group the counter reaches — both tenants may
    // be hit, and both must come through whole: failover answers every row,
    // no abort leaks across tenants.
    assert_eq!(answered, 2 * per_tenant);
    assert_eq!(correct, 2 * per_tenant);
    let summary = runtime.telemetry();
    assert_eq!(summary.per_tenant[&faulted].requests as usize, per_tenant);
    assert_eq!(summary.per_tenant[&steady].requests as usize, per_tenant);
    assert!(summary.retries > 0, "the faults must actually have landed");
}

#[test]
fn tcmm_faults_env_arms_sessions_without_code_changes() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // SAFETY: single-threaded with respect to env access — the SERIAL
    // guard above keeps every test in this binary (the only ones reading
    // TCMM_FAULTS mid-run) out of this window.
    unsafe { std::env::set_var("TCMM_FAULTS", "error@every=4,offset=2") };
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .build();
    let requests = rows(600);
    let result = runtime.serve_batch(&cc, &requests);
    // SAFETY: still inside the SERIAL guard's window — same argument as the
    // set_var above.
    unsafe { std::env::remove_var("TCMM_FAULTS") };
    let responses = result.unwrap();
    assert_eq!(responses.len(), 600);
    for (i, resp) in responses.iter().enumerate() {
        let oracle = cc.evaluate(&requests[i]).unwrap();
        assert_eq!(resp.outputs, oracle.outputs(), "request {i}");
    }
    assert!(
        runtime.telemetry().retries > 0,
        "the env-armed faults must have fired and failed over"
    );
}

mod racing_finish_under_faults {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Satellite (c): randomized schedules interleaving submit and a
        /// racing finish against injected faults. The invariant is
        /// timing-independent: every row accepted before the finish wins
        /// the race is answered exactly once — with a payload that matches
        /// the scalar oracle, or with a typed shed/deadline error.
        #[test]
        fn accepted_rows_are_answered_exactly_once(
            total in 1usize..400,
            workers in 1usize..4,
            fault_kind in 0u8..4,
            every in 1u64..8,
            offset in 0u64..8,
            finish_spins in 0usize..400,
            shed_oldest in proptest::arbitrary::any::<bool>(),
        ) {
            let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
            let cc = adder();
            let runtime = Runtime::builder()
                .fixed_backend("sliced64")
                .workers(workers)
                .queue_capacity(2)
                .build();
            let kind = match fault_kind {
                0 => FaultKind::Panic,
                1 => FaultKind::EvalError,
                2 => FaultKind::Slow(Duration::from_micros(200)),
                _ => FaultKind::QueueFull,
            };
            let admission = if shed_oldest {
                AdmissionPolicy::ShedOldest
            } else {
                AdmissionPolicy::ShedNewest
            };
            let plan = Arc::new(FaultPlan::new().inject(kind, every, offset, None));
            let opts = SessionOptions::default()
                .admission(admission)
                .faults(plan);
            let accepted = AtomicU64::new(0);
            let answered = runtime.open_session(&cc, opts, |session| {
                std::thread::scope(|s| {
                    let accepted = &accepted;
                    s.spawn(move || {
                        for i in 0..total {
                            match session.submit(&row_for(i)) {
                                Ok(_) => {
                                    accepted.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(RuntimeError::SessionFinished) => break,
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        }
                        session.finish();
                    });
                    s.spawn(move || {
                        for _ in 0..finish_spins {
                            std::thread::yield_now();
                        }
                        session.finish();
                    });
                    let mut ids = BTreeSet::new();
                    for resp in session.responses() {
                        let resp = resp.unwrap();
                        prop_assert!(
                            ids.insert(resp.request_id()),
                            "row {} answered twice",
                            resp.request_id()
                        );
                        match resp.outcome() {
                            Ok(r) => {
                                let oracle =
                                    cc.evaluate(&row_for(resp.request_id() as usize)).unwrap();
                                prop_assert_eq!(&r.outputs, oracle.outputs());
                            }
                            Err(e) => prop_assert!(
                                matches!(e, RuntimeError::Shed),
                                "unexpected row error: {}",
                                e
                            ),
                        }
                    }
                    Ok(ids.len() as u64)
                })
            })?;
            prop_assert_eq!(
                answered,
                accepted.load(Ordering::Relaxed),
                "accepted rows must all be answered"
            );
        }
    }
}
