//! Integration tests for the streaming session front end: lazy backend
//! pick, incremental in-order and out-of-order delivery, flat-memory
//! behaviour under sustained load, and mid-stream error propagation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tc_circuit::{CircuitBuilder, CircuitError, CompiledCircuit, Wire};
use tc_runtime::{Response, Runtime, RuntimeError, SessionOptions, SubmitOrNext};

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

#[test]
fn one_worker_sessions_record_a_queue_wait_per_dispatched_group() {
    // One worker runs every group inline on the submitting thread, with no
    // queue in between: each group still records one (zero) queue wait.
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(1)
        .build();
    let served = runtime.serve_stream(&cc, rows(200)).unwrap();
    assert_eq!(served.len(), 200);
    let summary = runtime.telemetry();
    // 64 + 64 + 64 + a flushed tail of 8.
    assert_eq!(summary.groups, 4);
    assert_eq!(summary.stages.queue_wait.count(), summary.groups);
    assert_eq!(summary.stages.queue_wait.max(), 0);
}

#[test]
fn session_delivers_in_submission_order_with_producer_and_consumer_threads() {
    let cc = adder();
    let requests = rows(1500);
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(3)
        .queue_capacity(2)
        .build();
    let collected = runtime.open_session(&cc, SessionOptions::default(), |session| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for row in &requests {
                    session.submit(row).unwrap();
                }
                session.finish();
            });
            let mut out = Vec::new();
            for resp in session.responses() {
                let resp = resp.unwrap();
                assert_eq!(resp.request_id(), out.len() as u64, "in-order delivery");
                out.push((resp.outputs.clone(), resp.firing_count));
            }
            out
        })
    });
    assert_eq!(collected.len(), requests.len());
    for (i, (row, (outputs, firing))) in requests.iter().zip(&collected).enumerate() {
        let ev = cc.evaluate(row).unwrap();
        assert_eq!(outputs, ev.outputs(), "request {i}");
        assert_eq!(*firing as usize, ev.firing_count(), "request {i}");
    }
    let summary = runtime.telemetry();
    assert_eq!(summary.requests, 1500);
    assert_eq!(summary.sessions, 1);
    assert!(summary.peak_reorder_window_groups >= 1);
    assert!(
        summary.pool_hits > 0,
        "responses were recycled through the pool"
    );
}

#[test]
fn unordered_sessions_tag_every_response_with_its_request_id() {
    let cc = adder();
    let requests = rows(700);
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(4)
        .build();
    let got = runtime.open_session(&cc, SessionOptions::default().unordered(), |session| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for row in &requests {
                    session.submit(row).unwrap();
                }
                session.finish();
            });
            let mut got: BTreeMap<u64, Vec<bool>> = BTreeMap::new();
            for resp in session.responses() {
                let resp = resp.unwrap();
                assert!(
                    got.insert(resp.request_id(), resp.outputs.clone())
                        .is_none(),
                    "request id delivered twice"
                );
            }
            got
        })
    });
    assert_eq!(got.len(), requests.len(), "every id delivered exactly once");
    for (id, outputs) in got {
        let ev = cc.evaluate(&requests[id as usize]).unwrap();
        assert_eq!(&outputs, ev.outputs(), "request {id}");
    }
}

#[test]
fn unbounded_streams_run_at_flat_memory() {
    // 20k requests through a session whose every buffer is bounded: the
    // in-flight depth gauge must stay at the structural bound (packing +
    // queue + workers + window + consumer cursor), not scale with the
    // stream.
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .queue_capacity(2)
        .build();
    let total = 20_000usize;
    let served = runtime.open_session(&cc, SessionOptions::default(), |session| {
        let row = [true, false, true];
        let mut served = 0usize;
        for _ in 0..total {
            loop {
                match session.submit_or_next(&row).unwrap() {
                    SubmitOrNext::Submitted(_) => break,
                    SubmitOrNext::Next(resp) => {
                        assert_eq!(resp.outputs.len(), 2);
                        served += 1; // dropped -> recycled
                    }
                }
            }
        }
        session.finish();
        while let Some(resp) = session.next_response().unwrap() {
            assert_eq!(resp.firing_count, 1); // sum=0, carry=1 for (1,0,1)
            served += 1;
        }
        served
    });
    assert_eq!(served, total);
    let summary = runtime.telemetry();
    // current group (1) + queue (2) + workers (2) + window (2*2) + consumer
    // cursor & pending (2) = 11 groups of 64 lanes.
    let bound = 11 * 64;
    assert!(
        summary.peak_in_flight_requests <= bound,
        "peak in-flight {} exceeds the structural bound {bound}",
        summary.peak_in_flight_requests
    );
    assert!(summary.pool_hits > summary.pool_misses * 10);
}

#[test]
fn mid_stream_worker_error_reaches_consumer_and_unblocks_submitters() {
    // A malformed row deep in the stream fails its lane group mid-flight.
    // The consumer must observe the error, and a submitter blocked on (or
    // arriving at) the closed queue must come unstuck with the same error
    // instead of evaluating everything queued behind the failure.
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .queue_capacity(2)
        .build();
    let consumer_saw = AtomicBool::new(false);
    let submit_err = runtime.open_session(&cc, SessionOptions::default(), |session| {
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                // Row 100 has the wrong width: group 1 (rows 64..128) fails.
                let mut result = Ok(());
                for i in 0..100_000usize {
                    let row = if i == 100 {
                        vec![true]
                    } else {
                        vec![i % 2 == 0, false, true]
                    };
                    if let Err(e) = session.submit(&row) {
                        result = Err(e);
                        break;
                    }
                }
                session.finish();
                result
            });
            let mut consumed = 0u64;
            let err = loop {
                match session.next_response() {
                    Ok(Some(resp)) => {
                        assert!(resp.request_id() < 64, "responses past the failing group");
                        consumed += 1;
                    }
                    Ok(None) => panic!("stream ended without surfacing the error"),
                    Err(e) => break e,
                }
            };
            assert!(matches!(
                err,
                RuntimeError::Circuit(CircuitError::InputLengthMismatch { .. })
            ));
            consumer_saw.store(true, Ordering::SeqCst);
            assert!(consumed <= 64, "only the group before the failure may land");
            // The producer was unblocked: far fewer than 100k submissions
            // went through before submit reported the failure.
            producer.join().unwrap()
        })
    });
    assert!(consumer_saw.load(Ordering::SeqCst));
    let err = submit_err.expect_err("the submit side must observe the failure");
    assert!(matches!(
        err,
        RuntimeError::Circuit(CircuitError::InputLengthMismatch { .. })
    ));
    // Well under the full stream was evaluated: groups queued behind the
    // failing one were dropped, not drained.
    let summary = runtime.telemetry();
    assert!(
        summary.requests < 10_000,
        "queued groups were evaluated after the failure ({} requests)",
        summary.requests
    );
}

#[test]
fn session_port_of_serve_stream_is_byte_identical() {
    // The materialising wrapper and a hand-driven session must agree
    // response for response (outputs, firing counts, ids).
    let cc = adder();
    let requests = rows(997); // ragged tail
    let runtime = Runtime::builder()
        .fixed_backend("wide128")
        .workers(3)
        .build();
    let via_wrapper = runtime.serve_stream(&cc, requests.clone()).unwrap();
    let via_session: Vec<Response> =
        runtime.open_session(&cc, SessionOptions::default(), |session| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    for row in &requests {
                        session.submit(row).unwrap();
                    }
                    session.finish();
                });
                session
                    .responses()
                    .map(|r| r.unwrap().into_response())
                    .collect()
            })
        });
    assert_eq!(via_wrapper, via_session);
}

#[test]
fn submissions_from_many_threads_share_one_session() {
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .build();
    let per_thread = 500u64;
    let threads = 4u64;
    let submitted = AtomicU64::new(0);
    let total = runtime.open_session(&cc, SessionOptions::default().unordered(), |session| {
        std::thread::scope(|s| {
            for t in 0..threads {
                let submitted = &submitted;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let v = t * per_thread + i;
                        let row = vec![
                            v.is_multiple_of(2),
                            v.is_multiple_of(3),
                            v.is_multiple_of(7),
                        ];
                        session.submit(&row).unwrap();
                        submitted.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                // Producers done -> close the stream.
                while submitted.load(Ordering::Relaxed) < threads * per_thread {
                    std::thread::yield_now();
                }
                session.finish();
            });
            let mut ids: Vec<u64> = Vec::new();
            for resp in session.responses() {
                ids.push(resp.unwrap().request_id());
            }
            ids.sort_unstable();
            ids
        })
    });
    assert_eq!(total.len() as u64, threads * per_thread);
    // Every request id 0..N delivered exactly once, regardless of which
    // thread submitted it.
    for (expect, got) in total.iter().enumerate() {
        assert_eq!(*got, expect as u64);
    }
    assert_eq!(runtime.telemetry().requests, threads * per_thread);
}

#[test]
fn a_panicking_consumer_propagates_instead_of_wedging_the_session() {
    // A failed assert in the consumer closure must unwind out of
    // open_session: the shutdown guard unblocks the lazily-spawned workers
    // so thread::scope can join them and re-raise the panic, rather than
    // waiting forever on threads parked in the engine.
    let handle = std::thread::spawn(|| {
        let cc = adder();
        let runtime = Runtime::builder()
            .fixed_backend("sliced64")
            .workers(2)
            .build();
        runtime.open_session(&cc, SessionOptions::default(), |session| {
            for row in rows(200) {
                session.submit(&row).unwrap();
            }
            panic!("consumer bug");
        })
    });
    let joined = handle.join();
    let msg = joined.expect_err("the closure's panic must propagate");
    assert_eq!(*msg.downcast_ref::<&str>().unwrap(), "consumer bug");
}

#[test]
fn flush_dispatches_a_partial_group_early() {
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .build();
    runtime.open_session(&cc, SessionOptions::default(), |session| {
        for row in rows(10) {
            session.submit(&row).unwrap();
        }
        // Without the flush, 10 rows sit below the 64-lane group size and
        // nothing would be deliverable yet.
        session.flush().unwrap();
        let mut got = 0;
        for _ in 0..10 {
            if session.next_response().unwrap().is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 10);
        session.finish();
        assert!(session.next_response().unwrap().is_none());
    });
    assert_eq!(runtime.telemetry().groups, 1);
    assert_eq!(runtime.telemetry().padded_lanes, 54);
}

#[test]
fn submit_after_finish_is_a_typed_error_not_a_panic() {
    // Satellite regression: `submit` / `submit_or_next` used to
    // `assert!(!pack.finished, ..)`, aborting the submitting thread on a
    // late row. A submit-after-finish is an ordinary caller mistake and now
    // surfaces as `RuntimeError::SessionFinished` through the Result.
    let cc = adder();
    let runtime = Runtime::builder().fixed_backend("sliced64").build();
    runtime.open_session(&cc, SessionOptions::default(), |session| {
        session.submit(&[true, false, true]).unwrap();
        session.finish();
        assert!(matches!(
            session.submit(&[true, false, true]),
            Err(RuntimeError::SessionFinished)
        ));
        // The stream itself is intact: the pre-finish row still arrives.
        let resp = session.next_response().unwrap().expect("one response");
        assert_eq!(resp.request_id(), 0);
        drop(resp);
        // With nothing left to drain, the non-blocking submit paths report
        // the typed error too (submit_or_next hands back any *ready*
        // response first — its documented contract — so it errors only
        // once the stream is fully drained).
        assert!(matches!(
            session.submit_or_next(&[true, false, true]),
            Err(RuntimeError::SessionFinished)
        ));
        let mut sink = Vec::new();
        assert!(matches!(
            session.submit_draining(&[true, false, true], &mut sink),
            Err(RuntimeError::SessionFinished)
        ));
        assert!(sink.is_empty());
        // Registering a new tenant on a finished session is refused too.
        assert!(matches!(
            session.register_tenant(tc_runtime::TenantId(9), 2),
            Err(RuntimeError::SessionFinished)
        ));
        assert!(session.next_response().unwrap().is_none());
    });
    assert_eq!(runtime.telemetry().requests, 1);
}

#[test]
fn zero_width_rows_serve_through_a_session() {
    // Satellite regression: a circuit with no inputs (gates fed only by the
    // constant-one wire) submitted through a session — the arena packing
    // path early-accepts the zero-width rows explicitly.
    let mut b = CircuitBuilder::new(0);
    let g = b.add_gate([(Wire::one(), 1)], 1).unwrap();
    b.mark_output(g);
    let cc = b.build().compile().unwrap();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .build();
    let served = runtime.open_session(&cc, SessionOptions::default(), |session| {
        for _ in 0..150 {
            session.submit(&[]).unwrap();
        }
        session.finish();
        let mut served = 0usize;
        while let Some(resp) = session.next_response().unwrap() {
            assert_eq!(resp.outputs, vec![true]);
            served += 1;
        }
        served
    });
    assert_eq!(served, 150);
    assert_eq!(runtime.telemetry().requests, 150);
}

#[test]
fn tenants_get_tagged_per_tenant_ordered_responses() {
    // Two tenants share one session: each tenant's responses arrive in that
    // tenant's submission order, tagged with its TenantId, with globally
    // unique request ids.
    use tc_runtime::TenantId;
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(3)
        .build();
    let reqs = rows(900);
    let (a, b) = (TenantId(1), TenantId(2));
    let seen = runtime.open_session(&cc, SessionOptions::default().tenant(a), |session| {
        session.register_tenant(b, 3).unwrap();
        for (i, row) in reqs.iter().enumerate() {
            let tenant = if i % 3 == 0 { b } else { a };
            session.submit_for(tenant, row).unwrap();
        }
        session.finish();
        let mut seen: Vec<(u32, u64)> = Vec::new();
        while let Some(resp) = session.next_response().unwrap() {
            seen.push((resp.tenant().0, resp.request_id()));
        }
        seen
    });
    assert_eq!(seen.len(), reqs.len());
    // Globally: every id exactly once. Per tenant: ids strictly increasing
    // (per-tenant submission order survives the DRR interleave).
    let mut ids: Vec<u64> = seen.iter().map(|&(_, id)| id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..reqs.len() as u64).collect::<Vec<_>>());
    for tenant in [a, b] {
        let tenant_ids: Vec<u64> = seen
            .iter()
            .filter(|&&(t, _)| t == tenant.0)
            .map(|&(_, id)| id)
            .collect();
        assert!(
            tenant_ids.windows(2).all(|w| w[0] < w[1]),
            "{tenant} delivered out of order"
        );
        // The tag matches the submission pattern (tenant b took i % 3 == 0).
        for &id in &tenant_ids {
            assert_eq!(id % 3 == 0, tenant == b, "request {id} mis-tagged");
        }
    }
    // Telemetry carries both tenants' request counts and weights.
    let summary = runtime.telemetry();
    assert_eq!(summary.per_tenant[&a].requests, 600);
    assert_eq!(summary.per_tenant[&b].requests, 300);
    assert_eq!(summary.per_tenant[&b].weight, 3);
    assert_eq!(
        summary.per_tenant[&a].groups + summary.per_tenant[&b].groups,
        summary.groups
    );
}

#[test]
fn serve_wrappers_account_their_tenant() {
    // A session's options tag every un-tagged row with one tenant at its
    // default weight, and responses stay byte-identical to the untagged
    // `serve_batch` path.
    use tc_runtime::TenantId;
    fn serve_as(
        runtime: &Runtime,
        cc: &CompiledCircuit,
        reqs: &[Vec<bool>],
        opts: SessionOptions,
    ) -> Vec<Response> {
        runtime.open_session(cc, opts, |session| {
            let mut out = Vec::new();
            for row in reqs {
                session.submit_draining(row, &mut out).unwrap();
            }
            session.finish();
            while let Some(resp) = session.next_response().unwrap() {
                out.push(resp.into_response());
            }
            out
        })
    }
    let cc = adder();
    let reqs = rows(200);
    let runtime = Runtime::builder()
        .fixed_backend("wide128")
        .workers(2)
        .build();
    let plain = runtime.serve_batch(&cc, &reqs).unwrap();
    let tagged = serve_as(
        &runtime,
        &cc,
        &reqs,
        SessionOptions::default().tenant(TenantId(7)).weight(4),
    );
    assert_eq!(plain, tagged);
    let streamed = serve_as(
        &runtime,
        &cc,
        &reqs,
        SessionOptions::default().tenant(TenantId(8)),
    );
    assert_eq!(plain, streamed);
    let summary = runtime.telemetry();
    assert_eq!(summary.per_tenant[&TenantId(0)].requests, 200);
    assert_eq!(summary.per_tenant[&TenantId(7)].requests, 200);
    assert_eq!(summary.per_tenant[&TenantId(7)].weight, 4);
    assert_eq!(summary.per_tenant[&TenantId(8)].requests, 200);
}

#[test]
fn per_tenant_queues_keep_a_steady_tenant_out_of_a_bursts_shadow() {
    // The head-of-line fix end to end: a bursty tenant floods the session
    // while a steady tenant trickles. Under the old FIFO queue the steady
    // tenant's groups sat behind the whole burst; under per-tenant DRR the
    // steady tenant's mean queue wait stays within a small multiple of the
    // bursty tenant's PER-GROUP service slice, far below the burst's own
    // backlog wait.
    use tc_runtime::TenantId;
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .queue_capacity(8)
        .build();
    let (bursty, steady) = (TenantId(1), TenantId(2));
    let submitted = AtomicU64::new(0);
    runtime.open_session(&cc, SessionOptions::default().unordered(), |session| {
        session.register_tenant(bursty, 1).unwrap();
        session.register_tenant(steady, 1).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..4000usize {
                    session
                        .submit_for(bursty, &[i % 2 == 0, false, true])
                        .unwrap();
                    submitted.fetch_add(1, Ordering::Relaxed);
                }
            });
            s.spawn(|| {
                for i in 0..400usize {
                    session
                        .submit_for(steady, &[i % 2 == 0, true, false])
                        .unwrap();
                    submitted.fetch_add(1, Ordering::Relaxed);
                }
            });
            s.spawn(|| {
                // Producers done -> dispatch partial groups and close.
                while submitted.load(Ordering::Relaxed) < 4400 {
                    std::thread::yield_now();
                }
                session.finish();
            });
            let mut got = 0usize;
            for resp in session.responses() {
                resp.unwrap();
                got += 1;
            }
            assert_eq!(got, 4400);
        });
    });
    let summary = runtime.telemetry();
    let b = &summary.per_tenant[&bursty];
    let s = &summary.per_tenant[&steady];
    assert_eq!(b.requests, 4000);
    assert_eq!(s.requests, 400);
    // Both tenants queued groups; with equal weights and equal charges the
    // steady tenant's mean wait must not exceed the bursty tenant's by more
    // than the DRR alternation allows (generous 3x bound against scheduler
    // noise — a FIFO drain would put the steady tenant 10x+ behind).
    if b.queue_wait_ns_total > 0 && s.queue_wait_ns_total > 0 {
        assert!(
            s.mean_queue_wait_ns() <= 3.0 * b.mean_queue_wait_ns() + 5e6,
            "steady mean wait {:.3}ms vs bursty {:.3}ms — starved",
            s.mean_queue_wait_ns() / 1e6,
            b.mean_queue_wait_ns() / 1e6,
        );
    }
}

#[test]
fn ordered_delivery_survives_many_submitters_of_one_tenant_under_backpressure() {
    // Review regression: the dispatch path claims a group's sequence under
    // the packing lock but pushes with the lock released. With several
    // threads submitting to ONE tenant through a tiny queue and a tiny
    // reorder window, racing pushes used to (a) let a refilled lane grow
    // past the lane group (oversized group -> BatchTooWide at finish) and
    // (b) land sequences out of order deeper than the window, wedging
    // every worker in an inadmissible deliver. The per-lane dispatch
    // serialisation must keep the session live and strictly in order.
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(3)
        .queue_capacity(1)
        .build();
    let per_thread = 600u64;
    let threads = 4u64;
    let submitted = AtomicU64::new(0);
    let opts = SessionOptions::default().reorder_window(2);
    let ids = runtime.open_session(&cc, opts, |session| {
        std::thread::scope(|s| {
            for t in 0..threads {
                let submitted = &submitted;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let v = t * per_thread + i;
                        let row = vec![
                            v.is_multiple_of(2),
                            v.is_multiple_of(3),
                            v.is_multiple_of(7),
                        ];
                        session.submit(&row).unwrap();
                        submitted.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                while submitted.load(Ordering::Relaxed) < threads * per_thread {
                    std::thread::yield_now();
                }
                session.finish();
            });
            let mut ids = Vec::new();
            for resp in session.responses() {
                ids.push(resp.unwrap().request_id());
            }
            ids
        })
    });
    // Ordered single-tenant delivery: ids 0..N in exactly that order, no
    // loss, no duplication, no oversized-group abort.
    assert_eq!(ids.len() as u64, threads * per_thread);
    for (expect, got) in ids.iter().enumerate() {
        assert_eq!(*got, expect as u64, "delivery order broken at {expect}");
    }
}

#[test]
fn every_row_accepted_before_a_racing_finish_is_answered() {
    // Review regression: finish() used to dispatch the final partial
    // groups while `finished` was still false, releasing the packing lock
    // around each push — a submit landing in that window was accepted
    // (Ok(id)) into an already-flushed lane and never answered. finish()
    // now closes the submit side FIRST, so accepted-implies-delivered
    // holds: the count of Ok submits must equal the count of responses.
    for round in 0..20 {
        let cc = adder();
        let runtime = Runtime::builder()
            .fixed_backend("sliced64")
            .workers(2)
            .queue_capacity(2)
            .build();
        let (accepted, served) = runtime.open_session(&cc, SessionOptions::default(), |session| {
            std::thread::scope(|s| {
                let submitter = s.spawn(|| {
                    let mut accepted = 0u64;
                    for i in 0..10_000usize {
                        match session.submit(&[i % 2 == 0, false, true]) {
                            Ok(_) => accepted += 1,
                            Err(RuntimeError::SessionFinished) => break,
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                    accepted
                });
                s.spawn(move || {
                    // Let a few groups through, then slam the door
                    // mid-stream (vary timing across rounds).
                    for _ in 0..(round * 50) {
                        std::thread::yield_now();
                    }
                    session.finish();
                });
                let mut served = 0u64;
                for resp in session.responses() {
                    resp.unwrap();
                    served += 1;
                }
                (submitter.join().unwrap(), served)
            })
        });
        assert_eq!(
            accepted, served,
            "round {round}: {accepted} rows accepted but {served} answered"
        );
    }
}

#[test]
fn submit_for_an_unregistered_tenant_registers_it_with_weight_one() {
    // Satellite regression: submitting for a tenant that was never
    // `register_tenant`ed must not panic or misroute — the tenant is
    // registered on first sight with weight 1 and served normally.
    use tc_runtime::TenantId;
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .build();
    let served = runtime.open_session(&cc, SessionOptions::default(), |session| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for (i, row) in rows(100).iter().enumerate() {
                    session
                        .submit_for(TenantId(41 + (i % 3) as u32), row)
                        .unwrap();
                }
                session.finish();
            });
            let mut served = 0u64;
            for resp in session.responses() {
                resp.unwrap();
                served += 1;
            }
            served
        })
    });
    assert_eq!(served, 100);
    let summary = runtime.telemetry();
    for t in [41, 42, 43] {
        let tally = &summary.per_tenant[&TenantId(t)];
        assert_eq!(tally.weight, 1, "auto-registered tenants get weight 1");
        assert!(tally.requests > 0);
    }
}

#[test]
fn tenant_registration_misuse_yields_typed_errors_not_panics() {
    // Satellite regression: pre-registration misuse — registering after
    // finish, re-registering with a different weight, or weight 0 — must
    // answer with typed errors / documented no-ops, never a panic or a
    // wedged scheduler.
    use tc_runtime::TenantId;
    let cc = adder();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .build();
    runtime.open_session(&cc, SessionOptions::default(), |session| {
        // Weight 0 clamps to 1 (a zero weight would never earn deficit).
        session.register_tenant(TenantId(5), 0).unwrap();
        // First registration fixes the weight; re-registering is a no-op.
        session.register_tenant(TenantId(6), 3).unwrap();
        session.register_tenant(TenantId(6), 9).unwrap();
        for row in rows(40) {
            session.submit_for(TenantId(5), &row).unwrap();
            session.submit_for(TenantId(6), &row).unwrap();
        }
        session.finish();
        // Post-finish misuse: typed SessionFinished on every entry point.
        assert_eq!(
            session.register_tenant(TenantId(7), 2),
            Err(RuntimeError::SessionFinished)
        );
        assert_eq!(
            session
                .submit_for(TenantId(5), &[true, false, true])
                .unwrap_err(),
            RuntimeError::SessionFinished
        );
        let mut served = 0;
        while session.next_response().unwrap().is_some() {
            served += 1;
        }
        assert_eq!(served, 80);
    });
    let summary = runtime.telemetry();
    assert_eq!(summary.per_tenant[&TenantId(5)].weight, 1);
    assert_eq!(summary.per_tenant[&TenantId(6)].weight, 3);
    assert!(!summary.per_tenant.contains_key(&TenantId(7)));
}
