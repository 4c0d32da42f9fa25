//! Pins the steady-state serving hot path's allocation behaviour with a
//! counting global allocator:
//!
//! 1. the arena kernel path ([`CompiledCircuit::evaluate_rows_arena`]) makes
//!    **zero** heap allocations once the arena has warmed up;
//! 2. the materialising serve loop's per-group overhead is a small
//!    constant — allocations scale with *requests* (each detached
//!    [`Response`](tc_runtime::Response) owns its outputs), never with
//!    circuit size, and only negligibly with group count;
//! 3. the streaming-session serve loop — submit, pack, evaluate, deliver,
//!    consume, recycle — makes **zero** heap allocations per request under
//!    `Detail::Outputs` once the session's response pool and arena have
//!    warmed up: the pool extends the arena's guarantee from the kernel to
//!    the whole serve loop.
//!
//! Every measured loop runs on the test's own thread (single-worker
//! runtimes serve inline), so the allocator counts per thread: allocations
//! the test harness makes on other threads — spawning the next test's
//! thread while this one measures — cannot leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use tc_circuit::{CircuitBuilder, CompiledCircuit, PlaneArena, Wire};
use tc_runtime::{Runtime, SessionOptions};

/// The counting allocator is process-global, so tests in this binary must
/// not run concurrently — each one holds this lock while measuring.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAllocator;

thread_local! {
    // Const-initialised and drop-free, so touching it never allocates or
    // re-enters the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread (a no-op while the
/// thread's TLS is being torn down).
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: a pure pass-through to `System` plus a thread-local counter bump —
// it upholds `GlobalAlloc`'s contract exactly as `System` does, and the
// counter never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards its arguments unchanged to `System`, so the layout
    // preconditions the caller established carry over verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: same `layout` the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pass-through; `ptr`/`layout` preconditions carry over.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come straight from the caller, which got
        // `ptr` from `alloc` above (i.e. from `System`).
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: pass-through; `ptr`/`layout` preconditions carry over.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves is a fresh allocation for our purposes.
        count_alloc();
        // SAFETY: arguments forwarded unchanged; `ptr` originated in
        // `System.alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A few layers of majority-style gates — enough slots that a per-group
/// reallocation of plane storage could not hide in the noise.
fn layered_circuit() -> CompiledCircuit {
    let mut b = CircuitBuilder::new(16);
    let mut prev: Vec<Wire> = (0..16).map(Wire::input).collect();
    for layer in 0..4 {
        let mut next = Vec::new();
        for g in 0..12 {
            let fan: Vec<(Wire, i64)> = (0..5)
                .map(|k| {
                    let w = prev[(g * 5 + k + layer) % prev.len()];
                    (w, if k % 2 == 0 { 1 } else { -1 })
                })
                .collect();
            next.push(b.add_gate(fan, 1).unwrap());
        }
        prev = next;
    }
    for &w in &prev {
        b.mark_output(w);
    }
    b.build().compile().unwrap()
}

fn rows(n: usize) -> Vec<Vec<bool>> {
    (0..n)
        .map(|i| (0..16).map(|b| (i >> (b % 8)) & 1 == 1).collect())
        .collect()
}

/// Same topology as [`layered_circuit`] but with one gate class per third
/// of the gates — Unit (±1), Pow2 ({±1, ±2}) and General (±7/±9) — so the
/// serve loop below dispatches a mix of all three classes.
fn mixed_class_circuit() -> CompiledCircuit {
    let mut b = CircuitBuilder::new(16);
    let mut prev: Vec<Wire> = (0..16).map(Wire::input).collect();
    for layer in 0..4 {
        let mut next = Vec::new();
        for g in 0..12 {
            let fan: Vec<(Wire, i64)> = (0..5)
                .map(|k| {
                    let w = prev[(g * 5 + k + layer) % prev.len()];
                    let mag = match g % 3 {
                        0 => 1,
                        1 => {
                            if k < 3 {
                                1
                            } else {
                                2
                            }
                        }
                        _ => {
                            if k < 3 {
                                7
                            } else {
                                9
                            }
                        }
                    };
                    (w, if k % 2 == 0 { mag } else { -mag })
                })
                .collect();
            next.push(b.add_gate(fan, 5).unwrap());
        }
        prev = next;
    }
    for &w in &prev {
        b.mark_output(w);
    }
    b.build().compile().unwrap()
}

/// Lemma 3.1-shaped layers: four sums per layer, each read by six gates
/// with thresholds 0..6, so the kernel evaluates banks of six members.
/// Even sums are Unit (±1), odd sums Pow2 ({±1, ±4}). Two more sums per
/// layer have no negative weight — Unit, and Pow2 ({1, 2, 4}) — and are
/// read at the thresholds of two Lemma 3.1 blocks, `{2, 4, 6, 8}` and
/// `{4, 8}`: the banks the kernel decodes as thermometer codes.
fn banked_circuit() -> CompiledCircuit {
    let mut b = CircuitBuilder::new(16);
    let mut prev: Vec<Wire> = (0..16).map(Wire::input).collect();
    for layer in 0..3 {
        let mut next = Vec::new();
        for s in 0..4 {
            let fan: Vec<(Wire, i64)> = (0..7)
                .map(|k| {
                    let w = prev[(s * 3 + k + layer) % prev.len()];
                    let mag = if s % 2 == 1 && k < 2 { 4 } else { 1 };
                    (w, if k % 3 == 0 { -mag } else { mag })
                })
                .collect();
            for t in 0..6 {
                next.push(b.add_gate(fan.iter().copied(), t).unwrap());
            }
        }
        for s in 0..2 {
            let fan: Vec<(Wire, i64)> = (0..7)
                .map(|k| {
                    let w = prev[(s * 5 + k + layer) % prev.len()];
                    (w, if s == 1 { 1 << (k % 3) } else { 1 })
                })
                .collect();
            for t in [2, 4, 6, 8, 4, 8] {
                next.push(b.add_gate(fan.iter().copied(), t).unwrap());
            }
        }
        prev = next;
    }
    for &w in &prev {
        b.mark_output(w);
    }
    b.build().compile().unwrap()
}

#[test]
fn arena_path_is_allocation_free_after_warmup() {
    let _guard = SERIAL.lock().unwrap();
    let cc = layered_circuit();
    let requests = rows(256);
    let refs: Vec<&[bool]> = requests.iter().map(|r| r.as_slice()).collect();
    let mut arena = PlaneArena::new();

    // Warm-up: grows the arena to this circuit × width.
    for chunk in refs.chunks(64) {
        cc.evaluate_rows_arena::<1>(chunk, &mut arena).unwrap();
    }
    for chunk in refs.chunks(256) {
        cc.evaluate_rows_arena::<4>(chunk, &mut arena).unwrap();
    }

    let before = allocs();
    for _ in 0..10 {
        for chunk in refs.chunks(64) {
            let ev = cc.evaluate_rows_arena::<1>(chunk, &mut arena).unwrap();
            // Reading scalar results must not allocate either.
            std::hint::black_box(ev.output(0, 0).unwrap());
            std::hint::black_box(ev.firing_count(chunk.len() - 1).unwrap());
        }
        for chunk in refs.chunks(256) {
            let ev = cc.evaluate_rows_arena::<4>(chunk, &mut arena).unwrap();
            std::hint::black_box(ev.output(chunk.len() - 1, 0).unwrap());
        }
    }
    assert_eq!(
        allocs() - before,
        0,
        "the warmed arena kernel path must not touch the allocator"
    );
}

#[test]
fn serve_loop_overhead_does_not_scale_with_groups() {
    let _guard = SERIAL.lock().unwrap();
    let cc = layered_circuit();
    let requests = rows(256);

    // Single worker so the pump stays on this thread (thread spawning is
    // not the property under test) and the one arena is reused across all
    // groups.
    let few_groups = Runtime::builder()
        .fixed_backend("wide256")
        .workers(1)
        .build();
    let many_groups = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(1)
        .build();

    // Warm-up: arena growth, telemetry map entries.
    few_groups.serve_batch(&cc, &requests).unwrap();
    many_groups.serve_batch(&cc, &requests).unwrap();

    let t0 = allocs();
    few_groups.serve_batch(&cc, &requests).unwrap();
    let one_group_allocs = allocs() - t0;

    let t1 = allocs();
    many_groups.serve_batch(&cc, &requests).unwrap();
    let four_group_allocs = allocs() - t1;

    // Identical request count, identical per-request payloads; the only
    // difference is 4 sliced64 groups versus 1 wide256 group. Splitting a
    // batch into three extra groups may cost a handful of bookkeeping
    // allocations per group (the request-refs slice and the responses vec)
    // but must not re-buy plane storage per group — all plane scratch comes
    // from the worker's arena (proven allocation-free above).
    let delta = four_group_allocs.saturating_sub(one_group_allocs);
    assert!(
        delta <= 3 * 8,
        "3 extra groups cost {delta} allocations \
         (1-group run: {one_group_allocs}, 4-group run: {four_group_allocs})"
    );

    // And the steady state is deterministic: a repeat run costs exactly the
    // same number of allocations (nothing accumulates or re-warms).
    let t2 = allocs();
    few_groups.serve_batch(&cc, &requests).unwrap();
    assert_eq!(allocs() - t2, one_group_allocs);
}

#[test]
fn streaming_session_serve_loop_is_allocation_free_after_warmup() {
    let _guard = SERIAL.lock().unwrap();
    let cc = layered_circuit();
    let requests = rows(64);

    // A single worker keeps the whole loop on this thread (inline mode):
    // fully deterministic, and exactly the hot path the pool is for —
    // pack rows into pooled buffers, evaluate into recycled response
    // shells through the worker arena, deliver through the preallocated
    // window, consume, recycle.
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(1)
        .build();

    let steady_allocs = runtime.open_session(&cc, SessionOptions::default(), |session| {
        let drive = |requests_to_serve: usize| {
            let mut served = 0usize;
            for i in 0..requests_to_serve {
                session.submit(&requests[i % requests.len()]).unwrap();
                while let Some(resp) = session.try_next_response().unwrap() {
                    // Read what a real consumer reads, then drop the guard:
                    // the payload buffers recycle into the pool.
                    std::hint::black_box(resp.outputs[0]);
                    std::hint::black_box(resp.firing_count);
                    served += 1;
                }
            }
            served
        };

        // Warm-up: arena growth, pool population, telemetry map entries,
        // delivery-window and queue buffers.
        drive(4 * 64);

        // Steady state: every buffer in the loop now comes from the pool.
        let before = allocs();
        let served = drive(10 * 64);
        let after = allocs();
        assert!(served >= 9 * 64, "the loop must actually deliver");
        after - before
    });

    assert_eq!(
        steady_allocs, 0,
        "the warmed-up Detail::Outputs streaming-session serve loop must \
         not touch the allocator (pool + arena together)"
    );

    // The pool did the work: after the first group's warm-up misses, every
    // shell was recycled (~12 of the ~13 evaluated groups are pool hits).
    let summary = runtime.telemetry();
    assert!(summary.pool_hits >= 11 * 64, "hits {}", summary.pool_hits);
    assert!(
        summary.pool_misses <= 2 * 64,
        "misses {}",
        summary.pool_misses
    );
}

#[test]
fn stage_metrics_keep_the_multi_tenant_serve_loop_allocation_free() {
    let _guard = SERIAL.lock().unwrap();
    let cc = layered_circuit();
    let requests = rows(64);

    // Two tenants, so every request crosses the full metrics surface: two
    // per-tenant stage-histogram sets, per-slot lookups, pooled timestamp
    // buffers, and the per-backend eval histogram. The lifecycle
    // histograms must ride the pooled buffers — the 0-allocs/request pin
    // holds with stage metrics recording on every request.
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(1)
        .build();
    let (a, b) = (tc_runtime::TenantId(7), tc_runtime::TenantId(8));

    let steady_allocs =
        runtime.open_session(&cc, SessionOptions::default().unordered(), |session| {
            session.register_tenant(a, 2).unwrap();
            session.register_tenant(b, 1).unwrap();
            let drive = |requests_to_serve: usize| {
                let mut served = 0usize;
                for i in 0..requests_to_serve {
                    let tenant = if i % 2 == 0 { a } else { b };
                    session
                        .submit_for(tenant, &requests[i % requests.len()])
                        .unwrap();
                    while let Some(resp) = session.try_next_response().unwrap() {
                        std::hint::black_box(resp.outputs[0]);
                        std::hint::black_box(resp.firing_count);
                        served += 1;
                    }
                }
                served
            };

            drive(4 * 64);

            let before = allocs();
            let served = drive(10 * 64);
            let after = allocs();
            assert!(served >= 9 * 64, "the loop must actually deliver");

            // Drain to completion so every request's lifecycle — through
            // consumption — lands in the histograms before we inspect them.
            session.finish();
            for resp in session.responses() {
                std::hint::black_box(resp.unwrap().firing_count);
            }
            after - before
        });

    assert_eq!(
        steady_allocs, 0,
        "per-request stage metrics must not cost the steady-state serve \
         loop a single allocation"
    );

    // And the metrics actually recorded: both tenants' lifecycle
    // histograms saw every one of their requests.
    let summary = runtime.telemetry();
    for tenant in [a, b] {
        let stages = &summary.per_tenant_stages[&tenant];
        let requests = summary.per_tenant[&tenant].requests;
        assert!(requests > 0);
        assert_eq!(stages.end_to_end.count(), requests, "{tenant} e2e");
        assert_eq!(stages.firings.count(), requests, "{tenant} firings");
        assert!(stages.eval.count() > 0, "{tenant} eval groups");
        assert!(stages.pack.count() > 0, "{tenant} packed groups");
    }
    assert!(summary.per_backend_eval["sliced64"].count() > 0);
}

#[test]
fn mixed_class_circuit_on_simd_path_is_allocation_free_after_warmup() {
    let _guard = SERIAL.lock().unwrap();
    let cc = mixed_class_circuit();
    let requests = rows(256);

    // wide256 is a vectorized width wherever SIMD is available; on hosts
    // without vector support the same loop runs the portable arm, and the
    // 0-alloc guarantee must hold identically on both.
    let runtime = Runtime::builder()
        .fixed_backend("wide256")
        .workers(1)
        .build();

    let steady_allocs = runtime.open_session(&cc, SessionOptions::default(), |session| {
        let drive = |requests_to_serve: usize| {
            let mut served = 0usize;
            for i in 0..requests_to_serve {
                session.submit(&requests[i % requests.len()]).unwrap();
                while let Some(resp) = session.try_next_response().unwrap() {
                    std::hint::black_box(resp.outputs[0]);
                    std::hint::black_box(resp.firing_count);
                    served += 1;
                }
            }
            served
        };

        drive(4 * 256);

        let before = allocs();
        let served = drive(10 * 256);
        let after = allocs();
        assert!(served >= 9 * 256, "the loop must actually deliver");
        after - before
    });

    assert_eq!(
        steady_allocs,
        0,
        "a mixed-class circuit served through the wide256 SIMD path must \
         not touch the allocator once warmed (level: {})",
        tc_circuit::simd::active_level().name()
    );

    let summary = runtime.telemetry();
    let [unit, pow2, general] = cc.class_counts();
    assert!(unit > 0 && pow2 > 0 && general > 0, "fixture lost its mix");
    assert!(summary.pool_hits > 0, "hits {}", summary.pool_hits);
}

#[test]
fn banked_circuit_on_the_widest_simd_path_is_allocation_free_after_warmup() {
    let _guard = SERIAL.lock().unwrap();
    let cc = banked_circuit();
    assert_eq!(cc.num_banks() * 6, cc.num_gates(), "fixture lost its banks");
    assert_eq!(
        cc.num_decoded_gates(),
        3 * 2 * 6,
        "fixture lost its thermometer banks"
    );
    let requests = rows(512);

    let runtime = Runtime::builder()
        .fixed_backend("wide512")
        .workers(1)
        .build();

    let steady_allocs = runtime.open_session(&cc, SessionOptions::default(), |session| {
        let drive = |requests_to_serve: usize| {
            let mut served = 0usize;
            for i in 0..requests_to_serve {
                session.submit(&requests[i % requests.len()]).unwrap();
                while let Some(resp) = session.try_next_response().unwrap() {
                    std::hint::black_box(resp.outputs[0]);
                    std::hint::black_box(resp.firing_count);
                    served += 1;
                }
            }
            served
        };

        drive(4 * 512);

        let before = allocs();
        let served = drive(10 * 512);
        let after = allocs();
        assert!(served >= 9 * 512, "the loop must actually deliver");
        after - before
    });

    assert_eq!(
        steady_allocs,
        0,
        "a banked circuit served through the wide512 path must not touch \
         the allocator once warmed (level: {})",
        tc_circuit::simd::active_level().name()
    );
}

#[test]
fn deadline_checked_serve_loop_is_allocation_free_after_warmup() {
    let _guard = SERIAL.lock().unwrap();
    let cc = layered_circuit();
    let requests = rows(64);

    // Same inline single-worker loop as the base streaming pin, but with a
    // per-request deadline armed (generous enough that nothing actually
    // sheds): stamping submission times, anchoring the group deadline, the
    // pop-time budget check against the eval estimate, and the EWMA update
    // must all ride the pooled buffers — deadlines must not cost the
    // steady state a single allocation.
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(1)
        .build();
    let opts = SessionOptions::default().deadline(std::time::Duration::from_secs(3600));

    let steady_allocs = runtime.open_session(&cc, opts, |session| {
        let drive = |requests_to_serve: usize| {
            let mut served = 0usize;
            for i in 0..requests_to_serve {
                session.submit(&requests[i % requests.len()]).unwrap();
                while let Some(resp) = session.try_next_response().unwrap() {
                    std::hint::black_box(resp.outputs[0]);
                    std::hint::black_box(resp.firing_count);
                    served += 1;
                }
            }
            served
        };

        drive(4 * 64);

        let before = allocs();
        let served = drive(10 * 64);
        let after = allocs();
        assert!(served >= 9 * 64, "the loop must actually deliver");
        after - before
    });

    assert_eq!(
        steady_allocs, 0,
        "the deadline-enabled streaming serve loop must stay \
         allocation-free once warmed"
    );
    let summary = runtime.telemetry();
    assert_eq!(summary.deadline_misses, 0, "nothing should actually shed");
    assert_eq!(summary.sheds, 0);
}
