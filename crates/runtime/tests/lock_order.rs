//! Regression tests for the debug-build lock-order detector
//! ([`tc_runtime::OrderedMutex`]).
//!
//! The detector is a debug-assertions-only feature: in release builds the
//! wrapper must compile down to a plain [`std::sync::Mutex`] (checked here by
//! a size-equality test), while in debug builds any acquisition that does not
//! strictly increase the per-thread rank stack must panic with a message
//! naming **both** offending ranks — the one being acquired and the one
//! already held. The chaos and scheduler suites run under the same detector,
//! so a clean `cargo test` doubles as a whole-runtime lock-hierarchy audit.

use tc_runtime::{LockRank, OrderedMutex};

/// Catches a panic and returns its payload as a string.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = std::panic::catch_unwind(f).expect_err("closure must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "lock-order detector is compiled out in release builds"
)]
fn inversion_panics_naming_both_ranks() {
    let low = OrderedMutex::new(LockRank::SESSION_PACK, "test.low", ());
    let high = OrderedMutex::new(LockRank::ENGINE_STATE, "test.high", ());
    let msg = panic_message(|| {
        let _h = high.lock().unwrap();
        let _l = low.lock().unwrap(); // rank 10 after rank 50: inversion
    });
    assert!(
        msg.contains("lock-order violation"),
        "panic must identify itself as a lock-order violation: {msg}"
    );
    assert!(
        msg.contains("rank 10"),
        "panic must name the acquired rank (10): {msg}"
    );
    assert!(
        msg.contains("rank 50"),
        "panic must name the held rank (50): {msg}"
    );
    assert!(
        msg.contains("test.low"),
        "panic must name the acquired lock: {msg}"
    );
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "lock-order detector is compiled out in release builds"
)]
fn reacquiring_the_same_rank_panics() {
    // Equal ranks are an inversion too: "strictly increasing" is what makes
    // the hierarchy deadlock-free, and self-deadlock on one mutex is the
    // degenerate case.
    let a = OrderedMutex::new(LockRank::STAGE_SETS, "test.a", 0u32);
    let b = OrderedMutex::new(LockRank::STAGE_SETS, "test.b", 0u32);
    let msg = panic_message(|| {
        let _a = a.lock().unwrap();
        let _b = b.lock().unwrap();
    });
    assert!(msg.contains("rank 60"), "both ranks are 60: {msg}");
}

#[test]
fn increasing_acquisition_is_clean_across_the_runtime_hierarchy() {
    // Walk the documented hierarchy end to end (see the table in the
    // tc_runtime crate docs); every step strictly increases, so the debug
    // detector must stay silent and the guards all coexist.
    let locks = [
        OrderedMutex::new(LockRank::SESSION_PACK, "t.pack", ()),
        OrderedMutex::new(LockRank::SESSION_CONSUME, "t.consume", ()),
        OrderedMutex::new(LockRank::INLINE_SCRATCH, "t.scratch", ()),
        OrderedMutex::new(LockRank::ENGINE_STATE, "t.engine", ()),
        OrderedMutex::new(LockRank::STAGE_SETS, "t.stages", ()),
        OrderedMutex::new(LockRank::RESPONSE_POOL, "t.pool", ()),
        OrderedMutex::new(LockRank::TELEMETRY_BACKEND, "t.backend", ()),
        OrderedMutex::new(LockRank::TELEMETRY_TENANT, "t.tenant", ()),
        OrderedMutex::new(LockRank::TRACE_RING, "t.ring", ()),
    ];
    let guards: Vec<_> = locks.iter().map(|l| l.lock().unwrap()).collect();
    assert_eq!(guards.len(), locks.len());
    drop(guards);
    // After releasing everything the stack is empty again, so a fresh
    // low-rank acquisition is legal.
    let _again = locks[0].lock().unwrap();
}

#[test]
fn release_then_reacquire_lower_rank_is_legal() {
    // Dropping the high-rank guard pops its rank, so going back down is
    // fine — only *simultaneous* holds are ordered.
    let low = OrderedMutex::new(LockRank::SESSION_PACK, "t.low", 1u8);
    let high = OrderedMutex::new(LockRank::TRACE_RING, "t.high", 2u8);
    {
        let _h = high.lock().unwrap();
    }
    let l = low.lock().unwrap();
    assert_eq!(*l, 1);
}

#[test]
fn detector_state_is_per_thread() {
    // A rank held on one thread must not constrain another thread: the
    // detector models the per-thread acquisition order, not a global one.
    let high = std::sync::Arc::new(OrderedMutex::new(LockRank::TRACE_RING, "t.high", ()));
    let low = std::sync::Arc::new(OrderedMutex::new(LockRank::SESSION_PACK, "t.low", ()));
    let _h = high.lock().unwrap();
    let low2 = std::sync::Arc::clone(&low);
    std::thread::spawn(move || {
        let _l = low2.lock().unwrap(); // fresh thread, empty stack: legal
    })
    .join()
    .expect("cross-thread low-rank acquisition must not panic");
}

#[test]
#[cfg(not(debug_assertions))]
fn release_build_wrapper_is_zero_cost() {
    // In release builds the meta/held bookkeeping fields are ZSTs, so the
    // wrapper must be layout-identical to the std mutex it wraps.
    use std::mem::size_of;
    assert_eq!(
        size_of::<OrderedMutex<u64>>(),
        size_of::<std::sync::Mutex<u64>>(),
        "OrderedMutex must add no bytes over Mutex in release builds"
    );
    assert_eq!(
        size_of::<tc_runtime::OrderedMutexGuard<'static, u64>>(),
        size_of::<std::sync::MutexGuard<'static, u64>>(),
        "OrderedMutexGuard must add no bytes over MutexGuard in release builds"
    );
}
