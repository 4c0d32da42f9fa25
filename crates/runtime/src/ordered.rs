//! Rank-ordered mutex: debug-build lock-order (deadlock) detection.
//!
//! Every mutex in this crate is an [`OrderedMutex`] carrying a static
//! [`LockRank`]. In debug builds each thread keeps a small fixed-size stack
//! of the ranks it currently holds; acquiring a lock whose rank is not
//! strictly greater than every held rank panics immediately, naming both
//! offending ranks. A rank inversion is exactly the shape from which
//! cross-thread deadlock cycles are built, so the detector turns a
//! once-in-a-thousand-runs hang into a deterministic unit-test failure.
//!
//! In release builds every debug field compiles away: [`OrderedMutex`] is a
//! transparent wrapper over [`std::sync::Mutex`] (same size, no extra
//! branches on the lock path), which `tests/lock_order.rs` pins with a
//! `size_of` check.
//!
//! The crate-wide rank table lives in the crate root docs ([`crate`]); the
//! named ranks are associated constants on [`LockRank`].

use std::fmt;
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError, TryLockError, TryLockResult};

/// A position in the crate-wide lock hierarchy (see the table in the crate
/// root docs). Locks may only be acquired in strictly increasing rank
/// order; holding two locks of the same rank is also rejected.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockRank(pub u16);

impl LockRank {
    /// Session pack state (lane assembly) — the outermost runtime lock.
    pub const SESSION_PACK: LockRank = LockRank(10);
    /// Session consume state (delivery window / reorder cursor).
    pub const SESSION_CONSUME: LockRank = LockRank(20);
    /// Inline-dispatch scratch buffers.
    pub const INLINE_SCRATCH: LockRank = LockRank(30);
    /// Scheduler engine state (queues, lanes, delivery ring).
    pub const ENGINE_STATE: LockRank = LockRank(50);
    /// Registry of per-stage histogram sets.
    pub const STAGE_SETS: LockRank = LockRank(60);
    /// Response-buffer recycling pool.
    pub const RESPONSE_POOL: LockRank = LockRank(70);
    /// Telemetry per-backend ledger (tallies and eval histograms).
    pub const TELEMETRY_BACKEND: LockRank = LockRank(80);
    /// Telemetry per-tenant ledger (tallies and stage histograms).
    pub const TELEMETRY_TENANT: LockRank = LockRank(81);
    /// Flight-recorder event ring — the innermost runtime lock.
    pub const TRACE_RING: LockRank = LockRank(90);
}

impl fmt::Debug for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}", self.0)
    }
}

/// Per-thread stack of held ranks. Fixed-size `Cell` storage so taking a
/// lock never allocates, keeping the debug-build allocation profile honest
/// for the 0-allocs/request steady-state test.
#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;

    /// More simultaneous locks than any sane hierarchy; the runtime's own
    /// chains are at most four deep.
    const MAX_HELD: usize = 32;

    thread_local! {
        static RANKS: Cell<[u16; MAX_HELD]> = const { Cell::new([0; MAX_HELD]) };
        static LEN: Cell<usize> = const { Cell::new(0) };
    }

    /// Records `rank` as held, panicking on hierarchy violations.
    pub(super) fn acquire(rank: u16, name: &'static str) {
        let len = LEN.with(Cell::get);
        let ranks = RANKS.with(Cell::get);
        for &held in &ranks[..len] {
            // lint:allow(no_panic): the detector's entire purpose is to
            // panic deterministically on a lock-order violation.
            assert!(
                held < rank,
                "lock-order violation: acquiring {name:?} (rank {rank}) while \
                                 holding rank {held}; locks must be taken in strictly \
                                 increasing rank order (see the hierarchy table in lib.rs)"
            );
        }
        // lint:allow(no_panic): depth overflow is itself a hierarchy bug.
        assert!(
            len != MAX_HELD,
            "lock-order stack overflow: {MAX_HELD} locks held while acquiring {name:?}"
        );
        let mut updated = ranks;
        updated[len] = rank;
        RANKS.with(|r| r.set(updated));
        LEN.with(|l| l.set(len + 1));
    }

    /// Removes the topmost entry matching `rank` (tolerates out-of-order
    /// guard drops).
    pub(super) fn release(rank: u16) {
        let len = LEN.with(Cell::get);
        let mut ranks = RANKS.with(Cell::get);
        if let Some(at) = ranks[..len].iter().rposition(|&held| held == rank) {
            ranks.copy_within(at + 1..len, at);
            RANKS.with(|r| r.set(ranks));
            LEN.with(|l| l.set(len - 1));
        }
    }
}

/// Debug-only lock metadata; a zero-sized field in release builds.
struct LockMeta {
    #[cfg(debug_assertions)]
    rank: u16,
    #[cfg(debug_assertions)]
    name: &'static str,
}

/// Marker kept alive for as long as a guard holds its lock; dropping it
/// pops the rank off the thread's held-lock stack. Zero-sized (and
/// `Drop`-free) in release builds.
struct HeldRank {
    #[cfg(debug_assertions)]
    rank: u16,
}

#[cfg(debug_assertions)]
impl Drop for HeldRank {
    fn drop(&mut self) {
        held::release(self.rank);
    }
}

/// A [`std::sync::Mutex`] that participates in the crate lock hierarchy.
/// See the module docs for the detection model and the crate root docs for
/// the rank table.
pub struct OrderedMutex<T> {
    // In release builds `LockMeta` is a ZST and nothing reads it; the field
    // stays so debug and release share one struct shape.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    meta: LockMeta,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex at `rank`; `name` labels violation panics.
    pub fn new(rank: LockRank, name: &'static str, value: T) -> OrderedMutex<T> {
        let _ = (&rank, name);
        OrderedMutex {
            meta: LockMeta {
                #[cfg(debug_assertions)]
                rank: rank.0,
                #[cfg(debug_assertions)]
                name,
            },
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, panicking (debug builds only) if any lock of
    /// equal or greater rank is already held by this thread. Poison
    /// semantics mirror [`std::sync::Mutex::lock`].
    pub fn lock(&self) -> LockResult<OrderedMutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        held::acquire(self.meta.rank, self.meta.name);
        let held = HeldRank {
            #[cfg(debug_assertions)]
            rank: self.meta.rank,
        };
        match self.inner.lock() {
            Ok(inner) => Ok(OrderedMutexGuard { inner, held }),
            Err(poisoned) => Err(PoisonError::new(OrderedMutexGuard {
                inner: poisoned.into_inner(),
                held,
            })),
        }
    }

    /// Attempts the lock without blocking; the hierarchy check still runs
    /// (an inversion is a bug even when the probe would have failed).
    pub fn try_lock(&self) -> TryLockResult<OrderedMutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        held::acquire(self.meta.rank, self.meta.name);
        let held = HeldRank {
            #[cfg(debug_assertions)]
            rank: self.meta.rank,
        };
        match self.inner.try_lock() {
            Ok(inner) => Ok(OrderedMutexGuard { inner, held }),
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            Err(TryLockError::Poisoned(poisoned)) => Err(TryLockError::Poisoned(PoisonError::new(
                OrderedMutexGuard {
                    inner: poisoned.into_inner(),
                    held,
                },
            ))),
        }
    }

    /// Mutable access without locking (exclusive borrow proves uniqueness).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard returned by [`OrderedMutex::lock`]; releases the lock and pops the
/// thread's held-rank stack on drop.
pub struct OrderedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    held: HeldRank,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Blocks on `cv`, releasing and re-acquiring the lock exactly like
    /// [`Condvar::wait`]. The rank stays on the held stack across the wait:
    /// the thread is blocked, so it cannot take further locks, and keeping
    /// the entry means the re-acquisition cannot race another rank check on
    /// this thread.
    pub fn wait(self, cv: &Condvar) -> LockResult<OrderedMutexGuard<'a, T>> {
        let OrderedMutexGuard { inner, held } = self;
        match cv.wait(inner) {
            Ok(inner) => Ok(OrderedMutexGuard { inner, held }),
            Err(poisoned) => Err(PoisonError::new(OrderedMutexGuard {
                inner: poisoned.into_inner(),
                held,
            })),
        }
    }

    /// [`Condvar::wait_timeout`] with the same rank-stack treatment as
    /// [`OrderedMutexGuard::wait`].
    pub fn wait_timeout(
        self,
        cv: &Condvar,
        dur: std::time::Duration,
    ) -> LockResult<(OrderedMutexGuard<'a, T>, std::sync::WaitTimeoutResult)> {
        let OrderedMutexGuard { inner, held } = self;
        match cv.wait_timeout(inner, dur) {
            Ok((inner, timed_out)) => Ok((OrderedMutexGuard { inner, held }, timed_out)),
            Err(poisoned) => {
                let (inner, timed_out) = poisoned.into_inner();
                Err(PoisonError::new((
                    OrderedMutexGuard { inner, held },
                    timed_out,
                )))
            }
        }
    }
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_ranks_are_fine() {
        let a = OrderedMutex::new(LockRank(1), "a", 1);
        let b = OrderedMutex::new(LockRank(2), "b", 2);
        let ga = a.lock().unwrap();
        let gb = b.lock().unwrap();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn release_unblocks_rank_reuse() {
        let a = OrderedMutex::new(LockRank(5), "a", ());
        let b = OrderedMutex::new(LockRank(5), "b", ());
        drop(a.lock().unwrap());
        // Same rank is fine sequentially — only simultaneous holds trip it.
        drop(b.lock().unwrap());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "detector compiled out in release")]
    fn inversion_panics_with_both_ranks() {
        let hi = OrderedMutex::new(LockRank(50), "hi", ());
        let lo = OrderedMutex::new(LockRank(10), "lo", ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = hi.lock().unwrap();
            let _ = lo.lock();
        }))
        .expect_err("inversion must panic in debug builds");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("rank 10"), "{msg}");
        assert!(msg.contains("rank 50"), "{msg}");
    }

    #[test]
    fn out_of_order_guard_drops_are_tolerated() {
        let a = OrderedMutex::new(LockRank(1), "a", ());
        let b = OrderedMutex::new(LockRank(2), "b", ());
        let c = OrderedMutex::new(LockRank(3), "c", ());
        let ga = a.lock().unwrap();
        let gb = b.lock().unwrap();
        drop(ga); // released below gb — stack must stay consistent
        let gc = c.lock().unwrap();
        drop(gb);
        drop(gc);
        // And the thread is clean again:
        drop(a.lock().unwrap());
    }

    #[test]
    fn wait_keeps_lock_usable() {
        use std::sync::{Arc, Condvar};
        let m = Arc::new(OrderedMutex::new(LockRank(7), "m", false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            let mut g = m2.lock().unwrap();
            while !*g {
                g = g.wait(&cv2).unwrap();
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *m.lock().unwrap() = true;
        cv.notify_all();
        t.join().unwrap();
    }
}
