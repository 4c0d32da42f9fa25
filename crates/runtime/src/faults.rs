//! Deterministic fault injection for the serving runtime.
//!
//! Robustness claims ("every accepted row is answered", "a faulting backend
//! degrades to the scalar fallback instead of aborting the session") are
//! only testable if failures can be produced *on demand* and
//! *reproducibly*. This module injects four fault shapes into the session's
//! dispatch and evaluation paths:
//!
//! * **worker panics** — the evaluating thread panics mid-group, exercising
//!   the catch-unwind + failover + poison-tolerance paths;
//! * **backend eval errors** — `eval_group` returns
//!   [`RuntimeError::FaultInjected`], exercising typed-error failover;
//! * **slow evals** — the evaluating thread sleeps before evaluating,
//!   manufacturing stragglers for deadline shedding to catch;
//! * **queue-full pressure** — a push is treated as if the tenant queue
//!   were full, exercising the [`crate::AdmissionPolicy`] shed paths
//!   without needing to win a race against real workers.
//!
//! Every fault is keyed by a **seeded counter**, not a clock or RNG: each
//! injection site counts its opportunities with an atomic, and a fault
//! fires on opportunity `n` iff `n % every == offset` (with an optional
//! total-fire `limit`). Two runs of the same single-threaded workload fault
//! identically; multi-worker runs fault at the same *set* of opportunities
//! regardless of which thread draws them. The hot path cost when no plan is
//! armed is one `Option` check.
//!
//! Plans come from two places, checked in order:
//!
//! 1. programmatically, via [`FaultPlan::new`] + [`FaultPlan::inject`] on
//!    [`crate::SessionOptions::faults`];
//! 2. the `TCMM_FAULTS` environment variable, parsed by
//!    [`FaultPlan::from_env`] (the grammar is documented there).

use crate::RuntimeError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One injectable fault shape; each variant says where it lands in the
/// dispatch/eval paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The evaluating thread panics before evaluating a group.
    Panic,
    /// `eval_group` fails with [`RuntimeError::FaultInjected`]`("eval_error")`.
    EvalError,
    /// The evaluating thread sleeps this long before evaluating (straggler).
    Slow(Duration),
    /// A push is treated as if the tenant's queue were full.
    QueueFull,
}

/// One armed fault: a kind plus the deterministic firing pattern.
#[derive(Debug)]
struct ArmedFault {
    kind: FaultKind,
    /// Fires on every `every`-th opportunity…
    every: u64,
    /// …starting at this offset (`n % every == offset`).
    offset: u64,
    /// Stop firing after this many hits (`None` = unlimited).
    limit: Option<u64>,
    /// Opportunities seen at this fault's injection site.
    seen: AtomicU64,
    /// Times this fault has fired.
    fired: AtomicU64,
}

impl ArmedFault {
    /// Counts one opportunity and decides — deterministically — whether
    /// this fault fires on it.
    fn trips(&self) -> bool {
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        if n % self.every != self.offset % self.every {
            return false;
        }
        match self.limit {
            None => {
                self.fired.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(limit) => {
                // Claim a firing slot; back off if the budget is spent.
                let prev = self.fired.fetch_add(1, Ordering::Relaxed);
                prev < limit
            }
        }
    }
}

/// A deterministic fault-injection plan: which faults are armed and on
/// which opportunity counts they fire. Shared (via `Arc`) between a
/// session's submitters and workers; all counters are atomic.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<ArmedFault>,
}

impl FaultPlan {
    /// An empty plan (no faults armed). Arm faults with
    /// [`FaultPlan::inject`].
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms `kind` to fire on opportunity counts `n` where
    /// `n % every == offset`, at most `limit` times (`None` = unlimited).
    /// `every` is clamped to ≥ 1. Builder-style; returns `self`.
    pub fn inject(mut self, kind: FaultKind, every: u64, offset: u64, limit: Option<u64>) -> Self {
        self.faults.push(ArmedFault {
            kind,
            every: every.max(1),
            offset,
            limit,
            seen: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        });
        self
    }

    /// Whether any fault is armed.
    pub fn is_armed(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Total fires across all armed faults so far (test assertions).
    pub fn fires(&self) -> u64 {
        self.faults
            .iter()
            .map(|f| match f.limit {
                // Over-claimed slots past the limit did not actually fire.
                Some(limit) => f.fired.load(Ordering::Relaxed).min(limit),
                None => f.fired.load(Ordering::Relaxed),
            })
            .sum()
    }

    /// Parses `TCMM_FAULTS`, whose grammar is `clause(';' clause)*` where
    /// `clause = kind[:param]'@'key=val(,key=val)*`:
    ///
    /// ```text
    /// TCMM_FAULTS="panic@every=7,offset=3;error@every=5;slow:200@every=16;queue_full@every=4,limit=2"
    /// ```
    ///
    /// Kinds are `panic`, `error`, `slow:<micros>`, and `queue_full`; keys
    /// are `every` (default 1 = every opportunity), `offset` (default 0),
    /// and `limit` (default unlimited). Malformed clauses are skipped.
    /// Returns `None` when unset, empty, `off`, `0`, or nothing parses — a
    /// typo in an env var must degrade to "no faults", never to a crash.
    pub fn from_env() -> Option<Arc<FaultPlan>> {
        let spec = std::env::var("TCMM_FAULTS").ok()?;
        Self::parse(&spec).map(Arc::new)
    }

    /// Parses a `TCMM_FAULTS`-grammar spec string (exposed so tests and
    /// embedders can parse without touching the process environment).
    pub fn parse(spec: &str) -> Option<FaultPlan> {
        let spec = spec.trim();
        if spec.is_empty() || spec.eq_ignore_ascii_case("off") || spec == "0" {
            return None;
        }
        let mut plan = FaultPlan::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (head, pattern) = match clause.split_once('@') {
                Some((h, p)) => (h.trim(), p.trim()),
                None => (clause, ""),
            };
            let kind = match head.split_once(':') {
                Some(("slow", micros)) => match micros.trim().parse::<u64>() {
                    Ok(us) => FaultKind::Slow(Duration::from_micros(us)),
                    Err(_) => continue,
                },
                None => match head {
                    "panic" => FaultKind::Panic,
                    "error" => FaultKind::EvalError,
                    "queue_full" => FaultKind::QueueFull,
                    _ => continue,
                },
                Some(_) => continue,
            };
            let (mut every, mut offset, mut limit) = (1u64, 0u64, None);
            let mut ok = true;
            for kv in pattern.split(',') {
                let kv = kv.trim();
                if kv.is_empty() {
                    continue;
                }
                match kv
                    .split_once('=')
                    .map(|(k, v)| (k.trim(), v.trim().parse::<u64>()))
                {
                    Some(("every", Ok(v))) => every = v.max(1),
                    Some(("offset", Ok(v))) => offset = v,
                    Some(("limit", Ok(v))) => limit = Some(v),
                    _ => ok = false,
                }
            }
            if ok {
                plan = plan.inject(kind, every, offset, limit);
            }
        }
        plan.is_armed().then_some(plan)
    }

    /// Counts one opportunity against every armed fault of the variant
    /// `matches` selects; `true` if any fires.
    fn trip_matching(&self, matches: impl Fn(&FaultKind) -> bool) -> bool {
        let mut tripped = false;
        for f in &self.faults {
            if matches(&f.kind) && f.trips() {
                tripped = true;
            }
        }
        tripped
    }

    /// Eval-site hook: counts one evaluation opportunity. `Err` if an
    /// `EvalError` fault fires, after panicking if a `Panic` fault fires
    /// and sleeping if a `Slow` fault fires (a straggler can also error —
    /// sites are independent counters).
    pub(crate) fn before_eval(&self) -> crate::Result<()> {
        for f in &self.faults {
            if let FaultKind::Slow(d) = f.kind {
                if f.trips() {
                    std::thread::sleep(d);
                }
            }
        }
        // lint:allow(no_panic): panicking is this fault's entire job —
        // the chaos suite injects worker panics to prove the session
        // contract survives them.
        assert!(
            !self.trip_matching(|k| *k == FaultKind::Panic),
            "injected fault: worker panic (TCMM_FAULTS/FaultPlan)"
        );
        if self.trip_matching(|k| *k == FaultKind::EvalError) {
            return Err(RuntimeError::FaultInjected("eval_error"));
        }
        Ok(())
    }

    /// Push-site hook: counts one admission opportunity; `true` if a
    /// `QueueFull` fault fires (the push then treats the tenant queue as
    /// full).
    pub(crate) fn force_queue_full(&self) -> bool {
        self.trip_matching(|k| *k == FaultKind::QueueFull)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firing_pattern_is_deterministic_modular_arithmetic() {
        let plan = FaultPlan::new().inject(FaultKind::QueueFull, 4, 1, None);
        let fired: Vec<bool> = (0..12).map(|_| plan.force_queue_full()).collect();
        let expect: Vec<bool> = (0..12u64).map(|n| n % 4 == 1).collect();
        assert_eq!(fired, expect);
        assert_eq!(plan.fires(), 3);
    }

    #[test]
    fn limit_caps_total_fires() {
        let plan = FaultPlan::new().inject(FaultKind::QueueFull, 1, 0, Some(2));
        let fired: Vec<bool> = (0..5).map(|_| plan.force_queue_full()).collect();
        assert_eq!(fired, vec![true, true, false, false, false]);
        assert_eq!(plan.fires(), 2);
    }

    #[test]
    fn env_grammar_parses_every_kind() {
        let plan = FaultPlan::parse(
            "panic@every=7,offset=3; error@every=5 ;slow:200@every=16;queue_full@limit=2",
        )
        .expect("all four clauses valid");
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(plan.faults[0].kind, FaultKind::Panic);
        assert_eq!((plan.faults[0].every, plan.faults[0].offset), (7, 3));
        assert_eq!(plan.faults[1].kind, FaultKind::EvalError);
        assert_eq!(plan.faults[1].every, 5);
        assert_eq!(
            plan.faults[2].kind,
            FaultKind::Slow(Duration::from_micros(200))
        );
        assert_eq!(plan.faults[3].kind, FaultKind::QueueFull);
        assert_eq!((plan.faults[3].every, plan.faults[3].limit), (1, Some(2)));
    }

    #[test]
    fn garbage_disables_gracefully() {
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("off").is_none());
        assert!(FaultPlan::parse("0").is_none());
        assert!(FaultPlan::parse("lolwut").is_none());
        assert!(FaultPlan::parse("slow:abc@every=2").is_none());
        assert!(FaultPlan::parse("panic@every=x").is_none());
        // One bad clause does not poison the good ones.
        let plan = FaultPlan::parse("lolwut;error@every=3").unwrap();
        assert_eq!(plan.faults.len(), 1);
        assert_eq!(plan.faults[0].kind, FaultKind::EvalError);
    }

    #[test]
    fn before_eval_surfaces_injected_errors() {
        let plan = FaultPlan::new().inject(FaultKind::EvalError, 3, 0, None);
        assert_eq!(
            plan.before_eval(),
            Err(RuntimeError::FaultInjected("eval_error"))
        );
        assert_eq!(plan.before_eval(), Ok(()));
        assert_eq!(plan.before_eval(), Ok(()));
        assert_eq!(
            plan.before_eval(),
            Err(RuntimeError::FaultInjected("eval_error"))
        );
    }

    #[test]
    fn injected_panics_carry_a_recognizable_message() {
        let plan = FaultPlan::new().inject(FaultKind::Panic, 1, 0, Some(1));
        let err = std::panic::catch_unwind(|| plan.before_eval()).unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .map(std::string::ToString::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected fault"), "got {msg:?}");
        // Limit spent: the next opportunity passes clean.
        assert_eq!(plan.before_eval(), Ok(()));
    }
}
