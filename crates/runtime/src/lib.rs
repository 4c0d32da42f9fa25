//! # tc-runtime — a pluggable multi-backend serving runtime
//!
//! The compiled CSR engine in `tc-circuit` hosts one scalar oracle and one
//! width-generic bit-sliced kernel, run at 64, 128, 256 or 512 lanes per
//! pass. Each width wins on a different (circuit size, batch size) region,
//! and callers should not have to hand-chunk batches of exactly one
//! lane-group width or guess which width to use. This crate turns that
//! engine into a serving subsystem:
//!
//! * [`EvalBackend`] — the pluggable execution interface: capabilities (lane
//!   group width), a relative cost model, and a group-evaluation entry
//!   point. Every runtime starts with the scalar, 64-lane, and
//!   128/256/512-lane backends; custom backends can be registered alongside
//!   them ([`RuntimeBuilder::register`]).
//! * [`Runtime`] — the facade: submit arbitrary-size request batches
//!   ([`Runtime::serve_batch`]) or an unbounded request iterator
//!   ([`Runtime::serve_stream`]) against any compiled circuit. The runtime
//!   packs requests into full lane groups, shards groups across worker
//!   threads through a bounded work queue, rides the single ragged tail
//!   through the same path, and returns per-request [`Response`]s (outputs
//!   plus firing-count energy telemetry).
//! * [`StreamSession`] ([`Runtime::open_session`]) — the streaming front
//!   end both of the above are thin wrappers over, and the one place
//!   serving options are set ([`SessionOptions`]: detail level, tenant,
//!   weight, deadline, admission, faults): submit rows from any
//!   thread into the bounded queue, consume completed responses
//!   incrementally (in submission order through a bounded reorder window,
//!   or out of order with explicit request ids), and recycle response
//!   payloads through the session's pool, so unbounded streams run at flat
//!   memory and the warmed-up [`Detail::Outputs`] loop allocates nothing.
//! * [`TenantId`] — multi-tenant fair scheduling: every submission belongs
//!   to a tenant (per session via [`SessionOptions`], or per row via
//!   [`StreamSession::submit_for`]), each tenant owns a bounded
//!   queue inside the scheduler, and workers drain the queues by
//!   deficit-weighted round-robin with groups charged at the backend cost
//!   model's plane-op estimate — a bursty tenant waits out its own backlog
//!   instead of starving everyone queued behind it.
//! * Backend choice — the runtime picks the backend per (circuit, batch
//!   size) by a lane-width rule: the smallest bit-sliced group covering
//!   `min(batch, widest SIMD-vectorized group)`, or `scalar` where its cost
//!   model is lower. No probe runs and nothing is cached;
//!   [`RuntimeBuilder::fixed_backend`] pins one backend instead.
//! * [`Telemetry`] — lock-light counters: requests, groups, padded lanes,
//!   gate-evaluations, firings (Uchizawa–Douglas–Maass energy), busy time,
//!   one ledger per backend (tallies and eval latency) and per tenant
//!   (queue-wait gauges and stage latencies) with a
//!   max-queue-wait-ratio fairness metric.
//!
//! One [`Runtime`] instance is circuit-agnostic and thread-safe, so a single
//! runtime can serve a mixed workload — triangle oracles, matrix products,
//! convnet inference — against many circuits at once (see the
//! `expt_e15_serving` binary in `tcmm-bench`).
//!
//! ## Lock hierarchy
//!
//! Every mutex in this crate is an [`OrderedMutex`] with a static rank;
//! debug builds panic the moment any thread acquires locks out of rank
//! order (see [`ordered`](crate::OrderedMutex) for the detection model).
//! Locks must be taken in strictly increasing rank order:
//!
//! | Rank | Name | Lock | Held while taking |
//! |-----:|------|------|-------------------|
//! | 10 | `SESSION_PACK` | session lane-assembly state (`session.rs`) | scratch, engine, stage sets, pool, telemetry, trace |
//! | 20 | `SESSION_CONSUME` | session delivery window (`session.rs`) | pool, trace |
//! | 30 | `INLINE_SCRATCH` | inline-dispatch scratch (`session.rs`) | engine, pool, telemetry, trace |
//! | 50 | `ENGINE_STATE` | scheduler queues/lanes/ring (`scheduler.rs`) | — (leaf) |
//! | 60 | `STAGE_SETS` | per-stage histogram registry (`session.rs`) | — (leaf) |
//! | 70 | `RESPONSE_POOL` | response recycling pool (`session.rs`) | — (leaf) |
//! | 80 | `TELEMETRY_BACKEND` | per-backend tallies and eval histograms (`telemetry.rs`) | — (leaf) |
//! | 81 | `TELEMETRY_TENANT` | per-tenant tallies and stage histograms (`telemetry.rs`) | — (leaf) |
//! | 90 | `TRACE_RING` | flight-recorder ring (`trace.rs`) | — (leaf) |
//!
//! `SESSION_PACK` and `SESSION_CONSUME` are never held together today
//! (`submit_or_next` drains the consume side before packing), but their
//! relative order is fixed here so a future overlap cannot deadlock.
//! Telemetry's `snapshot` takes its two maps sequentially, never nested.
//! ```
//! use tc_circuit::{CircuitBuilder, Wire};
//! use tc_runtime::Runtime;
//!
//! let mut b = CircuitBuilder::new(2);
//! let g = b.add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 2).unwrap();
//! b.mark_output(g);
//! let compiled = b.build().compile().unwrap();
//!
//! let runtime = Runtime::new();
//! let rows: Vec<Vec<bool>> = (0..200).map(|i| vec![i % 2 == 0, i % 3 == 0]).collect();
//! let responses = runtime.serve_batch(&compiled, &rows).unwrap();
//! assert_eq!(responses.len(), 200);
//! assert_eq!(responses[0].outputs, vec![true]); // 0 % 2 == 0 && 0 % 3 == 0
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::pedantic)]
// Pedantic classes waived crate-wide, each with its reason; everything else
// in the pedantic group is enforced (CI runs clippy with -D warnings).
#![allow(
    // Telemetry counters and lane math narrow/widen deliberately: ids,
    // bucket indexes, and nanosecond tallies are all bounded well inside
    // the target type, and histograms are approximate by design.
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::cast_lossless,
    // An annotation sweep over a mostly-internal API; the few places where
    // ignoring a return value is a real bug (locks, guards) already fail
    // louder than #[must_use] would.
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    // Error and panic semantics are documented once, on `RuntimeError` and
    // in the crate docs, not as per-function boilerplate sections.
    clippy::missing_errors_doc,
    clippy::missing_panics_doc,
    // The scheduler/session orchestration bodies read better as one
    // linear pass than split into artificial helpers.
    clippy::too_many_lines
)]

mod backend;
mod faults;
mod metrics;
mod ordered;
mod runtime;
mod scheduler;
mod session;
mod telemetry;
mod trace;
mod tuner;

pub use backend::{
    shape_response_shells, BackendCaps, Detail, EvalBackend, Response, ScalarBackend,
    Sliced64Backend, WideBackend,
};
pub use faults::{FaultKind, FaultPlan};
pub use metrics::{Histogram, HistogramSnapshot, StageHistograms, StageSnapshot, RELATIVE_ERROR};
pub use ordered::{LockRank, OrderedMutex, OrderedMutexGuard};
pub use runtime::{Runtime, RuntimeBuilder};
pub use scheduler::AdmissionPolicy;
pub use session::{PooledResponse, SessionOptions, StreamSession, SubmitOrNext};
pub use telemetry::{
    BackendTally, Telemetry, TelemetrySummary, TenantTally, TELEMETRY_SCHEMA_VERSION,
};

/// Identifies one tenant of the shared runtime — one traffic source whose
/// groups are queued, scheduled, and accounted separately from every other
/// tenant's. Sessions default to [`TenantId::DEFAULT`]; multi-tenant
/// sessions register further tenants with a scheduling weight (see
/// [`StreamSession::register_tenant`]). The id is an opaque caller-chosen
/// label: telemetry reports per-tenant tallies keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant every un-tagged submission belongs to.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

// The plane scratch backends evaluate in: re-exported so custom
// [`EvalBackend`] implementations need no direct `tc-circuit` dependency.
pub use tc_circuit::PlaneArena;

use std::fmt;

/// Errors produced while serving requests through the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The underlying circuit engine rejected a request (shape mismatch,
    /// lane bounds, …).
    Circuit(tc_circuit::CircuitError),
    /// The registry holds no backend able to serve the request.
    NoBackend,
    /// A named backend was requested but is not registered.
    UnknownBackend {
        /// The requested backend name.
        name: String,
    },
    /// A backend violated the [`EvalBackend`] contract by returning the
    /// wrong number of responses for a lane group.
    BackendContract {
        /// The offending backend's name.
        backend: &'static str,
        /// Requests in the group.
        expected: usize,
        /// Responses the backend returned.
        actual: usize,
    },
    /// A row was submitted after [`StreamSession::finish`] closed the
    /// submit side (previously an `assert!` that aborted the caller's
    /// thread).
    SessionFinished,
    /// A session thread panicked mid-serve (a worker evaluating a group,
    /// or a thread holding a session lock): the session is unusable and
    /// queued work was dropped. Surfaced through the normal error channel
    /// so one crashed worker does not take the consumer down with an
    /// opaque poisoned-lock panic.
    SessionPanicked {
        /// Where the panic was observed ("worker", "consumer lock", …).
        context: &'static str,
    },
    /// The request was accepted but could not be evaluated before its
    /// deadline ([`SessionOptions::deadline`]):
    /// the scheduler skipped evaluation at pop time because the cost
    /// model's calibrated per-group estimate no longer fit, and answered
    /// the row with this error through the normal delivery window
    /// (accepted-implies-answered still holds).
    DeadlineExceeded,
    /// The request was accepted but shed at admission because its tenant's
    /// queue was full under a shedding [`AdmissionPolicy`]
    /// (`ShedNewest` refuses the incoming group, `ShedOldest` evicts the
    /// queue head). Shed rows are answered with this error through the
    /// normal delivery window, never silently dropped.
    Shed,
    /// A deterministic fault injected by a [`FaultPlan`] (`TCMM_FAULTS`).
    /// Only ever produced while fault injection is armed; the payload names
    /// the injected fault shape.
    FaultInjected(
        /// The injected fault shape ("`eval_error`", …).
        &'static str,
    ),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Circuit(e) => write!(f, "circuit engine error: {e}"),
            RuntimeError::NoBackend => write!(f, "no registered backend can serve the request"),
            RuntimeError::UnknownBackend { name } => {
                write!(f, "no backend named {name:?} is registered")
            }
            RuntimeError::BackendContract {
                backend,
                expected,
                actual,
            } => write!(
                f,
                "backend {backend:?} returned {actual} responses for a group of {expected} requests"
            ),
            RuntimeError::SessionFinished => {
                write!(f, "request submitted after the session finished")
            }
            RuntimeError::SessionPanicked { context } => {
                write!(f, "a session thread panicked mid-serve ({context})")
            }
            RuntimeError::DeadlineExceeded => {
                write!(f, "request deadline expired before evaluation")
            }
            RuntimeError::Shed => {
                write!(f, "request shed at admission (tenant queue full)")
            }
            RuntimeError::FaultInjected(kind) => {
                write!(f, "deterministic injected fault: {kind}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tc_circuit::CircuitError> for RuntimeError {
    fn from(e: tc_circuit::CircuitError) -> Self {
        RuntimeError::Circuit(e)
    }
}

/// Locks a mutex tolerating poison: a panic elsewhere (a crashed worker, an
/// injected fault) marks the mutex poisoned, but the data under these locks
/// is counters/ring-buffers that stay structurally valid, so observers keep
/// working rather than cascading the panic into telemetry snapshots or
/// flight-recorder dumps.
pub(crate) fn lock_tolerant<T>(m: &OrderedMutex<T>) -> OrderedMutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;
