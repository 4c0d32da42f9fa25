//! Backend choice by a lane-width rule: no probe, no cache, no lock.
//!
//! A bit-sliced pass costs far less than its lane count suggests (on
//! `matmul-n8`, 4.0 / 5.1 / 5.6 / 7.5 ms at 64 / 128 / 256 / 512 lanes), so
//! the widest group the batch fills wins, up to the widest group the host's
//! SIMD level vectorizes. Beyond that width the `W` word-columns run as
//! scalar ops and a wider pass stops paying. Per-request backends (`scalar`)
//! are only chosen where their cost model undercuts the sliced pick, which
//! keeps single requests on tiny circuits off the 64-lane kernel.

use crate::backend::BackendRegistry;
use crate::{Result, RuntimeError};
use tc_circuit::{simd, CompiledCircuit};

/// How a [`crate::Runtime`] chooses its backend for each submission.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TunerPolicy {
    /// The lane-width rule: the smallest bit-sliced group covering
    /// `min(batch, widest vectorized group)`, or a per-request backend
    /// where its [`crate::EvalBackend::cost_model`] is lower.
    #[default]
    Rule,
    /// Always use the named backend.
    Fixed(String),
}

/// The widest standard lane group whose word-columns the host's SIMD level
/// vectorizes, or 64 lanes (`sliced64`) when none is.
fn widest_vectorized_group() -> usize {
    [8, 4, 2]
        .into_iter()
        .find(|&w| simd::vectorized_width(w))
        .map_or(64, |w| 64 * w)
}

/// The backend index the rule picks for `batch` requests against `circuit`.
///
/// Among bit-sliced backends: the smallest lane group covering
/// `min(batch, widest vectorized group)`, else the widest there is. Among
/// per-request backends: the lowest cost model. The per-request one wins
/// only when its cost model is below the sliced pick's. Ties go to the
/// latest registration, so a custom backend shadows a standard one.
pub(crate) fn pick_by_rule(
    registry: &BackendRegistry,
    circuit: &CompiledCircuit,
    batch: usize,
) -> Result<usize> {
    let backends = registry.backends();
    let cost = |i: usize| backends[i].cost_model(circuit, batch);
    let fill = batch.max(1).min(widest_vectorized_group());
    let latest_first = || (0..backends.len()).rev();
    let sliced = latest_first()
        .filter(|&i| backends[i].caps().bit_sliced)
        .min_by_key(|&i| {
            let lanes = backends[i].caps().lane_group;
            (lanes < fill, lanes.abs_diff(fill))
        });
    let per_request = latest_first()
        .filter(|&i| !backends[i].caps().bit_sliced)
        .min_by(|&a, &b| cost(a).total_cmp(&cost(b)));
    match (sliced, per_request) {
        (Some(s), Some(p)) => Ok(if cost(p) < cost(s) { p } else { s }),
        (s, p) => s.or(p).ok_or(RuntimeError::NoBackend),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_circuit::{CircuitBuilder, Wire};

    fn tiny() -> CompiledCircuit {
        let mut b = CircuitBuilder::new(2);
        let g = b
            .add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 1)
            .unwrap();
        b.mark_output(g);
        b.build().compile().unwrap()
    }

    #[test]
    fn empty_registry_is_an_error() {
        assert!(matches!(
            pick_by_rule(&BackendRegistry::empty(), &tiny(), 10),
            Err(RuntimeError::NoBackend)
        ));
    }

    #[test]
    fn registries_without_a_covering_group_use_the_widest() {
        let mut registry = BackendRegistry::empty();
        registry.register(Box::new(crate::WideBackend::<1>));
        registry.register(Box::new(crate::WideBackend::<2>));
        let idx = pick_by_rule(&registry, &tiny(), 100_000).unwrap();
        // Without SIMD the 64-lane group is the widest worth filling.
        let expected = if widest_vectorized_group() > 64 {
            "wide128"
        } else {
            "sliced64"
        };
        assert_eq!(registry.backends()[idx].caps().name, expected);
        // With no bit-sliced backend at all, the per-request one serves.
        let mut scalar_only = BackendRegistry::empty();
        scalar_only.register(Box::new(crate::ScalarBackend));
        assert_eq!(pick_by_rule(&scalar_only, &tiny(), 100_000).unwrap(), 0);
    }
}
