//! The closed backend set: the scalar oracle and the one bit-sliced kernel at
//! four lane widths, picked by a lane-width rule.
//!
//! A bit-sliced pass costs far less than its lane count suggests (on
//! `matmul-n8`, 4.0 / 5.1 / 5.6 / 7.5 ms at 64 / 128 / 256 / 512 lanes), so
//! the widest group the batch fills wins, up to the widest group the host's
//! SIMD level vectorizes. Beyond that width the `W` word-columns run as
//! scalar ops and a wider pass stops paying. `scalar` is only chosen where
//! its cost undercuts the sliced pick's, which keeps single requests on tiny
//! circuits off the 64-lane kernel. No probe runs and nothing is cached.

use crate::{Result, RuntimeError};
use tc_circuit::{simd, CompiledCircuit, PlaneArena};

/// How much of each evaluation a [`Response`] carries. Responses always
/// carry the designated outputs and the firing count; gate-level
/// inspection lives in `tc-circuit` (`CompiledCircuit::evaluate`,
/// `ArenaEvaluation::evaluation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Detail {
    /// Designated outputs and the firing count (the serving path).
    #[default]
    Outputs,
}

/// The per-request result returned by the runtime.
///
/// A default (empty) response is a valid *shell*: the streaming session's
/// [`ResponsePool`](crate::StreamSession) recycles consumed responses and
/// the evaluation refills them in place, reusing the outputs buffer's
/// capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Response {
    /// The circuit's designated output values for this request.
    pub outputs: Vec<bool>,
    /// Number of gates that fired (the Uchizawa–Douglas–Maass energy).
    pub firing_count: u32,
}

/// The evaluation engines the runtime serves on: the scalar oracle, or the
/// width-generic bit-sliced kernel at `64·W` lanes per pass. `W1` **is**
/// the classic 64-lane path (`sliced64`) — there is no separate 64-lane
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lanes {
    Scalar,
    W1,
    W2,
    W4,
    W8,
}

impl Lanes {
    /// Every backend, in the order their health slots are indexed.
    pub(crate) const ALL: [Lanes; 5] = [Lanes::Scalar, Lanes::W1, Lanes::W2, Lanes::W4, Lanes::W8];

    /// The stable display name telemetry and
    /// [`crate::RuntimeBuilder::fixed_backend`] use.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Lanes::Scalar => "scalar",
            Lanes::W1 => "sliced64",
            Lanes::W2 => "wide128",
            Lanes::W4 => "wide256",
            Lanes::W8 => "wide512",
        }
    }

    /// The backend named `name`.
    pub(crate) fn from_name(name: &str) -> Result<Lanes> {
        Lanes::ALL
            .into_iter()
            .find(|l| l.name() == name)
            .ok_or_else(|| RuntimeError::UnknownBackend {
                name: name.to_string(),
            })
    }

    /// Requests per [`Lanes::eval_group`] call — the lane-group width the
    /// scheduler packs towards. `scalar` groups a handful of sequential
    /// evaluations so scheduler bookkeeping amortises without starving
    /// multi-worker sharding.
    pub(crate) fn group(self) -> usize {
        match self {
            Lanes::Scalar => 8,
            Lanes::W1 => 64,
            Lanes::W2 => 128,
            Lanes::W4 => 256,
            Lanes::W8 => 512,
        }
    }

    /// Whether a pass has a fixed lane width regardless of fill: partial
    /// groups then genuinely waste `group() - rows` lanes, which telemetry
    /// reports as padding. For `scalar` the group is only a scheduling hint
    /// and no padding is counted.
    pub(crate) fn bit_sliced(self) -> bool {
        self != Lanes::Scalar
    }

    /// Evaluates one lane group (`rows.len() <= group()`) into `responses`,
    /// a vector of recycled response shells of any length: on success it
    /// holds exactly one response per row, in order, every field
    /// overwritten. Bit-identical to [`CompiledCircuit::evaluate`] per row
    /// (the differential suites in `tc-circuit` pin the kernel to it).
    pub(crate) fn eval_group(
        self,
        circuit: &CompiledCircuit,
        rows: &[&[bool]],
        arena: &mut PlaneArena,
        responses: &mut Vec<Response>,
    ) -> Result<()> {
        responses.truncate(rows.len());
        responses.resize_with(rows.len(), Response::default);
        match self {
            Lanes::Scalar => {
                for (row, resp) in rows.iter().zip(responses.iter_mut()) {
                    let ev = circuit.evaluate(row)?;
                    resp.outputs.clear();
                    resp.outputs.extend_from_slice(ev.outputs());
                    resp.firing_count = ev.firing_count() as u32;
                }
                Ok(())
            }
            Lanes::W1 => eval_sliced::<1>(circuit, rows, arena, responses),
            Lanes::W2 => eval_sliced::<2>(circuit, rows, arena, responses),
            Lanes::W4 => eval_sliced::<4>(circuit, rows, arena, responses),
            Lanes::W8 => eval_sliced::<8>(circuit, rows, arena, responses),
        }
    }
}

/// The bit-sliced arm of [`Lanes::eval_group`]: rows are packed straight
/// into the worker's [`PlaneArena`], one kernel pass serves `64·W` lanes, and
/// each lane's outputs land in its recycled shell, so a warmed-up pass
/// allocates nothing.
fn eval_sliced<const W: usize>(
    circuit: &CompiledCircuit,
    rows: &[&[bool]],
    arena: &mut PlaneArena,
    responses: &mut [Response],
) -> Result<()> {
    if rows.is_empty() {
        return Ok(());
    }
    // lint:hot-path-begin — one call per served lane group; the steady-state
    // zero-allocs budget (tests/alloc_steady_state.rs) covers this body.
    let ev = circuit.evaluate_rows_arena::<W>(rows, arena)?;
    for (lane, resp) in responses.iter_mut().enumerate() {
        ev.outputs_into(lane, &mut resp.outputs)?;
        resp.firing_count = ev.firing_count(lane)?;
    }
    // lint:hot-path-end
    Ok(())
}

/// The plane-addition work one bit-sliced pass performs — each bank's row
/// once ([`CompiledCircuit::evaluated_plane_ops`]) — weighted per gate
/// class: `Unit` edges are raw-lane adds (cheapest), `Pow2` bit-edges pay a
/// shift decode, `General` bit-edges ripple multi-bit weights.
fn weighted_plane_ops(circuit: &CompiledCircuit) -> f64 {
    let [unit, pow2, general] = circuit.evaluated_plane_ops();
    unit as f64 + pow2 as f64 * 1.2 + general as f64 * 1.35
}

/// The deficit-round-robin charge for evaluating one lane group of
/// `circuit`: the gate-class-weighted plane-op estimate the pick rule's
/// costs are priced off. Groups of a heavy circuit cost proportionally
/// more scheduler credit than groups of a light one, so a tenant's weighted
/// share is a share of *work*, not of group count.
pub(crate) fn plane_op_charge(circuit: &CompiledCircuit) -> u64 {
    weighted_plane_ops(circuit).max(1.0) as u64
}

/// The relative cost of serving `batch` requests on the scalar oracle, in
/// the same arbitrary units as [`sliced_cost`]: it sums every gate's fan-in
/// on its own, with no banks.
fn scalar_cost(circuit: &CompiledCircuit, batch: usize) -> f64 {
    batch as f64 * circuit.num_edges() as f64
}

/// The relative cost of serving `batch` requests on the bit-sliced kernel
/// at `W` words per plane. Each pass does `W` words of plane work per edge
/// but reads the CSR metadata once — slightly cheaper per lane than `W`
/// separate 64-lane passes. When the host's SIMD level covers this width,
/// the `W` word-columns ride one vector register instead of `W` scalar ops,
/// so the per-word factor halves (the fixed CSR-decode share does not).
fn sliced_cost(w: usize, circuit: &CompiledCircuit, batch: usize) -> f64 {
    let per_word = if simd::vectorized_width(w) { 1.6 } else { 3.2 };
    let passes = batch.max(1).div_ceil(64 * w) as f64;
    passes * weighted_plane_ops(circuit) * (per_word * w as f64 + 0.8)
}

/// The widest standard lane group whose word-columns the host's SIMD level
/// vectorizes, or 64 lanes (`sliced64`) when none is.
fn widest_vectorized_group() -> usize {
    [8, 4, 2]
        .into_iter()
        .find(|&w| simd::vectorized_width(w))
        .map_or(64, |w| 64 * w)
}

/// The backend the rule picks for `batch` requests against `circuit`: the
/// smallest bit-sliced group covering `min(batch, widest vectorized
/// group)`, unless `scalar` costs less than that pick.
pub(crate) fn pick_by_rule(circuit: &CompiledCircuit, batch: usize) -> Lanes {
    let sliced = match batch.max(1).min(widest_vectorized_group()) {
        0..=64 => Lanes::W1,
        65..=128 => Lanes::W2,
        129..=256 => Lanes::W4,
        _ => Lanes::W8,
    };
    if scalar_cost(circuit, batch) < sliced_cost(sliced.group() / 64, circuit, batch) {
        Lanes::Scalar
    } else {
        sliced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_circuit::{CircuitBuilder, Wire};

    fn majority() -> CompiledCircuit {
        let mut b = CircuitBuilder::new(3);
        let g = b
            .add_gate(
                [
                    (Wire::input(0), 1),
                    (Wire::input(1), 1),
                    (Wire::input(2), 1),
                ],
                2,
            )
            .unwrap();
        b.mark_output(g);
        b.build().compile().unwrap()
    }

    #[test]
    fn the_backend_set_keeps_its_names_and_widths() {
        let names: Vec<&str> = Lanes::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            vec!["scalar", "sliced64", "wide128", "wide256", "wide512"]
        );
        let widths: Vec<usize> = Lanes::ALL.iter().map(|l| l.group()).collect();
        assert_eq!(widths, vec![8, 64, 128, 256, 512]);
        for lanes in Lanes::ALL {
            assert_eq!(Lanes::from_name(lanes.name()).unwrap(), lanes);
        }
        assert!(matches!(
            Lanes::from_name("gpu"),
            Err(RuntimeError::UnknownBackend { .. })
        ));
    }

    #[test]
    fn every_backend_agrees_with_scalar() {
        let cc = majority();
        let rows: Vec<Vec<bool>> = (0..8u32)
            .map(|v| vec![v & 1 != 0, v & 2 != 0, v & 4 != 0])
            .collect();
        let refs: Vec<&[bool]> = rows.iter().map(std::vec::Vec::as_slice).collect();
        let mut arena = PlaneArena::new();
        let expected: Vec<Response> = rows
            .iter()
            .map(|row| {
                let ev = cc.evaluate(row).unwrap();
                Response {
                    outputs: ev.outputs().to_vec(),
                    firing_count: ev.firing_count() as u32,
                }
            })
            .collect();
        for lanes in Lanes::ALL {
            let mut got = Vec::new();
            lanes.eval_group(&cc, &refs, &mut arena, &mut got).unwrap();
            assert_eq!(got, expected, "backend {}", lanes.name());
        }
    }

    #[test]
    fn eval_group_refills_recycled_shells_in_place() {
        // Shells carrying stale payloads (and surplus shells) must come back
        // holding exactly the fresh group's responses.
        let cc = majority();
        let rows = [[true, true, false], [false, false, true]];
        let refs: Vec<&[bool]> = rows.iter().map(<[bool; 3]>::as_slice).collect();
        let mut arena = PlaneArena::new();
        let mut fresh = Vec::new();
        Lanes::W1
            .eval_group(&cc, &refs, &mut arena, &mut fresh)
            .unwrap();

        let stale = Response {
            outputs: vec![true; 17],
            firing_count: 99,
        };
        let mut shells = vec![stale.clone(), stale.clone(), stale.clone()];
        let outputs_ptr = shells[0].outputs.as_ptr();
        Lanes::W1
            .eval_group(&cc, &refs, &mut arena, &mut shells)
            .unwrap();
        assert_eq!(shells, fresh);
        // The first shell's outputs buffer was reused, not reallocated.
        assert_eq!(shells[0].outputs.as_ptr(), outputs_ptr);

        // Too few shells: topped up with defaults, then refilled.
        let mut short = vec![stale];
        Lanes::Scalar
            .eval_group(&cc, &refs, &mut arena, &mut short)
            .unwrap();
        assert_eq!(short, fresh);
    }

    #[test]
    fn cost_weights_gate_classes() {
        // A unit circuit and a general circuit with identical topology: the
        // general one must be priced higher per pass.
        let unit = majority();
        let mut b = CircuitBuilder::new(3);
        let g = b
            .add_gate(
                [
                    (Wire::input(0), 3),
                    (Wire::input(1), 5),
                    (Wire::input(2), 7),
                ],
                8,
            )
            .unwrap();
        b.mark_output(g);
        let general = b.build().compile().unwrap();
        assert_eq!(unit.class_counts(), [1, 0, 0]);
        assert_eq!(general.class_counts(), [0, 0, 1]);
        assert!(sliced_cost(4, &general, 256) > sliced_cost(4, &unit, 256));
    }
}
