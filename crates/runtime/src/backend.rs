//! The pluggable execution interface and the standard backend set.

use crate::{Result, RuntimeError};
use tc_circuit::{CompiledCircuit, Evaluation, PlaneArena};

/// How much of each evaluation a [`Response`] must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Detail {
    /// Designated outputs and the firing count only (the cheap serving path).
    #[default]
    Outputs,
    /// Additionally the full per-gate [`Evaluation`], for callers that read
    /// interior wires (gate values that are not designated outputs).
    Full,
}

/// The per-request result returned by the runtime.
///
/// A default (empty) response is a valid *shell*: the streaming session's
/// [`ResponsePool`](crate::StreamSession) recycles consumed responses and
/// backends refill them in place, reusing the payload buffers' capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Response {
    /// The circuit's designated output values for this request.
    pub outputs: Vec<bool>,
    /// Number of gates that fired (the Uchizawa–Douglas–Maass energy).
    pub firing_count: u32,
    /// The full evaluation, present only under [`Detail::Full`].
    pub evaluation: Option<Evaluation>,
}

impl Response {
    /// Refills this (possibly recycled) response from an owned evaluation.
    fn fill_from_evaluation(&mut self, ev: Evaluation, detail: Detail) {
        self.outputs.clear();
        self.outputs.extend_from_slice(ev.outputs());
        self.firing_count = ev.firing_count() as u32;
        self.evaluation = match detail {
            Detail::Outputs => None,
            Detail::Full => Some(ev),
        };
    }
}

/// Reshapes a recycled-shell vector to exactly `n` responses: surplus shells
/// are dropped, missing ones are topped up with empty defaults. Backends call
/// this first so every response slot exists before the per-lane fill.
pub fn shape_response_shells(responses: &mut Vec<Response>, n: usize) {
    responses.truncate(n);
    while responses.len() < n {
        responses.push(Response::default());
    }
}

/// Static capabilities of a backend.
#[derive(Debug, Clone, Copy)]
pub struct BackendCaps {
    /// Stable, unique display name (also the registry lookup key).
    pub name: &'static str,
    /// Preferred number of requests per [`EvalBackend::eval_group`] call —
    /// the lane-group width the scheduler packs towards.
    pub lane_group: usize,
    /// Whether a pass has a fixed lane width regardless of fill (the
    /// bit-sliced kernels): partial groups then genuinely waste
    /// `lane_group - rows` lanes, which telemetry reports as padding. For
    /// per-request backends `lane_group` is only a scheduling hint and no
    /// padding is counted.
    pub bit_sliced: bool,
}

/// A pluggable evaluation engine the runtime can schedule work onto.
///
/// A backend evaluates one *lane group* — up to [`BackendCaps::lane_group`]
/// independent requests — against a compiled circuit, using the
/// caller-provided [`PlaneArena`] for all per-pass scratch (runtime workers
/// own one arena each, so steady-state serving never allocates plane
/// storage; backends that need no scratch simply ignore it).
/// Implementations must be bit-identical to [`CompiledCircuit::evaluate`]
/// per request; the differential proptests in `tc-circuit` enforce this for
/// the standard set.
///
/// # Contract
///
/// `eval_group` receives `responses` holding any number of *recycled
/// shells* — previously served [`Response`]s whose payload buffers carry
/// reusable capacity (the streaming session's response pool feeds spent
/// responses back here). The backend must leave **exactly
/// `rows.len()`** responses, one per request in order, overwriting every
/// shell field (start with [`shape_response_shells`]); the scheduler
/// treats any other length as a contract violation. Bit-sliced backends
/// writing through [`ArenaEvaluation::outputs_into`] /
/// [`ArenaEvaluation::evaluation_into`](tc_circuit::ArenaEvaluation) keep
/// the warmed-up `Detail::Outputs` serve loop allocation-free.
///
/// Under [`Detail::Full`] every returned [`Response`] **must** populate
/// `evaluation` with the request's full [`Evaluation`] — callers that
/// read interior wires rely on it and treat a missing evaluation as a
/// backend bug. Under [`Detail::Outputs`] it must be `None`.
pub trait EvalBackend: Send + Sync {
    /// The backend's capabilities.
    fn caps(&self) -> BackendCaps;

    /// A relative prior for serving `batch` requests against `circuit`, in
    /// arbitrary work units. The default rule ([`crate::TunerPolicy::Rule`])
    /// uses it for the scalar-vs-sliced choice: a per-request backend is
    /// picked only where its cost is below the bit-sliced pick's.
    fn cost_model(&self, circuit: &CompiledCircuit, batch: usize) -> f64;

    /// Evaluates one lane group (`rows.len() <= caps().lane_group`) into
    /// `responses`, a vector of recycled response shells (see the trait-level
    /// contract).
    fn eval_group(
        &self,
        circuit: &CompiledCircuit,
        rows: &[&[bool]],
        detail: Detail,
        arena: &mut PlaneArena,
        responses: &mut Vec<Response>,
    ) -> Result<()>;
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
/// `circuit`: the gate-class-weighted plane-op estimate the backend cost
/// models are priced off. Groups of a heavy circuit cost proportionally
/// more scheduler credit than groups of a light one, so a tenant's weighted
/// share is a share of *work*, not of group count.
pub(crate) fn plane_op_charge(circuit: &CompiledCircuit) -> u64 {
    weighted_plane_ops(circuit).max(1.0) as u64
}

/// Sequential scalar evaluation, one request at a time.
///
/// Wins on tiny circuits and tiny batches where any packing overhead
/// dominates, and serves as the reference the bit-sliced backends are
/// differentially tested against.
#[derive(Debug, Default)]
pub struct ScalarBackend;

impl EvalBackend for ScalarBackend {
    fn caps(&self) -> BackendCaps {
        BackendCaps {
            name: "scalar",
            // Group a handful of sequential evaluations so scheduler
            // bookkeeping amortises without starving multi-worker sharding.
            lane_group: 8,
            bit_sliced: false,
        }
    }

    fn cost_model(&self, circuit: &CompiledCircuit, batch: usize) -> f64 {
        // The scalar oracle sums every gate's fan-in on its own: no banks.
        batch as f64 * circuit.num_edges() as f64
    }

    fn eval_group(
        &self,
        circuit: &CompiledCircuit,
        rows: &[&[bool]],
        detail: Detail,
        _arena: &mut PlaneArena,
        responses: &mut Vec<Response>,
    ) -> Result<()> {
        shape_response_shells(responses, rows.len());
        for (row, resp) in rows.iter().zip(responses.iter_mut()) {
            resp.fill_from_evaluation(circuit.evaluate(row)?, detail);
        }
        Ok(())
    }
}

/// The width-generic bit-sliced kernel: `[u64; W]` planes carrying `64·W`
/// lanes, so one CSR traversal feeds `W` word-columns. `W = 1` **is** the
/// classic 64-lane path (`sliced64`) — there is no separate 64-lane kernel.
/// Rows are packed straight into the worker's [`PlaneArena`]; a pass
/// allocates nothing beyond the response payloads.
#[derive(Debug, Default)]
pub struct WideBackend<const W: usize>;

/// The fixed 64-lane bit-sliced backend — the `W = 1` instantiation of
/// [`WideBackend`].
pub type Sliced64Backend = WideBackend<1>;

impl<const W: usize> EvalBackend for WideBackend<W> {
    fn caps(&self) -> BackendCaps {
        BackendCaps {
            name: match W {
                1 => "sliced64",
                2 => "wide128",
                4 => "wide256",
                8 => "wide512",
                _ => "wide",
            },
            lane_group: 64 * W,
            bit_sliced: true,
        }
    }

    fn cost_model(&self, circuit: &CompiledCircuit, batch: usize) -> f64 {
        // Each pass does W words of plane work per edge but reads the CSR
        // metadata once — slightly cheaper per lane than W separate 64-lane
        // passes. At W = 1 the factor is exactly the classic sliced64 prior.
        // When the host's SIMD level covers this width, the W word-columns
        // ride one vector register instead of W scalar ops, so the per-word
        // factor halves (the fixed CSR-decode share does not).
        let per_word = if tc_circuit::simd::vectorized_width(W) {
            1.6
        } else {
            3.2
        };
        let passes = batch.max(1).div_ceil(64 * W) as f64;
        passes * weighted_plane_ops(circuit) * (per_word * W as f64 + 0.8)
    }

    fn eval_group(
        &self,
        circuit: &CompiledCircuit,
        rows: &[&[bool]],
        detail: Detail,
        arena: &mut PlaneArena,
        responses: &mut Vec<Response>,
    ) -> Result<()> {
        shape_response_shells(responses, rows.len());
        if rows.is_empty() {
            return Ok(());
        }
        let ev = circuit.evaluate_rows_arena::<W>(rows, arena)?;
        for (lane, resp) in responses.iter_mut().enumerate() {
            ev.outputs_into(lane, &mut resp.outputs)?;
            resp.firing_count = ev.firing_count(lane)?;
            match detail {
                Detail::Outputs => resp.evaluation = None,
                Detail::Full => {
                    ev.evaluation_into(lane, resp.evaluation.get_or_insert_default())?;
                }
            }
        }
        Ok(())
    }
}

/// An ordered collection of registered backends.
pub struct BackendRegistry {
    backends: Vec<Box<dyn EvalBackend>>,
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("backends", &self.names())
            .finish()
    }
}

impl BackendRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        BackendRegistry {
            backends: Vec::new(),
        }
    }

    /// The standard set: scalar and the unified bit-sliced kernel at
    /// 64/128/256/512 lanes.
    pub fn standard() -> Self {
        let mut reg = BackendRegistry::empty();
        reg.register(Box::new(ScalarBackend));
        reg.register(Box::new(WideBackend::<1>));
        reg.register(Box::new(WideBackend::<2>));
        reg.register(Box::new(WideBackend::<4>));
        reg.register(Box::new(WideBackend::<8>));
        reg
    }

    /// Registers a backend. Later registrations win name lookups, so a
    /// custom backend may shadow a standard one.
    pub fn register(&mut self, backend: Box<dyn EvalBackend>) {
        self.backends.push(backend);
    }

    /// The registered backends, in registration order.
    pub fn backends(&self) -> &[Box<dyn EvalBackend>] {
        &self.backends
    }

    /// Registered backend names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.backends.iter().map(|b| b.caps().name).collect()
    }

    /// Index of the backend named `name` (latest registration wins).
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.backends
            .iter()
            .rposition(|b| b.caps().name == name)
            .ok_or_else(|| RuntimeError::UnknownBackend {
                name: name.to_string(),
            })
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        BackendRegistry::standard()
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
    fn standard_registry_has_all_lane_widths() {
        let reg = BackendRegistry::standard();
        assert_eq!(
            reg.names(),
            vec!["scalar", "sliced64", "wide128", "wide256", "wide512"]
        );
        let widths: Vec<usize> = reg.backends().iter().map(|b| b.caps().lane_group).collect();
        assert_eq!(widths, vec![8, 64, 128, 256, 512]);
        assert!(reg.index_of("wide256").is_ok());
        assert!(matches!(
            reg.index_of("gpu"),
            Err(RuntimeError::UnknownBackend { .. })
        ));
    }

    #[test]
    fn every_standard_backend_agrees_with_scalar() {
        let cc = majority();
        let rows: Vec<Vec<bool>> = (0..8u32)
            .map(|v| vec![v & 1 != 0, v & 2 != 0, v & 4 != 0])
            .collect();
        let refs: Vec<&[bool]> = rows.iter().map(std::vec::Vec::as_slice).collect();
        let mut arena = PlaneArena::new();
        let mut expected: Vec<Response> = Vec::new();
        ScalarBackend
            .eval_group(&cc, &refs, Detail::Full, &mut arena, &mut expected)
            .unwrap();
        for backend in BackendRegistry::standard().backends() {
            let lanes = backend.caps().lane_group.min(refs.len());
            let mut got = Vec::new();
            backend
                .eval_group(&cc, &refs[..lanes], Detail::Full, &mut arena, &mut got)
                .unwrap();
            assert_eq!(
                got.as_slice(),
                &expected[..lanes],
                "backend {}",
                backend.caps().name
            );
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
        Sliced64Backend::default()
            .eval_group(&cc, &refs, Detail::Outputs, &mut arena, &mut fresh)
            .unwrap();

        let stale = Response {
            outputs: vec![true; 17],
            firing_count: 99,
            evaluation: Some(cc.evaluate(&[true, true, true]).unwrap()),
        };
        let mut shells = vec![stale.clone(), stale.clone(), stale.clone()];
        let outputs_ptr = shells[0].outputs.as_ptr();
        Sliced64Backend::default()
            .eval_group(&cc, &refs, Detail::Outputs, &mut arena, &mut shells)
            .unwrap();
        assert_eq!(shells, fresh);
        // The first shell's outputs buffer was reused, not reallocated.
        assert_eq!(shells[0].outputs.as_ptr(), outputs_ptr);

        // Too few shells: topped up with defaults, then refilled.
        let mut short = vec![stale];
        ScalarBackend
            .eval_group(&cc, &refs, Detail::Outputs, &mut arena, &mut short)
            .unwrap();
        let mut scalar_fresh = Vec::new();
        ScalarBackend
            .eval_group(&cc, &refs, Detail::Outputs, &mut arena, &mut scalar_fresh)
            .unwrap();
        assert_eq!(short, scalar_fresh);
    }

    #[test]
    fn detail_outputs_omits_the_evaluation() {
        let cc = majority();
        let rows = [[true, true, false]];
        let refs: Vec<&[bool]> = rows.iter().map(<[bool; 3]>::as_slice).collect();
        let mut arena = PlaneArena::new();
        let mut light = Vec::new();
        Sliced64Backend::default()
            .eval_group(&cc, &refs, Detail::Outputs, &mut arena, &mut light)
            .unwrap();
        assert!(light[0].evaluation.is_none());
        assert_eq!(light[0].outputs, vec![true]);
        assert_eq!(light[0].firing_count, 1);
        let mut full = Vec::new();
        Sliced64Backend::default()
            .eval_group(&cc, &refs, Detail::Full, &mut arena, &mut full)
            .unwrap();
        assert_eq!(full[0].evaluation.as_ref().unwrap().outputs(), &[true]);
    }

    #[test]
    fn cost_model_weights_gate_classes() {
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
        let backend = WideBackend::<4>;
        assert!(backend.cost_model(&general, 256) > backend.cost_model(&unit, 256));
    }
}
