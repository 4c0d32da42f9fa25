//! Spike-based energy accounting and latency model.
//!
//! The paper's open-problems section asks for the *energy complexity* of these matrix
//! multiplication circuits under the model of Uchizawa, Douglas and Maass: a gate is
//! charged one unit of energy exactly when it fires.  This module measures that
//! quantity on concrete evaluations.

use crate::DeviceSpec;
use tc_circuit::{Circuit, CircuitError, CompiledCircuit, Evaluation};
use tc_runtime::{Runtime, RuntimeError};

/// Energy accounting for one or more evaluations of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Number of evaluations aggregated.
    pub evaluations: usize,
    /// Total number of gate firings across all evaluations.
    pub total_firings: u64,
    /// Mean firings per evaluation.
    pub mean_firings: f64,
    /// Maximum firings observed in a single evaluation.
    pub max_firings: u64,
    /// Mean fraction of gates that fire per evaluation (0..1).
    pub mean_firing_fraction: f64,
    /// Mean energy per evaluation in the device's energy units
    /// (`mean_firings × energy_per_spike`).
    pub mean_energy: f64,
}

/// Latency estimate for one evaluation on a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyReport {
    /// Circuit depth in layers.
    pub depth: u32,
    /// Estimated latency in nanoseconds (`depth × layer_time_ns`).
    pub latency_ns: f64,
}

/// Measures firing-based energy over a set of input assignments.
///
/// Compiles the circuit once and measures through
/// [`energy_over_inputs_compiled`]; callers that already hold a
/// [`CompiledCircuit`] (or measure repeatedly) should use that entry point
/// directly.
pub fn energy_over_inputs(
    circuit: &Circuit,
    device: &DeviceSpec,
    inputs: &[Vec<bool>],
) -> Result<EnergyReport, CircuitError> {
    energy_over_inputs_compiled(&circuit.compile()?, device, inputs)
}

/// Measures firing-based energy over a set of input assignments on an
/// already-compiled circuit.
///
/// Assignments ride the compiled engine's padded-tail batch path
/// ([`CompiledCircuit::evaluate_many`]), so the firing counts for a whole
/// input set cost a handful of bit-sliced passes over the CSR arrays rather
/// than one full evaluation per assignment.
pub fn energy_over_inputs_compiled(
    compiled: &CompiledCircuit,
    device: &DeviceSpec,
    inputs: &[Vec<bool>],
) -> Result<EnergyReport, CircuitError> {
    let many = compiled.evaluate_many(inputs)?;
    let counts = (0..inputs.len())
        .map(|i| many.firing_count(i).map(u64::from))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(report_from_counts(compiled.num_gates(), device, &counts))
}

/// Measures firing-based energy through a serving [`Runtime`]: sweeps route
/// through rule-picked wide lane groups sharded across workers, and every
/// request's firing count comes back in the runtime's [`tc_runtime::Response`]
/// telemetry — the energy-sweep path used by the experiment binaries.
pub fn energy_over_inputs_runtime(
    runtime: &Runtime,
    compiled: &CompiledCircuit,
    device: &DeviceSpec,
    inputs: &[Vec<bool>],
) -> Result<EnergyReport, RuntimeError> {
    let responses = runtime.serve_batch(compiled, inputs)?;
    let counts: Vec<u64> = responses
        .iter()
        .map(|r| u64::from(r.firing_count))
        .collect();
    Ok(report_from_counts(compiled.num_gates(), device, &counts))
}

fn report_from_counts(num_gates: usize, device: &DeviceSpec, counts: &[u64]) -> EnergyReport {
    let total: u64 = counts.iter().sum();
    let n = counts.len().max(1);
    let mean = total as f64 / n as f64;
    let gates = num_gates.max(1) as f64;
    EnergyReport {
        evaluations: counts.len(),
        total_firings: total,
        mean_firings: mean,
        max_firings: counts.iter().copied().max().unwrap_or(0),
        mean_firing_fraction: mean / gates,
        mean_energy: mean * device.energy_per_spike,
    }
}

/// Builds an energy report from already-computed evaluations.
pub fn energy_of_evaluations(
    circuit: &Circuit,
    device: &DeviceSpec,
    evaluations: &[Evaluation],
) -> EnergyReport {
    let counts: Vec<u64> = evaluations
        .iter()
        .map(|ev| ev.firing_count() as u64)
        .collect();
    report_from_counts(circuit.num_gates(), device, &counts)
}

/// The latency of one layer-synchronous evaluation on a device.
pub fn latency(circuit: &Circuit, device: &DeviceSpec) -> LatencyReport {
    LatencyReport {
        depth: circuit.depth(),
        latency_ns: circuit.depth() as f64 * device.layer_time_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_circuit::{CircuitBuilder, Wire};

    fn or_and_circuit() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let or = b
            .add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 1)
            .unwrap();
        let and = b
            .add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 2)
            .unwrap();
        let both = b.add_gate([(or, 1), (and, 1)], 2).unwrap();
        b.mark_output(both);
        b.build()
    }

    #[test]
    fn energy_counts_firing_gates_only() {
        let c = or_and_circuit();
        let device = DeviceSpec::unconstrained();
        let inputs = vec![
            vec![false, false], // nothing fires
            vec![true, false],  // only OR fires
            vec![true, true],   // all three fire
        ];
        let report = energy_over_inputs(&c, &device, &inputs).unwrap();
        assert_eq!(report.evaluations, 3);
        assert_eq!(report.total_firings, 1 + 3);
        assert_eq!(report.max_firings, 3);
        assert!((report.mean_firings - 4.0 / 3.0).abs() < 1e-12);
        assert!((report.mean_firing_fraction - 4.0 / 9.0).abs() < 1e-12);
        assert!((report.mean_energy - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn compiled_entry_point_matches_per_evaluation_accounting() {
        let c = or_and_circuit();
        let device = DeviceSpec::unconstrained();
        // 70 assignments force two 64-lane batches.
        let inputs: Vec<Vec<bool>> = (0..70u32).map(|i| vec![i % 2 == 0, i % 3 == 0]).collect();
        let compiled = c.compile().unwrap();
        let batched = energy_over_inputs_compiled(&compiled, &device, &inputs).unwrap();
        let evaluations: Vec<Evaluation> = inputs
            .iter()
            .map(|bits| c.evaluate(bits).unwrap())
            .collect();
        let reference = energy_of_evaluations(&c, &device, &evaluations);
        assert_eq!(batched, reference);
    }

    #[test]
    fn runtime_energy_sweep_matches_the_compiled_path() {
        let c = or_and_circuit();
        let device = DeviceSpec::unconstrained();
        let inputs: Vec<Vec<bool>> = (0..300u32).map(|i| vec![i % 2 == 1, i % 5 == 0]).collect();
        let compiled = c.compile().unwrap();
        let runtime = Runtime::builder().fixed_backend("wide256").build();
        let through_runtime =
            energy_over_inputs_runtime(&runtime, &compiled, &device, &inputs).unwrap();
        let reference = energy_over_inputs_compiled(&compiled, &device, &inputs).unwrap();
        assert_eq!(through_runtime, reference);
        // The runtime's own firing telemetry agrees with the report.
        assert_eq!(runtime.telemetry().firings, reference.total_firings);
    }

    #[test]
    fn energy_scales_with_device_cost_per_spike() {
        let c = or_and_circuit();
        let mut device = DeviceSpec::unconstrained();
        device.energy_per_spike = 3.0;
        let report = energy_over_inputs(&c, &device, &[vec![true, true]]).unwrap();
        assert!((report.mean_energy - 9.0).abs() < 1e-12);
    }

    #[test]
    fn latency_is_depth_times_layer_time() {
        let c = or_and_circuit();
        let device = DeviceSpec::truenorth_like();
        let l = latency(&c, &device);
        assert_eq!(l.depth, 2);
        assert!((l.latency_ns - 2.0 * device.layer_time_ns).abs() < 1e-9);
    }

    #[test]
    fn energy_of_arithmetic_block() {
        // Energy of a real arithmetic block: a 4-bit signed adder built from tc-arith.
        use tc_arith::{weighted_sum_signed, InputAllocator};
        let mut alloc = InputAllocator::new();
        let x = alloc.alloc_signed(4);
        let y = alloc.alloc_signed(4);
        let mut b = CircuitBuilder::new(alloc.num_inputs());
        let s = weighted_sum_signed(&mut b, &[(&x, 1), (&y, 1)]).unwrap();
        s.mark_as_outputs(&mut b);
        let c = b.build();
        let mut bits = vec![false; c.num_inputs()];
        x.assign(7, &mut bits).unwrap();
        y.assign(-3, &mut bits).unwrap();
        let report = energy_over_inputs(&c, &DeviceSpec::unconstrained(), &[bits.clone()]).unwrap();
        assert!(report.total_firings > 0);
        assert!(report.mean_firing_fraction <= 1.0);
    }
}
