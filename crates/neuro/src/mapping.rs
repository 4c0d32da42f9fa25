//! Placing a threshold circuit onto a neuromorphic device.

use crate::DeviceSpec;
use tc_circuit::{Circuit, Wire};

/// The result of mapping a circuit onto a device.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingReport {
    /// Number of cores used by the placement.
    pub cores_used: usize,
    /// `true` when the circuit fits the device's total neuron budget.
    pub fits: bool,
    /// Fraction of the used cores' neuron capacity actually occupied.
    pub utilization: f64,
    /// Gates whose fan-in exceeds the device's per-neuron fan-in limit.
    pub fan_in_violations: usize,
    /// The largest fan-in in the circuit.
    pub max_fan_in: usize,
    /// Number of edges whose endpoints land on different cores (a proxy for routing /
    /// communication cost).
    pub inter_core_edges: usize,
    /// Number of edges staying within one core.
    pub intra_core_edges: usize,
}

/// Maps `circuit` onto `device` by filling cores with gates in topological order
/// (layer-major).  This mirrors how a straightforward compiler would place a
/// feed-forward circuit; it is deliberately simple, deterministic and fast.
pub fn map_circuit(circuit: &Circuit, device: &DeviceSpec) -> MappingReport {
    let per_core = device.neurons_per_core.max(1);
    let num_gates = circuit.num_gates();
    let cores_used = num_gates.div_ceil(per_core);
    let fits = num_gates <= device.total_neurons() && cores_used <= device.cores;

    // Core index of each gate under layer-major placement.
    let mut core_of = vec![0usize; num_gates];
    let mut placed = 0usize;
    for layer in circuit.layers() {
        for idx in layer {
            core_of[idx] = placed / per_core;
            placed += 1;
        }
    }

    let mut fan_in_violations = 0usize;
    let mut inter = 0usize;
    let mut intra = 0usize;
    for (idx, gate) in circuit.gates().enumerate() {
        if let Some(limit) = device.max_fan_in {
            if gate.fan_in() > limit {
                fan_in_violations += 1;
            }
        }
        for &(wire, _) in gate.inputs() {
            match wire {
                Wire::Gate(src) => {
                    if core_of[src as usize] == core_of[idx] {
                        intra += 1;
                    } else {
                        inter += 1;
                    }
                }
                // Primary inputs arrive from off-chip; count them as inter-core traffic.
                Wire::Input(_) => inter += 1,
                Wire::One => {}
            }
        }
    }

    let utilization = if cores_used == 0 {
        0.0
    } else {
        num_gates as f64 / (cores_used * per_core) as f64
    };

    MappingReport {
        cores_used,
        fits,
        utilization,
        fan_in_violations,
        max_fan_in: circuit.max_fan_in(),
        inter_core_edges: inter,
        intra_core_edges: intra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_circuit::CircuitBuilder;

    fn chain_circuit(width: usize, layers: usize) -> Circuit {
        let mut b = CircuitBuilder::new(width);
        let mut prev: Vec<Wire> = (0..width).map(Wire::input).collect();
        for _ in 0..layers {
            let next: Vec<Wire> = prev
                .iter()
                .map(|&w| b.add_gate([(w, 1)], 1).unwrap())
                .collect();
            prev = next;
        }
        let out = b
            .add_gate(prev.iter().map(|&w| (w, 1)), width as i64 / 2)
            .unwrap();
        b.mark_output(out);
        b.build()
    }

    #[test]
    fn small_circuit_fits_every_preset() {
        let c = chain_circuit(8, 3);
        for device in [
            DeviceSpec::truenorth_like(),
            DeviceSpec::loihi_like(),
            DeviceSpec::spinnaker_like(),
        ] {
            let report = map_circuit(&c, &device);
            assert!(report.fits, "{}", device.name);
            assert_eq!(report.fan_in_violations, 0);
            assert_eq!(
                report.inter_core_edges + report.intra_core_edges,
                c.num_edges()
            );
            assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        }
    }

    #[test]
    fn cores_used_matches_gate_count() {
        let c = chain_circuit(100, 4); // 401 gates
        let mut device = DeviceSpec::truenorth_like();
        device.neurons_per_core = 100;
        let report = map_circuit(&c, &device);
        assert_eq!(report.cores_used, 5);
    }

    #[test]
    fn fan_in_violations_are_detected() {
        let c = chain_circuit(300, 1); // output gate has fan-in 300
        let mut device = DeviceSpec::truenorth_like();
        device.max_fan_in = Some(256);
        let report = map_circuit(&c, &device);
        assert_eq!(report.fan_in_violations, 1);
        assert_eq!(report.max_fan_in, 300);
        // The unconstrained device reports none.
        assert_eq!(
            map_circuit(&c, &DeviceSpec::unconstrained()).fan_in_violations,
            0
        );
    }

    #[test]
    fn capacity_overflow_is_reported() {
        let c = chain_circuit(50, 2);
        let tiny = DeviceSpec {
            name: "tiny".into(),
            cores: 1,
            neurons_per_core: 10,
            max_fan_in: None,
            energy_per_spike: 1.0,
            layer_time_ns: 1.0,
        };
        let report = map_circuit(&c, &tiny);
        assert!(!report.fits);
    }
}
