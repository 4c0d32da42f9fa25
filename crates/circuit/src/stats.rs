//! Complexity statistics: size, depth, edges, fan-in, per-layer breakdown.
//!
//! Statistics are computed from the compiled CSR form (one pass over flat
//! arrays); [`CircuitStats::from_circuit`] compiles on the fly and falls back
//! to walking the gate list only for circuits that cannot be lowered.

use crate::compiled::CompiledCircuit;
use crate::Circuit;
use std::fmt;

/// Per-layer statistics of a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerStats {
    /// 1-based layer (depth) index.
    pub depth: u32,
    /// Number of gates in this layer.
    pub gates: usize,
    /// Total fan-in (edges) entering this layer.
    pub edges: usize,
    /// Maximum fan-in of a gate in this layer.
    pub max_fan_in: usize,
}

/// The complexity measures used throughout the paper.
///
/// * `size` — total number of gates;
/// * `depth` — length of the longest input→output path, counted in gates;
/// * `edges` — total number of connections between gates (sum of fan-ins);
/// * `max_fan_in` — maximum number of inputs to any gate;
/// * `max_abs_weight` — largest |weight| used anywhere (a proxy for required synaptic
///   precision on neuromorphic hardware).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of gates.
    pub size: usize,
    /// Circuit depth in gate layers.
    pub depth: u32,
    /// Total number of edges (wire connections into gates).
    pub edges: usize,
    /// Maximum gate fan-in.
    pub max_fan_in: usize,
    /// Maximum absolute weight on any connection (`u64` so `i64::MIN` is
    /// reported exactly).
    pub max_abs_weight: u64,
    /// Number of designated outputs.
    pub outputs: usize,
    /// Gates per kernel dispatch class, as `[Unit, Pow2, General]` counts
    /// (see [`crate::GateClass`]). Unit gates — all weights ±1 — dominate
    /// the paper's majority-style constructions and take the fastest batch
    /// path.
    pub class_counts: [usize; 3],
    /// Statistics per depth layer, from layer 1 (reads inputs) to layer `depth`.
    pub layers: Vec<LayerStats>,
}

impl CircuitStats {
    /// Computes the statistics of a circuit.
    ///
    /// Compiles the circuit and reads the CSR arrays; circuits that cannot
    /// be lowered (dangling wires, slot overflow) are measured by walking the
    /// gate list directly.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        match circuit.compile() {
            Ok(compiled) => Self::from_compiled(&compiled),
            Err(_) => Self::from_gate_list(circuit),
        }
    }

    /// Computes the statistics from an already-compiled circuit.
    pub fn from_compiled(compiled: &CompiledCircuit) -> Self {
        let depth = compiled.depth();
        let mut layers: Vec<LayerStats> = (1..=depth)
            .map(|d| LayerStats {
                depth: d,
                gates: 0,
                edges: 0,
                max_fan_in: 0,
            })
            .collect();
        for (layer, d) in layers.iter_mut().zip(0..depth as usize) {
            for &g in compiled.layer(d) {
                let fan_in = compiled.fan_in(g as usize).0.len();
                layer.gates += 1;
                layer.edges += fan_in;
                layer.max_fan_in = layer.max_fan_in.max(fan_in);
            }
        }
        CircuitStats {
            inputs: compiled.num_inputs(),
            size: compiled.num_gates(),
            depth,
            edges: compiled.num_edges(),
            max_fan_in: compiled.max_fan_in(),
            max_abs_weight: compiled.max_abs_weight(),
            outputs: compiled.num_outputs(),
            class_counts: compiled.class_counts(),
            layers,
        }
    }

    /// Fallback for circuits the compiled engine rejects.
    fn from_gate_list(circuit: &Circuit) -> Self {
        let mut layers: Vec<LayerStats> = (1..=circuit.depth())
            .map(|d| LayerStats {
                depth: d,
                gates: 0,
                edges: 0,
                max_fan_in: 0,
            })
            .collect();
        let mut max_abs_weight = 0u64;
        let mut class_counts = [0usize; 3];
        for (idx, gate) in circuit.gates().enumerate() {
            let d = circuit.gate_depth(idx) as usize - 1;
            let layer = &mut layers[d];
            layer.gates += 1;
            layer.edges += gate.fan_in();
            layer.max_fan_in = layer.max_fan_in.max(gate.fan_in());
            max_abs_weight = max_abs_weight.max(gate.max_abs_weight());
            // Weights-only classification (the plane budget needs the
            // compiled form; gates this fallback misclassifies as non-wide
            // only shift a count, never an evaluation).
            let weights = gate.inputs().iter().map(|&(_, w)| w);
            class_counts[crate::GateClass::classify(weights, 0).index()] += 1;
        }
        CircuitStats {
            inputs: circuit.num_inputs(),
            size: circuit.num_gates(),
            depth: circuit.depth(),
            edges: circuit.num_edges(),
            max_fan_in: circuit.max_fan_in(),
            max_abs_weight,
            outputs: circuit.outputs().len(),
            class_counts,
            layers,
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "inputs={} gates={} depth={} edges={} max_fan_in={} max_|w|={} outputs={} \
             classes=unit:{}/pow2:{}/general:{}",
            self.inputs,
            self.size,
            self.depth,
            self.edges,
            self.max_fan_in,
            self.max_abs_weight,
            self.outputs,
            self.class_counts[0],
            self.class_counts[1],
            self.class_counts[2]
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "  layer {:>3}: gates={:<10} edges={:<12} max_fan_in={}",
                l.depth, l.gates, l.edges, l.max_fan_in
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, Wire};

    fn two_layer_circuit() -> Circuit {
        let mut b = CircuitBuilder::new(4);
        let g0 = b
            .add_gate([(Wire::input(0), 2), (Wire::input(1), -3)], 1)
            .unwrap();
        let g1 = b
            .add_gate([(Wire::input(2), 1), (Wire::input(3), 1)], 2)
            .unwrap();
        let g2 = b
            .add_gate([(g0, 1), (g1, 1), (Wire::input(0), 5)], 3)
            .unwrap();
        b.mark_output(g2);
        b.build()
    }

    #[test]
    fn aggregate_statistics() {
        let s = two_layer_circuit().stats();
        assert_eq!(s.inputs, 4);
        assert_eq!(s.size, 3);
        assert_eq!(s.depth, 2);
        assert_eq!(s.edges, 2 + 2 + 3);
        assert_eq!(s.max_fan_in, 3);
        assert_eq!(s.max_abs_weight, 5);
        assert_eq!(s.outputs, 1);
    }

    #[test]
    fn per_layer_breakdown() {
        let s = two_layer_circuit().stats();
        assert_eq!(s.layers.len(), 2);
        assert_eq!(s.layers[0].gates, 2);
        assert_eq!(s.layers[0].edges, 4);
        assert_eq!(s.layers[0].max_fan_in, 2);
        assert_eq!(s.layers[1].gates, 1);
        assert_eq!(s.layers[1].edges, 3);
        assert_eq!(s.layers[1].max_fan_in, 3);
        // Layer gate counts must sum to the total size.
        assert_eq!(s.layers.iter().map(|l| l.gates).sum::<usize>(), s.size);
        assert_eq!(s.layers.iter().map(|l| l.edges).sum::<usize>(), s.edges);
    }

    #[test]
    fn display_contains_layer_lines() {
        let s = two_layer_circuit().stats();
        let text = s.to_string();
        assert!(text.contains("gates=3"));
        assert!(text.contains("layer   1"));
        assert!(text.contains("layer   2"));
    }

    #[test]
    fn empty_circuit_statistics() {
        let s = CircuitBuilder::new(3).build().stats();
        assert_eq!(s.size, 0);
        assert_eq!(s.depth, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.max_fan_in, 0);
        assert!(s.layers.is_empty());
    }
}
