//! Graphviz (DOT) export for small circuits, in both the builder-friendly
//! gate-list form and the compiled CSR form (with its layer schedule).

use crate::{Circuit, CompiledCircuit, Wire};
use std::fmt::Write as _;

impl Circuit {
    /// Renders the circuit in Graphviz DOT format.
    ///
    /// Intended for visualising the *small* circuits produced by the arithmetic lemmas
    /// (a few hundred gates); the matmul circuits are far too large to draw usefully.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=circle, fontsize=10];");
        for i in 0..self.num_inputs {
            let _ = writeln!(out, "  x{i} [shape=box, label=\"x{i}\"];");
        }
        let uses_one = self
            .gates
            .iter()
            .flat_map(|g| g.inputs())
            .any(|(w, _)| w.is_const())
            || self.outputs.iter().any(|w| w.is_const());
        if uses_one {
            let _ = writeln!(out, "  one [shape=box, label=\"1\"];");
        }
        for (idx, gate) in self.gates.iter().enumerate() {
            let _ = writeln!(
                out,
                "  g{idx} [label=\"g{idx}\\n>= {}\"];",
                gate.threshold()
            );
            for &(wire, weight) in gate.inputs() {
                let src = wire_node(wire);
                let _ = writeln!(out, "  {src} -> g{idx} [label=\"{weight}\"];");
            }
        }
        for (k, &w) in self.outputs.iter().enumerate() {
            let src = wire_node(w);
            let _ = writeln!(out, "  out{k} [shape=doublecircle, label=\"out{k}\"];");
            let _ = writeln!(out, "  {src} -> out{k};");
        }
        let _ = writeln!(out, "}}");
        out
    }
}

fn wire_node(wire: Wire) -> String {
    match wire {
        Wire::Input(i) => format!("x{i}"),
        Wire::Gate(i) => format!("g{i}"),
        Wire::One => "one".to_string(),
    }
}

impl CompiledCircuit {
    /// Renders the compiled circuit in Graphviz DOT format, grouping gates
    /// into one cluster per layer of the precomputed schedule.
    ///
    /// Where [`Circuit::to_dot`] draws the pre-compile gate list, this
    /// renderer shows what the execution engine actually runs: slot-encoded
    /// fan-ins, per-gate thresholds, and the depth layers the bit-sliced
    /// kernel sweeps in order.
    pub fn to_dot(&self, name: &str) -> String {
        let num_inputs = self.num_inputs();
        let slot_node = |slot: usize| -> String {
            if slot == 0 {
                "one".to_string()
            } else if slot <= num_inputs {
                format!("x{}", slot - 1)
            } else {
                // Slots are internally (depth, class, row)-sorted; render the
                // original gate id.
                format!("g{}", self.gate_of_slot(slot).expect("gate slot"))
            }
        };
        let uses_one = (0..self.num_gates()).any(|g| self.fan_in(g).0.contains(&0))
            || (0..self.num_outputs()).any(|i| self.output_slot(i) == 0);

        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=circle, fontsize=10];");
        for i in 0..num_inputs {
            let _ = writeln!(out, "  x{i} [shape=box, label=\"x{i}\"];");
        }
        if uses_one {
            let _ = writeln!(out, "  one [shape=box, label=\"1\"];");
        }
        // One cluster per depth layer of the schedule: these are the gates
        // whose fan-ins are all settled once the previous layer is.
        for d in 0..self.depth() as usize {
            let _ = writeln!(out, "  subgraph cluster_layer{d} {{");
            let _ = writeln!(out, "    label=\"layer {}\";", d + 1);
            let _ = writeln!(out, "    style=dashed;");
            for &g in self.layer(d) {
                let _ = writeln!(
                    out,
                    "    g{g} [label=\"g{g}\\n>= {}\"];",
                    self.threshold(g as usize)
                );
            }
            let _ = writeln!(out, "  }}");
        }
        for g in 0..self.num_gates() {
            let (slots, weights) = self.fan_in(g);
            for (&slot, &weight) in slots.iter().zip(weights) {
                let src = slot_node(slot as usize);
                let _ = writeln!(out, "  {src} -> g{g} [label=\"{weight}\"];");
            }
        }
        for k in 0..self.num_outputs() {
            let src = slot_node(self.output_slot(k));
            let _ = writeln!(out, "  out{k} [shape=doublecircle, label=\"out{k}\"];");
            let _ = writeln!(out, "  {src} -> out{k};");
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{CircuitBuilder, Wire};

    #[test]
    fn dot_output_mentions_every_gate_and_output() {
        let mut b = CircuitBuilder::new(2);
        let g0 = b
            .add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 2)
            .unwrap();
        let g1 = b.add_gate([(g0, -1), (Wire::One, 1)], 1).unwrap();
        b.mark_output(g1);
        let dot = b.build().to_dot("test");
        assert!(dot.contains("digraph \"test\""));
        assert!(dot.contains("x0"));
        assert!(dot.contains("x1"));
        assert!(dot.contains("g0"));
        assert!(dot.contains("g1"));
        assert!(dot.contains("one"));
        assert!(dot.contains("out0"));
        assert!(dot.contains(">= 2"));
    }

    #[test]
    fn dot_omits_constant_node_when_unused() {
        let mut b = CircuitBuilder::new(1);
        let g = b.add_gate([(Wire::input(0), 1)], 1).unwrap();
        b.mark_output(g);
        let dot = b.build().to_dot("no_const");
        assert!(!dot.contains("one [shape=box"));
    }

    #[test]
    fn compiled_dot_groups_gates_by_layer() {
        let mut b = CircuitBuilder::new(2);
        let g0 = b
            .add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 2)
            .unwrap();
        let g1 = b.add_gate([(g0, -1), (Wire::One, 1)], 1).unwrap();
        let g2 = b.add_gate([(Wire::input(0), 2), (g1, 3)], 4).unwrap();
        b.mark_output(g2);
        let cc = b.build().compile().unwrap();
        let dot = cc.to_dot("compiled");
        assert!(dot.contains("digraph \"compiled\""));
        assert!(dot.contains("subgraph cluster_layer0"));
        assert!(dot.contains("subgraph cluster_layer2"));
        assert!(dot.contains("label=\"layer 3\""));
        assert!(dot.contains("g1 -> g2 [label=\"3\"]"));
        assert!(dot.contains("one -> g1 [label=\"1\"]"));
        assert!(dot.contains("g2 -> out0"));
        assert_eq!(dot.matches("subgraph").count(), cc.depth() as usize);
    }
}
