//! IR census of a compiled circuit: exact per-depth-layer counts read through
//! the public `layer`, `fan_in` and `gate_class` accessors, checked against
//! the circuit's own totals.

use std::collections::HashSet;
use tc_circuit::{CompiledCircuit, GateClass};

/// Depth layers the benchmark reports (the matmul circuit has 9; shallower
/// circuits report zeros above their depth).
pub const LAYERS: usize = 9;

#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCensus {
    pub gates: u64,
    pub edges: u64,
    /// Distinct (wire, weight) fan-in multisets among the layer's gates.
    pub distinct_rows: u64,
    pub max_fan_in: u64,
}

#[derive(Debug)]
pub struct Census {
    pub layers: Vec<LayerCensus>,
    pub edges: u64,
    pub bit_edges: u64,
    pub max_fan_in: u64,
    /// Plane additions per batch pass, `[Unit, Pow2, General]`.
    pub plane_ops: [u64; 3],
}

impl Census {
    pub fn plane_ops_total(&self) -> u64 {
        self.plane_ops.iter().sum()
    }

    pub fn layer(&self, d: usize) -> LayerCensus {
        self.layers.get(d).copied().unwrap_or_default()
    }
}

/// Counts every layer, then checks that the layers add up to the circuit's
/// gate and edge totals and that the Unit gates' raw edges equal the Unit
/// plane-op count the kernel reports.
pub fn census(cc: &CompiledCircuit) -> Result<Census, String> {
    let mut layers = Vec::with_capacity(cc.depth() as usize);
    let mut unit_edges = 0u64;
    let mut row: Vec<(u32, i64)> = Vec::new();
    for d in 0..cc.depth() as usize {
        let mut layer = LayerCensus::default();
        let mut rows: HashSet<Vec<(u32, i64)>> = HashSet::new();
        for &g in cc.layer(d) {
            let g = g as usize;
            let (wires, weights) = cc.fan_in(g);
            let fan_in = wires.len() as u64;
            layer.gates += 1;
            layer.edges += fan_in;
            layer.max_fan_in = layer.max_fan_in.max(fan_in);
            if cc.gate_class(g) == GateClass::Unit {
                unit_edges += fan_in;
            }
            row.clear();
            row.extend(wires.iter().copied().zip(weights.iter().copied()));
            row.sort_unstable();
            if !rows.contains(row.as_slice()) {
                rows.insert(row.clone());
            }
        }
        layer.distinct_rows = rows.len() as u64;
        layers.push(layer);
    }

    let census = Census {
        edges: cc.num_edges() as u64,
        bit_edges: cc.num_bit_edges() as u64,
        max_fan_in: cc.max_fan_in() as u64,
        plane_ops: cc.class_plane_ops(),
        layers,
    };
    let gates: u64 = census.layers.iter().map(|l| l.gates).sum();
    let edges: u64 = census.layers.iter().map(|l| l.edges).sum();
    if gates != cc.num_gates() as u64 {
        return Err(format!(
            "census: layers hold {gates} gates, the circuit {}",
            cc.num_gates()
        ));
    }
    if edges != census.edges {
        return Err(format!(
            "census: layers hold {edges} edges, the circuit {}",
            census.edges
        ));
    }
    if unit_edges != census.plane_ops[0] {
        return Err(format!(
            "census: Unit gates hold {unit_edges} edges, the kernel counts {} Unit plane-ops",
            census.plane_ops[0]
        ));
    }
    if census.layers.len() > LAYERS {
        return Err(format!(
            "census: depth {} exceeds the {LAYERS} reported layers",
            census.layers.len()
        ));
    }
    Ok(census)
}
