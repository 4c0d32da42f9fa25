//! The two streaming workloads: triangle-threshold queries on seeded
//! Erdős–Rényi graphs, one row at a time through a `StreamSession`
//! (`Detail::Outputs`), answered either by the paper's Theorem 4.5 trace
//! circuit (`oracle-n16`) or by the introduction's depth-2 baseline
//! (`naive-tri-stream`).

use crate::spans::{Tracer, NO_REQUEST};
use crate::{input_seed, Served, MARK_EVERY};
use fast_matmul::{BilinearAlgorithm, Matrix};
use std::time::{Duration, Instant};
use tc_circuit::{Circuit, CompiledCircuit};
use tc_graph::{generators, triangles, Graph, TriangleOracle};
use tc_runtime::{Detail, PooledResponse, Runtime, SessionOptions, SubmitOrNext};
use tcmm_core::naive::NaiveTriangleCircuit;
use tcmm_core::trace::trace_of_cube;
use tcmm_core::CircuitConfig;

/// Vertices per query graph (the oracle's `max_vertices`; no padding needed
/// at 16 for Strassen's base 2, but the encode path still pads).
pub const GRAPH_N: usize = 16;
/// Edge probability: 560·p³ ≈ 15 expected triangles.
pub const EDGE_P: f64 = 0.3;
/// "At least τ triangles?" — near the expected count, so both answers occur.
pub const TAU: u64 = 15;
/// Selected recursion levels of the Theorem 4.5 oracle.
pub const ORACLE_D: u32 = 2;
/// Distinct query graphs per run, cycled through.
pub const POOL: usize = 4096;
/// Submit stamps kept per in-flight request id (far above the session's
/// bounded queue plus delivery window).
const RING: usize = 1 << 16;

/// A circuit answering one triangle-threshold query per row.
pub trait Stream {
    type Input;
    fn compiled(&self) -> &CompiledCircuit;
    /// The builder form the constructor kept next to the compiled one.
    fn circuit(&self) -> &Circuit;
    /// Writes one query's input row into `bits`.
    fn encode(&self, input: &Self::Input, bits: &mut [bool]) -> Result<(), String>;
}

/// `oracle-n16`: `TriangleOracle` over the 881k-gate Theorem 4.5 circuit.
pub struct Oracle(pub TriangleOracle);

impl Oracle {
    pub fn build() -> Result<Self, String> {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        TriangleOracle::new(&config, GRAPH_N, ORACLE_D, TAU)
            .map(Oracle)
            .map_err(|e| format!("TriangleOracle::new: {e}"))
    }

    /// Seeded graphs and the host answers `trace(A³) ≥ 6τ`.
    pub fn inputs(seed: u64) -> (Vec<Graph>, Vec<bool>) {
        let graphs = graphs(seed);
        let tau = 6 * i128::from(TAU);
        let expected = graphs
            .iter()
            .map(|g| trace_of_cube(&g.adjacency_matrix()) >= tau)
            .collect();
        (graphs, expected)
    }
}

impl Stream for Oracle {
    type Input = Graph;

    fn compiled(&self) -> &CompiledCircuit {
        self.0.circuit().compiled()
    }

    fn circuit(&self) -> &Circuit {
        self.0.circuit().circuit()
    }

    /// Pads the adjacency matrix to the circuit's dimension and writes it
    /// into the input layout — what `TriangleOracle::query_many_with` does
    /// per graph.
    fn encode(&self, graph: &Graph, bits: &mut [bool]) -> Result<(), String> {
        let padded = graph.padded_adjacency_matrix(self.0.circuit().input().n());
        bits.fill(false);
        self.0
            .circuit()
            .input()
            .assign(&padded, bits)
            .map_err(|e| format!("encode: {e}"))
    }
}

/// `naive-tri-stream`: the depth-2, `C(N,3) + 1`-gate baseline.
pub struct Naive(pub NaiveTriangleCircuit);

impl Naive {
    pub fn build() -> Result<Self, String> {
        NaiveTriangleCircuit::new(GRAPH_N, TAU as i64)
            .map(Naive)
            .map_err(|e| format!("NaiveTriangleCircuit::new: {e}"))
    }

    /// Seeded adjacency matrices and the host answers `triangles ≥ τ`.
    pub fn inputs(seed: u64) -> (Vec<Matrix>, Vec<bool>) {
        let graphs = graphs(seed);
        let expected = graphs
            .iter()
            .map(|g| triangles::count_node_iterator(g) >= TAU)
            .collect();
        (
            graphs.iter().map(Graph::adjacency_matrix).collect(),
            expected,
        )
    }
}

impl Stream for Naive {
    type Input = Matrix;

    fn compiled(&self) -> &CompiledCircuit {
        self.0.compiled()
    }

    fn circuit(&self) -> &Circuit {
        self.0.circuit()
    }

    /// The circuit's inputs are the edge bits `x_ij`, `i < j`, in
    /// lexicographic order.
    fn encode(&self, adjacency: &Matrix, bits: &mut [bool]) -> Result<(), String> {
        let mut k = 0;
        for i in 0..GRAPH_N {
            for j in (i + 1)..GRAPH_N {
                let v = adjacency.get(i, j);
                if v != 0 && v != 1 {
                    return Err(format!("encode: adjacency entry ({i},{j}) = {v}"));
                }
                bits[k] = v == 1;
                k += 1;
            }
        }
        Ok(())
    }
}

fn graphs(seed: u64) -> Vec<Graph> {
    (0..POOL)
        .map(|i| generators::erdos_renyi(GRAPH_N, EDGE_P, input_seed(seed, i as u64)))
        .collect()
}

/// Per-request bookkeeping of one streaming run.
struct Tally<'a> {
    expected: &'a [bool],
    /// Submit stamp and input index per request id (mod `RING`).
    sent: Vec<(Instant, u32)>,
    start: Instant,
    served: Served,
    wrong: u64,
    error_rows: u64,
}

impl Tally<'_> {
    fn deliver(&mut self, resp: PooledResponse<'_>, tr: &mut Tracer) {
        let now = Instant::now();
        let id = resp.request_id();
        let (sent, input) = self.sent[(id % RING as u64) as usize];
        let at_s = (now - self.start).as_secs_f64();
        self.served.record(at_s, (now - sent).as_nanos() as u64);
        self.served.answered += 1;
        if self.served.answered.is_multiple_of(MARK_EVERY) {
            self.served.mark(at_s);
        }
        let span = tr.begin("tcmm_core.decode", id);
        let answer = resp.outcome().ok().and_then(|r| r.outputs.first().copied());
        tr.end(span);
        match answer {
            Some(a) if a == self.expected[input as usize] => {}
            Some(_) => self.wrong += 1,
            None => self.error_rows += 1,
        }
    }
}

/// Streams queries closed-loop for `seconds`: one client thread encodes a
/// row, submits it, and takes back whatever responses the session hands it
/// under backpressure; then it finishes the session and drains the rest.
/// Every answer is checked against the precomputed host reference.
pub fn serve<S: Stream>(
    s: &S,
    rt: &Runtime,
    inputs: &[S::Input],
    expected: &[bool],
    seconds: f64,
    tr: &mut Tracer,
) -> Served {
    let cc = s.compiled();
    let opts = SessionOptions::default().detail(Detail::Outputs);
    let start = Instant::now();
    let mut tally = Tally {
        expected,
        sent: vec![(start, 0); RING],
        start,
        served: Served::windowed(seconds),
        wrong: 0,
        error_rows: 0,
    };
    let mut bits = vec![false; cc.num_inputs()];
    let mut session_error = None;
    rt.open_session(cc, opts, |session| {
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut next = 0u64;
        'stream: loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let input = (next % inputs.len() as u64) as usize;
            next += 1;
            let span = tr.begin("tcmm_core.encode", NO_REQUEST);
            let encoded = s.encode(&inputs[input], &mut bits);
            tr.end(span);
            tally.served.attempted += 1;
            if let Err(e) = encoded {
                session_error.get_or_insert(e);
                continue;
            }
            loop {
                let span = tr.begin("tc_runtime.submit_or_next", NO_REQUEST);
                let step = session.submit_or_next(&bits);
                tr.end(span);
                match step {
                    Ok(SubmitOrNext::Submitted(id)) => {
                        let outstanding = id + 1 - tally.served.answered;
                        assert!(
                            outstanding < RING as u64,
                            "{outstanding} requests in flight overflow the stamp ring"
                        );
                        tally.sent[(id % RING as u64) as usize] = (now, input as u32);
                        break;
                    }
                    Ok(SubmitOrNext::Next(resp)) => tally.deliver(resp, tr),
                    Err(e) => {
                        session_error.get_or_insert(format!("submit: {e}"));
                        break 'stream;
                    }
                }
            }
        }
        let span = tr.begin("tc_runtime.finish", NO_REQUEST);
        session.finish();
        tr.end(span);
        loop {
            match session.next_response() {
                Ok(Some(resp)) => tally.deliver(resp, tr),
                Ok(None) => break,
                Err(e) => {
                    session_error.get_or_insert(format!("next_response: {e}"));
                    break;
                }
            }
        }
    });
    let mut served = tally.served;
    served.busy_s = start.elapsed().as_secs_f64();
    served.failed = served.attempted - served.answered + tally.wrong + tally.error_rows;
    served.error = session_error;
    served
}
