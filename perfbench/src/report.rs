//! Metric names, the machine fingerprint, and the result printer.
//!
//! The metric names here are the ones `BENCHMARK.json` declares: an untraced
//! run reports exactly [`END_TO_END`], a traced run exactly
//! [`per_layer_names`].

use crate::census::LAYERS;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("circuit_gates", "count"),
    ("circuit_depth", "count"),
];

/// Per-layer metrics besides the per-depth-layer census: (name, unit).
const PER_LAYER: [(&str, &str); 32] = [
    ("tcmm_core.construct_s", "s"),
    ("tc_circuit.compile_s", "s"),
    ("tc_runtime.calibrate_s", "s"),
    ("tcmm_core.rss_after_construct_mb", "MB"),
    ("tcmm_core.builder_gates", "count"),
    ("tcmm_core.builder_edges", "count"),
    ("tcmm_core.encode_us", "us"),
    ("tcmm_core.decode_us", "us"),
    ("tc_circuit.edges", "count"),
    ("tc_circuit.bit_edges", "count"),
    ("tc_circuit.max_fan_in", "count"),
    ("tc_circuit.plane_ops.unit", "count"),
    ("tc_circuit.plane_ops.pow2", "count"),
    ("tc_circuit.plane_ops.general", "count"),
    ("tc_circuit.kernel.pass_ms", "ms"),
    ("tc_circuit.kernel.edge_evals_per_s", "1/s"),
    ("tc_circuit.kernel.plane_ops_per_s", "1/s"),
    ("tc_circuit.kernel.gate_evals_per_s", "1/s"),
    ("tc_circuit.extract_ms", "ms"),
    ("tc_runtime.overhead_us", "us"),
    ("tc_runtime.stage.queue_wait.p50_us", "us"),
    ("tc_runtime.stage.queue_wait.p99_us", "us"),
    ("tc_runtime.stage.pack.p50_us", "us"),
    ("tc_runtime.stage.pack.p99_us", "us"),
    ("tc_runtime.stage.eval.p50_us", "us"),
    ("tc_runtime.stage.eval.p99_us", "us"),
    ("tc_runtime.stage.delivery_wait.p50_us", "us"),
    ("tc_runtime.stage.delivery_wait.p99_us", "us"),
    ("tc_runtime.lane_fill", "ratio"),
    ("tc_runtime.pool_hit_ratio", "ratio"),
    ("tc_runtime.peak_in_flight", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric a traced run reports: (name, unit).
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for d in 0..LAYERS {
        for field in ["gates", "edges", "distinct_rows", "max_fan_in"] {
            names.push((format!("tc_circuit.layer{d}.{field}"), "count"));
        }
    }
    names
}

/// The machine and build a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub cores: usize,
    pub simd_detected: &'static str,
    pub simd_active: &'static str,
    pub source: &'static str,
    /// (what was tuned, backend the tuner picked).
    pub backends: Vec<(String, &'static str)>,
}

impl Fingerprint {
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_string());
        Fingerprint {
            cpu_model,
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            simd_detected: tc_circuit::simd::detected_level().name(),
            simd_active: tc_circuit::simd::active_level().name(),
            source: env!("PERFBENCH_SOURCE_HASH"),
            backends: Vec::new(),
        }
    }

    /// The part that decides whether two results are comparable: the same
    /// CPU, core count and SIMD dispatch.
    pub fn machine(&self) -> String {
        format!(
            "{} | cores={} | simd={}/{}",
            self.cpu_model, self.cores, self.simd_detected, self.simd_active
        )
    }
}

/// Reads the `machine` string out of an earlier results file.
pub fn baseline_machine(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let tail = text
        .split("\"machine\": \"")
        .nth(1)
        .ok_or_else(|| format!("baseline {} holds no machine fingerprint", path.display()))?;
    Ok(unescape(tail.split('"').next().unwrap_or("")))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "'")
}

fn unescape(s: &str) -> String {
    s.replace("\\\\", "\\")
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// One run's result.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub default_seed: u64,
    pub trace: bool,
    pub fingerprint: Fingerprint,
    /// `Some(comparable)` when a baseline fingerprint was given.
    pub comparable: Option<bool>,
    pub attempted: u64,
    pub failed: u64,
    /// Harness-level check failures (census sums, decode probes).
    pub problems: Vec<String>,
    /// Context printed with the metrics: sample counts, error rate, picks.
    pub notes: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, default_seed: u64, trace: bool) -> Self {
        Report {
            workload,
            seed,
            default_seed,
            trace,
            fingerprint: Fingerprint::detect(),
            comparable: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let unit = self
            .expected()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or("?", |(_, u)| u);
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn expected(&self) -> Vec<(String, &'static str)> {
        if self.trace {
            per_layer_names()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// Every expected metric reported exactly once, each a finite number.
    fn validate(&self) -> Result<(), String> {
        for (name, _) in self.expected() {
            match self.metrics.iter().filter(|m| m.name == name).count() {
                1 => {}
                0 => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} was reported twice")),
            }
        }
        if let Some(m) = self.metrics.iter().find(|m| m.unit == "?") {
            return Err(format!("metric {} is not declared", m.name));
        }
        if let Some(m) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        Ok(())
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The full result as JSON, for the results file.
    fn to_json(&self) -> String {
        let fp = &self.fingerprint;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"default_seed\": {},\n  \"trace\": {},\n",
            self.workload, self.seed, self.default_seed, self.trace
        );
        let backends: Vec<String> = fp
            .backends
            .iter()
            .map(|(what, b)| format!("\"{}\": \"{b}\"", escape(what)))
            .collect();
        let _ = writeln!(
            out,
            "  \"fingerprint\": {{\"machine\": \"{}\", \"cpu_model\": \"{}\", \"cores\": {}, \
             \"simd_detected\": \"{}\", \"simd_active\": \"{}\", \"source\": \"{}\", \
             \"backends\": {{{}}}}},",
            escape(&fp.machine()),
            escape(&fp.cpu_model),
            fp.cores,
            fp.simd_detected,
            fp.simd_active,
            fp.source,
            backends.join(", ")
        );
        let comparable = self
            .comparable
            .map_or("null".to_string(), |c| c.to_string());
        let _ = writeln!(out, "  \"comparable\": {comparable},");
        let _ = write!(
            out,
            "  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"error_rate\": {},\n",
            self.correct(),
            self.attempted,
            self.failed,
            self.error_rate()
        );
        let notes: Vec<String> = self
            .notes
            .iter()
            .chain(&self.problems)
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        let _ = writeln!(out, "  \"notes\": [{}],", notes.join(", "));
        let _ = writeln!(out, "  \"metrics\": {}", self.metrics_json());
        out.push_str("}\n");
        out
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Prints the human-readable result, writes the results file under
    /// `out_dir`, and ends standard output with the one-line JSON summary.
    pub fn finish(mut self, out_dir: &Path) -> Result<(), String> {
        self.validate()?;
        let fp = &self.fingerprint;
        println!(
            "perfbench {} seed={} (default seed {}) trace={}",
            self.workload,
            self.seed,
            self.default_seed,
            u8::from(self.trace)
        );
        println!("machine: {}", fp.machine());
        println!("source: {}", fp.source);
        for (what, backend) in &fp.backends {
            println!("tuner pick: {what} -> {backend}");
        }
        match self.comparable {
            Some(true) => println!("comparable with the baseline: yes"),
            Some(false) => println!("comparable with the baseline: NO (different machine)"),
            None => {}
        }
        for m in &self.metrics {
            println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{:<40} {:>18.6} ratio ({} failed of {} attempted)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            println!("note: {note}");
        }
        for problem in &self.problems {
            println!("PROBLEM: {problem}");
        }

        std::fs::create_dir_all(out_dir)
            .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
        let file = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        std::fs::write(&file, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        println!("results: {}", file.display());

        // The failed count covers wrong answers and typed error rows; a
        // harness-level check failure makes the run incorrect on its own.
        let correct = self.correct();
        self.attempted = self.attempted.max(1);
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            self.metrics_json()
        );
        Ok(())
    }
}

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `VmHWM` (peak) and `VmRSS` (current) of this process, in MB.
pub fn memory_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}
