//! The repository benchmark: builds the paper's circuits through their public
//! constructors, serves seeded requests through a `tc_runtime::Runtime` with
//! an explicit worker count, checks every answer against an independent host
//! reference, and prints the metrics `BENCHMARK.json` declares.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload matmul-n8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics and records spans around every public call it makes
//! (written to `.perfbench_out/`). `--baseline <results file>` marks the
//! result as not comparable when the baseline came from another machine.
//! See `perfbench/README.md` for the workloads and every metric.

mod census;
mod matmul;
mod report;
mod spans;
mod stream;

use report::{median, memory_mb, quantile, Report};
use spans::Tracer;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use stream::Stream;
use tc_circuit::{Circuit, CircuitError, CompiledCircuit, Evaluation, PlaneArena};
use tc_runtime::{Runtime, TelemetrySummary};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Scheduler workers of the harness's runtime: the load shape keeps at most
/// two threads busy (the machine the benchmark targets has two cores).
const WORKERS: usize = 2;
/// `naive-tri-stream` serves on one worker, which the session runs inline
/// on the client thread: its kernel takes microseconds per group, and with
/// two workers its latency settled run by run into one of two modes
/// (p50 0.25 or 0.5 ms), too unsteady to compare commits with.
const NAIVE_WORKERS: usize = 1;
/// Batch size the runtime tunes streams for (sessions without a batch hint).
const STREAM_BATCH_HINT: usize = 4096;
/// Where results files and span dumps go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// Set-ups per run: at least `SETUP_MIN_REPS`, then more while their total
/// stays under `SETUP_BUDGET_S`. `setup_s` is the fastest of them: set-up is
/// fixed work that interference only lengthens, and on a shared machine the
/// median of a run's set-ups settled run by run into one of two modes (0.48
/// or 0.8 ms for the naive circuit) while the fastest stayed within ±6%.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_MAX_REPS: usize = 5000;
/// Untimed streaming before the measured stream (allocator, page faults).
const STREAM_WARMUP_S: f64 = 0.3;
/// Repetitions of a kernel-level timing: at least 3, up to 1 s in total.
const KERNEL_BUDGET_S: f64 = 1.0;

#[derive(Debug, Clone, Copy)]
enum Workload {
    /// `matmul-n8` — Theorem 4.9 product circuit, binary Strassen, N = 8,
    /// d = 2 (211,072 gates, 90.6 M edges), batches of seeded {−1,0,1}
    /// pairs through `evaluate_many_with`, each product checked against
    /// `Matrix::multiply_naive`.
    /// Why: set-up is dominated by the builder and `compile()`, requests by
    /// the kernel on the bottom-up binarisation layer (99.6% of the edges,
    /// 704 distinct fan-in rows) and by `Detail::Full` extraction — where
    /// shared-sum banks and dropping the builder form must show.
    MatmulN8,
    /// `oracle-n16` — `TriangleOracle` (Theorem 4.5 trace circuit, 881k
    /// gates) answering seeded G(16, 0.3) graphs one row at a time through a
    /// `StreamSession` (`Detail::Outputs`), checked against host
    /// `trace(A³) ≥ 6τ`.
    /// Why: kernel-bound too, but on low-fan-in Unit gates where shared sums
    /// save about 2×, on the pooled zero-allocation outputs-only path — a
    /// gain on `matmul-n8` that taxes the common case shows here.
    OracleN16,
    /// `naive-tri-stream` — the depth-2 `NaiveTriangleCircuit` (561 gates,
    /// 120 inputs) over the same graph stream, checked against the host
    /// triangle count.
    /// Why: the kernel is negligible, so session packing, scheduling,
    /// pooling and delivery do the work — the control for kernel and compile
    /// changes (predicted flat) and the target of runtime simplification.
    NaiveTriStream,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::MatmulN8,
        Workload::OracleN16,
        Workload::NaiveTriStream,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MatmulN8 => "matmul-n8",
            Workload::OracleN16 => "oracle-n16",
            Workload::NaiveTriStream => "naive-tri-stream",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    baseline: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <matmul-n8|oracle-n16|naive-tri-stream> \
                     [--seed N] [--seconds S] [--trace 0|1] [--baseline RESULTS.json]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::MatmulN8,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--baseline" => args.baseline = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|report| report.finish(Path::new(OUT_DIR))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(args.workload.name(), args.seed, DEFAULT_SEED, args.trace);
    if let Some(path) = &args.baseline {
        report.comparable = Some(report::baseline_machine(path)? == report.fingerprint.machine());
    }
    let mut tr = Tracer::new(args.trace);
    match args.workload {
        Workload::MatmulN8 => run_matmul(args, &mut report, &mut tr)?,
        Workload::OracleN16 => {
            let (graphs, expected) = stream::Oracle::inputs(args.seed);
            let build = stream::Oracle::build;
            run_stream(
                args,
                &mut report,
                &mut tr,
                build,
                WORKERS,
                &graphs,
                &expected,
            )?;
        }
        Workload::NaiveTriStream => {
            let (matrices, expected) = stream::Naive::inputs(args.seed);
            let build = stream::Naive::build;
            run_stream(
                args,
                &mut report,
                &mut tr,
                build,
                NAIVE_WORKERS,
                &matrices,
                &expected,
            )?;
        }
    }
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!(
            "{}-seed{}-spans.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        std::fs::write(&path, tr.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.note(format!("spans: {}", path.display()));
    }
    Ok(report)
}

/// Per-input seeds: SplitMix64 over (workload seed, input index).
pub fn input_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Measurement windows per serving loop: throughput and latency
/// percentiles are medians over the windows, so a slow second on a shared
/// machine moves one window, not the result.
pub const WINDOWS: usize = 10;

/// Streams mark the delivery time of every `MARK_EVERY`-th response: the
/// lane-group width, so marks land on group boundaries and a window's rate
/// counts whole groups between two marks instead of rounding to groups.
pub const MARK_EVERY: u64 = 512;

/// What one serving loop did.
#[derive(Debug)]
pub struct Served {
    pub attempted: u64,
    pub answered: u64,
    /// Wrong answers, typed error rows and unanswered requests.
    pub failed: u64,
    /// Timed serving wall time.
    pub busy_s: f64,
    /// Deliveries and latency samples per window of `window_s` seconds.
    windows: Vec<Window>,
    window_s: f64,
    /// The first error the loop met, if any.
    pub error: Option<String>,
}

#[derive(Debug, Default)]
struct Window {
    delivered: u64,
    latencies: Latencies,
    /// First and last (time, responses so far) mark inside the window.
    marks: Option<((f64, u64), (f64, u64))>,
}

impl Window {
    fn rate(&self, window_s: f64) -> f64 {
        match self.marks {
            Some(((t0, n0), (t1, n1))) if t1 > t0 => (n1 - n0) as f64 / (t1 - t0),
            _ => self.delivered as f64 / window_s,
        }
    }
}

impl Served {
    /// A loop measured in [`WINDOWS`] windows over `seconds`.
    pub fn windowed(seconds: f64) -> Self {
        Served {
            attempted: 0,
            answered: 0,
            failed: 0,
            busy_s: 0.0,
            windows: (0..WINDOWS).map(|_| Window::default()).collect(),
            window_s: (seconds / WINDOWS as f64).max(1e-9),
            error: None,
        }
    }

    /// A loop measured as one window (few, long requests).
    pub fn whole() -> Self {
        Served {
            windows: vec![Window::default()],
            window_s: f64::INFINITY,
            ..Served::windowed(0.0)
        }
    }

    fn window(&mut self, at_s: f64) -> Option<&mut Window> {
        self.windows.get_mut((at_s / self.window_s) as usize)
    }

    /// Records a response delivered `at_s` seconds into the loop after
    /// `latency_ns` in flight. Deliveries after the last window (the final
    /// drain) count for correctness only.
    #[inline]
    pub fn record(&mut self, at_s: f64, latency_ns: u64) {
        if let Some(w) = self.window(at_s) {
            w.delivered += 1;
            w.latencies.record(latency_ns);
        }
    }

    /// Marks that `answered` responses had arrived `at_s` seconds in.
    pub fn mark(&mut self, at_s: f64) {
        let mark = (at_s, self.answered);
        if let Some(w) = self.window(at_s) {
            w.marks = Some(w.marks.map_or((mark, mark), |(first, _)| (first, mark)));
        }
    }

    fn requests_per_s(&self) -> f64 {
        if self.windows.len() == 1 {
            return self.answered as f64 / self.busy_s.max(1e-9);
        }
        let rates: Vec<f64> = self.windows.iter().map(|w| w.rate(self.window_s)).collect();
        median(&rates)
    }

    /// Median over the windows of each window's latency quantile `q`, in ms.
    fn latency_ms(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.latencies.seen > 0)
            .map(|w| quantile(&w.latencies.sorted(), q) as f64 / 1e6)
            .collect();
        median(&per_window)
    }

    /// Adds this loop's outcome to the run's correctness tally.
    fn count_into(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        if let Some(e) = &self.error {
            report.problems.push(e.clone());
        }
    }
}

/// Latency samples in fixed memory: every sample until the reservoir is
/// full, then a uniform random subset of all samples (reservoir sampling),
/// so peak memory does not grow with throughput.
#[derive(Debug)]
struct Latencies {
    samples: Vec<u64>,
    seen: u64,
    rng: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            samples: Vec::new(),
            seen: 0,
            rng: 0x2545_F491_4F6C_DD1D,
        }
    }
}

impl Latencies {
    const RESERVOIR: usize = 1 << 18;

    #[inline]
    fn record(&mut self, ns: u64) {
        self.seen += 1;
        if self.samples.len() < Self::RESERVOIR {
            self.samples.push(ns);
            return;
        }
        // xorshift64: a cheap uniform index into the first `seen` samples.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if let Some(s) = self.samples.get_mut((self.rng % self.seen) as usize) {
            *s = ns;
        }
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.samples.clone();
        v.sort_unstable();
        v
    }
}

/// The backend every workload is served on. The measuring tuner's pick
/// flips between wide256 and wide512 on near-equal probe timings, and the
/// oracle then serves at about half the rate, so serving pins the width the
/// tuner picks on most runs. Set-up still pays the calibration a default
/// runtime would, and every result records what the tuner picked.
const SERVE_BACKEND: &str = "wide512";
/// Lane words per pass of [`SERVE_BACKEND`] (64 lanes each).
const SERVE_WORDS: usize = 8;

/// The runtime the harness serves on: explicit workers, pinned backend.
fn serving_runtime(workers: usize) -> Runtime {
    Runtime::builder()
        .workers(workers)
        .stream_batch_hint(STREAM_BATCH_HINT)
        .fixed_backend(SERVE_BACKEND)
        .build()
}

/// A default-policy runtime with the harness's worker count, whose
/// measuring tuner set-up warms.
fn tuning_runtime() -> Runtime {
    Runtime::builder()
        .workers(WORKERS)
        .stream_batch_hint(STREAM_BATCH_HINT)
        .build()
}

/// Runs `setup` [`SETUP_MIN_REPS`] times or more (see the constants),
/// dropping each result before building the next; returns the last result
/// and every set-up's wall time.
fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut last = None;
    let mut times: Vec<f64> = Vec::new();
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), times))
}

fn report_end_to_end(report: &mut Report, setups: &[f64], served: &Served, cc: &CompiledCircuit) {
    let mut sorted = setups.to_vec();
    sorted.sort_by(f64::total_cmp);
    report.metric("setup_s", sorted[0]);
    report.metric("requests_per_s", served.requests_per_s());
    report.metric("latency_p50_ms", served.latency_ms(0.50));
    report.metric("latency_p99_ms", served.latency_ms(0.99));
    report.metric("peak_rss_mb", memory_mb().0);
    report.metric("circuit_gates", cc.num_gates() as f64);
    report.metric("circuit_depth", f64::from(cc.depth()));
    let at = |q: f64| sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)];
    report.note(format!(
        "setup_s is the fastest of {} set-ups (p10 {:.6}, median {:.6}, max {:.6} s)",
        setups.len(),
        at(0.1),
        median(setups),
        at(1.0)
    ));
    let windows: Vec<String> = served
        .windows
        .iter()
        .map(|w| {
            format!(
                "{:.0}/s {}/{}",
                w.rate(served.window_s),
                w.latencies.samples.len(),
                w.latencies.seen
            )
        })
        .collect();
    report.note(format!(
        "{} requests answered in {:.3} s; rate and latency percentiles are medians over \
         {} window(s) (rate, latency samples kept/seen): {}",
        served.answered,
        served.busy_s,
        served.windows.len(),
        windows.join(", ")
    ));
}

fn run_matmul(args: &Args, report: &mut Report, tr: &mut Tracer) -> Result<(), String> {
    let inputs = matmul::inputs(args.seed);
    if !args.trace {
        let ((mm, picks), setups) = repeat_setup(|| {
            let mm = matmul::build()?;
            let picks = warm_matmul(&mm, &tuning_runtime())?;
            Ok((mm, picks))
        })?;
        report.fingerprint.backends = picks;
        let rt = serving_runtime(WORKERS);
        // One untimed batch: worker threads, arenas and allocator warm up.
        matmul::serve(&mm, &rt, &inputs, 0.0, tr).count_into(report);
        let served = matmul::serve(&mm, &rt, &inputs, args.seconds, tr);
        served.count_into(report);
        report_end_to_end(report, &setups, &served, mm.compiled());
        report.note(format!(
            "latency samples are whole batches of {} products",
            matmul::BATCH
        ));
        return Ok(());
    }

    let t0 = Instant::now();
    let mm = tr.span("tcmm_core.construct", |_| matmul::build())?;
    let construct_wall = t0.elapsed().as_secs_f64();
    let rss_after = memory_mb().1;
    let compile_s = time_compile(mm.circuit(), tr)?;
    let t0 = Instant::now();
    let picks = tr.span("tc_runtime.calibrate", |_| {
        warm_matmul(&mm, &tuning_runtime())
    })?;
    let calibrate_s = t0.elapsed().as_secs_f64();
    report.fingerprint.backends = picks;
    let rt = serving_runtime(WORKERS);

    let cc = mm.compiled();
    let census = tr.span("tc_circuit.census", |_| census::census(cc))?;
    let rows = inputs.pairs[..512]
        .iter()
        .map(|(a, b)| matmul::encode(&mm, a, b))
        .collect::<Result<Vec<_>, _>>()?;
    let kernel = tr.span("tc_circuit.kernel", |_| kernel::<SERVE_WORDS>(cc, &rows))?;

    // Encode and decode through the same public layouts evaluate_many_with
    // uses internally, timed outside it.
    let encode_us = tr.span("tcmm_core.encode", |_| {
        per_call_us(|i| {
            let (a, b) = &inputs.pairs[i % inputs.pairs.len()];
            black_box(matmul::encode(&mm, a, b)).map(drop)
        })
    })?;
    let outputs = mm.output_entries();
    let decode =
        |ev: &Evaluation| -> Vec<i64> { outputs.iter().map(|e| e.value(&rows[0], ev)).collect() };
    let decode_us = tr.span("tcmm_core.decode", |_| {
        per_call_us(|_| {
            black_box(decode(&kernel.lane0));
            Ok(())
        })
    })?;
    let want: Vec<i64> = (0..matmul::N * matmul::N)
        .map(|k| inputs.products[0].get(k / matmul::N, k % matmul::N))
        .collect();
    report.attempted += 1;
    if decode(&kernel.lane0) != want {
        report.failed += 1;
        report
            .problems
            .push("decoded kernel lane 0 differs from the host product".into());
    }

    tr.set_enabled(false);
    matmul::serve(&mm, &rt, &inputs, 0.0, tr).count_into(report);
    let (untraced, traced, delta) = serve_halves(args.seconds, tr, &rt, |secs, tr| {
        matmul::serve(&mm, &rt, &inputs, secs, tr)
    });
    untraced.count_into(report);
    traced.count_into(report);
    report_layers(
        report,
        &Layers {
            cc,
            builder: mm.circuit(),
            construct_wall,
            compile_s,
            calibrate_s,
            rss_after,
            encode_us,
            decode_us,
            census,
            kernel,
            workers: WORKERS,
            untraced,
            traced,
            telemetry: delta,
        },
    );
    Ok(())
}

/// Warms the tuner for every window length a batch is served in; returns
/// the backend picked per window.
fn warm_matmul(
    mm: &tcmm_core::matmul::MatmulCircuit,
    rt: &Runtime,
) -> Result<Vec<(String, &'static str)>, String> {
    matmul::windows(mm.compiled().num_gates())
        .into_iter()
        .map(|w| {
            rt.backend_for(mm.compiled(), w)
                .map(|b| (format!("matmul window of {w} pairs"), b))
                .map_err(|e| format!("backend_for: {e}"))
        })
        .collect()
}

fn run_stream<S: Stream>(
    args: &Args,
    report: &mut Report,
    tr: &mut Tracer,
    build: fn() -> Result<S, String>,
    workers: usize,
    inputs: &[S::Input],
    expected: &[bool],
) -> Result<(), String> {
    let positives = expected.iter().filter(|&&e| e).count();
    report.note(format!(
        "{positives} of {} query graphs have at least {} triangles",
        expected.len(),
        stream::TAU
    ));
    if positives == 0 || positives == expected.len() {
        report
            .problems
            .push("the query pool does not exercise both answers".into());
    }
    let pick = |s: &S, rt: &Runtime| {
        rt.backend_for(s.compiled(), STREAM_BATCH_HINT)
            .map_err(|e| format!("backend_for: {e}"))
    };
    if !args.trace {
        let ((s, backend), setups) = repeat_setup(|| {
            let s = build()?;
            let backend = pick(&s, &tuning_runtime())?;
            Ok((s, backend))
        })?;
        report.fingerprint.backends = vec![("stream".into(), backend)];
        let rt = serving_runtime(workers);
        stream::serve(&s, &rt, inputs, expected, STREAM_WARMUP_S, tr).count_into(report);
        let served = stream::serve(&s, &rt, inputs, expected, args.seconds, tr);
        served.count_into(report);
        report_end_to_end(report, &setups, &served, s.compiled());
        return Ok(());
    }

    let t0 = Instant::now();
    let s = tr.span("tcmm_core.construct", |_| build())?;
    let construct_wall = t0.elapsed().as_secs_f64();
    let rss_after = memory_mb().1;
    let compile_s = time_compile(s.circuit(), tr)?;
    let t0 = Instant::now();
    let backend = tr.span("tc_runtime.calibrate", |_| pick(&s, &tuning_runtime()))?;
    let calibrate_s = t0.elapsed().as_secs_f64();
    report.fingerprint.backends = vec![("stream".into(), backend)];
    let rt = serving_runtime(workers);

    let cc = s.compiled();
    let census = tr.span("tc_circuit.census", |_| census::census(cc))?;
    let mut rows = Vec::with_capacity(512);
    for input in inputs.iter().take(512) {
        let mut bits = vec![false; cc.num_inputs()];
        s.encode(input, &mut bits)?;
        rows.push(bits);
    }
    let kernel = tr.span("tc_circuit.kernel", |_| kernel::<SERVE_WORDS>(cc, &rows))?;

    tr.set_enabled(false);
    stream::serve(&s, &rt, inputs, expected, STREAM_WARMUP_S, tr).count_into(report);
    let (untraced, traced, delta) = serve_halves(args.seconds, tr, &rt, |secs, tr| {
        stream::serve(&s, &rt, inputs, expected, secs, tr)
    });
    untraced.count_into(report);
    traced.count_into(report);
    // Streams encode and decode on the request path: their cost comes from
    // the traced half's spans.
    let encode_us = tr.mean_us("tcmm_core.encode").unwrap_or(0.0);
    let decode_us = tr.mean_us("tcmm_core.decode").unwrap_or(0.0);
    report_layers(
        report,
        &Layers {
            cc,
            builder: s.circuit(),
            construct_wall,
            compile_s,
            calibrate_s,
            rss_after,
            encode_us,
            decode_us,
            census,
            kernel,
            workers,
            untraced,
            traced,
            telemetry: delta,
        },
    );
    Ok(())
}

/// Serves half the run untraced, then half traced; returns both and the
/// runtime telemetry of the untraced half.
fn serve_halves(
    seconds: f64,
    tr: &mut Tracer,
    rt: &Runtime,
    mut serve: impl FnMut(f64, &mut Tracer) -> Served,
) -> (Served, Served, TelemetrySummary) {
    tr.set_enabled(false);
    let before = rt.telemetry();
    let untraced = serve(seconds / 2.0, tr);
    let telemetry = rt.telemetry().delta_since(&before);
    tr.set_enabled(true);
    let traced = tr.span("serve.traced", |tr| serve(seconds / 2.0, tr));
    (untraced, traced, telemetry)
}

/// Re-runs `Circuit::compile()` on the builder form the constructor kept.
fn time_compile(circuit: &Circuit, tr: &mut Tracer) -> Result<f64, String> {
    let t0 = Instant::now();
    let compiled = tr.span("tc_circuit.compile", |_| circuit.compile());
    let secs = t0.elapsed().as_secs_f64();
    drop(compiled.map_err(|e| format!("compile: {e}"))?);
    Ok(secs)
}

/// Mean microseconds per call of `f(i)`, over at least 3 calls and up to
/// 0.2 s of calls.
fn per_call_us(mut f: impl FnMut(usize) -> Result<(), String>) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut calls = 0;
    while calls < 3 || (t0.elapsed().as_secs_f64() < 0.2 && calls < 1_000_000) {
        f(calls)?;
        calls += 1;
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / calls as f64)
}

/// Wall times of repeated calls: at least 3, then more while the total
/// stays under [`KERNEL_BUDGET_S`].
fn repeat_timed(mut f: impl FnMut() -> Result<(), CircuitError>) -> Result<Vec<f64>, String> {
    let mut times: Vec<f64> = Vec::new();
    while times.len() < 3 || (times.iter().sum::<f64>() < KERNEL_BUDGET_S && times.len() < 1000) {
        let t0 = Instant::now();
        f().map_err(|e| format!("kernel: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// One full-width arena pass and its extraction, timed on a warm arena.
struct Kernel {
    lanes: usize,
    pass_s: f64,
    extract_s: f64,
    /// Lane 0 expanded to a full evaluation (checked against the scalar
    /// evaluator).
    lane0: Evaluation,
}

/// Times one full-width arena pass and the extraction of all its lanes.
fn kernel<const W: usize>(cc: &CompiledCircuit, rows: &[Vec<bool>]) -> Result<Kernel, String> {
    let refs: Vec<&[bool]> = rows.iter().take(64 * W).map(Vec::as_slice).collect();
    if refs.len() < 64 * W {
        return Err(format!(
            "kernel: {} rows for a {}-lane pass",
            refs.len(),
            64 * W
        ));
    }
    let err = |e: CircuitError| format!("evaluate_rows_arena: {e}");
    let mut arena = PlaneArena::new();
    cc.evaluate_rows_arena::<W>(&refs, &mut arena)
        .map_err(err)?;
    let passes = repeat_timed(|| {
        let ev = cc.evaluate_rows_arena::<W>(&refs, &mut arena)?;
        black_box(ev.firing_counts());
        Ok(())
    })?;
    let ev = cc
        .evaluate_rows_arena::<W>(&refs, &mut arena)
        .map_err(err)?;
    let mut shell = Evaluation::default();
    let extracts = repeat_timed(|| {
        for lane in 0..ev.lanes() {
            ev.evaluation_into(lane, &mut shell)?;
            black_box(&shell);
        }
        Ok(())
    })?;
    let lane0 = ev.evaluation(0).map_err(err)?;
    if lane0 != cc.evaluate(refs[0]).map_err(err)? {
        return Err("kernel: arena lane 0 differs from the scalar evaluator".into());
    }
    Ok(Kernel {
        lanes: refs.len(),
        pass_s: median(&passes),
        extract_s: median(&extracts),
        lane0,
    })
}

/// Everything a traced run measured.
struct Layers<'a> {
    cc: &'a CompiledCircuit,
    builder: &'a Circuit,
    construct_wall: f64,
    compile_s: f64,
    calibrate_s: f64,
    rss_after: f64,
    encode_us: f64,
    decode_us: f64,
    census: census::Census,
    kernel: Kernel,
    /// Scheduler workers the serving runtime ran.
    workers: usize,
    untraced: Served,
    traced: Served,
    /// Runtime telemetry of the untraced half.
    telemetry: TelemetrySummary,
}

fn report_layers(report: &mut Report, l: &Layers<'_>) {
    let cc = l.cc;
    let c = &l.census;
    let k = &l.kernel;
    let lanes = k.lanes as f64;
    report.metric("tcmm_core.construct_s", l.construct_wall - l.compile_s);
    report.metric("tc_circuit.compile_s", l.compile_s);
    report.metric("tc_runtime.calibrate_s", l.calibrate_s);
    report.metric("tcmm_core.rss_after_construct_mb", l.rss_after);
    report.metric("tcmm_core.builder_gates", l.builder.num_gates() as f64);
    report.metric("tcmm_core.builder_edges", l.builder.num_edges() as f64);
    report.metric("tcmm_core.encode_us", l.encode_us);
    report.metric("tcmm_core.decode_us", l.decode_us);
    report.metric("tc_circuit.edges", c.edges as f64);
    report.metric("tc_circuit.bit_edges", c.bit_edges as f64);
    report.metric("tc_circuit.max_fan_in", c.max_fan_in as f64);
    report.metric("tc_circuit.plane_ops.unit", c.plane_ops[0] as f64);
    report.metric("tc_circuit.plane_ops.pow2", c.plane_ops[1] as f64);
    report.metric("tc_circuit.plane_ops.general", c.plane_ops[2] as f64);
    for d in 0..census::LAYERS {
        let layer = c.layer(d);
        report.metric(format!("tc_circuit.layer{d}.gates"), layer.gates as f64);
        report.metric(format!("tc_circuit.layer{d}.edges"), layer.edges as f64);
        report.metric(
            format!("tc_circuit.layer{d}.distinct_rows"),
            layer.distinct_rows as f64,
        );
        report.metric(
            format!("tc_circuit.layer{d}.max_fan_in"),
            layer.max_fan_in as f64,
        );
    }
    // Kernel rates count work per evaluated request (lane): gates, edges
    // and plane additions of the circuit times the lanes of one pass.
    report.metric("tc_circuit.kernel.pass_ms", k.pass_s * 1e3);
    report.metric(
        "tc_circuit.kernel.gate_evals_per_s",
        cc.num_gates() as f64 * lanes / k.pass_s,
    );
    report.metric(
        "tc_circuit.kernel.edge_evals_per_s",
        c.edges as f64 * lanes / k.pass_s,
    );
    report.metric(
        "tc_circuit.kernel.plane_ops_per_s",
        c.plane_ops_total() as f64 * lanes / k.pass_s,
    );
    report.metric("tc_circuit.extract_ms", k.extract_s * 1e3);

    // Request-phase wall time of the untraced half not explained by encode,
    // decode, and the runtime's own measured group evaluation (kernel plus
    // extraction), which the workers share, so it divides by their count.
    let t = &l.telemetry;
    let requests = l.untraced.answered.max(1) as f64;
    let client_s = requests * (l.encode_us + l.decode_us) / 1e6;
    let eval_s = t.busy_ns as f64 / 1e9 / l.workers as f64;
    let overhead_s = l.untraced.busy_s - client_s - eval_s;
    report.metric("tc_runtime.overhead_us", overhead_s / requests * 1e6);
    for (stage, h) in [
        ("queue_wait", &t.stages.queue_wait),
        ("pack", &t.stages.pack),
        ("eval", &t.stages.eval),
        ("delivery_wait", &t.stages.delivery_wait),
    ] {
        report.metric(
            format!("tc_runtime.stage.{stage}.p50_us"),
            h.quantile(0.50) as f64 / 1e3,
        );
        report.metric(
            format!("tc_runtime.stage.{stage}.p99_us"),
            h.quantile(0.99) as f64 / 1e3,
        );
    }
    report.metric(
        "tc_runtime.lane_fill",
        t.requests as f64 / (t.requests + t.padded_lanes).max(1) as f64,
    );
    report.metric(
        "tc_runtime.pool_hit_ratio",
        t.pool_hits as f64 / (t.pool_hits + t.pool_misses).max(1) as f64,
    );
    report.metric(
        "tc_runtime.peak_in_flight",
        t.peak_in_flight_requests as f64,
    );
    let untraced_rps = l.untraced.requests_per_s();
    let traced_rps = l.traced.requests_per_s();
    report.metric(
        "trace.overhead_pct",
        (untraced_rps / traced_rps.max(1e-9) - 1.0) * 100.0,
    );
    report.note(format!(
        "kernel: {} lanes per pass; untraced half {untraced_rps:.1} req/s over {} groups, \
         traced half {traced_rps:.1} req/s",
        k.lanes, t.groups
    ));
}
