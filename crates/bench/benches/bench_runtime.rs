//! Criterion bench for the serving runtime: lane-width comparison and
//! scheduler throughput on a Theorem 4.5 trace circuit with ~881k gates.
//!
//! Three question groups:
//!
//! * `lane_width/*` — the fixed 64-lane path versus the 128/256/512-lane
//!   wide kernels at batch sizes 256 and 1024 (single worker, isolating the
//!   kernels);
//! * `scheduler/*` — a 2048-request batch through the runtime (pinned to
//!   `wide256`) with 1 worker versus all cores;
//! * `runtime_report` — times every backend directly, prints the measured
//!   wide-vs-sliced64 speedup on a 256-request batch (the acceptance
//!   criterion: the rule-picked wide backend must beat the fixed 64-lane
//!   path on ≥256-request batches), compares a 1M-request stream through
//!   an incremental `StreamSession` (flat memory, pooled responses)
//!   against the materialising `serve_stream` wrapper — requests/sec and
//!   steady-state RSS growth — runs the contended two-tenant fairness
//!   scenario (steady weight 2 vs bursty weight 1 through the DRR
//!   scheduler, per-tenant mean queue waits), and writes
//!   `BENCH_runtime.json` with gate-evals/sec per backend plus the
//!   streaming and fairness numbers. Under `BENCH_ENFORCE_BASELINE=1` the
//!   report FAILS if single-tenant streaming throughput drops below 90% of
//!   the committed baseline (the PR 4 FIFO-scheduler number — the DRR
//!   engine must not tax the uncontended path).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fast_matmul::BilinearAlgorithm;
use tc_circuit::{CircuitBuilder, CompiledCircuit, Wire};
use tc_graph::generators;
use tc_runtime::{Runtime, SessionOptions, TenantId};
use tcmm_bench::{drive_contended_tenants, drive_overload_shedding, p99};
use tcmm_core::{trace::TraceCircuit, CircuitConfig};

/// The serving workload: a Theorem 4.5 trace circuit (~881k gates for the
/// binary Strassen recipe at N = 16, d = 2) plus encoded random queries.
fn workload(requests: usize) -> (TraceCircuit, Vec<Vec<bool>>) {
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    let circuit = TraceCircuit::theorem_4_5(&config, 16, 2, 500).unwrap();
    assert!(circuit.circuit().num_gates() >= 100_000);
    let rows: Vec<Vec<bool>> = (0..requests as u64)
        .map(|seed| {
            let g = generators::erdos_renyi(16, 0.3, 1 + seed);
            let mut bits = vec![false; circuit.circuit().num_inputs()];
            circuit
                .input()
                .assign(&g.adjacency_matrix(), &mut bits)
                .unwrap();
            bits
        })
        .collect();
    (circuit, rows)
}

fn bench_lane_widths(c: &mut Criterion) {
    let (circuit, rows) = workload(1024);
    let compiled = circuit.compiled();
    let gates = circuit.circuit().num_gates() as u64;

    for batch in [256usize, 1024] {
        let mut group = c.benchmark_group(format!("lane_width_batch{batch}"));
        group.throughput(Throughput::Elements(gates * batch as u64));
        for backend in ["sliced64", "wide128", "wide256", "wide512"] {
            let runtime = Runtime::builder().fixed_backend(backend).workers(1).build();
            group.bench_function(backend, |bench| {
                bench.iter(|| runtime.serve_batch(compiled, &rows[..batch]).unwrap());
            });
        }
        group.finish();
    }
}

fn bench_scheduler(c: &mut Criterion) {
    let (circuit, rows) = workload(2048);
    let compiled = circuit.compiled();
    let gates = circuit.circuit().num_gates() as u64;

    let mut group = c.benchmark_group("scheduler_batch2048");
    group.throughput(Throughput::Elements(gates * rows.len() as u64));
    for workers in [1usize, 0] {
        let runtime = Runtime::builder()
            .fixed_backend("wide256")
            .workers(workers)
            .build();
        let label = if workers == 0 {
            "workers_all_cores".to_string()
        } else {
            format!("workers_{workers}")
        };
        group.bench_function(label.as_str(), |bench| {
            bench.iter(|| runtime.serve_batch(compiled, &rows).unwrap());
        });
    }
    group.finish();
}

/// Resident set size of this process in bytes (0 where unsupported) — the
/// honest way to see whether a stream's responses were materialised.
fn rss_bytes() -> u64 {
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmRSS:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
    }
    0
}

/// A small serving circuit (layered ±1 majorities) so a million-request
/// stream finishes inside a smoke bench — at this size the numbers measure
/// the *scheduler and session machinery*, which is the point. It happens
/// to mirror the alloc-test circuit in
/// `crates/runtime/tests/alloc_steady_state.rs`, but nothing requires the
/// two to stay in sync: any small circuit works here.
fn stream_circuit() -> CompiledCircuit {
    let mut b = CircuitBuilder::new(16);
    let mut prev: Vec<Wire> = (0..16).map(Wire::input).collect();
    for layer in 0..4 {
        let mut next = Vec::new();
        for g in 0..12 {
            let fan: Vec<(Wire, i64)> = (0..5)
                .map(|k| {
                    let w = prev[(g * 5 + k + layer) % prev.len()];
                    (w, if k % 2 == 0 { 1 } else { -1 })
                })
                .collect();
            next.push(b.add_gate(fan, 1).unwrap());
        }
        prev = next;
    }
    for &w in &prev {
        b.mark_output(w);
    }
    b.build().compile().unwrap()
}

/// The **frozen** single-tenant streaming baseline (requests/sec) out of
/// `BENCH_runtime.json`, read BEFORE this run overwrites the file. The
/// committed `fifo_baseline_requests_per_sec` field holds the PR 4
/// FIFO-scheduler figure and every refresh carries it forward VERBATIM, so
/// the 0.90x gate always measures against the FIFO reference — not against
/// whatever run was last committed (which would let slow regressions
/// compound silently). Files predating the frozen field fall back to their
/// `session_requests_per_sec` (and freeze *that* going forward).
fn recorded_stream_baseline() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_runtime.json").ok()?;
    let field = |key: &str| -> Option<f64> {
        let tail = text.split(key).nth(1)?;
        let digits: String = tail
            .trim_start()
            .trim_start_matches(':')
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().ok()
    };
    field("\"fifo_baseline_requests_per_sec\"").or_else(|| field("\"session_requests_per_sec\""))
}

/// The contended two-tenant scenario from `expt_e15_serving`, smoke-sized
/// and driven by the SAME shared harness
/// ([`tcmm_bench::drive_contended_tenants`]): a steady tenant (weight 2)
/// and a bursty tenant (weight 1) share one session; per-tenant mean queue
/// waits and the max-queue-wait-ratio fairness metric land in
/// `BENCH_runtime.json`.
fn measure_fairness() -> String {
    let cc = stream_circuit();
    let rows: Vec<Vec<bool>> = (0..64usize)
        .map(|i| (0..16).map(|b| (i >> (b % 8)) & 1 == 1).collect())
        .collect();
    let (steady, bursty) = (TenantId(1), TenantId(2));
    let (steady_n, bursty_n) = (64 * 256usize, 64 * 1024usize);
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .build();
    drive_contended_tenants(&runtime, &cc, &rows, steady_n, bursty_n);
    let summary = runtime.telemetry();
    let s = summary.per_tenant[&steady];
    let b = summary.per_tenant[&bursty];
    let ratio = summary.max_queue_wait_ratio();
    println!(
        "fairness_report: steady (weight 2) mean queue wait {:.3}ms over {} groups, \
         bursty (weight 1) {:.3}ms over {} groups, max queue-wait ratio {ratio:.2}",
        s.mean_queue_wait_ns() / 1e6,
        s.groups,
        b.mean_queue_wait_ns() / 1e6,
        b.groups,
    );
    format!(
        ",\n  \"fairness\": {{\"steady_requests\": {steady_n}, \"bursty_requests\": {bursty_n}, \
         \"steady_weight\": 2, \"bursty_weight\": 1, \
         \"steady_mean_queue_wait_ns\": {:.0}, \"bursty_mean_queue_wait_ns\": {:.0}, \
         \"steady_max_queue_wait_ns\": {}, \"bursty_max_queue_wait_ns\": {}, \
         \"max_queue_wait_ratio\": {ratio:.3}}}",
        s.mean_queue_wait_ns(),
        b.mean_queue_wait_ns(),
        s.queue_wait_ns_max,
        b.queue_wait_ns_max,
    )
}

/// The overload/shedding scenario: a steady tenant and an overload tenant
/// offering roughly 2x the steady tenant's load into a `ShedNewest`
/// session over a 4-group queue. Reports the shed rate at that offered
/// load and the steady tenant's p99 — the number the admission policy
/// exists to protect: shedding the overload tenant's excess keeps queues
/// short instead of letting every request's latency grow without bound.
fn measure_shedding() -> String {
    let cc = stream_circuit();
    let rows: Vec<Vec<bool>> = (0..64usize)
        .map(|i| (0..16).map(|b| (i >> (b % 8)) & 1 == 1).collect())
        .collect();
    let (steady_n, overload_n) = (64 * 256usize, 64 * 512usize);
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .queue_capacity(4)
        .build();
    let report = drive_overload_shedding(&runtime, &cc, &rows, steady_n, overload_n);
    assert_eq!(
        report.steady_served + report.steady_shed + report.overload_served + report.overload_shed,
        steady_n + overload_n,
        "every accepted row must be answered (payload or typed Shed)"
    );
    let summary = runtime.telemetry();
    let offered = (steady_n + overload_n) as f64;
    let shed_rate = summary.sheds as f64 / offered;
    let steady_p99_ms = p99(&report.steady_latencies) * 1e3;
    println!(
        "shedding_report: offered {offered:.0} rows at ~2x steady load \
         (queue capacity 4 groups, ShedNewest)\n\
         steady   : {} served / {} shed, p99 {steady_p99_ms:.3} ms\n\
         overload : {} served / {} shed, shed rate {:.1}% of offered load\n",
        report.steady_served,
        report.steady_shed,
        report.overload_served,
        report.overload_shed,
        shed_rate * 100.0,
    );
    format!(
        ",\n  \"shedding\": {{\"steady_offered\": {steady_n}, \
         \"overload_offered\": {overload_n}, \
         \"steady_served\": {}, \"steady_shed\": {}, \
         \"overload_served\": {}, \"overload_shed\": {}, \
         \"shed_rate\": {shed_rate:.4}, \
         \"steady_p99_ms\": {steady_p99_ms:.4}}}",
        report.steady_served, report.steady_shed, report.overload_served, report.overload_shed,
    )
}

/// Single-tenant streaming throughput with a (generous) deadline armed:
/// the deadline check sits on the pop path, so this measures the tax the
/// robustness machinery puts on the healthy fast path. Returns the JSON
/// fragment plus the measured requests/sec (gated against the same frozen
/// FIFO baseline as the deadline-free run).
fn measure_deadline_stream() -> (String, f64) {
    let cc = stream_circuit();
    let total = 1_000_000usize;
    let rows: Vec<Vec<bool>> = (0..64usize)
        .map(|i| (0..16).map(|b| (i >> (b % 8)) & 1 == 1).collect())
        .collect();
    let runtime = Runtime::builder().fixed_backend("sliced64").build();
    let opts = SessionOptions::default().deadline(Duration::from_secs(3600));
    let t0 = Instant::now();
    let served = runtime.open_session(&cc, opts, |session| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..total {
                    session.submit(&rows[i % rows.len()]).unwrap();
                }
                session.finish();
            });
            let mut served = 0usize;
            for resp in session.responses() {
                let resp = resp.unwrap();
                assert!(resp.error().is_none(), "a 1h deadline never expires here");
                served += 1;
            }
            served
        })
    });
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(served, total);
    assert_eq!(runtime.telemetry().deadline_misses, 0);
    let rps = total as f64 / secs;
    println!("deadline_stream_report: {total} requests with a 1h deadline armed: {rps:.0} req/sec");
    (
        format!(",\n  \"deadline_session_requests_per_sec\": {rps:.0}"),
        rps,
    )
}

/// 1M requests through the incremental session (pooled, flat-memory) and
/// through the materialising `serve_stream`: requests/sec and RSS growth.
/// Returns the JSON fragment for `BENCH_runtime.json` plus the measured
/// single-tenant session throughput (the baseline-gate signal).
fn measure_stream() -> (String, f64) {
    let cc = stream_circuit();
    let total = 1_000_000usize;
    let rows: Vec<Vec<bool>> = (0..64usize)
        .map(|i| (0..16).map(|b| (i >> (b % 8)) & 1 == 1).collect())
        .collect();

    // Session first (its steady state allocates nothing, so it leaves no
    // freed-but-retained heap behind to muddy the wrapper's baseline).
    let runtime = Runtime::builder().fixed_backend("sliced64").build();
    let rss0 = rss_bytes();
    let t0 = Instant::now();
    let served = runtime.open_session(&cc, SessionOptions::default(), |session| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..total {
                    session.submit(&rows[i % rows.len()]).unwrap();
                }
                session.finish();
            });
            let mut served = 0usize;
            let mut firings = 0u64;
            for resp in session.responses() {
                let resp = resp.unwrap();
                firings += resp.firing_count as u64; // read, then recycle
                served += 1;
            }
            std::hint::black_box(firings);
            served
        })
    });
    let session_s = t0.elapsed().as_secs_f64();
    let session_rss = rss_bytes().saturating_sub(rss0);
    assert_eq!(served, total);

    let rss1 = rss_bytes();
    let t1 = Instant::now();
    let responses = runtime
        .serve_stream(&cc, (0..total).map(|i| rows[i % rows.len()].clone()))
        .unwrap();
    let wrapper_s = t1.elapsed().as_secs_f64();
    let wrapper_rss = rss_bytes().saturating_sub(rss1);
    assert_eq!(responses.len(), total);
    drop(responses);

    let session_rps = total as f64 / session_s;
    let wrapper_rps = total as f64 / wrapper_s;
    let summary = runtime.telemetry();
    println!(
        "\nstream_report: {total} requests, {}-gate circuit\n\
         session      : {session_rps:>12.0} req/sec, RSS +{:.1} MB (peak in-flight {} requests)\n\
         serve_stream : {wrapper_rps:>12.0} req/sec, RSS +{:.1} MB (materialises every response)\n",
        cc.num_gates(),
        session_rss as f64 / 1e6,
        summary.peak_in_flight_requests,
        wrapper_rss as f64 / 1e6,
    );
    // Per-stage latency percentiles from the runtime's OWN histograms (the
    // same export e15 asserts against): the machine-readable record of
    // where a request's time goes inside the serving loop.
    let mut stages = String::new();
    for (name, h) in summary.stages.latency_stages() {
        if !stages.is_empty() {
            stages.push(',');
        }
        stages.push_str(&format!(
            "\n    {{\"stage\": \"{name}\", \"count\": {}, \"p50_ns\": {}, \
             \"p95_ns\": {}, \"p99_ns\": {}}}",
            h.count(),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
        ));
    }
    let json = format!(
        ",\n  \"stream\": {{\"requests\": {total}, \
         \"session_requests_per_sec\": {session_rps:.0}, \
         \"session_rss_delta_bytes\": {session_rss}, \
         \"serve_stream_requests_per_sec\": {wrapper_rps:.0}, \
         \"serve_stream_rss_delta_bytes\": {wrapper_rss}, \
         \"peak_in_flight_requests\": {}}},\n  \"stages\": [{stages}\n  ]",
        summary.peak_in_flight_requests
    );
    (json, session_rps)
}

/// Directly times every backend, prints the wide-vs-sliced64 speedup, and
/// emits `BENCH_runtime.json`.
fn runtime_report(_c: &mut Criterion) {
    let (circuit, rows) = workload(1024);
    let compiled = circuit.compiled();
    let gates = circuit.circuit().num_gates();

    let time = |f: &mut dyn FnMut()| {
        f(); // warm up
        let reps = 3;
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_secs_f64() / reps as f64
    };

    struct Report {
        measured: Vec<(String, usize, f64)>,
        json_backends: String,
    }
    let mut report = Report {
        measured: Vec::new(),
        json_backends: String::new(),
    };
    let measure = |report: &mut Report, name: &str, batch: usize| {
        let runtime = Runtime::builder().fixed_backend(name).workers(1).build();
        let secs = time(&mut || {
            std::hint::black_box(runtime.serve_batch(compiled, &rows[..batch]).unwrap());
        });
        let geps = batch as f64 * gates as f64 / secs;
        report.measured.push((name.to_string(), batch, geps));
        if !report.json_backends.is_empty() {
            report.json_backends.push(',');
        }
        report.json_backends.push_str(&format!(
            "\n    {{\"backend\": \"{name}\", \"batch\": {batch}, \
             \"gate_evals_per_sec\": {geps:.0}, \"seconds\": {secs:.6}}}"
        ));
    };
    for batch in [256usize, 1024] {
        for backend in ["scalar", "sliced64", "wide128", "wide256", "wide512"] {
            // Scalar at 1024 requests on an 881k-gate circuit is too slow to
            // time honestly inside a smoke bench; sample it at 256 only.
            if backend == "scalar" && batch > 256 {
                continue;
            }
            measure(&mut report, backend, batch);
        }
    }

    // The default runtime's rule-picked backend for a 256-request batch, and
    // its measured margin over the fixed 64-lane path. Every standard
    // backend is in the table at batch 256, so the picked one always is.
    let rule = Runtime::new();
    let lookup = |name: &str, batch: usize| {
        report
            .measured
            .iter()
            .find(|(b, n, _)| b == name && *n == batch)
            .map(|(_, _, g)| *g)
    };
    let tuned = rule.backend_for(compiled, 256).unwrap();
    let tuned_geps = lookup(tuned, 256).expect("every standard backend is measured at batch 256");
    let sliced_geps = lookup("sliced64", 256).expect("sliced64 is measured at batch 256");
    let speedup = tuned_geps / sliced_geps;
    println!(
        "\nruntime_report: trace circuit with {gates} gates\n\
         rule-picked backend for a 256-request batch: {tuned}\n\
         rule pick : {tuned_geps:>14.0} gate-evals/sec\n\
         sliced64  : {sliced_geps:>14.0} gate-evals/sec\n\
         speedup   : {speedup:.2}x (acceptance: wide > 1.0x on >=256-request batches)"
    );
    // The rule against the best fixed backend at each measured batch size.
    for batch in [256usize, 1024] {
        let pick = rule.backend_for(compiled, batch).unwrap();
        let (best, best_geps) = report
            .measured
            .iter()
            .filter(|(_, n, _)| *n == batch)
            .max_by(|a, b| a.2.total_cmp(&b.2))
            .map(|(b, _, g)| (b.as_str(), *g))
            .expect("every batch size has measured backends");
        let pick_geps = lookup(pick, batch).unwrap_or(f64::NAN);
        println!(
            "batch {batch:>4}: rule pick {pick} {pick_geps:.0} gate-evals/sec, \
             best fixed {best} {best_geps:.0} ({:.2}x)",
            pick_geps / best_geps
        );
    }
    println!();

    // The single-tenant throughput gate: the committed BENCH_runtime.json
    // still holds the previous (FIFO-era) session requests/sec; the DRR
    // scheduler must stay within 10% of it. Enforced when
    // BENCH_ENFORCE_BASELINE=1 (CI, where the committed file was produced
    // on the same runner class); a warning otherwise.
    let baseline = recorded_stream_baseline();
    let (stream_json, session_rps) = measure_stream();
    let (deadline_json, deadline_rps) = measure_deadline_stream();
    let fairness_json = measure_fairness();
    let shedding_json = measure_shedding();
    let enforce = std::env::var("BENCH_ENFORCE_BASELINE").as_deref() == Ok("1");
    let fail_or_warn = |message: String| {
        if enforce {
            panic!("{message}");
        }
        println!("WARNING (not enforced without BENCH_ENFORCE_BASELINE=1): {message}");
    };
    let baseline_ratio = match baseline {
        Some(baseline) => {
            let ratio = session_rps / baseline;
            println!(
                "stream_report: single-tenant session {session_rps:.0} req/sec vs \
                 recorded baseline {baseline:.0} ({ratio:.2}x)"
            );
            if ratio < 0.9 {
                fail_or_warn(format!(
                    "single-tenant streaming throughput regressed to {ratio:.2}x of the \
                     recorded baseline ({session_rps:.0} vs {baseline:.0} req/sec; \
                     floor 0.90x)"
                ));
            }
            // The same floor with a deadline armed: robustness must not tax
            // the healthy path by more than the general scheduler budget.
            let deadline_ratio = deadline_rps / baseline;
            println!(
                "deadline_stream_report: {deadline_rps:.0} req/sec vs recorded baseline \
                 {baseline:.0} ({deadline_ratio:.2}x)"
            );
            if deadline_ratio < 0.9 {
                fail_or_warn(format!(
                    "deadline-enabled streaming throughput regressed to {deadline_ratio:.2}x \
                     of the recorded baseline ({deadline_rps:.0} vs {baseline:.0} req/sec; \
                     floor 0.90x)"
                ));
            }
            ratio
        }
        None => {
            fail_or_warn(
                "no session_requests_per_sec baseline readable from BENCH_runtime.json; \
                 single-tenant regression gate cannot run"
                    .to_string(),
            );
            f64::NAN
        }
    };
    // NaN would serialise as literal `nan` — not JSON. `null` is.
    let baseline_ratio_json = if baseline_ratio.is_finite() {
        format!("{baseline_ratio:.3}")
    } else {
        "null".to_string()
    };
    // Carry the frozen baseline forward; a tree with no baseline at all
    // freezes this run's measurement as the new reference.
    let frozen_baseline = baseline.unwrap_or(session_rps);
    let json = format!(
        "{{\n  \"circuit_gates\": {gates},\n  \"auto_tuned_backend_batch256\": \"{tuned}\",\n  \
         \"tuned_vs_sliced64_speedup_batch256\": {speedup:.3},\n  \
         \"fifo_baseline_requests_per_sec\": {frozen_baseline:.0},\n  \
         \"single_tenant_vs_recorded_baseline\": {baseline_ratio_json},\n  \
         \"backends\": [{}\n  ]{}{}{}{}\n}}\n",
        report.json_backends, stream_json, deadline_json, fairness_json, shedding_json
    );
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
    println!("wrote BENCH_runtime.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_lane_widths, bench_scheduler, runtime_report
}
criterion_main!(benches);
