//! Validation of the machine-readable telemetry exports — the CI gate for
//! the observability surface, as a *test* rather than a shell script.
//!
//! Two angles:
//!
//! * an in-process export: drive a real multi-tenant session, then require
//!   [`TelemetrySummary::to_prometheus`] to pass a line-grammar validator
//!   (every line a well-formed comment or sample, every sample under a
//!   declared family, histogram buckets cumulative and capped by `+Inf` =
//!   `_count`), require the full set of documented metric families, and
//!   require [`TelemetrySummary::to_json`] to parse under a minimal JSON
//!   grammar with the right `schema_version`;
//! * scraped files: when `TCMM_SCRAPE_FILES` names `.prom`/`.json` files
//!   (CI points it at the artifacts `expt_e15_serving` wrote), the same
//!   validators run over them — an unparseable line or a missing required
//!   family fails the job.

use std::collections::{BTreeMap, BTreeSet};

use tc_circuit::{CircuitBuilder, CompiledCircuit, Wire};
use tc_runtime::{Runtime, SessionOptions, TenantId, TELEMETRY_SCHEMA_VERSION};

/// Every family `to_prometheus` documents; a scrape missing one fails.
const REQUIRED_FAMILIES: &[&str] = &[
    "tcmm_telemetry_schema_version",
    "tcmm_requests_total",
    "tcmm_groups_total",
    "tcmm_padded_lanes_total",
    "tcmm_gate_evals_total",
    "tcmm_firings_total",
    "tcmm_sessions_total",
    "tcmm_pool_hits_total",
    "tcmm_pool_misses_total",
    "tcmm_class_gate_evals_total",
    "tcmm_peak_in_flight_requests",
    "tcmm_peak_reorder_window_groups",
    "tcmm_backend_groups_total",
    "tcmm_backend_requests_total",
    "tcmm_backend_gate_evals_total",
    "tcmm_backend_firings_total",
    "tcmm_backend_busy_seconds_total",
    "tcmm_tenant_weight",
    "tcmm_tenant_requests_total",
    "tcmm_tenant_groups_total",
    "tcmm_tenant_queue_wait_seconds_total",
    "tcmm_stage_latency_seconds",
    "tcmm_request_firings",
    "tcmm_tenant_stage_latency_seconds",
    "tcmm_tenant_request_firings",
    "tcmm_backend_eval_seconds",
    "tcmm_shed_total",
    "tcmm_retries_total",
    "tcmm_deadline_miss_total",
    "tcmm_quarantines_total",
];

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Sorted `(key, value)` label pairs of one sample.
type Labels = Vec<(String, String)>;

/// Splits `name{a="b",c="d"} 42` into (name, sorted labels, value).
fn parse_sample(line: &str) -> Result<(String, Labels, f64), String> {
    let (name_labels, value) = match line.rfind(' ') {
        Some(split) => (&line[..split], line[split + 1..].trim()),
        None => return Err(format!("sample line has no value: {line:?}")),
    };
    let value: f64 = if value == "+Inf" {
        f64::INFINITY
    } else {
        value
            .parse()
            .map_err(|_| format!("unparseable sample value in {line:?}"))?
    };
    let (name, labels) = match name_labels.find('{') {
        None => (name_labels.trim().to_string(), Vec::new()),
        Some(open) => {
            let name = name_labels[..open].trim().to_string();
            let body = name_labels[open..]
                .strip_prefix('{')
                .and_then(|b| b.strip_suffix('}'))
                .ok_or_else(|| format!("unbalanced label braces in {line:?}"))?;
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label without '=' in {line:?}"))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value in {line:?}"))?;
                if !valid_metric_name(k) {
                    return Err(format!("bad label name {k:?} in {line:?}"));
                }
                labels.push((k.to_string(), v.to_string()));
            }
            labels.sort();
            (name, labels)
        }
    };
    if !valid_metric_name(&name) {
        return Err(format!("bad metric name {name:?} in {line:?}"));
    }
    Ok((name, labels, value))
}

/// Validates the full Prometheus text: grammar, families declared before
/// use, histogram bucket monotonicity. Returns the declared family set.
fn validate_prometheus(text: &str) -> Result<BTreeSet<String>, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: BTreeSet<String> = BTreeSet::new();
    // (family, labels-minus-le) -> [(le, cumulative count)]
    let mut buckets: BTreeMap<(String, Labels), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, Labels), f64> = BTreeMap::new();

    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            let kind = parts.next().unwrap_or_default();
            let family = parts.next().unwrap_or_default().to_string();
            let rest = parts.next().unwrap_or_default();
            if !valid_metric_name(&family) {
                return Err(format!("bad family name in comment: {line:?}"));
            }
            match kind {
                "HELP" if !rest.is_empty() => {
                    helped.insert(family);
                }
                "TYPE" if ["counter", "gauge", "histogram"].contains(&rest) => {
                    types.insert(family, rest.to_string());
                }
                _ => return Err(format!("malformed comment line: {line:?}")),
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line)?;
        // Histogram samples attach to their family via the suffix.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(&name)
            .to_string();
        if !types.contains_key(&family) {
            return Err(format!("sample before TYPE declaration: {line:?}"));
        }
        if !helped.contains(&family) {
            return Err(format!("sample before HELP declaration: {line:?}"));
        }
        if name.ends_with("_bucket") && types[&family] == "histogram" {
            let mut series = labels.clone();
            let le_at = series
                .iter()
                .position(|(k, _)| k == "le")
                .ok_or_else(|| format!("bucket sample without le: {line:?}"))?;
            let (_, le) = series.remove(le_at);
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .map_err(|_| format!("unparseable le in {line:?}"))?
            };
            buckets
                .entry((family, series))
                .or_default()
                .push((le, value));
        } else if name.ends_with("_count") && types[&family] == "histogram" {
            counts.insert((family, labels), value);
        }
    }

    for ((family, series), mut rungs) in buckets {
        rungs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0;
        for &(le, count) in &rungs {
            if count < prev {
                return Err(format!(
                    "non-cumulative buckets in {family}{series:?} at le={le}"
                ));
            }
            prev = count;
        }
        let (last_le, last_count) = *rungs.last().unwrap();
        if !last_le.is_infinite() {
            return Err(format!("{family}{series:?} has no +Inf bucket"));
        }
        if counts.get(&(family.clone(), series.clone())) != Some(&last_count) {
            return Err(format!(
                "{family}{series:?}: +Inf bucket disagrees with _count"
            ));
        }
    }
    Ok(types.into_keys().collect())
}

fn require_families(families: &BTreeSet<String>) {
    let missing: Vec<&&str> = REQUIRED_FAMILIES
        .iter()
        .filter(|f| !families.contains(**f))
        .collect();
    assert!(missing.is_empty(), "missing required families: {missing:?}");
}

// ---- minimal JSON grammar checker ----------------------------------------

/// A parsed JSON value — just enough structure to walk the export. The
/// parser keeps full value fidelity even where the shape check below only
/// inspects objects and numbers (hence the dead-code allowance).
#[derive(Debug)]
#[allow(dead_code)]
enum Json {
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

struct JsonParser<'t> {
    bytes: &'t [u8],
    at: usize,
}

impl<'t> JsonParser<'t> {
    fn parse(text: &'t str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.at));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = match self.value()? {
                        Json::Str(s) => s,
                        other => return Err(format!("non-string key: {other:?}")),
                    };
                    self.expect(b':')?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Object(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => {
                self.at += 1;
                let mut s = String::new();
                loop {
                    match self.bytes.get(self.at) {
                        Some(b'"') => {
                            self.at += 1;
                            return Ok(Json::Str(s));
                        }
                        Some(b'\\') => {
                            let escaped = *self
                                .bytes
                                .get(self.at + 1)
                                .ok_or("dangling escape at end of input")?;
                            s.push(match escaped {
                                b'"' => '"',
                                b'\\' => '\\',
                                b'n' => '\n',
                                b't' => '\t',
                                other => return Err(format!("unsupported escape \\{other}")),
                            });
                            self.at += 2;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            self.at += 1;
                        }
                        None => return Err("unterminated string".to_string()),
                    }
                }
            }
            Some(b't') if self.bytes[self.at..].starts_with(b"true") => {
                self.at += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.bytes[self.at..].starts_with(b"false") => {
                self.at += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.bytes[self.at..].starts_with(b"null") => {
                self.at += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.at;
                while self.bytes.get(self.at).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("unparseable token at byte {start}"))
            }
            None => Err("empty input".to_string()),
        }
    }
}

fn assert_json_export_shape(text: &str, source: &str) {
    let parsed = JsonParser::parse(text).unwrap_or_else(|e| panic!("{source}: bad JSON: {e}"));
    let Json::Object(top) = parsed else {
        panic!("{source}: top level is not an object");
    };
    match top.get("schema_version") {
        Some(Json::Num(v)) => assert_eq!(
            *v as u32, TELEMETRY_SCHEMA_VERSION,
            "{source}: schema version mismatch"
        ),
        other => panic!("{source}: missing numeric schema_version (got {other:?})"),
    }
    for key in ["requests", "stages", "backends", "tenants"] {
        assert!(top.contains_key(key), "{source}: missing {key:?}");
    }
}

// ---- the tests ------------------------------------------------------------

/// Small layered circuit exercising the sliced64 path.
fn circuit() -> CompiledCircuit {
    let mut b = CircuitBuilder::new(8);
    let mut prev: Vec<Wire> = (0..8).map(Wire::input).collect();
    for layer in 0..3 {
        let mut next = Vec::new();
        for g in 0..8 {
            let fan: Vec<(Wire, i64)> = (0..3)
                .map(|k| (prev[(g + k + layer) % prev.len()], 1))
                .collect();
            next.push(b.add_gate(fan, 2).unwrap());
        }
        prev = next;
    }
    for &w in &prev {
        b.mark_output(w);
    }
    b.build().compile().unwrap()
}

/// A multi-tenant session whose telemetry populates every export family.
fn drive(runtime: &Runtime) {
    let cc = circuit();
    let rows: Vec<Vec<bool>> = (0..64)
        .map(|i| (0..8).map(|b| (i >> b) & 1 == 1).collect())
        .collect();
    runtime.open_session(&cc, SessionOptions::default().unordered(), |session| {
        session.register_tenant(TenantId(1), 2).unwrap();
        session.register_tenant(TenantId(2), 1).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let tenant = TenantId(1 + (i % 2) as u32);
            session.submit_for(tenant, row).unwrap();
        }
        session.finish();
        while let Some(resp) = session.next_response().unwrap() {
            drop(resp);
        }
    });
}

#[test]
fn in_process_export_is_valid_and_complete() {
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(2)
        .build();
    drive(&runtime);
    let summary = runtime.telemetry();

    let prom = summary.to_prometheus();
    let families = validate_prometheus(&prom).expect("prometheus export must be well-formed");
    require_families(&families);

    assert_json_export_shape(&summary.to_json(), "to_json");

    // The export must carry real observations, not just valid syntax.
    assert!(summary.stages.end_to_end.count() >= 64);
    assert!(prom.contains("tcmm_requests_total 64"));
    assert!(prom.contains("tenant=\"1\"") && prom.contains("tenant=\"2\""));
}

#[test]
fn a_tenant_of_a_panicked_session_is_listed_by_both_exports() {
    // A panicking closure skips the session's tenant flush, but the tenant
    // registered with its first row, so both exports list it (with
    // zero tallies).
    let runtime = Runtime::builder().workers(1).build();
    let cc = circuit();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        runtime.open_session(
            &cc,
            SessionOptions::default().tenant(TenantId(9)),
            |session| {
                for i in 0..100u32 {
                    let row: Vec<bool> = (0..8).map(|b| (i >> b) & 1 == 1).collect();
                    session.submit(&row).unwrap();
                }
                panic!("closure fails mid-stream");
            },
        )
    }));
    assert!(outcome.is_err(), "the closure's panic must propagate");
    let summary = runtime.telemetry();
    let json = summary.to_json();
    assert_json_export_shape(&json, "to_json after a panicked session");
    assert!(json.contains("\"id\": 9,"), "{json}");
    let prom = summary.to_prometheus();
    assert!(
        prom.contains("tcmm_tenant_weight{tenant=\"9\"} 1"),
        "{prom}"
    );
}

#[test]
fn validator_rejects_malformed_exports() {
    let reject = |text: &str, why: &str| {
        assert!(
            validate_prometheus(text).is_err(),
            "validator accepted {why}: {text:?}"
        );
    };
    reject("tcmm_x_total 1\n", "a sample without HELP/TYPE");
    reject(
        "# HELP tcmm_x_total x.\n# TYPE tcmm_x_total counter\ntcmm_x_total\n",
        "a sample without a value",
    );
    reject(
        "# HELP tcmm_x_total x.\n# TYPE tcmm_x_total counter\ntcmm_x_total{a=b} 1\n",
        "unquoted label values",
    );
    reject(
        "# HELP tcmm_x x.\n# TYPE tcmm_x histogram\n\
         tcmm_x_bucket{le=\"1\"} 5\ntcmm_x_bucket{le=\"2\"} 3\n\
         tcmm_x_bucket{le=\"+Inf\"} 5\ntcmm_x_sum 9\ntcmm_x_count 5\n",
        "non-cumulative histogram buckets",
    );
    reject(
        "# HELP tcmm_x x.\n# TYPE tcmm_x histogram\n\
         tcmm_x_bucket{le=\"1\"} 5\ntcmm_x_sum 9\ntcmm_x_count 5\n",
        "a histogram without a +Inf bucket",
    );
    reject("# TYPE tcmm_x_total widget\n", "an unknown TYPE");

    let accept = "# HELP tcmm_x x.\n# TYPE tcmm_x histogram\n\
                  tcmm_x_bucket{le=\"1\"} 3\ntcmm_x_bucket{le=\"+Inf\"} 5\n\
                  tcmm_x_sum 9.5\ntcmm_x_count 5\n";
    validate_prometheus(accept).expect("well-formed histogram must pass");

    assert!(JsonParser::parse("{\"a\": [1, 2e3], \"b\": null}").is_ok());
    assert!(JsonParser::parse("{\"a\": }").is_err());
    assert!(JsonParser::parse("{\"a\": 1} trailing").is_err());
}

/// CI scrape check: validates the telemetry files an earlier job step wrote
/// (e.g. `expt_e15_serving`'s `TELEMETRY_e15.prom`/`.json`). Paths come in
/// `TCMM_SCRAPE_FILES`, separated by `:`; the test is a no-op when the
/// variable is unset so local `cargo test` runs stay self-contained.
#[test]
fn scraped_export_files_are_valid() {
    let Ok(paths) = std::env::var("TCMM_SCRAPE_FILES") else {
        eprintln!("TCMM_SCRAPE_FILES unset; nothing to scrape");
        return;
    };
    let mut checked = 0;
    for path in paths.split(':').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read scrape target {path}: {e}"));
        if path.ends_with(".json") {
            assert_json_export_shape(&text, path);
        } else {
            let families = validate_prometheus(&text)
                .unwrap_or_else(|e| panic!("invalid Prometheus text in {path}: {e}"));
            require_families(&families);
        }
        checked += 1;
    }
    assert!(checked > 0, "TCMM_SCRAPE_FILES named no files: {paths:?}");
}
