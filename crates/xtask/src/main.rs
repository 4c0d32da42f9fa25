//! Repository invariant linter (`cargo run -p tcmm-xtask -- lint`).
//!
//! A hand-rolled source scanner — no proc-macro or syn dependency, per the
//! workspace's vendored-stub policy — enforcing four invariants the
//! compiler cannot:
//!
//! 1. **safety_comment** — every `unsafe` block, function, or impl carries
//!    a `// SAFETY:` comment on the same line or in the comment block
//!    immediately above it, stating the invariant that makes it sound.
//! 2. **hot_path** — regions bracketed by `// lint:hot-path-begin` /
//!    `// lint:hot-path-end` markers must not call timing or allocating
//!    constructors (`Instant::now`, `Box::new`, `format!`, `.collect(`,
//!    …): these are the per-request serve paths whose zero-allocation
//!    budget the `alloc_steady_state` suite pins.
//! 3. **no_panic** — non-test code under `crates/runtime/src` must not
//!    call `.unwrap()` / `.expect(` / `panic!(` / `todo!(` /
//!    `unimplemented!(`; fallible paths return the crate's typed
//!    `RuntimeError` instead. (`debug_assert!` stays legal: it documents
//!    invariants without a release-build abort path.)
//! 4. **telemetry_families** — every `tcmm_` metric family emitted by
//!    `telemetry.rs` must be listed in the `telemetry_export` test's
//!    `REQUIRED_FAMILIES` gate *and* documented in the README, so a new
//!    metric cannot ship unvalidated or undocumented.
//! 5. **narrowing-cast** — the circuit lowering and kernel files
//!    (`crates/circuit/src/{compiled,kernel,arena}.rs`) must not use
//!    bare `as` casts to sized integer types (`u8`…`u64`, `i8`…`i64`):
//!    these silently truncate or wrap, and a wrong slot id or plane count
//!    corrupts the CSR arrays the evaluators trust. Casts to
//!    `usize`/`u128`/`i128` are exempt (never narrowing on supported
//!    targets); every remaining cast carries a waiver stating why it is
//!    lossless.
//!
//! Any rule can be waived at a specific site with
//! `// lint:allow(<rule>): <reason>` on the same line or in the comment
//! block immediately above; the reason is mandatory. Fixture files under
//! `fixtures/` seed one violation per rule so the test suite proves each
//! rule actually fires.
//!
//! The binary also hosts `cargo run -p tcmm-xtask -- verify-circuit` (see
//! [`verify_circuit`]): the sweep that builds every constructor geometry,
//! runs the `tc_circuit::verify` checker on each, and prints the
//! paper-bound table.

mod verify_circuit;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint violation, formatted `path:line: [rule] message`.
struct Finding {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A source line split into its syntactic channels by [`split_source`].
#[derive(Default)]
struct Line {
    /// Code with comments removed and string/char literal *contents*
    /// blanked (the delimiting quotes remain, so `.unwrap()` inside a
    /// string can never trip a rule).
    code: String,
    /// Concatenated comment text on the line (line and block comments).
    comment: String,
    /// Concatenated contents of string literals on the line.
    strings: String,
}

/// Lexer state carried across lines.
enum Mode {
    Normal,
    /// Inside `/* … */`; Rust block comments nest, hence the depth.
    BlockComment(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a `r##"…"##` raw string with this many `#`s.
    RawStr(u32),
}

/// Splits source into per-line code/comment/string channels. This is a
/// line-preserving scanner, not a full lexer: it understands line and
/// nested block comments, plain and raw strings, escapes, char literals,
/// and the lifetime-vs-char-literal ambiguity — enough that token searches
/// over `.code` and `.comment` are reliable.
fn split_source(src: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut mode = Mode::Normal;
    for raw in src.lines() {
        let mut line = Line::default();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match mode {
                Mode::Normal => match c {
                    '/' if next == Some('/') => {
                        // Line comment: the rest of the line is comment.
                        line.comment.extend(&chars[i + 2..]);
                        i = chars.len();
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        line.code.push('"');
                        mode = Mode::Str;
                        i += 1;
                    }
                    'r' if next == Some('"') || next == Some('#') => {
                        // Possible raw string r"…" / r#"…"#; count hashes.
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            line.code.push_str("r\"");
                            mode = Mode::RawStr(hashes);
                            i = j + 1;
                        } else {
                            line.code.push('r');
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Lifetime (`'a`) or char literal (`'a'`, `'\n'`)?
                        // A char literal closes with a quote one or two
                        // (escape) chars later; a lifetime does not.
                        if next == Some('\\') {
                            // Escaped char literal: skip to closing quote.
                            line.code.push('\'');
                            i += 2;
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                            i += 1;
                            line.code.push('\'');
                        } else if chars.get(i + 2) == Some(&'\'') {
                            line.code.push_str("' '");
                            i += 3;
                        } else {
                            line.code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        line.code.push(c);
                        i += 1;
                    }
                },
                Mode::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        mode = if depth == 1 {
                            Mode::Normal
                        } else {
                            Mode::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(c);
                        i += 1;
                    }
                }
                Mode::Str => match c {
                    '\\' => {
                        line.strings.push(' ');
                        i += 2;
                    }
                    '"' => {
                        line.code.push('"');
                        mode = Mode::Normal;
                        i += 1;
                    }
                    _ => {
                        line.strings.push(c);
                        i += 1;
                    }
                },
                Mode::RawStr(hashes) => {
                    if c == '"' {
                        let close = (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                        if close {
                            line.code.push('"');
                            mode = Mode::Normal;
                            i += 1 + hashes as usize;
                        } else {
                            line.strings.push('"');
                            i += 1;
                        }
                    } else {
                        line.strings.push(c);
                        i += 1;
                    }
                }
            }
        }
        lines.push(line);
    }
    lines
}

/// True when `needle` occurs in `hay` bounded by non-identifier chars.
fn has_word(hay: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(at) = hay[start..].find(needle) {
        let at = start + at;
        let before_ok = hay[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = hay[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Is the waiver `lint:allow(<rule>)` in force for line `at`? Looks at the
/// line itself plus the contiguous run of comment-only lines above it.
/// Returns `Err(line)` when a matching directive exists but omits the
/// mandatory `: reason` suffix.
fn allowed(lines: &[Line], at: usize, rule: &str) -> Result<bool, usize> {
    let directive = format!("lint:allow({rule})");
    let check = |idx: usize| -> Option<Result<bool, usize>> {
        let c = &lines[idx].comment;
        let pos = c.find(&directive)?;
        let rest = c[pos + directive.len()..].trim_start();
        let reason_ok = rest.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        Some(if reason_ok { Ok(true) } else { Err(idx + 1) })
    };
    if let Some(r) = check(at) {
        return r;
    }
    let mut i = at;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        let comment_only = !l.comment.is_empty() && l.code.trim().is_empty();
        if !comment_only {
            break;
        }
        if let Some(r) = check(i) {
            return r;
        }
    }
    Ok(false)
}

/// Rule 1: every `unsafe` token in code is covered by a `SAFETY:` comment
/// on the same line or in the comment/attribute block immediately above.
fn check_safety(path: &Path, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if !has_word(&line.code, "unsafe") {
            continue;
        }
        // `unsafe` inside a doc example or string is already filtered by
        // the channel split; this is a genuine code token.
        let mut covered = line.comment.contains("SAFETY:");
        let mut i = idx;
        while !covered && i > 0 {
            i -= 1;
            let l = &lines[i];
            let comment_only = !l.comment.is_empty() && l.code.trim().is_empty();
            let attr_only = l.code.trim().starts_with("#[");
            let blank = l.code.trim().is_empty() && l.comment.is_empty();
            if !(comment_only || attr_only || blank) {
                break;
            }
            covered = l.comment.contains("SAFETY:");
        }
        if covered {
            continue;
        }
        match allowed(lines, idx, "safety_comment") {
            Ok(true) => {}
            Ok(false) => findings.push(Finding {
                path: path.to_path_buf(),
                line: idx + 1,
                rule: "safety_comment",
                message: "`unsafe` without a `// SAFETY:` comment stating why \
                          the invariants hold"
                    .to_string(),
            }),
            Err(line) => findings.push(missing_reason(path, line)),
        }
    }
    findings
}

/// Calls banned inside `lint:hot-path` regions: anything that reads a
/// clock or allocates. `.collect(` covers every collecting adaptor.
const HOT_PATH_BANNED: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "Box::new",
    "vec!",
    "Vec::new",
    "Vec::with_capacity",
    "String::new",
    "String::from",
    "format!",
    ".to_string()",
    ".to_owned()",
    ".to_vec()",
    ".collect(",
];

/// Rule 2: no clock reads or allocations between `lint:hot-path-begin`
/// and `lint:hot-path-end` markers.
fn check_hot_path(path: &Path, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut region_start: Option<usize> = None;
    for (idx, line) in lines.iter().enumerate() {
        if line.comment.contains("lint:hot-path-begin") {
            if let Some(start) = region_start {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    rule: "hot_path",
                    message: format!(
                        "nested hot-path-begin (region already open since \
                         line {})",
                        start + 1
                    ),
                });
            }
            region_start = Some(idx);
            continue;
        }
        if line.comment.contains("lint:hot-path-end") {
            if region_start.take().is_none() {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    rule: "hot_path",
                    message: "hot-path-end without a matching begin".to_string(),
                });
            }
            continue;
        }
        if region_start.is_none() {
            continue;
        }
        for banned in HOT_PATH_BANNED {
            if !line.code.contains(banned) {
                continue;
            }
            match allowed(lines, idx, "hot_path") {
                Ok(true) => {}
                Ok(false) => findings.push(Finding {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    rule: "hot_path",
                    message: format!(
                        "`{banned}` inside a hot-path region (allocates or \
                         reads a clock on the per-request path)"
                    ),
                }),
                Err(line) => findings.push(missing_reason(path, line)),
            }
        }
    }
    if let Some(start) = region_start {
        findings.push(Finding {
            path: path.to_path_buf(),
            line: start + 1,
            rule: "hot_path",
            message: "hot-path region never closed (missing lint:hot-path-end)".to_string(),
        });
    }
    findings
}

/// Panicking calls banned in non-test runtime code.
const NO_PANIC_BANNED: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "todo!(",
    "unimplemented!(",
];

/// Rule 3: non-test code in `crates/runtime/src` must not panic; fallible
/// paths return the typed `RuntimeError`. `#[cfg(test)]` items are
/// skipped by brace counting.
fn check_no_panic(path: &Path, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Depth counter for an open #[cfg(test)] item; None = not skipping,
    // Some(0) = attribute seen, body brace not yet reached.
    let mut skip: Option<i64> = None;
    for (idx, line) in lines.iter().enumerate() {
        if skip.is_none() && line.code.contains("#[cfg(test)]") {
            skip = Some(0);
        }
        if let Some(depth) = skip.as_mut() {
            let opens = line.code.matches('{').count() as i64;
            let closes = line.code.matches('}').count() as i64;
            let had_body = *depth > 0 || opens > 0;
            *depth += opens - closes;
            if had_body && *depth <= 0 {
                skip = None;
            }
            continue;
        }
        for banned in NO_PANIC_BANNED {
            // `panic!(` must not match `debug_assert_panic!(`-style names:
            // require a non-identifier char before macro needles.
            let hit = if banned.starts_with('.') {
                line.code.contains(banned)
            } else {
                let stem = &banned[..banned.len() - 2]; // drop `!(`
                has_word(&line.code, stem) && line.code.contains(banned)
            };
            if !hit {
                continue;
            }
            match allowed(lines, idx, "no_panic") {
                Ok(true) => {}
                Ok(false) => findings.push(Finding {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    rule: "no_panic",
                    message: format!(
                        "`{banned}` in non-test runtime code; return a typed \
                         RuntimeError or add lint:allow(no_panic) with the \
                         invariant that rules the panic out"
                    ),
                }),
                Err(line) => findings.push(missing_reason(path, line)),
            }
        }
    }
    findings
}

/// Cast targets the narrowing-cast rule bans: every sized integer type a
/// bare `as` can truncate or wrap into. `usize`, `u128` and `i128` are
/// exempt — on the workspace's supported targets a cast into them never
/// loses bits (and `i128` is the verifier's exact-arithmetic type).
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64"];

/// Files the narrowing-cast rule is scoped to: the circuit lowering +
/// kernel trio, where a truncated slot id or plane count silently
/// corrupts evaluation.
const NARROWING_SCOPE: &[&str] = &["compiled.rs", "kernel.rs", "arena.rs"];

/// The banned cast targets appearing on one code line, in order.
fn cast_targets(code: &str) -> Vec<&'static str> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(at) = code[start..].find("as") {
        let at = start + at;
        start = at + 2;
        let before_ok = code[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after = &code[at + 2..];
        if !before_ok || after.chars().next().is_none_or(is_ident) {
            continue;
        }
        let target: String = after
            .trim_start()
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        if let Some(t) = NARROWING_TARGETS.iter().find(|&&t| t == target) {
            out.push(*t);
        }
    }
    out
}

/// Rule 5: no bare `as` casts to sized integer types in the scoped circuit
/// files; each surviving cast carries a `lint:allow(narrowing-cast)` waiver
/// whose reason states why the value fits. `#[cfg(test)]` items are skipped
/// by the same brace counting as the no-panic rule.
fn check_narrowing_cast(path: &Path, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut skip: Option<i64> = None;
    for (idx, line) in lines.iter().enumerate() {
        if skip.is_none() && line.code.contains("#[cfg(test)]") {
            skip = Some(0);
        }
        if let Some(depth) = skip.as_mut() {
            let opens = line.code.matches('{').count() as i64;
            let closes = line.code.matches('}').count() as i64;
            let had_body = *depth > 0 || opens > 0;
            *depth += opens - closes;
            if had_body && *depth <= 0 {
                skip = None;
            }
            continue;
        }
        for target in cast_targets(&line.code) {
            match allowed(lines, idx, "narrowing-cast") {
                Ok(true) => {}
                Ok(false) => findings.push(Finding {
                    path: path.to_path_buf(),
                    line: idx + 1,
                    rule: "narrowing-cast",
                    message: format!(
                        "bare `as {target}` can silently truncate or wrap; \
                         use a checked conversion or add \
                         lint:allow(narrowing-cast) stating why the value \
                         fits"
                    ),
                }),
                Err(line) => findings.push(missing_reason(path, line)),
            }
        }
    }
    findings
}

fn missing_reason(path: &Path, line: usize) -> Finding {
    Finding {
        path: path.to_path_buf(),
        line,
        rule: "lint_allow",
        message: "lint:allow without a `: reason` — waivers must say why".to_string(),
    }
}

/// Extracts the set of `tcmm_` metric family names from string literals,
/// folding histogram series suffixes (`_bucket`/`_sum`/`_count`) into
/// their base family when the base is also present.
fn extract_families(src: &str) -> Vec<String> {
    let lines = split_source(src);
    let mut raw: Vec<String> = Vec::new();
    for line in &lines {
        let s = &line.strings;
        let mut rest = s.as_str();
        while let Some(at) = rest.find("tcmm_") {
            let tail = &rest[at..];
            let end = tail
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(tail.len());
            let name = &tail[..end];
            if name.len() > "tcmm_".len() && !raw.iter().any(|n| n == name) {
                raw.push(name.to_string());
            }
            rest = &rest[at + end.max(1)..];
        }
    }
    let bases: Vec<String> = raw.clone();
    let mut families: Vec<String> = raw
        .into_iter()
        .filter(|name| {
            !["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| bases.iter().any(|b| b == base))
            })
        })
        .collect();
    families.sort();
    families
}

/// Rule 4: every family `telemetry.rs` emits appears in the
/// `telemetry_export` test's `REQUIRED_FAMILIES` gate and in the README.
fn check_telemetry_families(
    telemetry_path: &Path,
    telemetry_src: &str,
    export_src: &str,
    readme_src: &str,
) -> Vec<Finding> {
    let emitted = extract_families(telemetry_src);
    let required = extract_families(export_src);
    let mut findings = Vec::new();
    for family in &emitted {
        if !required.iter().any(|f| f == family) {
            findings.push(Finding {
                path: telemetry_path.to_path_buf(),
                line: 1,
                rule: "telemetry_families",
                message: format!(
                    "family `{family}` is emitted but missing from \
                     REQUIRED_FAMILIES in tests/telemetry_export.rs"
                ),
            });
        }
        if !readme_src.contains(family.as_str()) {
            findings.push(Finding {
                path: telemetry_path.to_path_buf(),
                line: 1,
                rule: "telemetry_families",
                message: format!(
                    "family `{family}` is emitted but not documented in \
                     README.md"
                ),
            });
        }
    }
    findings
}

/// Recursively collects `.rs` files under `dir`, skipping `target/`,
/// `vendor/`, and the linter's own deliberately-failing `fixtures/`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == "fixtures" {
                continue;
            }
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// Runs every rule over the workspace rooted at `root`.
fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let runtime_src = root.join("crates").join("runtime").join("src");
    let circuit_src = root.join("crates").join("circuit").join("src");
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let lines = split_source(&src);
        findings.extend(check_safety(path, &lines));
        findings.extend(check_hot_path(path, &lines));
        if path.starts_with(&runtime_src) {
            findings.extend(check_no_panic(path, &lines));
        }
        let in_cast_scope = path.starts_with(&circuit_src)
            && path
                .file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| NARROWING_SCOPE.contains(&f));
        if in_cast_scope {
            findings.extend(check_narrowing_cast(path, &lines));
        }
    }
    let telemetry_path = runtime_src.join("telemetry.rs");
    let export_path = root
        .join("crates")
        .join("runtime")
        .join("tests")
        .join("telemetry_export.rs");
    let readme_path = root.join("README.md");
    match (
        std::fs::read_to_string(&telemetry_path),
        std::fs::read_to_string(&export_path),
        std::fs::read_to_string(&readme_path),
    ) {
        (Ok(telemetry), Ok(export), Ok(readme)) => {
            findings.extend(check_telemetry_families(
                &telemetry_path,
                &telemetry,
                &export,
                &readme,
            ));
        }
        _ => findings.push(Finding {
            path: telemetry_path,
            line: 1,
            rule: "telemetry_families",
            message: "could not read telemetry.rs / telemetry_export.rs / \
                      README.md"
                .to_string(),
        }),
    }
    findings
}

fn usage() -> ExitCode {
    eprintln!("usage: xtask lint [--root <workspace-root>]");
    eprintln!("       xtask verify-circuit [--output <bound-table-path>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let mut output: Option<PathBuf> = None;
    let mut cmd = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "lint" if cmd.is_none() => cmd = Some("lint"),
            "verify-circuit" if cmd.is_none() => cmd = Some("verify-circuit"),
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = PathBuf::from(p),
                    None => return usage(),
                }
            }
            "--output" => {
                i += 1;
                match args.get(i) {
                    Some(p) => output = Some(PathBuf::from(p)),
                    None => return usage(),
                }
            }
            _ => return usage(),
        }
        i += 1;
    }
    match cmd {
        Some("lint") => {
            let findings = lint_workspace(&root);
            for finding in &findings {
                eprintln!("{finding}");
            }
            if findings.is_empty() {
                eprintln!("xtask lint: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("xtask lint: {} violation(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Some("verify-circuit") => verify_circuit::run(output.as_deref()),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> (PathBuf, Vec<Line>) {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
        let lines = split_source(&src);
        (path, lines)
    }

    #[test]
    fn splitter_separates_channels() {
        let lines = split_source("let x = \"unsafe .unwrap()\"; // SAFETY: comment\nunsafe { x }");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].strings.contains("unsafe .unwrap()"));
        assert!(lines[0].comment.contains("SAFETY:"));
        assert!(has_word(&lines[1].code, "unsafe"));
    }

    #[test]
    fn splitter_handles_raw_strings_and_chars() {
        let lines = split_source(
            "let r = r#\"panic!(\"inner\")\"#;\nlet c = '\"'; let l: &'static str = \"x\";",
        );
        assert!(!lines[0].code.contains("panic!"));
        assert!(lines[0].strings.contains("panic!"));
        // The char literal's quote must not open a string.
        assert!(lines[1].strings.contains('x'));
        assert!(!lines[1].code.contains("panic"));
    }

    #[test]
    fn safety_rule_fires_on_fixture() {
        let (path, lines) = fixture("safety_missing.rs");
        let findings = check_safety(&path, &lines);
        assert_eq!(findings.len(), 1, "exactly the seeded violation");
        assert_eq!(findings[0].rule, "safety_comment");
    }

    #[test]
    fn safety_rule_accepts_commented_and_waived_sites() {
        let (path, lines) = fixture("safety_ok.rs");
        assert!(check_safety(&path, &lines).is_empty());
    }

    #[test]
    fn hot_path_rule_fires_on_fixture() {
        let (path, lines) = fixture("hot_path_bad.rs");
        let findings = check_hot_path(&path, &lines);
        assert_eq!(findings.len(), 2, "allocation + unclosed region");
        assert!(findings[0].message.contains("Vec::new"));
        assert!(findings[1].message.contains("never closed"));
    }

    #[test]
    fn hot_path_rule_accepts_clean_region() {
        let (path, lines) = fixture("hot_path_ok.rs");
        assert!(check_hot_path(&path, &lines).is_empty());
    }

    #[test]
    fn no_panic_rule_fires_on_fixture() {
        let (path, lines) = fixture("no_panic_bad.rs");
        let findings = check_no_panic(&path, &lines);
        assert_eq!(findings.len(), 2, "unwrap + expect outside tests");
        assert!(findings.iter().all(|f| f.rule == "no_panic"));
    }

    #[test]
    fn no_panic_rule_skips_tests_and_waivers() {
        let (path, lines) = fixture("no_panic_ok.rs");
        assert!(check_no_panic(&path, &lines).is_empty());
    }

    #[test]
    fn narrowing_cast_rule_fires_on_fixture() {
        let (path, lines) = fixture("narrowing_cast_bad.rs");
        let findings = check_narrowing_cast(&path, &lines);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings[0].message.contains("as u8"));
        assert!(findings[1].message.contains("as i32"));
        assert_eq!(findings[2].rule, "lint_allow", "waiver without a reason");
    }

    #[test]
    fn narrowing_cast_rule_accepts_waived_exempt_and_test_sites() {
        let (path, lines) = fixture("narrowing_cast_ok.rs");
        assert!(check_narrowing_cast(&path, &lines).is_empty());
    }

    #[test]
    fn cast_scanner_finds_word_bounded_targets_only() {
        assert_eq!(cast_targets("let x = y as u8; z as i64"), vec!["u8", "i64"]);
        // Exempt targets, identifiers containing `as`, and `as` inside a
        // larger ident must not match.
        assert!(cast_targets("let x = y as usize + w as u128 + v as i128").is_empty());
        assert!(cast_targets("basil as_u8 has_word(x)").is_empty());
    }

    #[test]
    fn lint_allow_requires_a_reason() {
        let src = "// lint:allow(no_panic)\nlet x = y.unwrap();\n";
        let lines = split_source(src);
        let findings = check_no_panic(Path::new("t.rs"), &lines);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "lint_allow");
    }

    #[test]
    fn telemetry_families_cross_check() {
        let telemetry = r#"
            out.push("tcmm_requests_total");
            out.push("tcmm_latency_seconds");
            out.push("tcmm_latency_seconds_bucket");
        "#;
        let export = r#"const REQUIRED_FAMILIES: &[&str] = &["tcmm_requests_total"];"#;
        let readme = "Only `tcmm_requests_total` is documented.";
        let findings =
            check_telemetry_families(Path::new("telemetry.rs"), telemetry, export, readme);
        // tcmm_latency_seconds missing from both gates; the _bucket series
        // folds into its base family rather than reporting separately.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.message.contains("tcmm_latency_seconds")));
    }

    impl fmt::Debug for Finding {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{self}")
        }
    }

    #[test]
    fn whole_workspace_is_clean() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf)
            .expect("xtask lives two levels below the workspace root");
        let findings = lint_workspace(&root);
        assert!(
            findings.is_empty(),
            "workspace must lint clean:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
