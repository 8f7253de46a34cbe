//! The `tfhe-lint` source pass: token/line-level custom lints enforcing
//! workspace determinism invariants clippy cannot know about.
//!
//! # Lints
//!
//! | id   | name                  | invariant                                                        |
//! |------|-----------------------|------------------------------------------------------------------|
//! | L001 | `ambient-time`        | no `std::time::Instant`/`SystemTime` outside `crates/bench`      |
//! | L002 | `ambient-randomness`  | no entropy sources (`thread_rng`, `OsRng`, …) outside tests/shims|
//! | L003 | `ordered-iteration`   | no `HashMap`/`HashSet` in result-affecting code unless annotated |
//! | L004 | `undocumented-unsafe` | `unsafe` requires a `// SAFETY:` comment                         |
//! | L005 | `unjustified-allow`   | `#[allow(...)]` requires an adjacent `//` justification          |
//! | L006 | `ambient-env`         | `std::env::var` only in allowlisted builder/env-probe paths      |
//!
//! # Annotation grammar
//!
//! A violation line (or the line directly above it) can carry a
//! suppression annotation naming the lint's slug and a non-empty reason:
//!
//! ```text
//! // lint: ordered-ok (keyed get/insert only; never iterated)
//! cost_cache: HashMap<CostKey, CostProfile>,
//! ```
//!
//! The slugs are `time-ok`, `random-ok`, `ordered-ok`, and `env-ok`
//! (L004/L005 use their own grammar: a `// SAFETY:` comment and an
//! adjacent `//` justification respectively). An empty reason — `()` —
//! does not suppress: the reason *is* the point.
//!
//! # Allowlist
//!
//! `tfhe-lint.allow` at the workspace root sanctions whole files or
//! directories per lint: `L006 crates/core/src/env.rs # builder env
//! knobs`. `*` matches every lint. Diagnostics are reported in stable
//! `(file, line, id)` order as `file:line [L00x] message`.

use std::fmt;
use std::path::Path;

/// The custom lints, one stable id each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    /// L001: ambient wall-clock reads in result paths.
    AmbientTime,
    /// L002: ambient entropy sources outside tests and vendored shims.
    AmbientRandomness,
    /// L003: order-dependent hash containers in result-affecting code.
    OrderedIteration,
    /// L004: `unsafe` without a `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// L005: `#[allow(...)]` without an adjacent justification comment.
    UnjustifiedAllow,
    /// L006: `std::env::var` outside the sanctioned builder/probe paths.
    AmbientEnv,
}

impl LintId {
    /// Every lint, in id order.
    pub const ALL: [LintId; 6] = [
        LintId::AmbientTime,
        LintId::AmbientRandomness,
        LintId::OrderedIteration,
        LintId::UndocumentedUnsafe,
        LintId::UnjustifiedAllow,
        LintId::AmbientEnv,
    ];

    /// The stable diagnostic code (`L001`…`L006`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            LintId::AmbientTime => "L001",
            LintId::AmbientRandomness => "L002",
            LintId::OrderedIteration => "L003",
            LintId::UndocumentedUnsafe => "L004",
            LintId::UnjustifiedAllow => "L005",
            LintId::AmbientEnv => "L006",
        }
    }

    /// The human-readable lint name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintId::AmbientTime => "ambient-time",
            LintId::AmbientRandomness => "ambient-randomness",
            LintId::OrderedIteration => "ordered-iteration",
            LintId::UndocumentedUnsafe => "undocumented-unsafe",
            LintId::UnjustifiedAllow => "unjustified-allow",
            LintId::AmbientEnv => "ambient-env",
        }
    }

    /// The suppression-annotation slug (`// lint: <slug>-ok (reason)`),
    /// when the lint supports one.
    #[must_use]
    pub fn suppression_slug(self) -> Option<&'static str> {
        match self {
            LintId::AmbientTime => Some("time-ok"),
            LintId::AmbientRandomness => Some("random-ok"),
            LintId::OrderedIteration => Some("ordered-ok"),
            LintId::AmbientEnv => Some("env-ok"),
            LintId::UndocumentedUnsafe | LintId::UnjustifiedAllow => None,
        }
    }
}

/// One lint violation, pinned to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The lint that fired.
    pub lint: LintId,
    /// What the line does wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.file,
            self.line,
            self.lint.code(),
            self.message
        )
    }
}

/// How a file's path scopes the lints that apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// Inside `crates/bench/` — the one crate allowed to read wall-clock
    /// time (host benchmarking is its whole point).
    pub bench_crate: bool,
    /// Test-shaped code: `tests/`, `benches/`, or `examples/` directories.
    /// (`#[cfg(test)]` modules inside `src` files are detected per line.)
    pub test_code: bool,
    /// Result-affecting crate source: code whose iteration order or float
    /// fold order can reach a pinned number.
    pub result_affecting: bool,
}

impl FileScope {
    /// Classifies a workspace-relative path, or `None` when the file is
    /// out of lint scope entirely (vendored shims, build output, lint
    /// fixtures, non-Rust files).
    #[must_use]
    pub fn classify(rel: &str) -> Option<FileScope> {
        if !rel.ends_with(".rs") {
            return None;
        }
        let skip_components = ["vendor", "target", ".git", "fixtures", "BENCH_history"];
        if rel.split('/').any(|c| skip_components.contains(&c)) {
            return None;
        }
        let result_src = [
            "crates/math/src/",
            "crates/ntt/src/",
            "crates/gpu/src/",
            "crates/ckks/src/",
            "crates/boot/src/",
            "crates/core/src/",
            "crates/workloads/src/",
            "crates/analyze/src/",
            "src/",
        ];
        Some(FileScope {
            bench_crate: rel.starts_with("crates/bench/"),
            test_code: rel
                .split('/')
                .any(|c| matches!(c, "tests" | "benches" | "examples")),
            result_affecting: result_src.iter().any(|p| rel.starts_with(p)),
        })
    }
}

/// The committed allowlist (`tfhe-lint.allow`): `<code|*> <path> [# why]`
/// per line, where a trailing `/` on the path sanctions a directory.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Parses the allowlist format, ignoring blank lines and `#` comments.
    #[must_use]
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(code), Some(path)) = (parts.next(), parts.next()) {
                entries.push((code.to_string(), path.to_string()));
            }
        }
        Allowlist { entries }
    }

    /// Whether a diagnostic at `rel` for `lint` is sanctioned.
    #[must_use]
    pub fn permits(&self, lint: LintId, rel: &str) -> bool {
        self.entries.iter().any(|(code, path)| {
            (code == "*" || code == lint.code())
                && (rel == path || (path.ends_with('/') && rel.starts_with(path.as_str())))
        })
    }
}

/// Strips string/char literals and `//` comments from one source line so
/// token scans never fire inside text. Single-line literals only: a token
/// inside a multi-line raw string would still be scanned, which errs on
/// the strict side for a lint.
fn strip_literals(line: &str) -> String {
    let bytes: Vec<char> = line.chars().collect();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        // Comment: drop the rest of the line.
        if c == '/' && bytes.get(i + 1) == Some(&'/') {
            break;
        }
        // Raw string r"…" / r#"…"# (single-line).
        if c == 'r' && matches!(bytes.get(i + 1), Some('"') | Some('#')) {
            let mut j = i + 1;
            let mut hashes = 0;
            while bytes.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) == Some(&'"') {
                j += 1;
                'raw: while j < bytes.len() {
                    if bytes[j] == '"' {
                        let mut k = 0;
                        while k < hashes && bytes.get(j + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                out.push(' ');
                i = j;
                continue;
            }
        }
        // Plain string literal.
        if c == '"' {
            let mut j = i + 1;
            while j < bytes.len() {
                if bytes[j] == '\\' {
                    j += 2;
                    continue;
                }
                if bytes[j] == '"' {
                    j += 1;
                    break;
                }
                j += 1;
            }
            out.push(' ');
            i = j;
            continue;
        }
        // Char literal (distinguished from lifetimes by a closing quote).
        if c == '\'' {
            let close = if bytes.get(i + 1) == Some(&'\\') {
                bytes.get(i + 3) == Some(&'\'') || bytes.get(i + 4) == Some(&'\'')
            } else {
                bytes.get(i + 2) == Some(&'\'')
            };
            if close {
                let skip = if bytes.get(i + 1) == Some(&'\\') {
                    if bytes.get(i + 3) == Some(&'\'') {
                        4
                    } else {
                        5
                    }
                } else {
                    3
                };
                out.push(' ');
                i += skip;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `needle` occurs in `hay` with identifier boundaries on both
/// sides (so `unsafe` never matches `unsafe_code`).
fn has_token(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_word(hay[..at].chars().next_back().unwrap_or(' '));
        let after_ok = hay[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_word(c));
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Whether `raw` (the violation line) or `above` carries a suppression
/// annotation for `slug` with a non-empty parenthesised reason.
fn suppressed(slug: &str, raw: &str, above: Option<&str>) -> bool {
    let marker = format!("lint: {slug}");
    let check = |line: &str| {
        let Some(pos) = line.find("//") else {
            return false;
        };
        let comment = &line[pos..];
        let Some(at) = comment.find(marker.as_str()) else {
            return false;
        };
        let rest = &comment[at + marker.len()..];
        // Require "(reason)" with at least one non-space character.
        let Some(open) = rest.find('(') else {
            return false;
        };
        let Some(close) = rest[open..].find(')') else {
            return false;
        };
        !rest[open + 1..open + close].trim().is_empty()
    };
    check(raw) || above.is_some_and(check)
}

/// Identifier immediately before a `:` or `=` at byte offset `at`.
fn ident_before(s: &str, at: usize) -> Option<&str> {
    let head = s[..at].trim_end();
    let end = head.len();
    let start = head
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_word(*c))
        .last()
        .map(|(i, _)| i)?;
    let id = &head[start..end];
    if id.is_empty() || id.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(id)
    }
}

/// Registers identifiers a line binds to a hash container, so later
/// iteration over them can be flagged. Heuristic but effective: `let`
/// bindings initialised from `HashMap::new`/`HashSet::new` (or typed as
/// one), and field/param declarations `name: …HashMap<…`.
fn register_hash_names(clean: &str, names: &mut Vec<String>) {
    let mut push = |id: &str| {
        if !names.iter().any(|n| n == id) {
            names.push(id.to_string());
        }
    };
    let hashy = |s: &str| has_token(s, "HashMap") || has_token(s, "HashSet");
    // `let [mut] name[: T] = <hash-ish>`
    if let Some(let_pos) = clean.find("let ") {
        if let Some(eq) = clean[let_pos..].find('=').map(|p| p + let_pos) {
            if hashy(&clean[eq..]) || hashy(&clean[let_pos..eq]) {
                let head = clean[let_pos + 4..eq].trim_start();
                let head = head.strip_prefix("mut ").unwrap_or(head).trim();
                let name: String = head.chars().take_while(|&c| is_word(c)).collect();
                if !name.is_empty() {
                    push(&name);
                }
            }
        }
    }
    // `name: … HashMap< …` field or parameter declarations.
    let mut from = 0;
    while let Some(colon) = clean[from..].find(':') {
        let at = from + colon;
        let rhs = &clean[at + 1..];
        let rhs_head: String = rhs.chars().take_while(|&c| c != ',' && c != ';').collect();
        if hashy(&rhs_head) {
            if let Some(id) = ident_before(clean, at) {
                push(id);
            }
        }
        from = at + 1;
    }
}

/// Whether a cleaned line iterates one of the registered hash names.
fn iterates_hash_name(clean: &str, names: &[String]) -> Option<String> {
    const ITER_METHODS: [&str; 8] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain(",
        ".retain(",
    ];
    for name in names {
        for m in ITER_METHODS {
            let call = format!("{name}{m}");
            if clean.contains(&call) {
                return Some(format!("{name}{m}"));
            }
        }
        // `for x in &name` / `for x in &mut name` / `for x in name`
        if let Some(pos) = clean.find(" in ") {
            let tail = clean[pos + 4..].trim_start();
            let tail = tail.strip_prefix("&mut ").unwrap_or(tail);
            let tail = tail.strip_prefix('&').unwrap_or(tail);
            let id: String = tail.chars().take_while(|&c| is_word(c)).collect();
            if &id == name {
                return Some(format!("for … in {name}"));
            }
        }
    }
    None
}

const TIME_TOKENS: [&str; 3] = ["std::time::Instant", "Instant::now", "SystemTime"];
const RAND_TOKENS: [&str; 6] = [
    "thread_rng",
    "from_entropy",
    "rand::random",
    "OsRng",
    "getrandom",
    "RandomState",
];
const ENV_TOKENS: [&str; 2] = ["env::var", "env::var_os"];

/// Lints one file's source text under the given scope. `rel` is the
/// workspace-relative path used in diagnostics. Pure (no I/O), so the
/// fixture self-tests drive it directly.
#[must_use]
pub fn lint_source(rel: &str, text: &str, scope: FileScope) -> Vec<Diagnostic> {
    let raw_lines: Vec<&str> = text.lines().collect();
    let clean_lines: Vec<String> = raw_lines.iter().map(|l| strip_literals(l)).collect();
    let mut hash_names: Vec<String> = Vec::new();
    let mut out = Vec::new();
    let mut in_test_module = false;
    let mut diag = |line: usize, lint: LintId, message: String| {
        out.push(Diagnostic {
            file: rel.to_string(),
            line: line + 1,
            lint,
            message,
        });
    };
    for (i, clean) in clean_lines.iter().enumerate() {
        let raw = raw_lines[i];
        let above = i.checked_sub(1).map(|j| raw_lines[j]);
        if raw.starts_with("#[cfg(test)]") {
            in_test_module = true;
        }
        let testish = scope.test_code || in_test_module;

        // L001 — ambient time.
        if !scope.bench_crate
            && TIME_TOKENS.iter().any(|t| clean.contains(t))
            && !suppressed("time-ok", raw, above)
        {
            diag(
                i,
                LintId::AmbientTime,
                "ambient wall-clock read; result paths must use the simulated clock \
                 (only crates/bench may time the host)"
                    .into(),
            );
        }

        // L002 — ambient randomness.
        if !testish
            && RAND_TOKENS.iter().any(|t| has_token(clean, t))
            && !suppressed("random-ok", raw, above)
        {
            diag(
                i,
                LintId::AmbientRandomness,
                "ambient entropy source; derive randomness from a seeded StdRng so \
                 every run replays bit-identically"
                    .into(),
            );
        }

        // L003 — order-dependent hash containers in result paths.
        if scope.result_affecting && !testish {
            register_hash_names(clean, &mut hash_names);
            let is_use = clean.trim_start().starts_with("use ");
            let declares = !is_use && (clean.contains("HashMap<") || clean.contains("HashSet<"));
            let iterates = iterates_hash_name(clean, &hash_names);
            if (declares || iterates.is_some()) && !suppressed("ordered-ok", raw, above) {
                let what = iterates.map_or_else(
                    || "hash container in a result path".to_string(),
                    |call| format!("order-dependent iteration ({call}) in a result path"),
                );
                diag(
                    i,
                    LintId::OrderedIteration,
                    format!(
                        "{what}; convert to BTreeMap/BTreeSet (or sort before folding), \
                         or annotate `// lint: ordered-ok (reason)` if access is keyed-only"
                    ),
                );
            }
        }

        // L004 — undocumented unsafe.
        if has_token(clean, "unsafe") {
            let lookback = 3.min(i);
            let documented = (i - lookback..=i).any(|j| raw_lines[j].contains("SAFETY:"));
            if !documented {
                diag(
                    i,
                    LintId::UndocumentedUnsafe,
                    "`unsafe` without a `// SAFETY:` comment on or directly above the line".into(),
                );
            }
        }

        // L005 — unjustified allow.
        if clean.contains("#[allow(") || clean.contains("#![allow(") {
            let trailing = raw
                .find("//")
                .is_some_and(|p| raw[p + 2..].trim().len() > 1);
            let above_comment = above.is_some_and(|a| {
                let t = a.trim_start();
                t.starts_with("//") && !t.starts_with("///") && !t.starts_with("//!")
            });
            if !trailing && !above_comment {
                diag(
                    i,
                    LintId::UnjustifiedAllow,
                    "`#[allow(...)]` without a justification: add a `//` comment directly \
                     above (or trailing) saying why the lint is wrong here"
                        .into(),
                );
            }
        }

        // L006 — ambient environment reads.
        if !testish
            && ENV_TOKENS.iter().any(|t| clean.contains(t))
            && !suppressed("env-ok", raw, above)
        {
            diag(
                i,
                LintId::AmbientEnv,
                "`std::env::var` outside the sanctioned builder/env-probe paths; \
                 plumb configuration through the builder or allowlist this probe"
                    .into(),
            );
        }
    }
    out
}

/// Recursively collects the workspace's `.rs` files (relative,
/// forward-slash paths), skipping out-of-scope directories.
fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "vendor" | "target" | ".git" | "fixtures" | "BENCH_history" | ".github"
            ) {
                continue;
            }
            collect_sources(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`, applying the committed
/// `tfhe-lint.allow` allowlist. Diagnostics come back in stable
/// `(file, line, id)` order.
///
/// # Errors
///
/// Propagates I/O errors from walking the tree or reading sources.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let allow = match std::fs::read_to_string(root.join("tfhe-lint.allow")) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    };
    let mut files = Vec::new();
    collect_sources(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let Some(scope) = FileScope::classify(&rel) else {
            continue;
        };
        let text = std::fs::read_to_string(root.join(&rel))?;
        out.extend(
            lint_source(&rel, &text, scope)
                .into_iter()
                .filter(|d| !allow.permits(d.lint, &rel)),
        );
    }
    out.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.lint.cmp(&b.lint))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope() -> FileScope {
        FileScope {
            bench_crate: false,
            test_code: false,
            result_affecting: true,
        }
    }

    #[test]
    fn strip_literals_removes_strings_and_comments() {
        assert_eq!(
            strip_literals(r#"let x = "HashMap"; // HashMap"#),
            "let x =  ; "
        );
        assert_eq!(
            strip_literals("let c = '\"'; let y = 1;"),
            "let c =  ; let y = 1;"
        );
    }

    #[test]
    fn token_boundaries_hold() {
        assert!(has_token("unsafe fn f()", "unsafe"));
        assert!(!has_token("#![forbid(unsafe_code)]", "unsafe"));
    }

    #[test]
    fn ordered_ok_requires_a_reason() {
        let with_reason = "m.keys() // lint: ordered-ok (min fold, order-free)";
        let without = "m.keys() // lint: ordered-ok ()";
        assert!(suppressed("ordered-ok", with_reason, None));
        assert!(!suppressed("ordered-ok", without, None));
    }

    #[test]
    fn cfg_test_scope_disables_result_lints() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    fn f() { let s: HashSet<u8> = Default::default(); }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src, scope()).is_empty());
    }

    #[test]
    fn allowlist_matches_files_and_directories() {
        let a = Allowlist::parse("L006 crates/core/src/service.rs # knobs\n* crates/bench/\n");
        assert!(a.permits(LintId::AmbientEnv, "crates/core/src/service.rs"));
        assert!(!a.permits(LintId::AmbientTime, "crates/core/src/service.rs"));
        assert!(a.permits(LintId::AmbientTime, "crates/bench/src/report.rs"));
    }
}
