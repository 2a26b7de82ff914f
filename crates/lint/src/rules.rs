//! The rule engine: repo-specific invariant rules over a token stream.
//!
//! Each rule is a pure function from a [`FileContext`] to findings. Rules
//! are scoped by crate (derived from the file's workspace-relative path)
//! and skip test code — `#[cfg(test)]` / `#[test]` regions, files under
//! `tests/`, and `proptests.rs` modules — because the rules exist to
//! protect production paths, and tests legitimately `unwrap()`.
//!
//! Suppression: `// lint:allow(<rule>[, <rule>…]) <reason>` on the
//! finding's line or the line directly above silences those rules for
//! that line; `// lint:allow-file(<rule>) <reason>` anywhere in the file
//! silences a rule file-wide (for pervasive idioms such as postings-array
//! indexing whose bounds are a maintained invariant). A suppression
//! without a reason is itself a finding (`suppression-needs-reason`) —
//! the reason is the reviewable artifact.

use crate::lexer::{lex, significant, Token, TokenKind};
use std::collections::HashMap;

/// One diagnostic: where, which rule, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// `file:line:col: [rule] message` — the clickable text form.
    pub fn render(&self) -> String {
        format!("{}:{}:{}: [{}] {}", self.path, self.line, self.col, self.rule, self.message)
    }
}

/// Every rule id the engine knows, for `--list-rules` and suppression
/// validation.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-panic-hot-path",
        "forbid unwrap()/expect()/panic!/[] indexing in serve, par, query non-test code",
    ),
    (
        "no-wallclock-determinism",
        "forbid SystemTime::now/Instant::now in model, query, regex, align, synth",
    ),
    ("no-unbounded-channel", "forbid mpsc::channel() in par/serve; use sync_channel"),
    (
        "no-unbounded-ingest-buffer",
        "flag queue.push_back(…) in par/serve non-test code: every queue fed by requests \
         must check a capacity bound and shed (429/503) on overflow; document the audited \
         bounded site with lint:allow",
    ),
    (
        "lock-across-await-point-analog",
        "flag lock()/write() guards held across try_submit/send in one statement",
    ),
    (
        "no-silent-truncation",
        "flag narrowing `as` casts (u8/u16/u32/i8/i16/i32) in model/serve",
    ),
    (
        "budget-enforced-alloc",
        "flag request-fed with_capacity/read_to_end in serve/http.rs without a budget \
         clamp, bitmap decodes (`to_vec`) inside loops in the query crate, and any Vec \
         allocation inside the automaton execution loops of regex/engine.rs and \
         query/temporal.rs (pooled scratch only)",
    ),
    (
        "test-file-hygiene",
        "src modules over 300 lines need a #[cfg(test)] block or a crate proptests.rs",
    ),
    ("pub-fn-docs", "pub fn in a crate root (lib.rs) must carry a doc comment"),
    ("suppression-needs-reason", "lint:allow must state a reason after the rule list"),
    (
        "no-unwrap-on-lock",
        "forbid .lock()/.read()/.write() followed by .unwrap() in non-test code; recover \
         from poisoning with .unwrap_or_else(|e| e.into_inner())",
    ),
    (
        "lock-order-cycle",
        "flow: two locks acquired in opposite orders along any call paths — a potential \
         deadlock; both acquisition paths are reported",
    ),
    (
        "blocking-call-under-lock",
        "flow: join/recv/sleep/blocking I/O reachable (transitively) while a lock guard \
         is live — stalls every thread contending on that lock",
    ),
    (
        "transitive-no-panic-hot-path",
        "flow: unwrap/expect/panic! reachable through the call graph from route(), the \
         plan executor, or the profile roots, in crates the token rule does not cover",
    ),
];

const HOT_PATH_CRATES: &[&str] = &["serve", "par", "query"];
const DETERMINISM_CRATES: &[&str] = &["model", "query", "regex", "align", "synth"];
const CHANNEL_CRATES: &[&str] = &["par", "serve"];
const LOCK_CRATES: &[&str] = &["par", "serve"];
const TRUNCATION_CRATES: &[&str] = &["model", "serve"];
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
const HYGIENE_LINE_LIMIT: u32 = 300;

/// Keywords that can directly precede `[` without it being an index
/// expression (array literals, slice patterns, returns of literals…).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "break", "if", "else", "match", "move", "const",
    "static", "as", "box", "yield", "await", "dyn", "impl", "fn", "where", "use", "pub",
    "for", "type",
];

struct Suppression {
    rules: Vec<String>,
    has_reason: bool,
    file_wide: bool,
    line: u32,
    col: u32,
}

/// One reasoned suppression, in the owned form the flow pipeline carries
/// around per file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressionRecord {
    /// 1-based line of the `lint:allow` comment.
    pub line: u32,
    /// True for `lint:allow-file` (silences the rule file-wide).
    pub file_wide: bool,
    /// The rule ids the suppression names.
    pub rules: Vec<String>,
}

impl SuppressionRecord {
    /// Does this record silence `rule` for a finding at `line`? A
    /// line-scoped allow covers its own line and the line below.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rules.iter().any(|r| r == rule)
            && (self.file_wide || self.line == line || self.line + 1 == line)
    }
}

/// Everything a rule can see about one file.
pub struct FileContext<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: &'a str,
    /// The crate this file belongs to (the `<name>` of `crates/<name>/…`),
    /// without the `pastas-` prefix convention — just the directory name.
    pub crate_name: Option<String>,
    /// File contents.
    pub src: &'a str,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens.
    pub sig: Vec<usize>,
    /// Per-token: true when the token sits inside test code.
    pub test_mask: Vec<bool>,
    /// For each position `p` in `sig` holding a bracket, the position of
    /// its partner (same vector), when balanced.
    pub pair: Vec<Option<usize>>,
    /// Total source lines.
    pub line_count: u32,
    /// True when the file's whole content is test code (`tests/` dirs,
    /// `proptests.rs` modules).
    pub whole_file_test: bool,
    /// True when this file's crate has a `src/proptests.rs`.
    pub crate_has_proptests: bool,
    suppressions: Vec<Suppression>,
}

/// Knobs the workspace driver passes per file.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckOptions {
    /// Whether the file's crate ships a `src/proptests.rs` (satisfies
    /// `test-file-hygiene` for big modules without inline tests).
    pub crate_has_proptests: bool,
}

impl<'a> FileContext<'a> {
    /// Lex and annotate one file.
    pub fn new(path: &'a str, src: &'a str, options: CheckOptions) -> FileContext<'a> {
        let tokens = lex(src);
        let sig = significant(&tokens);
        let pair = match_brackets(&tokens, &sig, src);
        let file_name = path.rsplit('/').next().unwrap_or(path);
        let whole_file_test = file_name == "proptests.rs"
            || path.split('/').any(|c| c == "tests" || c == "benches");
        let mut ctx = FileContext {
            path,
            crate_name: crate_of(path),
            src,
            test_mask: vec![whole_file_test; tokens.len()],
            tokens,
            sig,
            pair,
            line_count: src.lines().count() as u32,
            whole_file_test,
            crate_has_proptests: options.crate_has_proptests,
            suppressions: Vec::new(),
        };
        if !whole_file_test {
            mark_test_regions(&mut ctx);
        }
        ctx.suppressions = parse_suppressions(&ctx);
        ctx
    }

    pub(crate) fn sig_token(&self, p: usize) -> &Token {
        &self.tokens[self.sig[p]]
    }

    pub(crate) fn sig_text(&self, p: usize) -> &str {
        self.sig_token(p).text(self.src)
    }

    pub(crate) fn sig_is_test(&self, p: usize) -> bool {
        self.test_mask[self.sig[p]]
    }

    /// The file's reasoned suppressions as `(line, file_wide, rules)`
    /// records, so the flow pipeline (whose interprocedural findings are
    /// produced after per-file analysis) can honor them too.
    pub fn suppression_records(&self) -> Vec<SuppressionRecord> {
        self.suppressions
            .iter()
            .filter(|s| s.has_reason)
            .map(|s| SuppressionRecord {
                line: s.line,
                file_wide: s.file_wide,
                rules: s.rules.clone(),
            })
            .collect()
    }

    fn in_crate(&self, list: &[&str]) -> bool {
        self.crate_name.as_deref().is_some_and(|c| list.contains(&c))
    }

    fn finding(&self, token: &Token, rule: &'static str, message: String) -> Finding {
        Finding { path: self.path.to_owned(), line: token.line, col: token.col, rule, message }
    }
}

/// `crates/<name>/src/…` → `<name>`.
fn crate_of(path: &str) -> Option<String> {
    let mut parts = path.split('/');
    while let Some(part) = parts.next() {
        if part == "crates" {
            return parts.next().map(str::to_owned);
        }
    }
    None
}

/// Match `(`/`)`, `[`/`]`, `{`/`}` over the significant token positions.
fn match_brackets(tokens: &[Token], sig: &[usize], src: &str) -> Vec<Option<usize>> {
    let mut pair = vec![None; sig.len()];
    let mut stack: Vec<(usize, char)> = Vec::new();
    for (p, &ti) in sig.iter().enumerate() {
        let t = &tokens[ti];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text(src) {
            "(" => stack.push((p, ')')),
            "[" => stack.push((p, ']')),
            "{" => stack.push((p, '}')),
            s @ (")" | "]" | "}") => {
                // Pop to the nearest matching opener; tolerate imbalance
                // (the lexer accepts arbitrary soup).
                if let Some(pos) =
                    stack.iter().rposition(|&(_, close)| close.to_string() == s)
                {
                    let (open, _) = stack[pos];
                    stack.truncate(pos);
                    pair[open] = Some(p);
                    pair[p] = Some(open);
                }
            }
            _ => {}
        }
    }
    pair
}

/// Mark the bodies governed by `#[test]` / `#[cfg(test)]`-style attributes
/// (any attribute mentioning `test` outside a `not(…)`) as test code: from
/// the next `{` through its matching `}`.
fn mark_test_regions(ctx: &mut FileContext<'_>) {
    let mut p = 0;
    while p + 1 < ctx.sig.len() {
        if ctx.sig_token(p).is_punct(ctx.src, '#') && ctx.sig_token(p + 1).is_punct(ctx.src, '[')
        {
            let Some(close) = ctx.pair[p + 1] else {
                p += 1;
                continue;
            };
            let mut saw_test = false;
            let mut saw_not = false;
            for q in p + 2..close {
                let text = ctx.sig_text(q);
                if text == "test" {
                    saw_test = true;
                }
                if text == "not" {
                    saw_not = true;
                }
            }
            if saw_test && !saw_not {
                // The attribute governs the next item; mark from the item's
                // opening brace to its close (covers `mod t { … }`,
                // `fn t() { … }`, and `mod t;` marks nothing, which is
                // right — out-of-line test modules are separate files).
                let mut q = close + 1;
                while q < ctx.sig.len() {
                    let text = ctx.sig_text(q);
                    if text == "{" {
                        if let Some(body_close) = ctx.pair[q] {
                            // Full-token range, so comments inside the
                            // region are marked too.
                            let (from, to) = (ctx.sig[q], ctx.sig[body_close]);
                            for mask in &mut ctx.test_mask[from..=to] {
                                *mask = true;
                            }
                        }
                        break;
                    }
                    if text == ";" {
                        break; // out-of-line module
                    }
                    q += 1;
                }
            }
            p = close + 1;
            continue;
        }
        p += 1;
    }
}

fn parse_suppressions(ctx: &FileContext<'_>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in &ctx.tokens {
        // Only plain `//`/`/*` comments direct the linter; doc comments
        // merely *describe* the syntax (as this crate's own docs do).
        if !matches!(t.kind, TokenKind::Comment { doc: false, .. }) {
            continue;
        }
        let text = t.text(ctx.src);
        for (needle, file_wide) in [("lint:allow-file(", true), ("lint:allow(", false)] {
            let Some(at) = text.find(needle) else { continue };
            // `lint:allow-file(` also contains `lint:allow` as a prefix of
            // its text but not of the needle with `(`, so the two needles
            // are disjoint matches.
            let after = &text[at + needle.len()..];
            let Some(close) = after.find(')') else { continue };
            let rules: Vec<String> = after[..close]
                .split(',')
                .map(|r| r.trim().to_owned())
                .filter(|r| !r.is_empty())
                .collect();
            let reason = after[close + 1..].trim();
            out.push(Suppression {
                rules,
                has_reason: !reason.is_empty(),
                file_wide,
                line: t.line,
                col: t.col,
            });
            break;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn rule_no_panic_hot_path(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_crate(HOT_PATH_CRATES) {
        return;
    }
    for p in 0..ctx.sig.len() {
        if ctx.sig_is_test(p) {
            continue;
        }
        let text = ctx.sig_text(p);
        let tok = *ctx.sig_token(p);
        match text {
            "unwrap" | "expect" => {
                let after_dot = p > 0 && ctx.sig_token(p - 1).is_punct(ctx.src, '.');
                let called =
                    p + 1 < ctx.sig.len() && ctx.sig_token(p + 1).is_punct(ctx.src, '(');
                if after_dot && called {
                    out.push(ctx.finding(
                        &tok,
                        "no-panic-hot-path",
                        format!(
                            ".{text}() can panic a {} worker; return a typed error or \
                             document the invariant with lint:allow",
                            ctx.crate_name.as_deref().unwrap_or("hot-path")
                        ),
                    ));
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if p + 1 < ctx.sig.len() && ctx.sig_token(p + 1).is_punct(ctx.src, '!') =>
            {
                out.push(ctx.finding(
                    &tok,
                    "no-panic-hot-path",
                    format!("{text}! aborts the request; hot paths must degrade, not die"),
                ));
            }
            "[" if p > 0 => {
                let prev = ctx.sig_token(p - 1);
                let prev_text = prev.text(ctx.src);
                let indexes = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev_text),
                    TokenKind::Punct => prev_text == ")" || prev_text == "]",
                    _ => false,
                };
                if indexes {
                    out.push(ctx.finding(
                        &tok,
                        "no-panic-hot-path",
                        format!(
                            "indexing `{prev_text}[…]` panics when out of bounds; use \
                             .get()/.get_mut() or document the bound with lint:allow"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

fn rule_no_wallclock(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_crate(DETERMINISM_CRATES) {
        return;
    }
    for p in 0..ctx.sig.len().saturating_sub(3) {
        if ctx.sig_is_test(p) {
            continue;
        }
        let clock = ctx.sig_text(p);
        if (clock == "Instant" || clock == "SystemTime")
            && ctx.sig_token(p + 1).is_punct(ctx.src, ':')
            && ctx.sig_token(p + 2).is_punct(ctx.src, ':')
            && ctx.sig_token(p + 3).is_ident(ctx.src, "now")
        {
            out.push(ctx.finding(
                ctx.sig_token(p),
                "no-wallclock-determinism",
                format!(
                    "{clock}::now() in a determinism layer: results must be reproducible \
                     and cache keys stable; derive times from the data instead"
                ),
            ));
        }
    }
}

fn rule_no_unbounded_channel(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_crate(CHANNEL_CRATES) {
        return;
    }
    for p in 0..ctx.sig.len().saturating_sub(3) {
        if ctx.sig_is_test(p) {
            continue;
        }
        if ctx.sig_token(p).is_ident(ctx.src, "mpsc")
            && ctx.sig_token(p + 1).is_punct(ctx.src, ':')
            && ctx.sig_token(p + 2).is_punct(ctx.src, ':')
            && ctx.sig_token(p + 3).is_ident(ctx.src, "channel")
        {
            out.push(ctx.finding(
                ctx.sig_token(p),
                "no-unbounded-channel",
                "mpsc::channel() is unbounded — overload becomes unbounded memory; \
                 use mpsc::sync_channel (or the bounded WorkerPool queue)"
                    .to_owned(),
            ));
        }
    }
}

/// Request-fed queues must be bounded: an ingest or job queue that grows
/// without a capacity check turns overload into unbounded memory instead
/// of explicit backpressure (429 + `Retry-After`, or the acceptor's 503).
/// The rule flags every `.push_back(` call site in par/serve production
/// code; the audited sites — where a capacity check demonstrably guards
/// the push — carry a `lint:allow` with the reason.
fn rule_no_unbounded_ingest_buffer(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_crate(CHANNEL_CRATES) {
        return;
    }
    for p in 0..ctx.sig.len() {
        if ctx.sig_is_test(p) {
            continue;
        }
        if !ctx.sig_token(p).is_ident(ctx.src, "push_back") {
            continue;
        }
        let after_dot = p > 0 && ctx.sig_token(p - 1).is_punct(ctx.src, '.');
        let called = p + 1 < ctx.sig.len() && ctx.sig_token(p + 1).is_punct(ctx.src, '(');
        if after_dot && called {
            out.push(ctx.finding(
                ctx.sig_token(p),
                "no-unbounded-ingest-buffer",
                "`.push_back(…)` grows a request-fed queue — check a capacity bound and \
                 shed with explicit backpressure (429/503 + Retry-After), then document \
                 the audited site with lint:allow"
                    .to_owned(),
            ));
        }
    }
}

fn rule_lock_across_submit(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_crate(LOCK_CRATES) {
        return;
    }
    // Statements delimited by `;`, `{`, `}` over significant tokens. A
    // `.lock()`/`.write()` (no-arg call: a guard acquisition) followed in
    // the same statement by `try_submit(`/`.send(` holds the guard across
    // a queue handoff — the std-thread analogue of holding a lock across
    // an await point.
    let mut stmt_start = 0usize;
    for p in 0..ctx.sig.len() {
        let text = ctx.sig_text(p);
        if text == ";" || text == "{" || text == "}" {
            check_stmt_lock(ctx, stmt_start, p, out);
            stmt_start = p + 1;
        }
    }
    check_stmt_lock(ctx, stmt_start, ctx.sig.len(), out);
}

fn check_stmt_lock(
    ctx: &FileContext<'_>,
    from: usize,
    to: usize,
    out: &mut Vec<Finding>,
) {
    let mut guard_at: Option<usize> = None;
    for p in from..to {
        if ctx.sig_is_test(p) {
            return;
        }
        let text = ctx.sig_text(p);
        let after_dot = p > 0 && ctx.sig_token(p - 1).is_punct(ctx.src, '.');
        let empty_call = p + 2 < ctx.sig.len()
            && ctx.sig_token(p + 1).is_punct(ctx.src, '(')
            && ctx.sig_token(p + 2).is_punct(ctx.src, ')');
        if (text == "lock" || text == "write") && after_dot && empty_call {
            guard_at = Some(p);
        }
        let is_send = text == "send" && after_dot;
        let is_submit = text == "try_submit" || text == "submit";
        if (is_send || is_submit)
            && p + 1 < ctx.sig.len()
            && ctx.sig_token(p + 1).is_punct(ctx.src, '(')
        {
            if let Some(g) = guard_at {
                out.push(ctx.finding(
                    ctx.sig_token(p),
                    "lock-across-await-point-analog",
                    format!(
                        "`.{}()` guard acquired at {}:{} is still live across this \
                         `{text}` — drop the guard before handing work to the queue",
                        ctx.sig_text(g),
                        ctx.sig_token(g).line,
                        ctx.sig_token(g).col,
                    ),
                ));
            }
        }
    }
}

fn rule_no_silent_truncation(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_crate(TRUNCATION_CRATES) {
        return;
    }
    for p in 0..ctx.sig.len().saturating_sub(1) {
        if ctx.sig_is_test(p) {
            continue;
        }
        if !ctx.sig_token(p).is_ident(ctx.src, "as") {
            continue;
        }
        let target = ctx.sig_text(p + 1);
        if NARROW_TARGETS.contains(&target) {
            out.push(ctx.finding(
                ctx.sig_token(p),
                "no-silent-truncation",
                format!(
                    "`as {target}` silently truncates; use {target}::try_from with a \
                     typed error, or state why the value fits with lint:allow"
                ),
            ));
        }
    }
}

fn rule_budget_enforced_alloc(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    // The automaton execution files get the stricter temporal-hot-loop
    // arm (which subsumes the decode arm's `to_vec` check); every other
    // query/analytics file keeps the decode-loop arm. The analytics
    // dimension pass consumes frozen bitmaps the same way the planner
    // does, so it inherits the decode-loop arm verbatim.
    if ctx.path.ends_with("query/src/temporal.rs") || ctx.path.ends_with("regex/src/engine.rs") {
        budget_alloc_temporal_hot_loops(ctx, out);
    } else if ctx.path.contains("query/src/") || ctx.path.contains("analytics/src/") {
        budget_alloc_query_decode_loops(ctx, out);
    }
    if !ctx.path.ends_with("serve/src/http.rs") {
        return;
    }
    // Identifiers that signal the argument was clamped against a budget.
    const CLAMP_MARKERS: &[&str] =
        &["min", "clamp", "limits", "max_head_bytes", "max_body_bytes", "capacity"];
    for p in 0..ctx.sig.len() {
        if ctx.sig_is_test(p) {
            continue;
        }
        let text = ctx.sig_text(p);
        if text != "with_capacity" && text != "read_to_end" {
            continue;
        }
        let Some(open) = (p + 1 < ctx.sig.len())
            .then(|| p + 1)
            .filter(|&q| ctx.sig_token(q).is_punct(ctx.src, '('))
        else {
            continue;
        };
        let Some(close) = ctx.pair[open] else { continue };
        let args: Vec<usize> = (open + 1..close).collect();
        let all_literal = args.iter().all(|&q| {
            matches!(ctx.sig_token(q).kind, TokenKind::Number | TokenKind::Punct)
        });
        let clamped = args.iter().any(|&q| CLAMP_MARKERS.contains(&ctx.sig_text(q)));
        if !all_literal && !clamped {
            out.push(ctx.finding(
                ctx.sig_token(p),
                "budget-enforced-alloc",
                format!(
                    "`{text}` sized by a request-derived value with no adjacent budget \
                     clamp — bound it (e.g. `.min(limits.max_…)`) so a hostile request \
                     cannot size the allocation"
                ),
            ));
        }
    }
}

/// The query-crate arm of `budget-enforced-alloc`: decoding a compressed
/// posting bitmap to `Vec<u32>` (`to_vec`) inside a loop body defeats
/// the compression the planner's latency budget rests on — set algebra
/// must stay in container space (intersect/union/complement), with at
/// most one decode hoisted after the loop.
/// Sig-token ranges of loop bodies: `for … in … {…}`, `while … {…}`,
/// `loop {…}` (`impl Trait for Type` and `for<'a>` bounds are excluded
/// — a `for` loop header always carries `in` before its brace).
fn loop_body_ranges(ctx: &FileContext<'_>) -> Vec<(usize, usize)> {
    let mut bodies: Vec<(usize, usize)> = Vec::new();
    for p in 0..ctx.sig.len() {
        let kw = ctx.sig_text(p);
        if kw != "for" && kw != "while" && kw != "loop" {
            continue;
        }
        let mut saw_in = false;
        let mut open = None;
        for q in p + 1..ctx.sig.len() {
            let t = ctx.sig_token(q);
            if t.is_punct(ctx.src, ';') || t.is_punct(ctx.src, '}') {
                break;
            }
            if t.is_punct(ctx.src, '{') {
                open = Some(q);
                break;
            }
            if ctx.sig_text(q) == "in" {
                saw_in = true;
            }
        }
        if kw == "for" && !saw_in {
            continue;
        }
        let Some(open) = open else { continue };
        let Some(close) = ctx.pair[open] else { continue };
        bodies.push((open, close));
    }
    bodies
}

fn budget_alloc_query_decode_loops(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let bodies = loop_body_ranges(ctx);
    for p in 0..ctx.sig.len() {
        if ctx.sig_is_test(p) || ctx.sig_text(p) != "to_vec" {
            continue;
        }
        // The definition (`pub fn to_vec`) is not a call site.
        if p > 0 && ctx.sig_text(p - 1) == "fn" {
            continue;
        }
        if bodies.iter().any(|&(open, close)| open < p && p < close) {
            out.push(ctx.finding(
                ctx.sig_token(p),
                "budget-enforced-alloc",
                "`to_vec` decodes a full compressed bitmap inside a loop — keep the \
                 set algebra in container space (intersect/union/complement) and \
                 hoist a single decode out of the loop"
                    .to_owned(),
            ));
        }
    }
}

/// The temporal-hot-loop arm of `budget-enforced-alloc`, applied to the
/// automaton execution files (`regex/src/engine.rs`,
/// `query/src/temporal.rs`): the VM's per-token loops run once per entry
/// per history across the whole cohort, so a Vec allocation inside them
/// (`Vec::new`, `vec![…]`, `with_capacity`, `to_vec`) multiplies into
/// millions of allocator calls per selection. Both files own pooled
/// scratch (recycled saves buffers, thread-local `Scratch`) — loop
/// bodies must draw from the pool instead.
fn budget_alloc_temporal_hot_loops(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let bodies = loop_body_ranges(ctx);
    for p in 0..ctx.sig.len() {
        if ctx.sig_is_test(p) {
            continue;
        }
        let text = ctx.sig_text(p);
        let alloc: &str = match text {
            // The definition (`pub fn to_vec`) is not a call site.
            "with_capacity" | "to_vec" if p == 0 || ctx.sig_text(p - 1) != "fn" => text,
            // `Vec::new()` — walk back over the `::` puncts.
            "new" => {
                let mut q = p;
                while q > 0 && ctx.sig_token(q - 1).is_punct(ctx.src, ':') {
                    q -= 1;
                }
                if q < p && q > 0 && ctx.sig_text(q - 1) == "Vec" {
                    "Vec::new"
                } else {
                    continue;
                }
            }
            // The `vec![…]` macro.
            "vec" if p + 1 < ctx.sig.len() && ctx.sig_token(p + 1).is_punct(ctx.src, '!') => {
                "vec!"
            }
            _ => continue,
        };
        if bodies.iter().any(|&(open, close)| open < p && p < close) {
            out.push(ctx.finding(
                ctx.sig_token(p),
                "budget-enforced-alloc",
                format!(
                    "`{alloc}` allocates inside an automaton execution loop that runs \
                     per entry per history — draw from the pooled scratch (recycle \
                     saves buffers / thread-local Scratch) instead of allocating"
                ),
            ));
        }
    }
}

/// `.lock()`/`.read()`/`.write()` immediately followed by `.unwrap()`:
/// a poisoned lock (some other thread panicked while holding it) takes
/// this thread down too. The repo-wide idiom is
/// `.unwrap_or_else(|e| e.into_inner())` — the protected data is still
/// there, and the `/__fault/cache-poison` path proves recovery works.
fn rule_no_unwrap_on_lock(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for p in 0..ctx.sig.len() {
        if ctx.sig_is_test(p) {
            continue;
        }
        let text = ctx.sig_text(p);
        if !matches!(text, "lock" | "read" | "write") {
            continue;
        }
        // `.lock() . unwrap (` — the acquisition must be a no-arg method
        // call (a guard), and unwrap must be chained directly onto it.
        let after_dot = p > 0 && ctx.sig_token(p - 1).is_punct(ctx.src, '.');
        let acquires = after_dot
            && p + 2 < ctx.sig.len()
            && ctx.sig_token(p + 1).is_punct(ctx.src, '(')
            && ctx.sig_token(p + 2).is_punct(ctx.src, ')');
        if !acquires {
            continue;
        }
        let unwraps = p + 5 < ctx.sig.len()
            && ctx.sig_token(p + 3).is_punct(ctx.src, '.')
            && ctx.sig_token(p + 4).is_ident(ctx.src, "unwrap")
            && ctx.sig_token(p + 5).is_punct(ctx.src, '(');
        if unwraps {
            out.push(ctx.finding(
                ctx.sig_token(p + 4),
                "no-unwrap-on-lock",
                format!(
                    "`.{text}().unwrap()` dies on a poisoned lock; recover the data with \
                     `.unwrap_or_else(|e| e.into_inner())`"
                ),
            ));
        }
    }
}

fn rule_test_file_hygiene(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.whole_file_test || ctx.crate_name.is_none() || !ctx.path.contains("/src/") {
        return;
    }
    if ctx.line_count <= HYGIENE_LINE_LIMIT || ctx.crate_has_proptests {
        return;
    }
    let has_inline_tests = ctx.test_mask.iter().any(|&m| m);
    if !has_inline_tests {
        let anchor = Token { kind: TokenKind::Punct, start: 0, end: 0, line: 1, col: 1 };
        out.push(ctx.finding(
            &anchor,
            "test-file-hygiene",
            format!(
                "{} lines with no #[cfg(test)] block and no crate proptests.rs — \
                 modules this size need machine-checked behaviour",
                ctx.line_count
            ),
        ));
    }
}

fn rule_pub_fn_docs(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.path.ends_with("/lib.rs") || ctx.whole_file_test {
        return;
    }
    for p in 0..ctx.sig.len() {
        if ctx.sig_is_test(p) || !ctx.sig_token(p).is_ident(ctx.src, "pub") {
            continue;
        }
        // pub [(crate|super|in …)] [const] [unsafe] [extern "…"] fn name
        let mut q = p + 1;
        if q < ctx.sig.len() && ctx.sig_token(q).is_punct(ctx.src, '(') {
            match ctx.pair[q] {
                Some(close) => q = close + 1,
                None => continue,
            }
        }
        while q < ctx.sig.len()
            && matches!(ctx.sig_text(q), "const" | "unsafe" | "async" | "extern")
        {
            q += 1;
            if ctx.sig_token(q.saturating_sub(1)).is_ident(ctx.src, "extern")
                && q < ctx.sig.len()
                && ctx.sig_token(q).kind == TokenKind::Str
            {
                q += 1;
            }
        }
        if q >= ctx.sig.len() || !ctx.sig_token(q).is_ident(ctx.src, "fn") {
            continue;
        }
        let name =
            if q + 1 < ctx.sig.len() { ctx.sig_text(q + 1) } else { "<anonymous>" };
        if !has_doc_before(ctx, p) {
            out.push(ctx.finding(
                ctx.sig_token(p),
                "pub-fn-docs",
                format!("pub fn {name} in a crate root has no doc comment"),
            ));
        }
    }
}

/// Walk back from the `pub` at significant position `p`, skipping
/// attributes and plain comments, looking for a doc comment.
fn has_doc_before(ctx: &FileContext<'_>, p: usize) -> bool {
    // Work in full-token space so comments are visible.
    let mut ti = ctx.sig[p];
    loop {
        if ti == 0 {
            return false;
        }
        ti -= 1;
        match ctx.tokens[ti].kind {
            TokenKind::Comment { doc, .. } => {
                if doc {
                    return true;
                }
                // plain comment: keep walking
            }
            TokenKind::Punct if ctx.tokens[ti].text(ctx.src) == "]" => {
                // Possibly the end of an attribute: find its `[` partner
                // via the significant-space pair table.
                let Some(sp) = ctx.sig.iter().position(|&x| x == ti) else { return false };
                let Some(open) = ctx.pair[sp] else { return false };
                let open_ti = ctx.sig[open];
                if open_ti == 0 {
                    return false;
                }
                // Expect `#` (or `#!`) right before the `[`.
                let before = &ctx.tokens[open_ti - 1];
                if before.text(ctx.src) == "#" {
                    ti = open_ti - 1;
                } else if before.text(ctx.src) == "!"
                    && open_ti >= 2
                    && ctx.tokens[open_ti - 2].text(ctx.src) == "#"
                {
                    ti = open_ti - 2;
                } else {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Run every applicable rule over one file and apply suppressions.
pub fn check_file(path: &str, src: &str, options: CheckOptions) -> Vec<Finding> {
    let ctx = FileContext::new(path, src, options);
    check_file_ctx(&ctx)
}

/// Same as [`check_file`] over an already-built context, so callers that
/// also parse the file (the flow pipeline) lex only once.
pub fn check_file_ctx(ctx: &FileContext<'_>) -> Vec<Finding> {
    let path = ctx.path;
    let mut raw = Vec::new();
    rule_no_panic_hot_path(ctx, &mut raw);
    rule_no_wallclock(ctx, &mut raw);
    rule_no_unbounded_channel(ctx, &mut raw);
    rule_no_unbounded_ingest_buffer(ctx, &mut raw);
    rule_lock_across_submit(ctx, &mut raw);
    rule_no_silent_truncation(ctx, &mut raw);
    rule_budget_enforced_alloc(ctx, &mut raw);
    rule_no_unwrap_on_lock(ctx, &mut raw);
    rule_test_file_hygiene(ctx, &mut raw);
    rule_pub_fn_docs(ctx, &mut raw);

    // Suppression pass. A line-scoped `lint:allow` covers findings on its
    // own line and the line below (comment-above style).
    let mut by_line: HashMap<(u32, &str), bool> = HashMap::new();
    let mut file_wide: HashMap<&str, bool> = HashMap::new();
    let mut out = Vec::new();
    for s in &ctx.suppressions {
        if !s.has_reason {
            out.push(Finding {
                path: path.to_owned(),
                line: s.line,
                col: s.col,
                rule: "suppression-needs-reason",
                message: "lint:allow without a reason — state why the rule is safe to \
                          break here"
                    .to_owned(),
            });
        }
        for rule in &s.rules {
            let known = RULES.iter().any(|(id, _)| id == rule);
            if !known {
                out.push(Finding {
                    path: path.to_owned(),
                    line: s.line,
                    col: s.col,
                    rule: "suppression-needs-reason",
                    message: format!("lint:allow names unknown rule {rule:?}"),
                });
                continue;
            }
            if s.file_wide {
                file_wide.insert(rule_id(rule), true);
            } else {
                by_line.insert((s.line, rule_id(rule)), true);
                by_line.insert((s.line + 1, rule_id(rule)), true);
            }
        }
    }
    for f in raw {
        let suppressed = f.rule != "suppression-needs-reason"
            && (file_wide.contains_key(f.rule) || by_line.contains_key(&(f.line, f.rule)));
        if !suppressed {
            out.push(f);
        }
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Map a user-supplied rule name to the interned static id.
pub(crate) fn rule_id(name: &str) -> &'static str {
    RULES.iter().map(|(id, _)| *id).find(|id| *id == name).unwrap_or("unknown")
}
