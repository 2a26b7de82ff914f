//! The rule engine: repo-specific invariant rules over a token stream.
//!
//! Each rule is a pure function from a lexed file to findings. Rules
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
use std::collections::HashSet;

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
        "no-silent-truncation",
        "flag narrowing `as` casts (u8/u16/u32/i8/i16/i32) in model/serve and the query \
         parser (query/src/parse.rs)",
    ),
    (
        "budget-enforced-alloc",
        "flag request-fed with_capacity/read_to_end in serve/http.rs without a budget clamp",
    ),
    (
        "no-unwrap-on-lock",
        "forbid .lock()/.read()/.write() followed by .unwrap() in non-test code; recover \
         from poisoning with .unwrap_or_else(|e| e.into_inner())",
    ),
    ("suppression-needs-reason", "lint:allow must state a reason after the rule list"),
];

const HOT_PATH_CRATES: &[&str] = &["serve", "par", "query"];
const TRUNCATION_CRATES: &[&str] = &["model", "serve"];
/// Files outside [`TRUNCATION_CRATES`] that turn request text into numbers.
const TRUNCATION_FILES: &[&str] = &["query/src/parse.rs"];
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

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

/// Everything a rule can see about one file.
struct FileContext<'a> {
    /// Workspace-relative path, forward slashes.
    path: &'a str,
    /// The crate this file belongs to (the `<name>` of `crates/<name>/…`),
    /// without the `pastas-` prefix convention — just the directory name.
    crate_name: Option<String>,
    /// File contents.
    src: &'a str,
    /// All tokens, comments included.
    tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens.
    sig: Vec<usize>,
    /// Per-token: true when the token sits inside test code.
    test_mask: Vec<bool>,
    /// For each position `p` in `sig` holding a bracket, the position of
    /// its partner (same vector), when balanced.
    pair: Vec<Option<usize>>,
    suppressions: Vec<Suppression>,
}

impl<'a> FileContext<'a> {
    /// Lex and annotate one file.
    fn new(path: &'a str, src: &'a str) -> FileContext<'a> {
        let tokens = lex(src);
        let sig = significant(&tokens);
        let pair = match_brackets(&tokens, &sig, src);
        let file_name = path.rsplit('/').next().unwrap_or(path);
        // `tests/` dirs and `proptests.rs` modules are test code throughout.
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
            suppressions: Vec::new(),
        };
        if !whole_file_test {
            mark_test_regions(&mut ctx);
        }
        ctx.suppressions = parse_suppressions(&ctx);
        ctx
    }

    fn sig_token(&self, p: usize) -> &Token {
        &self.tokens[self.sig[p]]
    }

    fn sig_text(&self, p: usize) -> &str {
        self.sig_token(p).text(self.src)
    }

    fn sig_is_test(&self, p: usize) -> bool {
        self.test_mask[self.sig[p]]
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

fn rule_no_silent_truncation(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_crate(TRUNCATION_CRATES) && !TRUNCATION_FILES.iter().any(|f| ctx.path.ends_with(f)) {
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

/// Request-fed allocations in the HTTP parser need a budget clamp. The
/// hot loops' allocations are budgeted at run time, by
/// `crates/core/tests/alloc_budgets.rs`.
fn rule_budget_enforced_alloc(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
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

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Run every applicable rule over one file and apply suppressions.
pub fn check_file(path: &str, src: &str) -> Vec<Finding> {
    let ctx = FileContext::new(path, src);
    let mut raw = Vec::new();
    rule_no_panic_hot_path(&ctx, &mut raw);
    rule_no_silent_truncation(&ctx, &mut raw);
    rule_budget_enforced_alloc(&ctx, &mut raw);
    rule_no_unwrap_on_lock(&ctx, &mut raw);

    // Suppression pass. A line-scoped `lint:allow` covers findings on its
    // own line and the line below (comment-above style).
    let mut by_line: HashSet<(u32, &str)> = HashSet::new();
    let mut file_wide: HashSet<&str> = HashSet::new();
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
                file_wide.insert(rule);
            } else {
                by_line.insert((s.line, rule));
                by_line.insert((s.line + 1, rule));
            }
        }
    }
    for f in raw {
        let suppressed = file_wide.contains(f.rule) || by_line.contains(&(f.line, f.rule));
        if !suppressed {
            out.push(f);
        }
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}
