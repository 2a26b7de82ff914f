//! A lightweight recursive-descent parser over the lexer's token stream.
//!
//! This is *not* a Rust grammar: it recovers exactly the structure the
//! flow rules need — function items (with their impl type and parameter
//! type hints), nested blocks, call expressions with a best-effort
//! receiver chain, guard acquisitions (`.lock()` / `.read()` /
//! `.write()` with empty argument lists), `let`-bound guard names,
//! explicit `drop(guard)` calls, closures, and `spawn` closures (new
//! thread roots). Everything else is skipped without error: like the
//! lexer, the parser is **total** — any byte soup produces *some*
//! [`FileAst`], a property enforced by `src/proptests.rs`.
//!
//! Soundness caveats (documented in DESIGN.md §9): receivers are
//! resolved lexically (`self.field`, `param.field`), so a lock reached
//! through an intermediate binding can split into two identities, and a
//! call is matched to workspace functions by name with only a
//! receiver-type hint — both over- and under-approximation are possible
//! and every flow finding says which path it believes in, so a human can
//! veto it with a reasoned `lint:allow`.

use crate::lexer::TokenKind;
use crate::rules::FileContext;

/// A guard acquisition site (`.lock()`, `.read()` or `.write()`).
#[derive(Debug, Clone)]
pub struct LockNode {
    /// Lexical receiver chain (`self.inner`, `shared.state`, `<expr>`).
    pub recv: String,
    /// `let` binding name when the guard is named (`let g = x.lock()…`).
    pub bound: Option<String>,
    /// True when `.unwrap()` immediately follows the acquisition.
    pub unwrapped: bool,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// A call site (function, method, or macro).
#[derive(Debug, Clone)]
pub struct CallNode {
    /// Final path segment / method name / macro name.
    pub callee: String,
    /// Leading path segments for path calls (`thread::spawn` → `["thread"]`).
    pub path: Vec<String>,
    /// Lexical receiver chain for method calls.
    pub recv: Option<String>,
    /// True for `name!(…)` macro invocations.
    pub is_macro: bool,
    /// True when the argument list is empty.
    pub args_empty: bool,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// One node of a function body in evaluation order.
#[derive(Debug, Clone)]
pub enum Node {
    /// A guard acquisition.
    Lock(LockNode),
    /// A call site (arguments are flattened *before* this node).
    Call(CallNode),
    /// A nested block scope (`{ … }`, `if`/`match`/loop bodies).
    Block(Block),
    /// A closure body executed (at the latest) by its enclosing call.
    Closure(Block),
    /// A closure handed to `spawn` — a new thread root, not part of the
    /// enclosing function's flow.
    Spawn {
        /// The spawned closure's body.
        body: Block,
        /// 1-based line of the closure.
        line: u32,
    },
    /// `drop(name)` — an explicit guard release.
    DropGuard {
        /// The dropped binding.
        name: String,
        /// 1-based source line.
        line: u32,
    },
    /// A statement boundary (`;` or the end of a braced sub-expression):
    /// temporary (unbound) guards die here.
    StmtEnd,
}

/// A brace/paren-scoped sequence of nodes.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Child nodes in evaluation order.
    pub nodes: Vec<Node>,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The `impl`/`trait` type the function is defined on, when any.
    pub self_ty: Option<String>,
    /// Parameter name → best-effort type hint (last capitalized path
    /// segment of the declared type, e.g. `shared: &Arc<Shared>` → `Shared`).
    pub params: Vec<(String, Option<String>)>,
    /// True when the function is test code (`#[test]`/`#[cfg(test)]`
    /// regions, `tests/` files, `proptests.rs`).
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// The body, empty for bodiless trait methods.
    pub body: Block,
}

/// The per-file AST: every function item found in the file.
#[derive(Debug, Clone, Default)]
pub struct FileAst {
    /// All function items, in source order.
    pub fns: Vec<FnDef>,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let",
    "in", "as", "pub", "use", "mod", "struct", "enum", "union", "impl", "trait", "where",
    "type", "const", "static", "ref", "mut", "move", "dyn", "unsafe", "extern", "crate",
    "super", "fn", "async", "await", "box", "yield", "true", "false",
];

fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

struct Parser<'c, 'a> {
    ctx: &'c FileContext<'a>,
    /// `(open, close, type)` ranges of impl/trait bodies.
    impls: Vec<(usize, usize, String)>,
}

impl<'c, 'a> Parser<'c, 'a> {
    fn len(&self) -> usize {
        self.ctx.sig.len()
    }

    fn text(&self, p: usize) -> &str {
        self.ctx.sig_text(p)
    }

    fn kind(&self, p: usize) -> TokenKind {
        self.ctx.sig_token(p).kind
    }

    fn is_punct(&self, p: usize, c: char) -> bool {
        p < self.len() && self.ctx.sig_token(p).is_punct(self.ctx.src, c)
    }

    fn is_ident(&self, p: usize) -> bool {
        p < self.len() && self.kind(p) == TokenKind::Ident
    }

    fn line(&self, p: usize) -> u32 {
        self.ctx.sig_token(p).line
    }

    fn col(&self, p: usize) -> u32 {
        self.ctx.sig_token(p).col
    }

    /// Are significant positions `p` and `p + 1` adjacent in the source
    /// (no whitespace between)? Distinguishes `::` from `: :` and `||`
    /// from `| |` closely enough for parsing.
    fn adjacent(&self, p: usize) -> bool {
        p + 1 < self.len() && self.ctx.sig_token(p).end == self.ctx.sig_token(p + 1).start
    }

    /// `::` at position `p` (two adjacent colons).
    fn is_path_sep(&self, p: usize) -> bool {
        self.is_punct(p, ':') && self.adjacent(p) && self.is_punct(p + 1, ':')
    }

    /// Collect impl/trait body ranges so functions can learn their type.
    fn scan_impls(&mut self) {
        let mut p = 0;
        while p < self.len() {
            let kw = self.text(p);
            if kw != "impl" && kw != "trait" {
                p += 1;
                continue;
            }
            // Walk the header to the body brace, tracking the last
            // plausible type name; `for` (in `impl Trait for Type`)
            // resets it so the *implementing* type wins.
            let mut ty = String::new();
            let mut angle = 0i32;
            let mut q = p + 1;
            let mut open = None;
            while q < self.len() {
                let t = self.text(q);
                match t {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" => {
                        open = Some(q);
                        break;
                    }
                    ";" => break, // `impl Trait for Type;` — no body
                    "for" => ty.clear(),
                    "where" => {} // bounds may mention types; stop caring
                    _ if self.is_ident(q) && angle <= 0 && !is_keyword(t) => {
                        // Path segments: the last segment wins (`a::b::C` → C).
                        ty = t.to_owned();
                    }
                    _ => {}
                }
                q += 1;
            }
            if let Some(open) = open {
                if let Some(close) = self.ctx.pair[open] {
                    self.impls.push((open, close, ty));
                    p = open + 1;
                    continue;
                }
            }
            p = q + 1;
        }
    }

    fn self_ty_at(&self, p: usize) -> Option<String> {
        // Innermost enclosing impl/trait body.
        self.impls
            .iter()
            .filter(|(open, close, _)| *open < p && p < *close)
            .min_by_key(|(open, close, _)| close - open)
            .map(|(_, _, ty)| ty.clone())
            .filter(|ty| !ty.is_empty())
    }

    /// Parse one `fn` item whose `fn` keyword sits at `p`. Returns the
    /// def and the position to resume scanning from.
    fn parse_fn(&self, p: usize) -> Option<(FnDef, usize)> {
        if !self.is_ident(p + 1) || is_keyword(self.text(p + 1)) {
            return None; // `fn(..)` pointer type or soup
        }
        let name = self.text(p + 1).to_owned();
        // Skip generics to the parameter list.
        let mut q = p + 2;
        if self.is_punct(q, '<') {
            let mut depth = 0i32;
            while q < self.len() {
                if self.is_punct(q, '<') {
                    depth += 1;
                } else if self.is_punct(q, '>') {
                    depth -= 1;
                    if depth == 0 {
                        q += 1;
                        break;
                    }
                }
                q += 1;
            }
        }
        if !self.is_punct(q, '(') {
            return None;
        }
        let params_close = self.ctx.pair[q]?;
        let params = self.parse_params(q, params_close);
        // Return type / where clause, then the body (or `;`).
        let mut b = params_close + 1;
        let mut open = None;
        while b < self.len() {
            if self.is_punct(b, '{') {
                open = Some(b);
                break;
            }
            if self.is_punct(b, ';') {
                break;
            }
            b += 1;
        }
        let (body, resume) = match open.and_then(|o| self.ctx.pair[o].map(|c| (o, c))) {
            Some((o, c)) => (self.parse_span(o + 1, c, None), c + 1),
            None => (Block::default(), b + 1),
        };
        let def = FnDef {
            name,
            self_ty: self.self_ty_at(p),
            params,
            is_test: self.ctx.sig_is_test(p),
            line: self.line(p),
            col: self.col(p),
            body,
        };
        Some((def, resume))
    }

    fn parse_params(&self, open: usize, close: usize) -> Vec<(String, Option<String>)> {
        let mut out = Vec::new();
        let mut p = open + 1;
        while p < close {
            // One parameter: up to the next top-level `,`.
            let mut end = p;
            while end < close {
                if self.is_punct(end, ',') {
                    break;
                }
                // Jump over nested groups so commas inside don't split.
                if matches!(self.text(end), "(" | "[" | "{") {
                    if let Some(partner) = self.ctx.pair[end] {
                        if partner > end && partner < close {
                            end = partner;
                        }
                    }
                }
                end += 1;
            }
            // name: the first identifier that is not a binding modifier.
            let mut name = None;
            let mut colon = None;
            for q in p..end {
                let t = self.text(q);
                if self.is_punct(q, ':') && !self.is_path_sep(q) && colon.is_none() {
                    colon = Some(q);
                }
                if name.is_none()
                    && self.is_ident(q)
                    && !matches!(t, "mut" | "ref" | "self")
                    && !is_keyword(t)
                    && colon.is_none()
                {
                    name = Some(t.to_owned());
                }
            }
            if let (Some(name), Some(colon)) = (name, colon) {
                // Type hint: the last capitalized identifier of the type.
                let mut hint = None;
                for q in colon + 1..end {
                    let t = self.text(q);
                    if self.is_ident(q)
                        && t.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                        && !matches!(t, "Arc" | "Box" | "Rc" | "Option" | "Vec" | "Mutex" | "RwLock")
                    {
                        hint = Some(t.to_owned());
                    }
                }
                out.push((name, hint));
            }
            p = end + 1;
        }
        out
    }

    /// Parse the token span `[lo, hi)` into a block. `enclosing_call` is
    /// the callee name whose argument list this span is, used to classify
    /// closures handed to `spawn`.
    fn parse_span(&self, lo: usize, hi: usize, enclosing_call: Option<&str>) -> Block {
        let mut nodes = Vec::new();
        let mut pending_let: Option<String> = None;
        let mut p = lo;
        while p < hi && p < self.len() {
            let text = self.text(p);
            // Nested fn items do not execute here; skip their bodies.
            if text == "fn" && self.is_ident(p + 1) && !is_keyword(self.text(p + 1)) {
                if let Some((_, resume)) = self.parse_fn(p) {
                    p = resume;
                    continue;
                }
            }
            if self.is_punct(p, ';') {
                nodes.push(Node::StmtEnd);
                pending_let = None;
                p += 1;
                continue;
            }
            if self.is_punct(p, '{') {
                if let Some(close) = self.ctx.pair[p] {
                    nodes.push(Node::Block(self.parse_span(p + 1, close, None)));
                    nodes.push(Node::StmtEnd);
                    pending_let = None;
                    p = close + 1;
                    continue;
                }
            }
            if text == "let" {
                // `let [mut] name = …` — capture the binding name; tuple
                // and struct patterns yield no name (guards stay temporary).
                let mut q = p + 1;
                if q < self.len() && self.text(q) == "mut" {
                    q += 1;
                }
                if self.is_ident(q) && !is_keyword(self.text(q)) && self.is_punct(q + 1, '=')
                {
                    pending_let = Some(self.text(q).to_owned());
                } else {
                    pending_let = None;
                }
                p = q;
                continue;
            }
            if text == "drop"
                && self.is_punct(p + 1, '(')
                && self.is_ident(p + 2)
                && self.is_punct(p + 3, ')')
            {
                nodes.push(Node::DropGuard {
                    name: self.text(p + 2).to_owned(),
                    line: self.line(p),
                });
                p += 4;
                continue;
            }
            if self.is_punct(p, '|') && self.closure_starts(lo, p) {
                if let Some((body_lo, body_hi, resume)) = self.closure_body(p, hi) {
                    let body = self.parse_span(body_lo, body_hi, None);
                    let node = if enclosing_call == Some("spawn") {
                        Node::Spawn { body, line: self.line(p) }
                    } else {
                        Node::Closure(body)
                    };
                    nodes.push(node);
                    p = resume;
                    continue;
                }
            }
            if self.is_ident(p) && !is_keyword(text) {
                if let Some(next) = self.parse_callish(p, &mut nodes, &mut pending_let) {
                    p = next;
                    continue;
                }
            }
            p += 1;
        }
        Block { nodes }
    }

    /// Does a `|` at `p` start a closure (vs. a binary/pattern or)?
    fn closure_starts(&self, lo: usize, p: usize) -> bool {
        if p == lo {
            return true; // first token of an argument span
        }
        matches!(self.text(p - 1), "(" | "," | "=" | "{" | ";" | "move" | "return" | "else")
    }

    /// Locate a closure's body span: `(body_lo, body_hi, resume)`.
    fn closure_body(&self, bar: usize, hi: usize) -> Option<(usize, usize, usize)> {
        // Parameters: `||` (adjacent bars) or `|…|`.
        let params_end = if self.adjacent(bar) && self.is_punct(bar + 1, '|') {
            bar + 1
        } else {
            let mut q = bar + 1;
            loop {
                if q >= hi || q >= self.len() {
                    return None;
                }
                if self.is_punct(q, '|') {
                    break q;
                }
                // Jump nested groups inside parameter types.
                if matches!(self.text(q), "(" | "[" | "{") {
                    if let Some(partner) = self.ctx.pair[q] {
                        if partner > q {
                            q = partner;
                        }
                    }
                }
                q += 1;
            }
        };
        let body_start = params_end + 1;
        if body_start >= hi {
            return Some((body_start, body_start, body_start));
        }
        if self.is_punct(body_start, '{') {
            let close = self.ctx.pair[body_start]?;
            return Some((body_start + 1, close.min(hi), close + 1));
        }
        // Expression body: runs to the next top-level `,` or span end.
        let mut q = body_start;
        while q < hi && q < self.len() {
            if self.is_punct(q, ',') {
                break;
            }
            if matches!(self.text(q), "(" | "[" | "{") {
                if let Some(partner) = self.ctx.pair[q] {
                    if partner > q && partner < hi {
                        q = partner;
                    } else {
                        break;
                    }
                }
            }
            q += 1;
        }
        Some((body_start, q.min(hi), q.min(hi)))
    }

    /// Parse a call-ish construct starting at identifier `p`: a path call,
    /// macro invocation, method call, or guard acquisition. Appends nodes
    /// and returns the resume position, or `None` when `p` is a plain
    /// identifier.
    fn parse_callish(
        &self,
        p: usize,
        nodes: &mut Vec<Node>,
        pending_let: &mut Option<String>,
    ) -> Option<usize> {
        let after_dot = p > 0 && self.is_punct(p - 1, '.');
        if after_dot {
            return self.parse_method(p, nodes, pending_let);
        }
        // Path: ident (:: ident)*.
        let mut path = vec![self.text(p).to_owned()];
        let mut q = p + 1;
        while self.is_path_sep(q) && self.is_ident(q + 2) && !is_keyword(self.text(q + 2)) {
            path.push(self.text(q + 2).to_owned());
            q += 3;
        }
        // Turbofish `::<…>`.
        if self.is_path_sep(q) && self.is_punct(q + 2, '<') {
            let mut depth = 0i32;
            let mut r = q + 2;
            while r < self.len() {
                if self.is_punct(r, '<') {
                    depth += 1;
                } else if self.is_punct(r, '>') {
                    depth -= 1;
                    if depth == 0 {
                        r += 1;
                        break;
                    }
                }
                r += 1;
            }
            q = r;
        }
        // Macro `name!(…)` / `name![…]` / `name!{…}`.
        if path.len() == 1
            && self.is_punct(q, '!')
            && q + 1 < self.len()
            && matches!(self.text(q + 1), "(" | "[" | "{")
        {
            let open = q + 1;
            let close = self.ctx.pair[open].unwrap_or(open);
            let callee = path.pop().unwrap_or_default();
            let line = self.line(p);
            let col = self.col(p);
            let inner = self.parse_span(open + 1, close, None);
            nodes.extend(inner.nodes);
            nodes.push(Node::Call(CallNode {
                callee,
                path: Vec::new(),
                recv: None,
                is_macro: true,
                args_empty: close == open + 1,
                line,
                col,
            }));
            return Some(close + 1);
        }
        if !self.is_punct(q, '(') {
            // Plain identifier/path — consume the path tokens.
            return if q > p + 1 { Some(q) } else { None };
        }
        let open = q;
        let close = self.ctx.pair[open].unwrap_or(open);
        let callee = path.pop().unwrap_or_default();
        let line = self.line(p);
        let col = self.col(p);
        let inner = self.parse_span(open + 1, close, Some(&callee));
        nodes.extend(inner.nodes);
        nodes.push(Node::Call(CallNode {
            callee,
            path,
            recv: None,
            is_macro: false,
            args_empty: close == open + 1,
            line,
            col,
        }));
        Some(close + 1)
    }

    fn parse_method(
        &self,
        p: usize,
        nodes: &mut Vec<Node>,
        pending_let: &mut Option<String>,
    ) -> Option<usize> {
        if !self.is_punct(p + 1, '(') {
            return None; // field access / `.await`-style postfix
        }
        let open = p + 1;
        let close = self.ctx.pair[open].unwrap_or(open);
        let name = self.text(p);
        let recv = self.receiver_chain(p - 1);
        let line = self.line(p);
        let col = self.col(p);
        let empty = close == open + 1;
        if empty && matches!(name, "lock" | "read" | "write") {
            // `.unwrap()` directly chained onto the acquisition?
            let unwrapped = self.is_punct(close + 1, '.')
                && close + 2 < self.len()
                && self.text(close + 2) == "unwrap"
                && self.is_punct(close + 3, '(')
                && self.is_punct(close + 4, ')');
            nodes.push(Node::Lock(LockNode {
                recv,
                bound: pending_let.take(),
                unwrapped,
                line,
                col,
            }));
            return Some(close + 1);
        }
        let inner = self.parse_span(open + 1, close, Some(name));
        nodes.extend(inner.nodes);
        nodes.push(Node::Call(CallNode {
            callee: name.to_owned(),
            path: Vec::new(),
            recv: Some(recv),
            is_macro: false,
            args_empty: empty,
            line,
            col,
        }));
        Some(close + 1)
    }

    /// Walk back from the `.` at `dot` to build the lexical receiver
    /// chain: `self.inner`, `shared.state`, or `<expr>` when the chain
    /// starts at a call/index result.
    fn receiver_chain(&self, dot: usize) -> String {
        let mut segs: Vec<String> = Vec::new();
        let mut p = dot;
        loop {
            if p == 0 {
                break;
            }
            let prev = p - 1;
            if self.is_ident(prev) && !is_keyword(self.text(prev)) || self.text(prev) == "self" {
                segs.push(self.text(prev).to_owned());
                if prev >= 2 && self.is_punct(prev - 1, '.') {
                    p = prev - 1;
                    continue;
                }
                break;
            }
            if self.is_punct(prev, ')') || self.is_punct(prev, ']') {
                segs.push("<expr>".to_owned());
            }
            break;
        }
        segs.reverse();
        segs.join(".")
    }
}

/// Parse one file's functions out of an annotated [`FileContext`].
pub fn parse_file(ctx: &FileContext<'_>) -> FileAst {
    let mut parser = Parser { ctx, impls: Vec::new() };
    parser.scan_impls();
    let mut fns = Vec::new();
    let mut p = 0;
    while p < parser.len() {
        if parser.text(p) == "fn" {
            if let Some((def, _resume)) = parser.parse_fn(p) {
                fns.push(def);
                // Do not jump past the body: nested fns inside get their
                // own defs from the same linear scan.
            }
        }
        p += 1;
    }
    FileAst { fns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{CheckOptions, FileContext};

    fn ast(src: &str) -> FileAst {
        let ctx = FileContext::new("crates/serve/src/t.rs", src, CheckOptions::default());
        parse_file(&ctx)
    }

    fn flat<'b>(block: &'b Block, out: &mut Vec<&'b Node>) {
        for n in &block.nodes {
            out.push(n);
            match n {
                Node::Block(b) | Node::Closure(b) => flat(b, out),
                Node::Spawn { body, .. } => flat(body, out),
                _ => {}
            }
        }
    }

    fn nodes(def: &FnDef) -> Vec<&Node> {
        let mut out = Vec::new();
        flat(&def.body, &mut out);
        out
    }

    #[test]
    fn fn_names_impl_types_and_params() {
        let a = ast(
            "impl Cache { fn get(&self, key: &str) -> u32 { 0 } }\n\
             fn submit(shared: &Arc<Shared>, n: usize) {}\n",
        );
        assert_eq!(a.fns.len(), 2);
        assert_eq!(a.fns[0].name, "get");
        assert_eq!(a.fns[0].self_ty.as_deref(), Some("Cache"));
        assert_eq!(a.fns[1].name, "submit");
        assert_eq!(a.fns[1].self_ty, None);
        assert_eq!(
            a.fns[1].params,
            vec![("shared".into(), Some("Shared".into())), ("n".into(), None)]
        );
    }

    #[test]
    fn trait_impl_for_takes_the_implementing_type() {
        let a = ast("impl Drop for Pool { fn drop(&mut self) { self.state.lock(); } }");
        assert_eq!(a.fns[0].self_ty.as_deref(), Some("Pool"));
    }

    #[test]
    fn locks_capture_receiver_binding_and_unwrap() {
        let a = ast(
            "impl Q { fn f(&self) {\n\
               let mut inner = self.inner.lock().unwrap();\n\
               self.other.read();\n\
               drop(inner);\n\
             } }",
        );
        let ns = nodes(&a.fns[0]);
        let locks: Vec<&LockNode> = ns
            .iter()
            .filter_map(|n| match n {
                Node::Lock(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(locks.len(), 2);
        assert_eq!(locks[0].recv, "self.inner");
        assert_eq!(locks[0].bound.as_deref(), Some("inner"));
        assert!(locks[0].unwrapped);
        assert_eq!(locks[1].recv, "self.other");
        assert_eq!(locks[1].bound, None);
        assert!(ns.iter().any(|n| matches!(n, Node::DropGuard { name, .. } if name == "inner")));
    }

    #[test]
    fn calls_paths_macros_and_spawns() {
        let a = ast(
            "fn main() {\n\
               let h = thread::spawn(move || { work(); });\n\
               helper(1);\n\
               panic!(\"boom\");\n\
               h.join();\n\
             }",
        );
        let ns = nodes(&a.fns[0]);
        assert!(ns.iter().any(|n| matches!(n, Node::Spawn { .. })));
        assert!(ns.iter().any(
            |n| matches!(n, Node::Call(c) if c.callee == "spawn" && c.path == ["thread"])
        ));
        assert!(ns
            .iter()
            .any(|n| matches!(n, Node::Call(c) if c.callee == "panic" && c.is_macro)));
        assert!(ns.iter().any(
            |n| matches!(n, Node::Call(c) if c.callee == "join" && c.recv.as_deref() == Some("h"))
        ));
        // `work()` lives inside the spawn body, which we also flattened.
        assert!(ns.iter().any(|n| matches!(n, Node::Call(c) if c.callee == "work")));
    }

    #[test]
    fn nested_fn_bodies_do_not_leak_into_the_outer_flow() {
        let a = ast("fn outer() { fn inner() { a.lock(); } other(); }");
        assert_eq!(a.fns.len(), 2);
        let outer = a.fns.iter().find(|f| f.name == "outer").unwrap();
        let ns = nodes(outer);
        assert!(
            !ns.iter().any(|n| matches!(n, Node::Lock(_))),
            "inner's lock is not outer's"
        );
        assert!(ns.iter().any(|n| matches!(n, Node::Call(c) if c.callee == "other")));
    }

    #[test]
    fn total_on_soup() {
        for src in ["fn", "fn f(", "impl {", "fn f() { a.lock(", "|x|", "fn f() { *x = ", "::<"] {
            let _ = ast(src);
        }
    }
}
