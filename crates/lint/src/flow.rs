//! Flow summaries and the interprocedural rules.
//!
//! Per file, [`summarize`] walks the [`parse`](crate::parse) AST with a
//! live-guard stack and boils every function down to a [`FnSummary`]:
//! which locks it acquires (and which were already held), which calls it
//! makes (and under which guards), where it can block or panic.
//!
//! Across files, [`interprocedural`] builds a call graph
//! ([`graph`](crate::graph)) over all summaries and runs three rules:
//!
//! * **lock-order-cycle** — a lock-acquisition-order graph (edges
//!   `held → acquired`, propagated through calls); any strongly
//!   connected component is a potential deadlock, reported with one
//!   acquisition path per edge of a witness cycle.
//! * **blocking-call-under-lock** — `join`/`recv`/`sleep`/blocking I/O
//!   reachable while a guard is live (`Condvar::wait*` is exempt — it
//!   releases the lock).
//! * **transitive-no-panic-hot-path** — panic sites reachable through
//!   the call graph from the serving roots, in crates the token-level
//!   rule does not already police.

use crate::parse::{Block, FileAst, Node};
use crate::rules::{FileContext, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// A guard acquisition with the guards already held at that point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acq {
    /// Canonical lock id (`crate::Type.field`).
    pub lock: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Lock ids of guards live when this one was acquired.
    pub held: Vec<String>,
}

/// A call site with its live-guard set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (method or final path segment).
    pub callee: String,
    /// Best-effort receiver type (`self` → impl type, typed param, or
    /// `Type::method` path prefix).
    pub recv_ty: Option<String>,
    /// True for `x.m()` method syntax (binds to `impl` methods only);
    /// false for `m()`/`a::m()` (prefers free functions).
    pub is_method: bool,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Lock ids of guards live at the call.
    pub held: Vec<String>,
}

/// A directly blocking operation (`join`, `recv`, `sleep`, blocking I/O).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingSite {
    /// What blocks (the method name).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Lock ids of guards live at the operation.
    pub held: Vec<String>,
}

/// A construct that can panic (`unwrap`, `expect`, `panic!`-family).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// What panics (`unwrap`, `expect`, `panic!`, …).
    pub what: String,
    /// Receiver type hint for `x.unwrap()`/`x.expect(…)` when `x` is
    /// `self` or a typed param. Lets the interprocedural pass drop sites
    /// where the workspace defines its own same-named method on that
    /// type (e.g. a `Result`-returning `Parser::expect`).
    pub recv_ty: Option<String>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Everything the interprocedural rules need to know about one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FnSummary {
    /// The crate the function lives in.
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Impl/trait type, when the fn is a method.
    pub self_ty: Option<String>,
    /// Function name; spawned-closure pseudo-functions are named
    /// `parent@spawn:<line>`.
    pub name: String,
    /// 1-based line of the `fn` keyword (or the spawn closure).
    pub line: u32,
    /// True for test code (rules report nothing inside it).
    pub is_test: bool,
    /// True for a `spawn` closure body — a separate thread role: it
    /// contributes lock-order edges but is not callable by name.
    pub is_spawn_body: bool,
    /// Guard acquisitions, in flow order.
    pub acquisitions: Vec<Acq>,
    /// Resolvable call sites, in flow order.
    pub calls: Vec<CallSite>,
    /// Directly blocking operations.
    pub blocking: Vec<BlockingSite>,
    /// Panic-capable constructs.
    pub panics: Vec<PanicSite>,
}

/// Macros that abort the surrounding request when they fire.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method names that block the calling thread. `Condvar::wait`/
/// `wait_timeout` are deliberately absent: they atomically release the
/// guard they are handed, so "blocking under a lock" is their job.
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "sleep",
    "accept",
    "connect",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
];

/// Crates whose panic sites the token-level `no-panic-hot-path` rule
/// already polices — the transitive rule skips them to avoid demanding a
/// second `lint:allow` at the same site.
const TOKEN_COVERED_CRATES: &[&str] = &["serve", "par", "query"];

/// Hot-path roots: `(crate, fn)` pairs the transitive panic rule walks
/// from. These are the entry points the paper's sub-0.1 s interactivity
/// budget rides on.
const HOT_ROOTS: &[(&str, &str)] = &[
    ("serve", "route"),
    ("query", "execute"),
    ("query", "execute_explain"),
    ("analytics", "profile"),
    ("analytics", "cohort_monthly"),
    ("core", "cohort_profile"),
];

struct Walker<'a> {
    crate_name: String,
    file: String,
    file_stem: String,
    self_ty: Option<String>,
    params: &'a [(String, Option<String>)],
    extra: Vec<FnSummary>,
}

#[derive(Debug, Clone)]
struct Guard {
    binding: Option<String>,
    lock: String,
    temp: bool,
}

impl Walker<'_> {
    /// Canonical lock identity for a receiver chain. `self.field` and
    /// `param.field` (with a typed param) become `crate::Type.field`;
    /// anything else falls back to `crate::<file-stem>.chain`, which can
    /// merge distinct locks in one file — a deliberate coarseness,
    /// documented in DESIGN.md §9.
    fn lock_id(&self, recv: &str) -> String {
        let mut segs = recv.split('.');
        let first = segs.next().unwrap_or("");
        let rest = segs.collect::<Vec<_>>().join(".");
        if first == "self" {
            if let Some(ty) = &self.self_ty {
                return if rest.is_empty() {
                    format!("{}::{}", self.crate_name, ty)
                } else {
                    format!("{}::{}.{}", self.crate_name, ty, rest)
                };
            }
        }
        if let Some((_, Some(hint))) =
            self.params.iter().find(|(name, _)| name == first)
        {
            return if rest.is_empty() {
                format!("{}::{}", self.crate_name, hint)
            } else {
                format!("{}::{}.{}", self.crate_name, hint, rest)
            };
        }
        format!("{}::{}.{}", self.crate_name, self.file_stem, recv)
    }

    /// Best-effort receiver type for call resolution.
    fn recv_ty(&self, recv: &str) -> Option<String> {
        let mut segs = recv.split('.');
        let first = segs.next()?;
        if segs.next().is_some() {
            return None; // a field chain: the field's type is unknown
        }
        if first == "self" {
            return self.self_ty.clone();
        }
        self.params
            .iter()
            .find(|(name, _)| name == first)
            .and_then(|(_, hint)| hint.clone())
    }

    fn walk(&mut self, block: &Block, held: &mut Vec<Guard>, sum: &mut FnSummary) {
        for node in &block.nodes {
            match node {
                Node::Lock(l) => {
                    let id = self.lock_id(&l.recv);
                    sum.acquisitions.push(Acq {
                        lock: id.clone(),
                        line: l.line,
                        col: l.col,
                        held: held_ids(held),
                    });
                    held.push(Guard {
                        binding: l.bound.clone(),
                        lock: id,
                        temp: l.bound.is_none(),
                    });
                }
                Node::Call(c) => {
                    if c.is_macro {
                        if PANIC_MACROS.contains(&c.callee.as_str()) {
                            sum.panics.push(PanicSite {
                                what: format!("{}!", c.callee),
                                recv_ty: None,
                                line: c.line,
                                col: c.col,
                            });
                        }
                        continue;
                    }
                    let name = c.callee.as_str();
                    let is_method = c.recv.is_some();
                    if is_method
                        && ((name == "unwrap" && c.args_empty)
                            || (name == "expect" && !c.args_empty))
                    {
                        sum.panics.push(PanicSite {
                            what: name.to_owned(),
                            recv_ty: c.recv.as_deref().and_then(|r| self.recv_ty(r)),
                            line: c.line,
                            col: c.col,
                        });
                        continue;
                    }
                    let blocks = (name == "join" && is_method && c.args_empty)
                        || BLOCKING_METHODS.contains(&name);
                    if blocks {
                        sum.blocking.push(BlockingSite {
                            what: name.to_owned(),
                            line: c.line,
                            col: c.col,
                            held: held_ids(held),
                        });
                        continue;
                    }
                    let recv_ty = match (&c.recv, c.path.last()) {
                        (Some(recv), _) => self.recv_ty(recv),
                        (None, Some(seg))
                            if seg.chars().next().is_some_and(|ch| {
                                ch.is_ascii_uppercase()
                            }) =>
                        {
                            Some(seg.clone())
                        }
                        _ => None,
                    };
                    sum.calls.push(CallSite {
                        callee: c.callee.clone(),
                        recv_ty,
                        is_method,
                        line: c.line,
                        col: c.col,
                        held: held_ids(held),
                    });
                }
                Node::Block(b) | Node::Closure(b) => {
                    let depth = held.len();
                    self.walk(b, held, sum);
                    held.truncate(depth);
                }
                Node::Spawn { body, line } => {
                    let mut spawned = FnSummary {
                        crate_name: self.crate_name.clone(),
                        file: self.file.clone(),
                        self_ty: None,
                        name: format!("{}@spawn:{}", sum.name, line),
                        line: *line,
                        is_test: sum.is_test,
                        is_spawn_body: true,
                        ..FnSummary::default()
                    };
                    let mut fresh = Vec::new();
                    self.walk(body, &mut fresh, &mut spawned);
                    self.extra.push(spawned);
                }
                Node::DropGuard { name, .. } => {
                    if let Some(at) = held
                        .iter()
                        .rposition(|g| g.binding.as_deref() == Some(name))
                    {
                        held.remove(at);
                    }
                }
                Node::StmtEnd => held.retain(|g| !g.temp),
            }
        }
    }
}

fn held_ids(held: &[Guard]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for g in held {
        if !out.contains(&g.lock) {
            out.push(g.lock.clone());
        }
    }
    out
}

/// Summarize every function of one parsed file.
pub fn summarize(ctx: &FileContext<'_>, ast: &FileAst) -> Vec<FnSummary> {
    let crate_name = ctx.crate_name.clone().unwrap_or_else(|| "ws".to_owned());
    let file_stem = ctx
        .path
        .rsplit('/')
        .next()
        .unwrap_or(ctx.path)
        .trim_end_matches(".rs")
        .to_owned();
    let mut out = Vec::new();
    for def in &ast.fns {
        let mut walker = Walker {
            crate_name: crate_name.clone(),
            file: ctx.path.to_owned(),
            file_stem: file_stem.clone(),
            self_ty: def.self_ty.clone(),
            params: &def.params,
            extra: Vec::new(),
        };
        let mut sum = FnSummary {
            crate_name: crate_name.clone(),
            file: ctx.path.to_owned(),
            self_ty: def.self_ty.clone(),
            name: def.name.clone(),
            line: def.line,
            is_test: def.is_test || ctx.whole_file_test,
            is_spawn_body: false,
            ..FnSummary::default()
        };
        let mut held = Vec::new();
        walker.walk(&def.body, &mut held, &mut sum);
        out.push(sum);
        out.append(&mut walker.extra);
    }
    out
}

// ---------------------------------------------------------------------------
// Interprocedural rules
// ---------------------------------------------------------------------------

/// Run the three flow rules over all summaries. Findings come back
/// unfiltered — the caller applies per-file suppressions.
pub fn interprocedural(fns: &[FnSummary]) -> Vec<Finding> {
    let graph = crate::graph::build(fns);
    let mut out = Vec::new();
    rule_lock_order_cycle(fns, &graph, &mut out);
    rule_blocking_under_lock(fns, &graph, &mut out);
    rule_transitive_no_panic(fns, &graph, &mut out);
    out.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message).cmp(&(
            &b.path, b.line, b.col, b.rule, &b.message,
        ))
    });
    out.dedup();
    out
}

fn fn_label(f: &FnSummary) -> String {
    match &f.self_ty {
        Some(ty) => format!("{}::{}", ty, f.name),
        None => f.name.clone(),
    }
}

fn held_list(held: &[String]) -> String {
    held.join(", ")
}

/// Per-function transitively acquired locks with one witness description
/// per lock, propagated to a fixpoint through the call graph.
fn transitive_locks(
    fns: &[FnSummary],
    graph: &crate::graph::CallGraph,
) -> Vec<BTreeMap<String, String>> {
    let mut trans: Vec<BTreeMap<String, String>> = fns
        .iter()
        .map(|f| {
            let mut m = BTreeMap::new();
            for a in &f.acquisitions {
                m.entry(a.lock.clone()).or_insert_with(|| {
                    format!("{} acquires it at {}:{}", fn_label(f), f.file, a.line)
                });
            }
            m
        })
        .collect();
    // Monotone fixpoint; the lock universe is small, so a few rounds
    // converge. Cap the rounds defensively against pathological graphs.
    for _ in 0..32 {
        let mut changed = false;
        for i in 0..fns.len() {
            let mut add: Vec<(String, String)> = Vec::new();
            for e in &graph.edges[i] {
                let call = &fns[i].calls[e.call];
                for (lock, wit) in &trans[e.target] {
                    if !trans[i].contains_key(lock) {
                        add.push((
                            lock.clone(),
                            format!(
                                "{} calls {} at {}:{}; {}",
                                fn_label(&fns[i]),
                                fn_label(&fns[e.target]),
                                fns[i].file,
                                call.line,
                                wit
                            ),
                        ));
                    }
                }
            }
            for (lock, wit) in add {
                trans[i].entry(lock).or_insert(wit);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    trans
}

fn rule_lock_order_cycle(
    fns: &[FnSummary],
    graph: &crate::graph::CallGraph,
    out: &mut Vec<Finding>,
) {
    let trans = transitive_locks(fns, graph);
    // Acquisition-order edges: held lock → acquired lock, with one
    // deterministic witness per edge (BTreeMap keeps iteration stable).
    #[derive(Clone)]
    struct Edge {
        file: String,
        line: u32,
        col: u32,
        desc: String,
    }
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for a in &f.acquisitions {
            for h in &a.held {
                let key = (h.clone(), a.lock.clone());
                edges.entry(key).or_insert_with(|| Edge {
                    file: f.file.clone(),
                    line: a.line,
                    col: a.col,
                    desc: format!(
                        "{} holds {} and acquires {} at {}:{}",
                        fn_label(f),
                        h,
                        a.lock,
                        f.file,
                        a.line
                    ),
                });
            }
        }
        for e in &graph.edges[i] {
            let call = &f.calls[e.call];
            for h in &call.held {
                for (lock, wit) in &trans[e.target] {
                    if lock == h {
                        continue; // self-edges via calls are too coarse
                    }
                    let key = (h.clone(), lock.clone());
                    edges.entry(key).or_insert_with(|| Edge {
                        file: f.file.clone(),
                        line: call.line,
                        col: call.col,
                        desc: format!(
                            "{} holds {} while calling {} at {}:{}; {}",
                            fn_label(f),
                            h,
                            fn_label(&fns[e.target]),
                            f.file,
                            call.line,
                            wit
                        ),
                    });
                }
            }
        }
    }
    // Direct re-entrant acquisition (A while A is held) deadlocks a
    // Mutex outright.
    for ((from, to), e) in &edges {
        if from == to {
            out.push(Finding {
                path: e.file.clone(),
                line: e.line,
                col: e.col,
                rule: "lock-order-cycle",
                message: format!(
                    "lock {from} is re-acquired while already held — a Mutex \
                     self-deadlocks and an RwLock deadlocks against a waiting \
                     writer ({})",
                    e.desc
                ),
            });
        }
    }
    // Cycles across distinct locks: walk the order graph; every cycle is
    // a potential AB/BA deadlock. Enumerate minimal cycles by DFS from
    // each node over a stable adjacency list, reporting each cycle once
    // (keyed by its sorted lock set).
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        if from != to {
            adj.entry(from.as_str()).or_default().push(to.as_str());
        }
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys() {
        // Iterative DFS carrying the path; bounded depth keeps this
        // linear-ish on the small lock universes we see in practice.
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        while let Some((node, path)) = stack.pop() {
            if path.len() > 8 {
                continue;
            }
            for &next in adj.get(node).into_iter().flatten() {
                if next == start {
                    let mut key: Vec<String> =
                        path.iter().map(|s| (*s).to_owned()).collect();
                    key.sort();
                    if !seen_cycles.insert(key) {
                        continue;
                    }
                    // Report at the first edge of the cycle, quoting every
                    // edge's acquisition path.
                    let mut cycle = path.clone();
                    cycle.push(start);
                    let legs: Vec<String> = cycle
                        .windows(2)
                        .filter_map(|w| {
                            edges
                                .get(&(w[0].to_owned(), w[1].to_owned()))
                                .map(|e| e.desc.clone())
                        })
                        .collect();
                    let first = &edges[&(cycle[0].to_owned(), cycle[1].to_owned())];
                    out.push(Finding {
                        path: first.file.clone(),
                        line: first.line,
                        col: first.col,
                        rule: "lock-order-cycle",
                        message: format!(
                            "lock acquisition cycle {} — potential deadlock; paths: {}",
                            cycle.join(" -> "),
                            legs.join(" | ")
                        ),
                    });
                } else if !path.contains(&next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
}

fn rule_blocking_under_lock(
    fns: &[FnSummary],
    graph: &crate::graph::CallGraph,
    out: &mut Vec<Finding>,
) {
    // may_block fixpoint with a witness chain per function.
    let mut witness: Vec<Option<String>> = fns
        .iter()
        .map(|f| {
            f.blocking.first().map(|b| {
                format!("`{}` blocks at {}:{}", b.what, f.file, b.line)
            })
        })
        .collect();
    for _ in 0..32 {
        let mut changed = false;
        for i in 0..fns.len() {
            if witness[i].is_some() {
                continue;
            }
            for e in &graph.edges[i] {
                if let Some(w) = witness[e.target].clone() {
                    let call = &fns[i].calls[e.call];
                    witness[i] = Some(format!(
                        "{} (via {} at {}:{})",
                        w,
                        fn_label(&fns[e.target]),
                        fns[i].file,
                        call.line
                    ));
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (i, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for b in &f.blocking {
            if !b.held.is_empty() {
                out.push(Finding {
                    path: f.file.clone(),
                    line: b.line,
                    col: b.col,
                    rule: "blocking-call-under-lock",
                    message: format!(
                        "`{}` blocks while guard(s) {} are live in {} — every thread \
                         contending on those locks stalls with it; drop the guard first",
                        b.what,
                        held_list(&b.held),
                        fn_label(f)
                    ),
                });
            }
        }
        for e in &graph.edges[i] {
            let call = &f.calls[e.call];
            if call.held.is_empty() {
                continue;
            }
            if let Some(w) = &witness[e.target] {
                out.push(Finding {
                    path: f.file.clone(),
                    line: call.line,
                    col: call.col,
                    rule: "blocking-call-under-lock",
                    message: format!(
                        "call into {} can block while guard(s) {} are live in {}: {}",
                        fn_label(&fns[e.target]),
                        held_list(&call.held),
                        fn_label(f),
                        w
                    ),
                });
            }
        }
    }
}

fn rule_transitive_no_panic(
    fns: &[FnSummary],
    graph: &crate::graph::CallGraph,
    out: &mut Vec<Finding>,
) {
    // BFS from the hot-path roots, keeping one witness path per function.
    let mut path_to: Vec<Option<String>> = vec![None; fns.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        if f.is_test || f.is_spawn_body {
            continue;
        }
        if HOT_ROOTS
            .iter()
            .any(|(c, n)| *c == f.crate_name && *n == f.name)
        {
            path_to[i] = Some(fn_label(f));
            queue.push(i);
        }
    }
    let mut at = 0;
    while at < queue.len() {
        let i = queue[at];
        at += 1;
        let base = path_to[i].clone().unwrap_or_default();
        for e in &graph.edges[i] {
            if path_to[e.target].is_none() && !fns[e.target].is_test {
                path_to[e.target] =
                    Some(format!("{} -> {}", base, fn_label(&fns[e.target])));
                queue.push(e.target);
            }
        }
    }
    // Workspace methods named `unwrap`/`expect` shadow the Option/Result
    // ones for typed receivers — `self.expect(b'{')?` on a parser with
    // its own Result-returning `expect` is not a panic site.
    let own_methods: std::collections::HashSet<(&str, &str)> = fns
        .iter()
        .filter_map(|f| f.self_ty.as_deref().map(|t| (t, f.name.as_str())))
        .collect();
    for (i, f) in fns.iter().enumerate() {
        let Some(via) = &path_to[i] else { continue };
        if TOKEN_COVERED_CRATES.contains(&f.crate_name.as_str()) {
            continue; // the token rule already polices these crates
        }
        for p in &f.panics {
            if p
                .recv_ty
                .as_deref()
                .is_some_and(|t| own_methods.contains(&(t, p.what.as_str())))
            {
                continue;
            }
            out.push(Finding {
                path: f.file.clone(),
                line: p.line,
                col: p.col,
                rule: "transitive-no-panic-hot-path",
                message: format!(
                    "`{}` can panic and is reachable from a hot-path root via {} — \
                     return a typed error or document the invariant with lint:allow",
                    p.what, via
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::rules::{CheckOptions, FileContext};

    fn sums(path: &str, src: &str) -> Vec<FnSummary> {
        let ctx = FileContext::new(path, src, CheckOptions::default());
        summarize(&ctx, &parse_file(&ctx))
    }

    #[test]
    fn guard_lifetime_tracking() {
        let s = sums(
            "crates/serve/src/x.rs",
            "impl Q {\n\
             fn f(&self) {\n\
               let g = self.a.lock().unwrap_or_else(|e| e.into_inner());\n\
               self.b.lock();\n\
               drop(g);\n\
               self.c.lock();\n\
             }\n}\n",
        );
        let f = &s[0];
        assert_eq!(f.acquisitions.len(), 3);
        assert_eq!(f.acquisitions[0].held, Vec::<String>::new());
        assert_eq!(f.acquisitions[1].held, vec!["serve::Q.a".to_owned()]);
        // b was a temp (died at `;`), g was dropped: c acquires clean.
        assert_eq!(f.acquisitions[2].held, Vec::<String>::new());
    }

    #[test]
    fn blocking_and_panic_sites() {
        let s = sums(
            "crates/serve/src/x.rs",
            "impl S {\n\
             fn b(&self, h: Handle) { let g = self.m.lock(); h.join(); }\n\
             fn q(&self) { self.v.get(0).unwrap(); }\n\
             }\n",
        );
        assert_eq!(s[0].blocking.len(), 1);
        assert_eq!(s[0].blocking[0].held, vec!["serve::S.m".to_owned()]);
        assert_eq!(s[1].panics.len(), 1);
        assert_eq!(s[1].panics[0].what, "unwrap");
    }

    #[test]
    fn spawn_bodies_are_separate_roles() {
        let s = sums(
            "crates/par/src/x.rs",
            "fn boot(shared: &Arc<Shared>) {\n\
               thread::spawn(move || { shared.state.lock(); });\n\
               shared.state.lock();\n\
             }\n",
        );
        assert_eq!(s.len(), 2);
        assert!(s[1].is_spawn_body);
        assert_eq!(s[1].acquisitions.len(), 1);
        // The spawn body's lock is not part of boot's flow.
        assert_eq!(s[0].acquisitions.len(), 1);
    }

    #[test]
    fn ab_ba_cycle_is_reported() {
        let s = sums(
            "crates/core/src/x.rs",
            "fn f(a: &Q, b: &Q) { let g = a.m.lock(); b.n.lock(); drop(g); }\n\
             fn g(a: &Q, b: &Q) { let g = b.n.lock(); a.m.lock(); drop(g); }\n",
        );
        let findings = interprocedural(&s);
        assert!(
            findings.iter().any(|f| f.rule == "lock-order-cycle"),
            "{findings:?}"
        );
    }
}
