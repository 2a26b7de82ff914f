//! The workspace call graph over flow summaries.
//!
//! Resolution is name-based with a receiver-type heuristic: a call
//! `x.m()` where `x`'s type hint is `T` binds to `fn m` in `impl T`
//! blocks when any exist; an untyped call binds to same-crate candidates
//! first, then workspace-wide. Ubiquitous std-ish names (`new`, `get`,
//! `push`, …) are never resolved without a matching typed candidate, and
//! an untyped name with more than [`MAX_UNTYPED_CANDIDATES`] definitions
//! is dropped rather than fanned out — precision over recall, since
//! every edge can become a reported deadlock path. The caveats are laid
//! out in DESIGN.md §9.

use crate::flow::FnSummary;
use std::collections::HashMap;

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Index of the callee in the summary slice.
    pub target: usize,
    /// Index into the caller's `calls` vector (for site/held info).
    pub call: usize,
}

/// The resolved call graph: `edges[i]` are function `i`'s outgoing edges.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Per-function resolved edges, parallel to the input summaries.
    pub edges: Vec<Vec<EdgeRef>>,
}

/// Method names so common that an untyped match is almost surely a std
/// or container method, not a workspace function.
const COMMON_SKIP: &[&str] = &[
    "new", "default", "len", "is_empty", "get", "get_mut", "insert", "remove", "push",
    "pop", "clone", "iter", "iter_mut", "into_iter", "next", "fmt", "eq", "ne", "cmp",
    "partial_cmp", "hash", "from", "into", "to_vec", "to_owned", "to_string", "as_str",
    "as_ref", "as_bytes", "as_slice", "map", "map_err", "and_then", "or_else", "filter",
    "fold", "collect", "extend", "clear", "sort", "sort_by", "sort_by_key",
    "sort_unstable", "retain", "drain", "with_capacity", "reserve", "contains",
    "contains_key", "starts_with", "ends_with", "split", "splitn", "trim", "parse",
    "min", "max", "clamp", "abs", "push_str", "chars", "bytes", "lines", "unwrap_or",
    "unwrap_or_default", "unwrap_or_else", "ok", "ok_or", "ok_or_else", "err", "take",
    "replace", "get_or_insert_with", "entry", "or_insert", "or_insert_with",
    "or_default", "count", "sum", "any", "all", "find", "position", "rev", "zip",
    "enumerate", "skip", "chain", "flat_map", "flatten", "cloned", "copied", "last",
    "first", "is_some", "is_none", "is_ok", "is_err", "as_deref", "expect_err",
    "to_lowercase", "to_uppercase", "trim_start", "trim_end", "store", "load", "swap",
    "fetch_add", "fetch_sub", "wait", "wait_timeout", "notify_one", "notify_all",
];

/// Untyped calls with more definitions than this are dropped instead of
/// fanned out to every candidate.
const MAX_UNTYPED_CANDIDATES: usize = 8;

/// Resolve every call in `fns` to workspace definitions.
pub fn build(fns: &[FnSummary]) -> CallGraph {
    // Name index over callable (non-spawn-body) functions.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        if !f.is_spawn_body {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
    }
    let mut edges = vec![Vec::new(); fns.len()];
    for (i, f) in fns.iter().enumerate() {
        for (ci, call) in f.calls.iter().enumerate() {
            let Some(candidates) = by_name.get(call.callee.as_str()) else {
                continue;
            };
            let chosen: Vec<usize> = if let Some(t) = &call.recv_ty {
                // A typed receiver binds only to impls of that type; a
                // typed receiver with no workspace impl is a std/external
                // type — no edge.
                candidates
                    .iter()
                    .copied()
                    .filter(|&j| fns[j].self_ty.as_deref() == Some(t.as_str()))
                    .collect()
            } else {
                if COMMON_SKIP.contains(&call.callee.as_str()) {
                    continue;
                }
                // Method syntax only binds to methods; free/path calls
                // prefer free functions over same-named methods. This
                // keeps `workbench.compact()` from resolving to a free
                // handler `fn compact(...)` that merely shares the name.
                let shape: Vec<usize> = if call.is_method {
                    candidates
                        .iter()
                        .copied()
                        .filter(|&j| fns[j].self_ty.is_some())
                        .collect()
                } else {
                    let free: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&j| fns[j].self_ty.is_none())
                        .collect();
                    if free.is_empty() { candidates.clone() } else { free }
                };
                let same_crate: Vec<usize> = shape
                    .iter()
                    .copied()
                    .filter(|&j| fns[j].crate_name == f.crate_name)
                    .collect();
                let pool = if same_crate.is_empty() { shape } else { same_crate };
                if pool.len() > MAX_UNTYPED_CANDIDATES {
                    continue;
                }
                pool
            };
            for j in chosen {
                if j != i {
                    edges[i].push(EdgeRef { target: j, call: ci });
                }
            }
        }
    }
    CallGraph { edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{CallSite, FnSummary};

    fn fun(crate_name: &str, name: &str, self_ty: Option<&str>) -> FnSummary {
        FnSummary {
            crate_name: crate_name.to_owned(),
            file: format!("crates/{crate_name}/src/x.rs"),
            self_ty: self_ty.map(str::to_owned),
            name: name.to_owned(),
            line: 1,
            ..FnSummary::default()
        }
    }

    fn call(callee: &str, recv_ty: Option<&str>) -> CallSite {
        CallSite {
            callee: callee.to_owned(),
            recv_ty: recv_ty.map(str::to_owned),
            is_method: recv_ty.is_some(),
            line: 2,
            col: 1,
            held: Vec::new(),
        }
    }

    fn method_call(callee: &str) -> CallSite {
        CallSite { is_method: true, ..call(callee, None) }
    }

    #[test]
    fn typed_receiver_binds_to_matching_impl_only() {
        let mut a = fun("serve", "caller", None);
        a.calls.push(call("ingest", Some("ServeState")));
        let b = fun("serve", "ingest", Some("ServeState"));
        let c = fun("serve", "ingest", Some("IngestQueue"));
        let g = build(&[a, b, c]);
        assert_eq!(g.edges[0].len(), 1);
        assert_eq!(g.edges[0][0].target, 1);
    }

    #[test]
    fn typed_receiver_without_workspace_impl_gets_no_edge() {
        let mut a = fun("serve", "caller", None);
        a.calls.push(call("push", Some("Vec")));
        let b = fun("serve", "push", Some("Stack"));
        let g = build(&[a, b]);
        assert!(g.edges[0].is_empty());
    }

    #[test]
    fn untyped_prefers_same_crate_and_skips_common_names() {
        let mut a = fun("serve", "caller", None);
        a.calls.push(call("helper", None));
        a.calls.push(call("get", None));
        let b = fun("serve", "helper", None);
        let c = fun("query", "helper", None);
        let d = fun("serve", "get", Some("Cache"));
        let g = build(&[a, b, c, d]);
        assert_eq!(g.edges[0].len(), 1, "same-crate helper only, no get edge");
        assert_eq!(g.edges[0][0].target, 1);
    }

    #[test]
    fn untyped_method_calls_never_bind_to_free_functions() {
        let mut a = fun("serve", "caller", Some("ServeState"));
        a.calls.push(method_call("compact"));
        let handler = fun("serve", "compact", None);
        let method = fun("core", "compact", Some("Workbench"));
        let g = build(&[a, handler, method]);
        assert_eq!(g.edges[0].len(), 1, "{:?}", g.edges[0]);
        assert_eq!(g.edges[0][0].target, 2, "binds the method, not the handler");
    }

    #[test]
    fn free_calls_prefer_free_functions_over_methods() {
        let mut a = fun("serve", "caller", None);
        a.calls.push(call("compact", None));
        let handler = fun("serve", "compact", None);
        let method = fun("serve", "compact", Some("Workbench"));
        let g = build(&[a, handler, method]);
        assert_eq!(g.edges[0].len(), 1, "{:?}", g.edges[0]);
        assert_eq!(g.edges[0][0].target, 1, "binds the free fn, not the method");
    }

    #[test]
    fn spawn_bodies_are_not_callable() {
        let mut a = fun("par", "caller", None);
        a.calls.push(call("boot@spawn:3", None));
        let mut b = fun("par", "boot@spawn:3", None);
        b.is_spawn_body = true;
        let g = build(&[a, b]);
        assert!(g.edges[0].is_empty());
    }
}
