//! Physical query plans: set algebra over the posting index.
//!
//! The paper's headline workflow — carve 13,000 patients out of 168,000
//! by combining code selections, exclusions, and demographic bounds — is
//! a multi-clause boolean query. The old path accelerated exactly one
//! shape (a conjunction containing a positive code regex) and fell back
//! to a full scan for everything else; a `has(X) and lacks(Y)` cohort
//! enumerated all histories. This module replaces that special case with
//! a two-stage pipeline:
//!
//! 1. **Logical**: [`crate::normalize::normalize`] rewrites the query to
//!    a canonical form (negation at the leaves, flat sorted clauses) so
//!    equivalent queries share one plan and one cache key.
//! 2. **Physical**: [`QueryPlan::build`] maps each canonical leaf to an
//!    operator — posting fetch for code-regex leaves (positive *and*
//!    negative, via intersect/union/complement on compressed roaring
//!    containers — no position list materializes mid-algebra), a dense
//!    pass over the shard's rows of the collection's demographic column
//!    for `age(..)` / `sex(..)` leaves (a set like any posting, no
//!    history read), residual evaluation over the candidate set for
//!    count/temporal leaves — with a posting-size cardinality estimate
//!    choosing index-vs-scan per subtree.
//!
//! Execution ([`QueryPlan::execute`]) evaluates the operator tree **per
//! index shard** on compressed bitmaps ([`crate::bitmap::Bitmap`]): each
//! patient-range shard of the index evaluates the whole tree over its
//! own shard-relative position space (where containers stay dense),
//! multi-shard collections fan the shards out on [`pastas_par`], and the
//! shard-local results concatenate in shard order — which *is* the
//! global ascending order, no merge or sort needed. Residual
//! verification runs chunked and order-preserving, so results are
//! deterministic at any thread count. Every node records candidate
//! counts and wall time into an [`Explain`] tree (summed across shards)
//! for `EXPLAIN`-style debugging and the serve layer's `?explain=1`.

use crate::bitmap::Bitmap;
use crate::index::{CodeIndex, IndexShard};
use crate::normalize::{is_never, normalize};
use crate::predicate::EntryPredicate;
use crate::query::{one_or, BoundQuery, HistoryQuery};
use crate::temporal::TemporalPattern;
use pastas_ingest::json::write_string;
use pastas_model::{CodeDictionary, History, HistoryCollection, Sex};
use pastas_time::Date;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-thread minimum candidates before residual verification goes
/// parallel (same threshold as the index's candidate verification).
const PAR_MIN_CANDIDATES: usize = 256;

// ---------------------------------------------------------------------------
// Sorted-vec merges (bitmap test oracle)
// ---------------------------------------------------------------------------

/// Merge-based set algebra over sorted, deduplicated `u32` postings.
/// Production set operations run on [`crate::bitmap::Bitmap`]'s
/// compressed containers; these linear merges are the independent oracle
/// the bitmap's differential tests (unit and property) compare against.
#[cfg(test)]
pub(crate) mod reference {
    /// `a ∩ b` of two strictly ascending lists.
    pub(crate) fn intersect2(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0, 0);
        while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(x);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// `a ∪ b` of two strictly ascending lists.
    pub(crate) fn union2(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        loop {
            match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) => match x.cmp(&y) {
                    std::cmp::Ordering::Less => {
                        out.push(x);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(y);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(x);
                        i += 1;
                        j += 1;
                    }
                },
                (Some(_), None) => {
                    out.extend_from_slice(a.get(i..).unwrap_or_default());
                    break;
                }
                (None, Some(_)) => {
                    out.extend_from_slice(b.get(j..).unwrap_or_default());
                    break;
                }
                (None, None) => break,
            }
        }
        out
    }

    /// `U \ a` where the universe is `0..rows`, `a` strictly ascending.
    pub(crate) fn complement(a: &[u32], rows: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity((rows as usize).saturating_sub(a.len()));
        let mut next = 0u32;
        for &x in a {
            out.extend(next..x.min(rows));
            next = x.saturating_add(1);
        }
        out.extend(next..rows);
        out
    }
}

// ---------------------------------------------------------------------------
// The physical operator tree
// ---------------------------------------------------------------------------

/// One physical operator. Every node evaluates to a strictly ascending
/// set of history positions.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Every position `0..rows`.
    AllRows,
    /// The empty set (a query normalization proved can match nothing).
    Empty,
    /// Union of the posting lists selected by a set of code-regex
    /// patterns — the leaf the inverted index answers directly.
    IndexFetch {
        /// The regex patterns, for Explain and rendering.
        patterns: Vec<String>,
        /// The index slots (code ids) they match, sorted and unique:
        /// resolved once, when the plan is built.
        slots: Vec<u32>,
    },
    /// The rows whose patient-column entry satisfies a demographic leaf
    /// ([`HistoryQuery::AgeBetween`] or [`HistoryQuery::SexIs`]) — read
    /// from the index shard's column, not from the histories. Explain
    /// reports it as an `IndexFetch` with a `column=` detail.
    ColumnFetch {
        /// The demographic leaf.
        query: HistoryQuery,
    },
    /// `0..rows` minus the child's set (negated code and demographic
    /// clauses).
    Complement(Box<PlanNode>),
    /// `∩` of the children, evaluated smallest-estimate first.
    Intersect(Vec<PlanNode>),
    /// `∪` of the children.
    Union(Vec<PlanNode>),
    /// Evaluate a residual query per candidate history from the child's
    /// set (parallel, order-preserving) — counts, negated temporal
    /// patterns, anything the postings and the column cannot decide.
    Filter {
        /// The residual query verified against each candidate.
        query: HistoryQuery,
        /// Candidate source.
        input: Box<PlanNode>,
    },
    /// Full scan: evaluate the query against every history. The planner
    /// emits this only when no clause is index-servable (or the index
    /// provably cannot prune); the serve layer counts these.
    FullScan {
        /// The query evaluated per history.
        query: HistoryQuery,
    },
    /// Temporal-pattern verification over an index prefilter: the child
    /// intersects each pattern step's candidate postings (every step must
    /// be matched by *some* entry, so a matching history lies in every
    /// step's posting union), and the pattern scan runs only on the
    /// surviving candidates.
    PatternScan {
        /// The `Pattern` query the pattern scan verifies per candidate.
        query: HistoryQuery,
        /// The per-step posting intersection feeding candidates.
        input: Box<PlanNode>,
    },
}

impl PlanNode {
    fn is_full_scan(&self) -> bool {
        matches!(self, PlanNode::FullScan { .. })
    }

    /// Does any node of this subtree enumerate all histories with
    /// per-history predicate evaluation?
    pub fn contains_full_scan(&self) -> bool {
        match self {
            PlanNode::FullScan { .. } => true,
            PlanNode::Complement(c) => c.contains_full_scan(),
            PlanNode::Filter { input, .. } | PlanNode::PatternScan { input, .. } => {
                input.contains_full_scan()
            }
            PlanNode::Intersect(cs) | PlanNode::Union(cs) => {
                cs.iter().any(PlanNode::contains_full_scan)
            }
            _ => false,
        }
    }

    /// Operator name for Explain / rendering.
    fn op(&self) -> &'static str {
        match self {
            PlanNode::AllRows => "AllRows",
            PlanNode::Empty => "Empty",
            PlanNode::IndexFetch { .. } | PlanNode::ColumnFetch { .. } => "IndexFetch",
            PlanNode::Complement(_) => "Complement",
            PlanNode::Intersect(_) => "Intersect",
            PlanNode::Union(_) => "Union",
            PlanNode::Filter { .. } => "Filter",
            PlanNode::FullScan { .. } => "FullScan",
            PlanNode::PatternScan { .. } => "PatternScan",
        }
    }

    /// Human-readable operand summary for Explain / rendering.
    fn detail(&self) -> String {
        match self {
            PlanNode::IndexFetch { patterns, .. } => patterns.join(" ∪ "),
            PlanNode::ColumnFetch { query } => format!("column={}", query.fingerprint()),
            PlanNode::Filter { query, .. }
            | PlanNode::FullScan { query }
            | PlanNode::PatternScan { query, .. } => query.fingerprint(),
            _ => String::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

/// How completely a set of the query's own code-regex leaves covers an
/// entry predicate: `Exact` means *entry matches predicate ⇔ entry's
/// code matches one of the leaves*; `Superset` means ⇐ only (the postings
/// bound the candidates but each needs verification).
enum CodeCover<'q> {
    Exact(Vec<&'q EntryPredicate>),
    Superset(Vec<&'q EntryPredicate>),
}

/// The code-regex cover of a predicate, if one exists. Conservative:
/// `None` when no posting set bounds the matching entries.
fn code_cover(p: &EntryPredicate) -> Option<CodeCover<'_>> {
    match p {
        EntryPredicate::CodeMatches(_) => Some(CodeCover::Exact(vec![p])),
        EntryPredicate::Or(ps) => {
            // Every branch must be covered; the union covers the Or.
            // Exact only if every branch is exact.
            let mut patterns = Vec::new();
            let mut exact = true;
            for q in ps {
                match code_cover(q)? {
                    CodeCover::Exact(mut pats) => patterns.append(&mut pats),
                    CodeCover::Superset(mut pats) => {
                        exact = false;
                        patterns.append(&mut pats);
                    }
                }
            }
            Some(if exact { CodeCover::Exact(patterns) } else { CodeCover::Superset(patterns) })
        }
        EntryPredicate::And(ps) => {
            // Any single conjunct's cover bounds the conjunction.
            ps.iter().find_map(code_cover).map(|c| match c {
                CodeCover::Exact(pats) | CodeCover::Superset(pats) => CodeCover::Superset(pats),
            })
        }
        _ => None,
    }
}

/// A compiled physical plan for one query over one collection + index.
///
/// Built by [`QueryPlan::build`]; executed by [`QueryPlan::execute`] /
/// [`QueryPlan::execute_explain`]. The plan also carries the query's
/// canonical fingerprint (the selection-cache key).
#[derive(Debug, Clone)]
pub struct QueryPlan {
    root: PlanNode,
    fingerprint: String,
}

impl QueryPlan {
    /// Normalize `query` and compile it into a physical operator tree
    /// against `index`. Cheap: a fetch resolves its code leaves to slots
    /// once, here, and posting sizes are estimated from those slots (no
    /// posting list is materialized, no regex compiled).
    pub fn build(
        index: &CodeIndex,
        collection: &HistoryCollection,
        query: &HistoryQuery,
    ) -> QueryPlan {
        let normalized = normalize(query);
        let fingerprint = normalized.fingerprint();
        QueryPlan::from_normalized(index, collection, &normalized, fingerprint)
    }

    /// Compile a query that is already in [`normalize`]d form, for a
    /// caller that normalized and fingerprinted it to probe a memo and
    /// only plans on a miss. `fingerprint` is `normalized.fingerprint()`.
    pub fn from_normalized(
        index: &CodeIndex,
        collection: &HistoryCollection,
        normalized: &HistoryQuery,
        fingerprint: String,
    ) -> QueryPlan {
        debug_assert_eq!(fingerprint, normalized.fingerprint());
        let root = plan_node(index, collection.len() as u32, normalized);
        QueryPlan { root, fingerprint }
    }

    /// The normalized query's canonical fingerprint — the selection-cache
    /// key. Commuted / double-negated / `lacks`-vs-`not has` variants of
    /// one query agree.
    pub fn canonical_fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The operator tree's root.
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// True if executing this plan evaluates the query against *every*
    /// history (the path the planner exists to avoid). The serve layer's
    /// `select_scan_fallbacks` counter is this, per selection.
    pub fn uses_full_scan(&self) -> bool {
        self.root.contains_full_scan()
    }

    /// Render the static operator tree (no counts/timings — see
    /// [`QueryPlan::execute_explain`] for the executed form).
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, &mut out);
        out
    }

    /// Execute the plan, returning matching history positions in display
    /// order (ascending, deduplicated — identical to
    /// [`crate::index::select_scan`]).
    pub fn execute(&self, collection: &HistoryCollection, index: &CodeIndex) -> Vec<u32> {
        self.exec(collection, index, false).0
    }

    /// Execute and additionally return aggregate execution statistics
    /// (pattern candidate / pattern-scan totals for the serve layer's
    /// gauges).
    pub fn execute_stats(
        &self,
        collection: &HistoryCollection,
        index: &CodeIndex,
    ) -> (Vec<u32>, ExecStats) {
        let (positions, _, stats) = self.exec(collection, index, false);
        (positions, stats)
    }

    /// Execute and record per-node candidate counts and wall time.
    pub fn execute_explain(
        &self,
        collection: &HistoryCollection,
        index: &CodeIndex,
    ) -> (Vec<u32>, Explain) {
        let (positions, explain, _) = self.execute_explain_stats(collection, index);
        (positions, explain)
    }

    /// [`QueryPlan::execute_explain`] plus the aggregate [`ExecStats`].
    pub fn execute_explain_stats(
        &self,
        collection: &HistoryCollection,
        index: &CodeIndex,
    ) -> (Vec<u32>, Explain, ExecStats) {
        let (positions, node, stats) = self.exec(collection, index, true);
        let explain = Explain {
            root: match node {
                Some(n) => n,
                None => ExplainNode {
                    op: "?".to_owned(),
                    detail: String::new(),
                    rows: positions.len(),
                    elapsed_us: 0,
                    counters: Vec::new(),
                    children: Vec::new(),
                },
            },
        };
        (positions, explain, stats)
    }

    fn exec(
        &self,
        collection: &HistoryCollection,
        index: &CodeIndex,
        trace: bool,
    ) -> (Vec<u32>, Option<ExplainNode>, ExecStats) {
        // Lower once, before the shard fan-out: every residual query is
        // bound to the dictionary once per execution, not per shard or
        // chunk (the fetches' slots were resolved when the plan was built).
        let lowered = lower(&self.root, collection.dictionary(), trace);
        let counters = PatternCounters::default();
        let shards = index.shards();
        // Per-shard evaluation of the whole tree. Shards partition the
        // position space in ascending order, so concatenating shard-local
        // results (rebased by each shard's first global position) IS the
        // global ascending result. With several shards the fan-out layer
        // is the shard loop itself; each worker pins its inner operators
        // to one thread (`with_threads(1)`) so residual verification does
        // not multiply the pool. A single shard keeps the inner
        // parallelism instead (chunked residual verification).
        let results: Vec<(Bitmap, Option<ExplainNode>)> = if shards.len() > 1 {
            pastas_par::par_map_min(shards, 1, |shard| {
                pastas_par::with_threads(1, || {
                    exec_shard(&lowered, collection, shard, trace, &counters)
                })
            })
        } else {
            shards
                .iter()
                .map(|shard| exec_shard(&lowered, collection, shard, trace, &counters))
                .collect()
        };
        let mut positions = Vec::new();
        let mut explain: Option<ExplainNode> = None;
        for (shard, (bitmap, node)) in shards.iter().zip(results) {
            bitmap.decode_into(shard.base, &mut positions);
            match (&mut explain, node) {
                (Some(acc), Some(n)) => merge_explain(acc, n),
                (acc @ None, n) => *acc = n,
                _ => {}
            }
        }
        let stats = ExecStats {
            pattern_candidates: counters.candidates.load(Ordering::Relaxed),
            pattern_automaton_runs: counters.runs.load(Ordering::Relaxed),
        };
        (positions, explain, stats)
    }
}

/// Sum a shard's executed tree into the accumulated one. All shards run
/// the same lowered tree, so nodes line up by position; the one
/// exception is `Intersect`'s empty-accumulator early break, which can
/// truncate a shard's child list — unmatched children append.
fn merge_explain(acc: &mut ExplainNode, mut other: ExplainNode) {
    acc.rows += other.rows;
    acc.elapsed_us += other.elapsed_us;
    // Counters sum by name: shards report the same counter set, but
    // match defensively in case a shard skipped a child.
    for (name, v) in other.counters {
        match acc.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += v,
            None => acc.counters.push((name, v)),
        }
    }
    let extra = other.children.split_off(other.children.len().min(acc.children.len()));
    for (a, b) in acc.children.iter_mut().zip(other.children) {
        merge_explain(a, b);
    }
    acc.children.extend(extra);
}

fn render_node(node: &PlanNode, depth: usize, out: &mut String) {
    use std::fmt::Write as _;
    for _ in 0..depth {
        out.push_str("  ");
    }
    let detail = node.detail();
    if detail.is_empty() {
        let _ = writeln!(out, "{}", node.op());
    } else {
        let _ = writeln!(out, "{}({})", node.op(), detail);
    }
    match node {
        PlanNode::Complement(c) => render_node(c, depth + 1, out),
        PlanNode::Filter { input, .. } | PlanNode::PatternScan { input, .. } => {
            render_node(input, depth + 1, out)
        }
        PlanNode::Intersect(cs) | PlanNode::Union(cs) => {
            for c in cs {
                render_node(c, depth + 1, out);
            }
        }
        _ => {}
    }
}

/// The fetch of the postings of `leaves`' codes: each leaf resolved to
/// its slots once, through the one resolver ([`EntryPredicate::code_ids`]).
fn fetch(index: &CodeIndex, leaves: &[&EntryPredicate]) -> PlanNode {
    let mut slots: Vec<u32> = leaves.iter().flat_map(|l| l.code_ids(&index.dict)).collect();
    slots.sort_unstable();
    slots.dedup();
    let pattern = |l: &&EntryPredicate| match l {
        EntryPredicate::CodeMatches(re) => Some(re.pattern().to_owned()),
        _ => None,
    };
    PlanNode::IndexFetch { patterns: leaves.iter().filter_map(pattern).collect(), slots }
}

/// Compile one canonical (normalized) query node.
fn plan_node(index: &CodeIndex, rows: u32, q: &HistoryQuery) -> PlanNode {
    match q {
        HistoryQuery::All => PlanNode::AllRows,
        HistoryQuery::Not(_) if is_never(q) => PlanNode::Empty,
        HistoryQuery::CountAtLeast(p, n) => match code_cover(p) {
            // Postings are exactly "histories with ≥1 matching entry",
            // so an exact cover at n == 1 needs no verification at all.
            Some(CodeCover::Exact(leaves)) if *n == 1 => fetch(index, &leaves),
            Some(CodeCover::Exact(leaves) | CodeCover::Superset(leaves)) => PlanNode::Filter {
                query: q.clone(),
                input: Box::new(fetch(index, &leaves)),
            },
            None => PlanNode::FullScan { query: q.clone() },
        },
        HistoryQuery::CountAtMost(p, n) => match code_cover(p) {
            // "No matching entry" is exactly the complement of the
            // posting union.
            Some(CodeCover::Exact(leaves)) if *n == 0 => {
                PlanNode::Complement(Box::new(fetch(index, &leaves)))
            }
            // count ≤ n can only *fail* inside the fetch set: outside it
            // a history has zero covered entries, hence zero matching
            // ones. Result = complement(fetch) ∪ verified(fetch).
            Some(CodeCover::Exact(leaves) | CodeCover::Superset(leaves)) => {
                let fetched = fetch(index, &leaves);
                PlanNode::Union(vec![
                    PlanNode::Complement(Box::new(fetched.clone())),
                    PlanNode::Filter { query: q.clone(), input: Box::new(fetched) },
                ])
            }
            None => PlanNode::FullScan { query: q.clone() },
        },
        // A positive temporal pattern prefilters through the index: each
        // step's code cover bounds the candidates, their intersection
        // feeds the pattern scan. (A *negated* pattern falls through to the
        // Not arm below — absence of a step is not bounded by postings.)
        HistoryQuery::Pattern(pat) => plan_pattern(index, q, pat),
        HistoryQuery::AgeBetween { .. } | HistoryQuery::SexIs(_) => {
            PlanNode::ColumnFetch { query: q.clone() }
        }
        // Post-normalization, Not only wraps Pattern / AgeBetween / SexIs.
        HistoryQuery::Not(inner) => match **inner {
            HistoryQuery::AgeBetween { .. } | HistoryQuery::SexIs(_) => {
                PlanNode::Complement(Box::new(PlanNode::ColumnFetch { query: (**inner).clone() }))
            }
            // Absence of a pattern is not bounded by postings; a scan with
            // the negation folded in beats Complement(FullScan) — one
            // pass, no extra merge.
            _ => PlanNode::FullScan { query: q.clone() },
        },
        HistoryQuery::And(qs) => plan_and(index, rows, qs),
        HistoryQuery::Or(qs) => plan_or(index, rows, qs),
    }
}

/// Plan one positive temporal pattern: intersect the per-step candidate
/// postings (sound because a matching history satisfies *every* step
/// with some entry, hence lies in every step's posting union, whether
/// the cover is exact or a superset) and verify the survivors with the
/// pattern scan. Steps whose predicate has no code cover simply
/// contribute no prefilter; if no step is covered at all, the honest
/// plan is a full scan.
fn plan_pattern(index: &CodeIndex, q: &HistoryQuery, pat: &TemporalPattern) -> PlanNode {
    let mut fetches: Vec<PlanNode> = Vec::new();
    for pred in pat.step_predicates() {
        if let Some(CodeCover::Exact(leaves) | CodeCover::Superset(leaves)) = code_cover(pred) {
            let step = fetch(index, &leaves);
            // Two steps with the same slots prefilter identically once.
            let same = |f: &PlanNode| match (f, &step) {
                (PlanNode::IndexFetch { slots: a, .. }, PlanNode::IndexFetch { slots: b, .. }) => a == b,
                _ => false,
            };
            if !fetches.iter().any(same) {
                fetches.push(step);
            }
        }
    }
    if fetches.is_empty() {
        return PlanNode::FullScan { query: q.clone() };
    }
    let input = one_or(fetches, PlanNode::Intersect);
    PlanNode::PatternScan { query: q.clone(), input: Box::new(input) }
}

fn plan_and(index: &CodeIndex, rows: u32, qs: &[HistoryQuery]) -> PlanNode {
    let mut indexed: Vec<(u32, PlanNode)> = Vec::new();
    let mut residual: Vec<HistoryQuery> = Vec::new();
    for q in qs {
        let p = plan_node(index, rows, q);
        if p.is_full_scan() {
            residual.push(q.clone());
        } else {
            indexed.push((estimate(index, rows, &p), p));
        }
    }
    if indexed.is_empty() {
        // No clause is index-servable: one scan evaluates the whole
        // conjunction per history (short-circuiting inside matches()).
        return PlanNode::FullScan { query: HistoryQuery::And(qs.to_vec()) };
    }
    // Cost heuristic, index-vs-scan: if even the most selective indexed
    // clause cannot prune below the full collection (e.g. every clause
    // is a near-universal complement) and residual predicates remain,
    // verifying "candidates" is a full scan wearing a costume — emit the
    // honest plan.
    let best = indexed.iter().map(|(e, _)| *e).min().unwrap_or(rows);
    if best >= rows && !residual.is_empty() {
        return PlanNode::FullScan { query: HistoryQuery::And(qs.to_vec()) };
    }
    // Evaluate cheapest-first so the merge works on small sets early.
    // Stable sort: equal estimates keep the canonical clause order, so
    // plans are deterministic.
    indexed.sort_by_key(|(e, _)| *e);
    let plans: Vec<PlanNode> = indexed.into_iter().map(|(_, p)| p).collect();
    let base = one_or(plans, PlanNode::Intersect);
    if residual.is_empty() {
        base
    } else {
        let query = one_or(residual, HistoryQuery::And);
        PlanNode::Filter { query, input: Box::new(base) }
    }
}

fn plan_or(index: &CodeIndex, rows: u32, qs: &[HistoryQuery]) -> PlanNode {
    let mut parts: Vec<PlanNode> = Vec::new();
    let mut scans: Vec<HistoryQuery> = Vec::new();
    for q in qs {
        let p = plan_node(index, rows, q);
        if p.is_full_scan() {
            scans.push(q.clone());
        } else {
            parts.push(p);
        }
    }
    // Merge all scan-only branches into ONE pass over the collection.
    if !scans.is_empty() {
        parts.push(PlanNode::FullScan { query: one_or(scans, HistoryQuery::Or) });
    }
    if parts.is_empty() {
        PlanNode::Empty
    } else {
        one_or(parts, PlanNode::Union)
    }
}

/// Upper-bound cardinality estimate of a subtree, from posting-list
/// sizes only (no list is materialized; O(vocabulary) worst case).
fn estimate(index: &CodeIndex, rows: u32, node: &PlanNode) -> u32 {
    match node {
        PlanNode::AllRows => rows,
        PlanNode::Empty => 0,
        PlanNode::IndexFetch { slots, .. } => {
            u32::try_from(index.estimated_candidates(slots)).unwrap_or(rows).min(rows)
        }
        // Complement of an upper bound is a lower bound — for the
        // common Complement(IndexFetch) the postings sum *is* close
        // to exact (duplicates only from multi-pattern overlap).
        PlanNode::Complement(c) => rows.saturating_sub(estimate(index, rows, c)),
        PlanNode::Intersect(cs) => cs.iter().map(|c| estimate(index, rows, c)).min().unwrap_or(0),
        PlanNode::Union(cs) => cs
            .iter()
            .map(|c| estimate(index, rows, c))
            .fold(0u32, u32::saturating_add)
            .min(rows),
        PlanNode::Filter { input, .. } | PlanNode::PatternScan { input, .. } => {
            estimate(index, rows, input)
        }
        // No per-value statistics on the column: the honest bound.
        PlanNode::ColumnFetch { .. } | PlanNode::FullScan { .. } => rows,
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The lowered, shard-executable form of one [`PlanNode`]: residual
/// queries bound to the collection's dictionary, Explain labels
/// precomputed.
struct ExecNode<'q> {
    op: &'static str,
    /// Explain label; computed only when tracing (the fingerprint of a
    /// residual query is not free).
    detail: String,
    kind: ExecKind<'q>,
}

enum ExecKind<'q> {
    AllRows,
    Empty,
    /// Union of the postings of these vocabulary slots (sorted, unique).
    Fetch(&'q [u32]),
    /// A demographic leaf bound to its test of the collection's
    /// demographic columns.
    Column(ColumnTest),
    Complement(Box<ExecNode<'q>>),
    Intersect(Vec<ExecNode<'q>>),
    Union(Vec<ExecNode<'q>>),
    /// The one operator that opens a history: `query` evaluated against
    /// each candidate of `input`, or against every row of the universe
    /// when there is none (`Filter`, `PatternScan` and `FullScan` all
    /// lower to this), with each entry predicate of `query` bound once a
    /// plan execution to the collection's dictionary ([`BoundQuery`]),
    /// shared by every shard worker and chunk. With `pattern` each
    /// candidate is one pattern scan, and the candidate / scan totals
    /// feed [`ExecStats`] (the serve layer's pattern gauges).
    Verify { query: BoundQuery<'q>, input: Option<Box<ExecNode<'q>>>, pattern: bool },
}

/// What a demographic leaf asks of one row's birth or sex column
/// ([`pastas_model::RowSpan`]).
enum ColumnTest {
    /// Born on a day number within `first..=last`, `first <= last`.
    Born { first: i32, last: i32 },
    Sex(Sex),
    /// An age range no birth date of the calendar falls in: reversed, or
    /// beyond either end (or a query that is no demographic leaf, which
    /// the planner never binds).
    Nobody,
}

impl ColumnTest {
    /// Bind a leaf once per plan. The births aged `min..=max` at `at` are
    /// one interval of days: [`History::last_birth_aged`] finds its ends
    /// with `History::age_at`'s own arithmetic, and the per-row test is
    /// two integer comparisons of day numbers that agree with
    /// `HistoryQuery::matches` on every date.
    fn bind(query: &HistoryQuery) -> ColumnTest {
        match *query {
            HistoryQuery::AgeBetween { at, min, max } => {
                // Nobody is older than `i32::MAX` years.
                let first = max
                    .checked_add(1)
                    .map_or(Date::MIN.day_number(), |older| History::last_birth_aged(at, older) + 1);
                let last = History::last_birth_aged(at, min);
                // Both ends lie within a day of the calendar, so in `i32`.
                match (i32::try_from(first), i32::try_from(last)) {
                    (Ok(first), Ok(last)) if first <= last => ColumnTest::Born { first, last },
                    _ => ColumnTest::Nobody,
                }
            }
            HistoryQuery::SexIs(sex) => ColumnTest::Sex(sex),
            _ => ColumnTest::Nobody,
        }
    }

    /// The rows of `span` that pass, relative to its start: one pass over
    /// the column's slice in each chunk the span covers.
    fn rows(&self, collection: &HistoryCollection, span: Range<usize>) -> Bitmap {
        let spans = collection.spans(span);
        match *self {
            // `&`, not `&&`: a birth date falls inside the interval about
            // as often as not, and a branch on that cannot be predicted.
            ColumnTest::Born { first, last } => {
                Bitmap::from_column(spans.map(|s| s.births), |&born| (first <= born) & (born <= last))
            }
            ColumnTest::Sex(sex) => Bitmap::from_column(spans.map(|s| s.sexes), |&s| s == sex),
            ColumnTest::Nobody => Bitmap::new(),
        }
    }
}

/// Cross-shard tallies of PatternScan work. Atomics because the shard
/// fan-out runs workers in parallel; relaxed ordering suffices — the
/// totals are read only after the fan-out joins.
#[derive(Default)]
struct PatternCounters {
    candidates: AtomicU64,
    runs: AtomicU64,
}

/// Aggregate execution statistics of one plan run, summed across
/// shards. Zero for plans without temporal patterns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Histories that survived the index prefilter and were handed to a
    /// temporal-pattern scan.
    pub pattern_candidates: u64,
    /// Pattern scans run, one per candidate verified. (The name predates
    /// the scan; the harness and the `/metrics` gauge read it.)
    pub pattern_automaton_runs: u64,
}

/// Prepare a plan tree for execution: fetches read the slots the plan
/// resolved, and every residual query is bound once to `dict`, the
/// collection's dictionary.
fn lower<'q>(node: &'q PlanNode, dict: &Arc<CodeDictionary>, trace: bool) -> ExecNode<'q> {
    let kind = match node {
        PlanNode::AllRows => ExecKind::AllRows,
        PlanNode::Empty => ExecKind::Empty,
        PlanNode::IndexFetch { slots, .. } => ExecKind::Fetch(slots),
        PlanNode::ColumnFetch { query } => ExecKind::Column(ColumnTest::bind(query)),
        PlanNode::Complement(c) => ExecKind::Complement(Box::new(lower(c, dict, trace))),
        PlanNode::Intersect(cs) => {
            ExecKind::Intersect(cs.iter().map(|c| lower(c, dict, trace)).collect())
        }
        PlanNode::Union(cs) => ExecKind::Union(cs.iter().map(|c| lower(c, dict, trace)).collect()),
        PlanNode::Filter { query, input } | PlanNode::PatternScan { query, input } => {
            ExecKind::Verify {
                query: BoundQuery::new(query, dict),
                input: Some(Box::new(lower(input, dict, trace))),
                pattern: matches!(node, PlanNode::PatternScan { .. }),
            }
        }
        PlanNode::FullScan { query } => {
            ExecKind::Verify { query: BoundQuery::new(query, dict), input: None, pattern: false }
        }
    };
    ExecNode {
        op: node.op(),
        detail: if trace { node.detail() } else { String::new() },
        kind,
    }
}

/// Evaluate a lowered tree over one index shard. Everything is
/// shard-relative: the universe is `0..shard.rows`, fetches use the
/// shard's postings, and residual predicates look histories up at
/// `shard.base + relative`. The result bitmap's positions are
/// shard-relative too — the caller rebases while concatenating.
fn exec_shard(
    node: &ExecNode<'_>,
    collection: &HistoryCollection,
    shard: &IndexShard,
    trace: bool,
    counters: &PatternCounters,
) -> (Bitmap, Option<ExplainNode>) {
    // Explain timings are observability, not results: the positions a
    // plan returns are deterministic at any thread count; only the
    // elapsed_us annotations vary run to run.
    // explain timing annotation only, results unaffected
    let started = if trace { Some(std::time::Instant::now()) } else { None };
    let mut children: Vec<ExplainNode> = Vec::new();
    let mut child = |result: (Bitmap, Option<ExplainNode>)| -> Bitmap {
        if let Some(n) = result.1 {
            children.push(n);
        }
        result.0
    };
    let mut node_counters: Vec<(String, u64)> = Vec::new();
    let out = match &node.kind {
        ExecKind::AllRows => Bitmap::full(shard.rows),
        ExecKind::Empty => Bitmap::new(),
        ExecKind::Fetch(slots) => shard.union_slots(slots),
        ExecKind::Column(test) => {
            let start = shard.base as usize;
            test.rows(collection, start..start + shard.rows as usize)
        }
        ExecKind::Complement(c) => {
            let inner = child(exec_shard(c, collection, shard, trace, counters));
            inner.complement_up_to(shard.rows)
        }
        ExecKind::Intersect(cs) => {
            let mut acc: Option<Bitmap> = None;
            for c in cs {
                if acc.as_ref().is_some_and(Bitmap::is_empty) {
                    break; // ∩ with ∅ stays ∅ — skip remaining children.
                }
                let set = child(exec_shard(c, collection, shard, trace, counters));
                acc = Some(match acc {
                    Some(prev) => prev.intersect(&set),
                    None => set,
                });
            }
            acc.unwrap_or_default()
        }
        ExecKind::Union(cs) => {
            let mut acc = Bitmap::new();
            for c in cs {
                let set = child(exec_shard(c, collection, shard, trace, counters));
                acc = acc.union(&set);
            }
            acc
        }
        ExecKind::Verify { query, input, pattern } => {
            // Decode happens once at the set-algebra/verification
            // boundary, not inside the algebra: residual predicates need
            // the actual histories.
            let mut candidates = Vec::new();
            match input {
                Some(input) => child(exec_shard(input, collection, shard, trace, counters))
                    .decode_into(0, &mut candidates),
                None => candidates.extend(0..shard.rows),
            }
            if *pattern {
                // One pattern scan per surviving candidate, stopping at its
                // first hit.
                let n = candidates.len() as u64;
                counters.candidates.fetch_add(n, Ordering::Relaxed);
                counters.runs.fetch_add(n, Ordering::Relaxed);
                if trace {
                    node_counters.push(("candidates".to_owned(), n));
                    node_counters.push(("automaton_runs".to_owned(), n));
                }
            }
            // Each chunk writes its survivors, ascending, straight into a
            // bitmap; one chunk (one thread, or a shard worker) is the
            // shard's answer with no merge.
            let histories = collection.histories();
            #[expect(
                clippy::indexing_slicing,
                reason = "candidates are shard positions and shards tile rows() exactly"
            )]
            let kept = pastas_par::par_chunks(&candidates, PAR_MIN_CANDIDATES, |_, chunk| {
                chunk
                    .iter()
                    .copied()
                    .filter(|&rel| query.matches(&histories[(shard.base + rel) as usize]))
                    .collect::<Bitmap>()
            });
            kept.into_iter().reduce(|acc, chunk| acc.union(&chunk)).unwrap_or_default()
        }
    };
    let explain = started.map(|t0| ExplainNode {
        op: node.op.to_owned(),
        detail: node.detail.clone(),
        rows: out.len(),
        elapsed_us: u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
        counters: node_counters,
        children,
    });
    (out, explain)
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

/// One executed operator with its observed candidate count and wall
/// time (inclusive of children).
#[derive(Debug, Clone)]
pub struct ExplainNode {
    /// Operator name (`IndexFetch`, `Intersect`, `Filter`, …).
    pub op: String,
    /// Operand summary (patterns or residual-query fingerprint).
    pub detail: String,
    /// Positions this node produced.
    pub rows: usize,
    /// Wall time in microseconds, children included.
    pub elapsed_us: u64,
    /// Named per-operator tallies (e.g. PatternScan's `candidates` and
    /// `automaton_runs`, its pattern scans), summed across shards. Empty
    /// for most nodes.
    pub counters: Vec<(String, u64)>,
    /// Child operators in evaluation order.
    pub children: Vec<ExplainNode>,
}

/// The executed operator tree of one selection — candidate counts and
/// timings per node, for debugging and the serve layer's `?explain=1`.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The root operator.
    pub root: ExplainNode,
}

impl Explain {
    /// Did execution evaluate the query against every history?
    pub fn used_full_scan(&self) -> bool {
        fn walk(n: &ExplainNode) -> bool {
            n.op == "FullScan" || n.children.iter().any(walk)
        }
        walk(&self.root)
    }

    /// Largest candidate set any per-history verification (Filter or
    /// FullScan) worked through — "how many histories did we actually
    /// have to look at".
    pub fn max_verified_candidates(&self) -> usize {
        fn walk(n: &ExplainNode) -> usize {
            let own = match n.op.as_str() {
                // Filter / PatternScan verify their input's rows; FullScan
                // all rows it produced is a lower bound, so count its
                // output.
                "Filter" | "PatternScan" => n.children.iter().map(|c| c.rows).max().unwrap_or(0),
                "FullScan" => usize::MAX,
                _ => 0,
            };
            n.children.iter().map(walk).fold(own, usize::max)
        }
        walk(&self.root)
    }

    /// Indented text rendering (one operator per line).
    pub fn render_text(&self) -> String {
        fn walk(n: &ExplainNode, depth: usize, out: &mut String) {
            use std::fmt::Write as _;
            for _ in 0..depth {
                out.push_str("  ");
            }
            let _ = write!(out, "{}", n.op);
            if !n.detail.is_empty() {
                let _ = write!(out, "({})", n.detail);
            }
            let _ = write!(out, "  rows={}", n.rows);
            for (name, v) in &n.counters {
                let _ = write!(out, "  {name}={v}");
            }
            let _ = writeln!(out, "  {:.3} ms", n.elapsed_us as f64 / 1e3);
            for c in &n.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(&self.root, 0, &mut out);
        out
    }

    /// JSON rendering (nested objects mirroring the operator tree).
    pub fn render_json(&self) -> String {
        fn walk(n: &ExplainNode, out: &mut String) {
            use std::fmt::Write as _;
            out.push_str("{\"op\":");
            write_string(out, &n.op);
            out.push_str(",\"detail\":");
            write_string(out, &n.detail);
            let _ = write!(out, ",\"rows\":{},\"elapsed_us\":{}", n.rows, n.elapsed_us);
            if !n.counters.is_empty() {
                out.push_str(",\"counters\":{");
                for (i, (name, v)) in n.counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, name);
                    let _ = write!(out, ":{v}");
                }
                out.push('}');
            }
            out.push_str(",\"children\":[");
            for (i, c) in n.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                walk(c, out);
            }
            out.push_str("]}");
        }
        let mut out = String::with_capacity(256);
        walk(&self.root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::select_scan;
    use crate::query::QueryBuilder;
    use pastas_synth::{generate_collection, SynthConfig};

    #[test]
    fn reference_set_algebra_merges() {
        use reference::{complement, intersect2, union2};
        assert_eq!(intersect2(&[1, 3, 5, 9], &[2, 3, 9, 12]), vec![3, 9]);
        assert_eq!(intersect2(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(union2(&[1, 5], &[2, 5, 7]), vec![1, 2, 5, 7]);
        assert_eq!(union2(&[], &[]), Vec::<u32>::new());
        assert_eq!(complement(&[0, 2, 3], 6), vec![1, 4, 5]);
        assert_eq!(complement(&[], 3), vec![0, 1, 2]);
        assert_eq!(complement(&[0, 1, 2], 3), Vec::<u32>::new());
    }

    fn setup(n: usize) -> (pastas_model::HistoryCollection, CodeIndex) {
        let c = generate_collection(SynthConfig::with_patients(n), 71);
        let idx = CodeIndex::build(&c);
        (c, idx)
    }

    #[test]
    fn negated_clause_is_index_served() {
        let (c, idx) = setup(400);
        let q = QueryBuilder::new().lacks_code("T90").unwrap().build();
        let plan = QueryPlan::build(&idx, &c, &q);
        assert!(!plan.uses_full_scan(), "{}", plan.render());
        assert_eq!(plan.execute(&c, &idx), select_scan(&c, &q));
    }

    #[test]
    fn has_and_lacks_never_enumerates_all_histories() {
        // The regression the planner exists for: a positive + negative
        // code conjunction used to fall back to the full scan.
        let (c, idx) = setup(400);
        let q = QueryBuilder::new()
            .has_code("K86|K87")
            .unwrap()
            .lacks_code("T90")
            .unwrap()
            .build();
        let plan = QueryPlan::build(&idx, &c, &q);
        assert!(!plan.uses_full_scan(), "{}", plan.render());
        let (positions, explain) = plan.execute_explain(&c, &idx);
        assert!(!explain.used_full_scan(), "{}", explain.render_text());
        assert!(
            explain.max_verified_candidates() < c.len(),
            "verified {} of {}:\n{}",
            explain.max_verified_candidates(),
            c.len(),
            explain.render_text()
        );
        assert_eq!(positions, select_scan(&c, &q));
        assert!(!positions.is_empty(), "hypertensives without diabetes exist");
    }

    #[test]
    fn compound_negated_counted_query_agrees_with_scan() {
        let (c, idx) = setup(500);
        let q = QueryBuilder::new()
            .has_code("T90|T89")
            .unwrap()
            .lacks_code("K74")
            .unwrap()
            .count_at_least(EntryPredicate::IsDiagnosis, 3)
            .age_between(Date::new(2013, 1, 1).unwrap(), 40, 95)
            .build();
        let plan = QueryPlan::build(&idx, &c, &q);
        assert!(!plan.uses_full_scan(), "{}", plan.render());
        assert_eq!(plan.execute(&c, &idx), select_scan(&c, &q));
    }

    #[test]
    fn count_at_least_two_filters_fetch_candidates() {
        let (c, idx) = setup(400);
        let q = HistoryQuery::CountAtLeast(EntryPredicate::code_regex("T90").unwrap(), 2);
        let plan = QueryPlan::build(&idx, &c, &q);
        assert!(!plan.uses_full_scan(), "{}", plan.render());
        assert!(plan.render().starts_with("Filter"), "{}", plan.render());
        assert_eq!(plan.execute(&c, &idx), select_scan(&c, &q));
    }

    #[test]
    fn count_at_most_nonzero_unions_complement_with_verified_fetch() {
        let (c, idx) = setup(400);
        let q = HistoryQuery::CountAtMost(EntryPredicate::code_regex("A.*").unwrap(), 1);
        let plan = QueryPlan::build(&idx, &c, &q);
        assert!(!plan.uses_full_scan(), "{}", plan.render());
        assert_eq!(plan.execute(&c, &idx), select_scan(&c, &q));
    }

    #[test]
    fn or_with_residual_branch_still_unions_exactly() {
        let (c, idx) = setup(400);
        let q = HistoryQuery::Or(vec![
            QueryBuilder::new().has_code("T90").unwrap().build(),
            HistoryQuery::CountAtLeast(EntryPredicate::IsDiagnosis, 6),
        ]);
        let plan = QueryPlan::build(&idx, &c, &q);
        // The cover-free count can only scan, but the scan evaluates just
        // that branch, and the union with the posting fetch is exact.
        assert!(plan.uses_full_scan());
        assert_eq!(plan.execute(&c, &idx), select_scan(&c, &q));
    }

    #[test]
    fn purely_demographic_query_is_index_served() {
        let (c, idx) = setup(300);
        let age = HistoryQuery::AgeBetween { at: Date::new(2013, 1, 1).unwrap(), min: 40, max: 90 };
        let male = HistoryQuery::SexIs(Sex::Male);
        let not = |q: &HistoryQuery| HistoryQuery::Not(Box::new(q.clone()));
        let has = QueryBuilder::new().has_code("K.*").unwrap().lacks_code("T90").unwrap().build();
        for q in [
            HistoryQuery::And(vec![male.clone(), age.clone()]),
            HistoryQuery::Or(vec![not(&male), not(&age)]),
            HistoryQuery::And(vec![has, age.clone()]),
            not(&age),
        ] {
            let plan = QueryPlan::build(&idx, &c, &q);
            let rendered = plan.render();
            assert!(!plan.uses_full_scan(), "{rendered}");
            assert!(!rendered.contains("Filter"), "{rendered}");
            assert!(rendered.contains("IndexFetch(column="), "{rendered}");
            let (positions, explain) = plan.execute_explain(&c, &idx);
            assert_eq!(positions, select_scan(&c, &q), "{rendered}");
            assert!(!positions.is_empty() && positions.len() < c.len(), "{rendered}");
            // No history was looked at, and the leaf names its bounds.
            assert_eq!(explain.max_verified_candidates(), 0, "{}", explain.render_text());
            assert!(
                explain.render_json().contains("\"op\":\"IndexFetch\",\"detail\":\"column="),
                "{}",
                explain.render_json()
            );
        }
    }

    /// The bound birth interval against `History::age_at`, on every birth
    /// date from 122 years before the reference date to two years after it
    /// — so every birthday boundary ±1 day, 29 February births and
    /// reference dates included — through the same day-number column and
    /// dense pass the shards read.
    #[test]
    fn bound_birth_interval_agrees_with_age_at_on_every_day() {
        use pastas_model::{Patient, PatientId};
        let ranges = [
            (0, 0),
            (0, 120),
            (40, 90),
            (65, 65),
            (18, 17),
            (-2, -1),
            (100, i32::MAX),
            (i32::MIN, 5),
            (i32::MAX, i32::MAX),
        ];
        for (y, m, d) in [(2013, 1, 1), (2012, 2, 29), (2013, 2, 28), (2013, 3, 1), (2016, 12, 31)] {
            let at = Date::new(y, m, d).unwrap();
            let first = Date::new(y - 122, m, 1).unwrap();
            let c = HistoryCollection::from_histories((0..=at.days_since(first) + 731).map(|n| {
                let birth_date = first.add_days(n);
                History::new(Patient { id: PatientId(n as u64), birth_date, sex: Sex::Female })
            }));
            let ages: Vec<i32> = c.iter().map(|h| h.age_at(at)).collect();
            assert_eq!((ages[0], *ages.last().unwrap()), (122, -3), "sweep spans the ages");
            for (min, max) in ranges {
                let q = HistoryQuery::AgeBetween { at, min, max };
                let test = ColumnTest::bind(&q);
                let got = test.rows(&c, 0..c.len()).to_vec();
                let want: Vec<u32> = (0..c.len() as u32)
                    .filter(|&i| (min..=max).contains(&ages[i as usize]))
                    .collect();
                assert_eq!(got, want, "age({min}..{max}) at {at}");
            }
        }
    }

    #[test]
    fn all_and_never_plans() {
        let (c, idx) = setup(100);
        let all = QueryPlan::build(&idx, &c, &HistoryQuery::All);
        assert_eq!(all.execute(&c, &idx).len(), 100);
        let never = HistoryQuery::Not(Box::new(HistoryQuery::All));
        let none = QueryPlan::build(&idx, &c, &never);
        assert!(none.execute(&c, &idx).is_empty());
        assert!(!none.uses_full_scan());
    }

    #[test]
    fn commuted_queries_share_plan_fingerprint() {
        let (c, idx) = setup(100);
        let a = QueryBuilder::new().has_code("T90").unwrap().lacks_code("K74").unwrap().build();
        let b = QueryBuilder::new().lacks_code("K74").unwrap().has_code("T90").unwrap().build();
        let pa = QueryPlan::build(&idx, &c, &a);
        let pb = QueryPlan::build(&idx, &c, &b);
        assert_eq!(pa.canonical_fingerprint(), pb.canonical_fingerprint());
        assert_eq!(pa.render(), pb.render(), "same canonical form, same plan");
    }

    #[test]
    fn explain_records_counts_and_structure() {
        let (c, idx) = setup(400);
        let q = QueryBuilder::new().has_code("T90").unwrap().lacks_code("K74").unwrap().build();
        let plan = QueryPlan::build(&idx, &c, &q);
        let (positions, explain) = plan.execute_explain(&c, &idx);
        assert_eq!(explain.root.rows, positions.len());
        assert!(!explain.root.children.is_empty());
        let text = explain.render_text();
        assert!(text.contains("IndexFetch"), "{text}");
        let json = explain.render_json();
        assert!(json.contains("\"op\":\"Intersect\"") || json.contains("\"op\":\"Complement\""));
        // The workspace JSON parser accepts it.
        assert!(pastas_ingest::json::Json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let c = generate_collection(SynthConfig::with_patients(1500), 71);
        let idx = CodeIndex::build(&c);
        let q = QueryBuilder::new()
            .has_code("[KT].*")
            .unwrap()
            .lacks_code("A0.*")
            .unwrap()
            .count_at_least(EntryPredicate::IsDiagnosis, 2)
            .build();
        let plan = QueryPlan::build(&idx, &c, &q);
        let serial = pastas_par::with_threads(1, || plan.execute(&c, &idx));
        for threads in [2, 8] {
            let par = pastas_par::with_threads(threads, || plan.execute(&c, &idx));
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn empty_collection_plans_and_executes() {
        let c = pastas_model::HistoryCollection::new();
        let idx = CodeIndex::build(&c);
        let q = QueryBuilder::new().has_code("T90").unwrap().lacks_code("X").unwrap().build();
        let plan = QueryPlan::build(&idx, &c, &q);
        assert!(plan.execute(&c, &idx).is_empty());
    }

    #[test]
    fn json_escaping_is_safe() {
        let escaped = |s: &str| {
            let mut out = String::new();
            write_string(&mut out, s);
            out
        };
        assert_eq!(escaped("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(escaped("plain"), "\"plain\"");
    }

    // -- plans over a patched index -----------------------------------------

    /// Mutate one existing patient and append one, returning the
    /// successor index `with_delta` patched.
    fn setup_with_delta(n: usize) -> (pastas_model::HistoryCollection, CodeIndex) {
        use pastas_codes::Code;
        use pastas_model::{Entry, OpenEpoch, Patient, PatientId, Payload, Sex, SourceKind};
        let mut c = generate_collection(SynthConfig::with_patients(n), 71);
        let idx = CodeIndex::build(&c);
        let diag = |y: i32, code: &str| {
            Entry::event(
                Date::new(y, 3, 1).unwrap().at_midnight(),
                Payload::Diagnosis(Code::icpc(code)),
                SourceKind::PrimaryCare,
            )
        };
        let mut epoch = OpenEpoch::new();
        epoch.append(*c.histories()[2].patient(), vec![diag(2016, "T90")]);
        let appended = Patient {
            id: PatientId(9_000_001),
            birth_date: Date::new(1950, 6, 15).unwrap(),
            sex: Sex::Female,
        };
        epoch.append(appended, vec![diag(2015, "K74"), diag(2016, "Z98")]);
        let touched = epoch.seal_into(&mut c);
        let dirty: Vec<u32> =
            touched.iter().map(|&id| c.position_of(id).unwrap() as u32).collect();
        let idx = idx.with_delta(&c, &dirty);
        idx.debug_validate(&c);
        (c, idx)
    }

    #[test]
    fn every_plan_shape_agrees_with_scan_after_a_delta() {
        let (c, idx) = setup_with_delta(400);
        let queries = [
            QueryBuilder::new().has_code("T90").unwrap().build(),
            QueryBuilder::new().lacks_code("T90").unwrap().build(),
            QueryBuilder::new().has_code("[KT].*").unwrap().lacks_code("Z98").unwrap().build(),
            HistoryQuery::CountAtLeast(EntryPredicate::code_regex("T90").unwrap(), 2),
            HistoryQuery::CountAtMost(EntryPredicate::code_regex("K.*").unwrap(), 1),
            HistoryQuery::Or(vec![
                QueryBuilder::new().has_code("Z98").unwrap().build(),
                HistoryQuery::SexIs(pastas_model::Sex::Female),
            ]),
            HistoryQuery::And(vec![
                HistoryQuery::SexIs(pastas_model::Sex::Male),
                HistoryQuery::AgeBetween {
                    at: Date::new(2013, 1, 1).unwrap(),
                    min: 40,
                    max: 90,
                },
            ]),
            HistoryQuery::All,
        ];
        for q in &queries {
            let plan = QueryPlan::build(&idx, &c, q);
            assert_eq!(plan.execute(&c, &idx), select_scan(&c, q), "query {q:?}");
        }
    }

    #[test]
    fn delta_plans_are_deterministic_across_thread_counts() {
        let (c, idx) = setup_with_delta(1500);
        let q = QueryBuilder::new()
            .has_code("[KT].*")
            .unwrap()
            .lacks_code("A0.*")
            .unwrap()
            .count_at_least(EntryPredicate::IsDiagnosis, 2)
            .build();
        let plan = QueryPlan::build(&idx, &c, &q);
        let serial = pastas_par::with_threads(1, || plan.execute(&c, &idx));
        for threads in [2, 8] {
            let par = pastas_par::with_threads(threads, || plan.execute(&c, &idx));
            assert_eq!(par, serial, "threads {threads}");
        }
        assert_eq!(serial, select_scan(&c, &q));
    }

    // -- temporal-pattern prefilter ----------------------------------------

    use crate::temporal::{GapBound, TemporalPattern};
    use pastas_time::Duration;

    fn cp(pat: &str) -> EntryPredicate {
        EntryPredicate::code_regex(pat).unwrap()
    }

    #[test]
    fn pattern_with_code_steps_is_index_prefiltered() {
        let (c, idx) = setup(400);
        let pat = TemporalPattern::starting_with(cp("T90"))
            .then(GapBound::any_later(), cp("K74|K75"));
        let q = HistoryQuery::Pattern(pat);
        let plan = QueryPlan::build(&idx, &c, &q);
        assert!(!plan.uses_full_scan(), "{}", plan.render());
        let rendered = plan.render();
        assert!(rendered.starts_with("PatternScan"), "{rendered}");
        assert!(rendered.contains("Intersect"), "{rendered}");
        assert!(rendered.contains("IndexFetch"), "{rendered}");
        let (positions, stats) = plan.execute_stats(&c, &idx);
        assert_eq!(positions, select_scan(&c, &q));
        assert!(
            stats.pattern_candidates > 0 && (stats.pattern_candidates as usize) < c.len(),
            "prefilter should prune: {stats:?}"
        );
        assert_eq!(stats.pattern_automaton_runs, stats.pattern_candidates);
    }

    #[test]
    fn pattern_explain_reports_candidate_counters() {
        let (c, idx) = setup(400);
        let q = HistoryQuery::Pattern(
            TemporalPattern::starting_with(cp("T90"))
                .then(GapBound::within(Duration::days(365)), cp("K74")),
        );
        let plan = QueryPlan::build(&idx, &c, &q);
        let (positions, explain, stats) = plan.execute_explain_stats(&c, &idx);
        assert_eq!(positions, select_scan(&c, &q));
        assert!(!explain.used_full_scan(), "{}", explain.render_text());
        let text = explain.render_text();
        assert!(text.contains("PatternScan"), "{text}");
        assert!(
            text.contains(&format!("candidates={}", stats.pattern_candidates)),
            "{text}\n{stats:?}"
        );
        assert!(
            explain.max_verified_candidates() < c.len(),
            "verified {} of {}",
            explain.max_verified_candidates(),
            c.len()
        );
        let json = explain.render_json();
        assert!(json.contains("\"counters\""), "{json}");
        assert!(pastas_ingest::json::Json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn pattern_without_code_cover_scans_honestly() {
        let (c, idx) = setup(300);
        let q = HistoryQuery::Pattern(
            TemporalPattern::starting_with(EntryPredicate::IsInterval)
                .then(GapBound::within(Duration::days(30)), EntryPredicate::IsMedication),
        );
        let plan = QueryPlan::build(&idx, &c, &q);
        assert!(plan.uses_full_scan(), "{}", plan.render());
        let (positions, stats) = plan.execute_stats(&c, &idx);
        assert_eq!(positions, select_scan(&c, &q));
        assert_eq!(stats, ExecStats::default(), "no PatternScan ran");
    }

    #[test]
    fn duplicate_step_covers_prefilter_once() {
        let (c, idx) = setup(200);
        let q = HistoryQuery::Pattern(
            TemporalPattern::starting_with(cp("T90"))
                .then(GapBound::any_later(), cp("T90")),
        );
        let plan = QueryPlan::build(&idx, &c, &q);
        let rendered = plan.render();
        assert!(!rendered.contains("Intersect"), "one distinct cover: {rendered}");
        assert_eq!(rendered.matches("IndexFetch").count(), 1, "{rendered}");
        assert_eq!(plan.execute(&c, &idx), select_scan(&c, &q));
    }

    #[test]
    fn pattern_inside_conjunction_keeps_the_prefilter() {
        let (c, idx) = setup(400);
        let q = QueryBuilder::new()
            .lacks_code("Z98")
            .unwrap()
            .pattern(
                TemporalPattern::starting_with(cp("T90"))
                    .then(GapBound::within(Duration::days(400)), cp("K74|T89")),
            )
            .build();
        let plan = QueryPlan::build(&idx, &c, &q);
        assert!(!plan.uses_full_scan(), "{}", plan.render());
        assert!(plan.render().contains("PatternScan"), "{}", plan.render());
        assert_eq!(plan.execute(&c, &idx), select_scan(&c, &q));
    }

    #[test]
    fn pattern_plans_agree_with_scan_after_a_delta() {
        let (c, idx) = setup_with_delta(400);
        let queries = [
            HistoryQuery::Pattern(
                TemporalPattern::starting_with(cp("T90"))
                    .then(GapBound::any_later(), cp("K74|Z98")),
            ),
            HistoryQuery::Pattern(TemporalPattern::starting_with(cp("Z98"))),
        ];
        for q in &queries {
            let plan = QueryPlan::build(&idx, &c, q);
            assert_eq!(plan.execute(&c, &idx), select_scan(&c, q), "query {q:?}");
        }
    }

    #[test]
    fn pattern_execution_is_deterministic_across_thread_counts() {
        let c = generate_collection(SynthConfig::with_patients(1500), 71);
        let idx = CodeIndex::build(&c);
        let q = HistoryQuery::Pattern(
            TemporalPattern::starting_with(cp("[KT].*"))
                .then(GapBound::within(Duration::days(365)), cp("T90|K74")),
        );
        let plan = QueryPlan::build(&idx, &c, &q);
        let (serial, serial_stats) =
            pastas_par::with_threads(1, || plan.execute_stats(&c, &idx));
        for threads in [2, 8] {
            let (par, par_stats) =
                pastas_par::with_threads(threads, || plan.execute_stats(&c, &idx));
            assert_eq!(par, serial, "threads {threads}");
            assert_eq!(par_stats, serial_stats, "stats at threads {threads}");
        }
        assert_eq!(serial, select_scan(&c, &q));
    }
}
