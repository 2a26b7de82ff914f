//! Logical query normalization: one canonical form per query meaning.
//!
//! The planner ([`crate::plan`]) and the workbench's selection cache both
//! want *logically equivalent* queries to collapse onto one
//! representation: `And(a, b)` and `And(b, a)` must produce the same plan
//! and the same cache key, and a `not has(X)` written three different
//! ways (`not has(X)`, `lacks(X)`, `not not lacks(X)`) must be one query.
//!
//! The canonical form:
//!
//! * **Negation at the leaves.** `Not` is pushed down through `And`/`Or`
//!   (De Morgan) and eliminated over counts (`¬(count ≥ n)` ⇔
//!   `count ≤ n−1`, `¬(count ≤ n)` ⇔ `count ≥ n+1`), so the only
//!   surviving `Not` wraps leaves with no complemented form
//!   ([`HistoryQuery::Pattern`], [`HistoryQuery::AgeBetween`],
//!   [`HistoryQuery::SexIs`]) — plus the canonical never-matches query
//!   `Not(All)`.
//! * **Flat combinators.** Nested `And(And(..))` / `Or(Or(..))` are
//!   spliced into one level; vacuous clauses are absorbed (`All` drops
//!   out of a conjunction, collapses a disjunction; `Not(All)` dually).
//! * **Sorted, deduplicated clauses.** `And`/`Or` operands are ordered by
//!   their canonical [`HistoryQuery::fingerprint`] and deduplicated, so
//!   commuted or repeated clauses converge.
//! * **No trivial counts.** `CountAtLeast(p, 0)` is vacuously true and
//!   becomes `All`.
//!
//! Normalization is **idempotent** (`normalize(normalize(q))` ≡
//! `normalize(q)`) and **semantics-preserving** (the normalized query
//! matches exactly the histories the original matches) — both are
//! property-tested in `proptests.rs`. The canonical fingerprint of a
//! query is simply `normalize(q).fingerprint()`.

use crate::query::{one_or, HistoryQuery};

/// Rewrite a query into its canonical form (see the module docs).
pub fn normalize(query: &HistoryQuery) -> HistoryQuery {
    norm(query, false)
}

/// The canonical fingerprint: the fingerprint of the normalized form.
/// Logically-equivalent-by-rewriting queries (commuted conjunctions,
/// double negations, `lacks` vs `not has`) share one value; the
/// workbench keys its selection cache on it.
pub fn canonical_fingerprint(query: &HistoryQuery) -> String {
    normalize(query).fingerprint()
}

/// The canonical never-matches query. `Not` over `All` is the one
/// negation the normal form keeps at the root, representing `false`.
pub(crate) fn never() -> HistoryQuery {
    HistoryQuery::Not(Box::new(HistoryQuery::All))
}

/// Is this the canonical `false` (i.e. [`never`])?
pub(crate) fn is_never(q: &HistoryQuery) -> bool {
    matches!(q, HistoryQuery::Not(inner) if matches!(**inner, HistoryQuery::All))
}

/// Normalize `q` under `negate` pending negations (parity of the `Not`s
/// seen on the way down).
fn norm(q: &HistoryQuery, negate: bool) -> HistoryQuery {
    match q {
        HistoryQuery::All => {
            if negate {
                never()
            } else {
                HistoryQuery::All
            }
        }
        HistoryQuery::CountAtLeast(p, n) => {
            if negate {
                match n.checked_sub(1) {
                    // ¬(count ≥ n) ⇔ count ≤ n−1.
                    Some(m) => HistoryQuery::CountAtMost(p.clone(), m),
                    // count ≥ 0 is vacuous, so its negation never matches.
                    None => never(),
                }
            } else if *n == 0 {
                HistoryQuery::All
            } else {
                HistoryQuery::CountAtLeast(p.clone(), *n)
            }
        }
        HistoryQuery::CountAtMost(p, n) => {
            if negate {
                // ¬(count ≤ n) ⇔ count ≥ n+1. Saturating: a real history
                // can never reach usize::MAX matching entries, so the
                // saturated threshold keeps the never-matches meaning.
                HistoryQuery::CountAtLeast(p.clone(), n.saturating_add(1))
            } else {
                HistoryQuery::CountAtMost(p.clone(), *n)
            }
        }
        HistoryQuery::Pattern(_) | HistoryQuery::AgeBetween { .. } | HistoryQuery::SexIs(_) => {
            // Leaves without a complemented form keep their Not.
            if negate {
                HistoryQuery::Not(Box::new(q.clone()))
            } else {
                q.clone()
            }
        }
        // De Morgan: negation flips the combinator and distributes, so a
        // conjunction stays a conjunction iff no negation is pending.
        HistoryQuery::And(qs) => combine(qs, negate, negate),
        HistoryQuery::Or(qs) => combine(qs, negate, !negate),
        HistoryQuery::Not(inner) => norm(inner, !negate),
    }
}

/// Normalize the children of a combinator (each under `negate`), then
/// flatten / absorb / sort / deduplicate. `as_or` says whether the
/// *output* combinator is a disjunction.
fn combine(qs: &[HistoryQuery], negate: bool, as_or: bool) -> HistoryQuery {
    let mut flat: Vec<HistoryQuery> = Vec::with_capacity(qs.len());
    for q in qs {
        let n = norm(q, negate);
        // Children are already canonical, so same-variant nesting is at
        // most one level deep — splice it here.
        match n {
            HistoryQuery::And(inner) if !as_or => flat.extend(inner),
            HistoryQuery::Or(inner) if as_or => flat.extend(inner),
            other => flat.push(other),
        }
    }
    // Absorption: `All` is the identity of ∧ and a zero of ∨; `Not(All)`
    // dually.
    if as_or {
        if flat.iter().any(|q| matches!(q, HistoryQuery::All)) {
            return HistoryQuery::All;
        }
        flat.retain(|q| !is_never(q));
    } else {
        if flat.iter().any(is_never) {
            return never();
        }
        flat.retain(|q| !matches!(q, HistoryQuery::All));
    }
    // Canonical clause order, duplicates collapsed.
    let mut keyed: Vec<(String, HistoryQuery)> =
        flat.into_iter().map(|q| (q.fingerprint(), q)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    let flat: Vec<HistoryQuery> = keyed.into_iter().map(|(_, q)| q).collect();
    // An empty conjunction is vacuously true; an empty disjunction
    // (every branch absorbed as never-matching) is false.
    match (flat.is_empty(), as_or) {
        (true, true) => never(),
        (true, false) => HistoryQuery::All,
        (false, true) => one_or(flat, HistoryQuery::Or),
        (false, false) => one_or(flat, HistoryQuery::And),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::EntryPredicate;
    use crate::query::QueryBuilder;
    use pastas_time::Date;

    fn has(pat: &str) -> HistoryQuery {
        HistoryQuery::any(EntryPredicate::code_regex(pat).unwrap())
    }

    fn lacks(pat: &str) -> HistoryQuery {
        HistoryQuery::none(EntryPredicate::code_regex(pat).unwrap())
    }

    fn age() -> HistoryQuery {
        HistoryQuery::AgeBetween { at: Date::new(2013, 1, 1).unwrap(), min: 50, max: 80 }
    }

    #[test]
    fn commuted_conjunctions_share_a_fingerprint() {
        let ab = HistoryQuery::And(vec![has("T90"), age()]);
        let ba = HistoryQuery::And(vec![age(), has("T90")]);
        assert_eq!(canonical_fingerprint(&ab), canonical_fingerprint(&ba));
        // The raw fingerprints differ — that is the bug being fixed.
        assert_ne!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn double_negation_cancels() {
        let q = HistoryQuery::Not(Box::new(HistoryQuery::Not(Box::new(has("T90")))));
        assert_eq!(canonical_fingerprint(&q), canonical_fingerprint(&has("T90")));
    }

    #[test]
    fn not_has_is_lacks() {
        let not_has = HistoryQuery::Not(Box::new(has("T90")));
        assert_eq!(canonical_fingerprint(&not_has), canonical_fingerprint(&lacks("T90")));
    }

    #[test]
    fn not_lacks_is_has() {
        let not_lacks = HistoryQuery::Not(Box::new(lacks("T90")));
        assert_eq!(canonical_fingerprint(&not_lacks), canonical_fingerprint(&has("T90")));
    }

    #[test]
    fn de_morgan_pushes_not_to_leaves() {
        let q = HistoryQuery::Not(Box::new(HistoryQuery::And(vec![has("T90"), has("K74")])));
        let n = normalize(&q);
        // ¬(a ∧ b) = ¬a ∨ ¬b, with each ¬ dissolved into a count bound.
        match &n {
            HistoryQuery::Or(branches) => {
                assert_eq!(branches.len(), 2);
                for b in branches {
                    assert!(matches!(b, HistoryQuery::CountAtMost(_, 0)), "{b:?}");
                }
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn nested_combinators_flatten_and_dedup() {
        let q = HistoryQuery::And(vec![
            HistoryQuery::And(vec![has("T90"), age()]),
            has("T90"),
            HistoryQuery::All,
        ]);
        let n = normalize(&q);
        match &n {
            HistoryQuery::And(clauses) => assert_eq!(clauses.len(), 2, "{clauses:?}"),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn vacuous_counts_and_absorption() {
        let vacuous = HistoryQuery::CountAtLeast(EntryPredicate::Any, 0);
        assert_eq!(canonical_fingerprint(&vacuous), HistoryQuery::All.fingerprint());
        let or_all = HistoryQuery::Or(vec![has("T90"), HistoryQuery::All]);
        assert_eq!(canonical_fingerprint(&or_all), HistoryQuery::All.fingerprint());
        let and_never = HistoryQuery::And(vec![has("T90"), never()]);
        assert_eq!(canonical_fingerprint(&and_never), never().fingerprint());
        // ¬(count ≥ 0) never matches.
        let not_vacuous = HistoryQuery::Not(Box::new(vacuous));
        assert_eq!(canonical_fingerprint(&not_vacuous), never().fingerprint());
    }

    #[test]
    fn singleton_combinators_unwrap() {
        let q = HistoryQuery::And(vec![has("T90")]);
        assert_eq!(canonical_fingerprint(&q), canonical_fingerprint(&has("T90")));
        let q = HistoryQuery::Or(vec![age()]);
        assert_eq!(canonical_fingerprint(&q), canonical_fingerprint(&age()));
    }

    #[test]
    fn normalization_is_idempotent_on_builder_queries() {
        let q = QueryBuilder::new()
            .has_code("T90|T89")
            .unwrap()
            .lacks_code("K74")
            .unwrap()
            .age_between(Date::new(2013, 1, 1).unwrap(), 50, 80)
            .build();
        let once = normalize(&q);
        let twice = normalize(&once);
        assert_eq!(once.fingerprint(), twice.fingerprint());
    }

    #[test]
    fn normalization_preserves_matching() {
        use pastas_synth::{generate_collection, SynthConfig};
        let c = generate_collection(SynthConfig::with_patients(200), 13);
        let queries = [
            HistoryQuery::Not(Box::new(HistoryQuery::And(vec![has("T90"), age()]))),
            HistoryQuery::Or(vec![
                HistoryQuery::Not(Box::new(has("K.*"))),
                HistoryQuery::And(vec![has("T90"), has("T90")]),
            ]),
            HistoryQuery::Not(Box::new(HistoryQuery::Not(Box::new(lacks("A.*"))))),
        ];
        for q in &queries {
            let n = normalize(q);
            for h in &c {
                assert_eq!(q.matches(h), n.matches(h), "{q:?} vs {n:?}");
            }
        }
    }
}
