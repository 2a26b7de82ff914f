//! History-level queries and the Fig. 4 query builder.

use crate::predicate::{BoundPredicate, EntryPredicate};
use crate::temporal::TemporalPattern;
use pastas_model::{CodeDictionary, EntryRef, History, Sex};
use pastas_time::Date;
use std::sync::Arc;

/// A query over a whole patient history — the unit the cohort selector
/// evaluates. "General practitioners cannot be expected to be acquainted
/// with regular expressions. This means that a graphical user interface is
/// needed" (§IV.A): [`QueryBuilder`] is that interface, headless.
#[derive(Debug, Clone)]
pub enum HistoryQuery {
    /// Every history.
    All,
    /// At least `n` entries match the predicate.
    CountAtLeast(EntryPredicate, usize),
    /// At most `n` entries match the predicate (0 = absence, the paper's
    /// "presence or absence of a given code").
    CountAtMost(EntryPredicate, usize),
    /// The temporal pattern has at least one hit.
    Pattern(TemporalPattern),
    /// Patient age at `at` is within `[min, max]`.
    AgeBetween {
        /// Reference date for the age computation.
        at: Date,
        /// Inclusive minimum age in years.
        min: i32,
        /// Inclusive maximum age in years.
        max: i32,
    },
    /// Patient sex.
    SexIs(Sex),
    /// Conjunction.
    And(Vec<HistoryQuery>),
    /// Disjunction.
    Or(Vec<HistoryQuery>),
    /// Negation.
    Not(Box<HistoryQuery>),
}

impl HistoryQuery {
    /// Shorthand: at least one entry matches.
    pub fn any(pred: EntryPredicate) -> HistoryQuery {
        HistoryQuery::CountAtLeast(pred, 1)
    }

    /// Shorthand: no entry matches.
    pub fn none(pred: EntryPredicate) -> HistoryQuery {
        HistoryQuery::CountAtMost(pred, 0)
    }

    /// Evaluate against one history, testing entries with
    /// [`EntryPredicate::matches`] — the reference that
    /// [`crate::index::select_scan`] runs.
    pub fn matches(&self, history: &History) -> bool {
        match self {
            HistoryQuery::All => true,
            HistoryQuery::CountAtLeast(p, n) => at_least(history, *n, |e| p.matches(e)),
            HistoryQuery::CountAtMost(p, n) => !at_least(history, n.saturating_add(1), |e| p.matches(e)),
            HistoryQuery::Pattern(pat) => pat.matches(history),
            HistoryQuery::AgeBetween { at, min, max } => {
                let age = history.age_at(*at);
                (*min..=*max).contains(&age)
            }
            HistoryQuery::SexIs(s) => history.patient().sex == *s,
            HistoryQuery::And(qs) => qs.iter().all(|q| q.matches(history)),
            HistoryQuery::Or(qs) => qs.iter().any(|q| q.matches(history)),
            HistoryQuery::Not(q) => !q.matches(history),
        }
    }

    /// A canonical, deterministic fingerprint of this query.
    ///
    /// Two queries fingerprint identically iff they are structurally
    /// equal: regexes contribute their source pattern (not their
    /// compiled form), dates their ISO form, and combinators
    /// parenthesize their operands. The workbench keys its selection
    /// cache on this string, so it must stay injective over query
    /// semantics and stable across internal representation changes —
    /// properties the previous `Debug`-derived key could not promise.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        self.write_fingerprint(&mut out);
        out
    }

    fn write_fingerprint(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            HistoryQuery::All => out.push_str("all"),
            HistoryQuery::CountAtLeast(p, n) => {
                let _ = write!(out, ">={n}:");
                p.write_fingerprint(out);
            }
            HistoryQuery::CountAtMost(p, n) => {
                let _ = write!(out, "<={n}:");
                p.write_fingerprint(out);
            }
            HistoryQuery::Pattern(pat) => pat.write_fingerprint(out),
            HistoryQuery::AgeBetween { at, min, max } => {
                let _ = write!(out, "age@{at}:{min}..{max}");
            }
            HistoryQuery::SexIs(s) => {
                let _ = write!(out, "sex:{s:?}");
            }
            HistoryQuery::And(qs) => {
                out.push_str("&(");
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    q.write_fingerprint(out);
                }
                out.push(')');
            }
            HistoryQuery::Or(qs) => {
                out.push_str("|(");
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    q.write_fingerprint(out);
                }
                out.push(')');
            }
            HistoryQuery::Not(q) => {
                out.push_str("!(");
                q.write_fingerprint(out);
                out.push(')');
            }
        }
    }
}

/// True if at least `n` entries of `history` pass `test`, testing
/// entries only until the `n`-th passes.
fn at_least<'h>(history: &'h History, n: usize, mut test: impl FnMut(EntryRef<'h>) -> bool) -> bool {
    history.entries().iter().filter(|&e| test(e)).take(n).count() == n
}

/// A [`HistoryQuery`] whose entry predicates (count leaves and pattern
/// steps) are each bound once to the collection's code dictionary
/// ([`BoundPredicate`]), in a tree that mirrors the query's:
/// [`BoundQuery::matches`] answers as [`HistoryQuery::matches`] does and
/// tests no entry by a string. One binding a plan execution serves every
/// shard worker and chunk.
pub(crate) enum BoundQuery<'q> {
    /// A clause that reads the patient, not the entries (`All`,
    /// `AgeBetween`, `SexIs`).
    Patient(&'q HistoryQuery),
    AtLeast(BoundPredicate<'q>, usize),
    AtMost(BoundPredicate<'q>, usize),
    /// A pattern and its steps' predicates, in step order.
    Pattern(&'q TemporalPattern, Vec<BoundPredicate<'q>>),
    And(Vec<BoundQuery<'q>>),
    Or(Vec<BoundQuery<'q>>),
    Not(Box<BoundQuery<'q>>),
}

impl<'q> BoundQuery<'q> {
    /// Bind `query` to `dict`, the dictionary of the collection whose
    /// histories it will test.
    pub(crate) fn new(query: &'q HistoryQuery, dict: &Arc<CodeDictionary>) -> BoundQuery<'q> {
        let all = |qs: &'q [HistoryQuery]| qs.iter().map(|q| BoundQuery::new(q, dict)).collect();
        match query {
            HistoryQuery::CountAtLeast(p, n) => BoundQuery::AtLeast(BoundPredicate::new(p, dict), *n),
            HistoryQuery::CountAtMost(p, n) => BoundQuery::AtMost(BoundPredicate::new(p, dict), *n),
            HistoryQuery::Pattern(pat) => BoundQuery::Pattern(
                pat,
                pat.step_predicates().map(|p| BoundPredicate::new(p, dict)).collect(),
            ),
            HistoryQuery::And(qs) => BoundQuery::And(all(qs)),
            HistoryQuery::Or(qs) => BoundQuery::Or(all(qs)),
            HistoryQuery::Not(q) => BoundQuery::Not(Box::new(BoundQuery::new(q, dict))),
            HistoryQuery::All | HistoryQuery::AgeBetween { .. } | HistoryQuery::SexIs(_) => {
                BoundQuery::Patient(query)
            }
        }
    }

    /// Evaluate the query against `history`.
    pub(crate) fn matches(&self, history: &History) -> bool {
        match self {
            BoundQuery::Patient(q) => q.matches(history),
            BoundQuery::AtLeast(p, n) => at_least(history, *n, |e| p.matches(e)),
            BoundQuery::AtMost(p, n) => !at_least(history, n.saturating_add(1), |e| p.matches(e)),
            BoundQuery::Pattern(pat, steps) => pat.matches_with(history.entries(), &mut |step, e| {
                steps.get(step).is_some_and(|p| p.matches(e))
            }),
            BoundQuery::And(qs) => qs.iter().all(|q| q.matches(history)),
            BoundQuery::Or(qs) => qs.iter().any(|q| q.matches(history)),
            BoundQuery::Not(q) => !q.matches(history),
        }
    }
}

/// Fluent builder for [`HistoryQuery`] — the headless Fig. 4 dialog.
///
/// ```
/// use pastas_query::{QueryBuilder, EntryPredicate};
/// // "Diabetes patients aged 40–80 with at least 3 GP contacts"
/// let q = QueryBuilder::new()
///     .has_code("T90|E1[014].*").unwrap()
///     .age_between(pastas_time::Date::new(2013, 1, 1).unwrap(), 40, 80)
///     .count_at_least(EntryPredicate::IsDiagnosis, 3)
///     .build();
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    clauses: Vec<HistoryQuery>,
}

impl QueryBuilder {
    /// An empty builder (builds to [`HistoryQuery::All`]).
    pub fn new() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Require at least one entry whose code matches the regex in full.
    pub fn has_code(mut self, pattern: &str) -> Result<QueryBuilder, pastas_regex::ParseError> {
        self.clauses.push(HistoryQuery::any(EntryPredicate::code_regex(pattern)?));
        Ok(self)
    }

    /// Require the absence of any entry whose code matches.
    pub fn lacks_code(mut self, pattern: &str) -> Result<QueryBuilder, pastas_regex::ParseError> {
        self.clauses.push(HistoryQuery::none(EntryPredicate::code_regex(pattern)?));
        Ok(self)
    }

    /// Require at least `n` entries matching a predicate.
    pub fn count_at_least(mut self, pred: EntryPredicate, n: usize) -> QueryBuilder {
        self.clauses.push(HistoryQuery::CountAtLeast(pred, n));
        self
    }

    /// Require age within `[min, max]` at the reference date.
    pub fn age_between(mut self, at: Date, min: i32, max: i32) -> QueryBuilder {
        self.clauses.push(HistoryQuery::AgeBetween { at, min, max });
        self
    }

    /// Require a sex.
    pub fn sex(mut self, sex: Sex) -> QueryBuilder {
        self.clauses.push(HistoryQuery::SexIs(sex));
        self
    }

    /// Require a temporal pattern hit.
    pub fn pattern(mut self, pattern: TemporalPattern) -> QueryBuilder {
        self.clauses.push(HistoryQuery::Pattern(pattern));
        self
    }

    /// Add an arbitrary clause.
    pub fn clause(mut self, q: HistoryQuery) -> QueryBuilder {
        self.clauses.push(q);
        self
    }

    /// Build the conjunction of all clauses.
    pub fn build(self) -> HistoryQuery {
        match self.clauses.len() {
            0 => HistoryQuery::All,
            // lint:allow(no-panic-hot-path) this match arm proved len == 1
            1 => self.clauses.into_iter().next().expect("one clause"),
            _ => HistoryQuery::And(self.clauses),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, Patient, PatientId, Payload, SourceKind};

    fn history(id: u64, birth_year: i32, codes: &[&str]) -> History {
        let mut h = History::new(Patient {
            id: PatientId(id),
            birth_date: Date::new(birth_year, 6, 1).unwrap(),
            sex: if id.is_multiple_of(2) { Sex::Female } else { Sex::Male },
        });
        for (i, code) in codes.iter().enumerate() {
            h.insert(Entry::event(
                Date::new(2013, 1 + (i as u32 % 12), 1).unwrap().at_midnight(),
                Payload::Diagnosis(Code::icpc(code)),
                SourceKind::PrimaryCare,
            ));
        }
        h
    }

    #[test]
    fn presence_and_absence() {
        let diabetic = history(1, 1950, &["A01", "T90"]);
        let healthy = history(2, 1950, &["A01"]);
        let has = QueryBuilder::new().has_code("T90").unwrap().build();
        assert!(has.matches(&diabetic));
        assert!(!has.matches(&healthy));
        let lacks = QueryBuilder::new().lacks_code("T90").unwrap().build();
        assert!(!lacks.matches(&diabetic));
        assert!(lacks.matches(&healthy));
    }

    #[test]
    fn count_thresholds_short_circuit() {
        let frequent = history(1, 1950, &["T90", "T90", "T90", "A01"]);
        let rare = history(2, 1950, &["T90"]);
        let q = HistoryQuery::CountAtLeast(EntryPredicate::code_regex("T90").unwrap(), 3);
        assert!(q.matches(&frequent));
        assert!(!q.matches(&rare));
        let zero = HistoryQuery::CountAtLeast(EntryPredicate::code_regex("Z99").unwrap(), 0);
        assert!(zero.matches(&rare), "count >= 0 is vacuous");
    }

    #[test]
    fn age_bounds() {
        let old = history(1, 1935, &[]);
        let young = history(2, 1990, &[]);
        let at = Date::new(2013, 1, 1).unwrap();
        let q = QueryBuilder::new().age_between(at, 65, 120).build();
        assert!(q.matches(&old));
        assert!(!q.matches(&young));
    }

    #[test]
    fn sex_clause() {
        let female = history(2, 1950, &[]);
        let male = history(1, 1950, &[]);
        let q = QueryBuilder::new().sex(Sex::Female).build();
        assert!(q.matches(&female));
        assert!(!q.matches(&male));
    }

    #[test]
    fn conjunction_of_clauses() {
        let target = history(2, 1940, &["T90", "K74", "T90", "T90"]);
        let too_young = history(4, 1990, &["T90", "T90", "T90"]);
        let q = QueryBuilder::new()
            .has_code("T90")
            .unwrap()
            .age_between(Date::new(2013, 1, 1).unwrap(), 60, 120)
            .count_at_least(EntryPredicate::IsDiagnosis, 3)
            .build();
        assert!(q.matches(&target));
        assert!(!q.matches(&too_young));
    }

    #[test]
    fn boolean_combinators() {
        let a = history(1, 1950, &["T90"]);
        let b = history(2, 1950, &["R95"]);
        let c = history(3, 1950, &["A01"]);
        let q = HistoryQuery::Or(vec![
            HistoryQuery::any(EntryPredicate::code_regex("T90").unwrap()),
            HistoryQuery::any(EntryPredicate::code_regex("R95").unwrap()),
        ]);
        assert!(q.matches(&a) && q.matches(&b) && !q.matches(&c));
        let not = HistoryQuery::Not(Box::new(q));
        assert!(!not.matches(&a) && not.matches(&c));
    }

    #[test]
    fn empty_builder_matches_everything() {
        let q = QueryBuilder::new().build();
        assert!(matches!(q, HistoryQuery::All));
        assert!(q.matches(&history(1, 1950, &[])));
    }

    #[test]
    fn fingerprints_are_canonical_and_injective() {
        let q = |pat: &str| {
            QueryBuilder::new()
                .has_code(pat)
                .unwrap()
                .age_between(Date::new(2013, 1, 1).unwrap(), 40, 80)
                .build()
        };
        // Structurally equal queries agree even when rebuilt (fresh
        // regex compilation, fresh allocations).
        assert_eq!(q("T90|R95").fingerprint(), q("T90|R95").fingerprint());
        // Structurally different queries disagree.
        assert_ne!(q("T90|R95").fingerprint(), q("T90").fingerprint());
        assert_ne!(
            HistoryQuery::any(EntryPredicate::IsDiagnosis).fingerprint(),
            HistoryQuery::none(EntryPredicate::IsDiagnosis).fingerprint()
        );
        assert_ne!(
            HistoryQuery::And(vec![HistoryQuery::All]).fingerprint(),
            HistoryQuery::Or(vec![HistoryQuery::All]).fingerprint()
        );
        // Patterns fingerprint on their constraints, not Debug internals.
        let pat = |days: i64| {
            HistoryQuery::Pattern(
                TemporalPattern::starting_with(EntryPredicate::code_regex("T90").unwrap())
                    .then(
                        crate::GapBound::within(pastas_time::Duration::days(days)),
                        EntryPredicate::IsInterval,
                    ),
            )
        };
        assert_eq!(pat(30).fingerprint(), pat(30).fingerprint());
        assert_ne!(pat(30).fingerprint(), pat(90).fingerprint());
    }
}
