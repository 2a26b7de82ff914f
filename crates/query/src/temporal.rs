//! Temporal pattern search: ordered sequences with gap constraints.
//!
//! The workbench's "searching for temporal patterns" (§IV). A pattern is a
//! sequence of entry predicates with a gap bound between consecutive steps:
//! *"first T90 diagnosis, then an inpatient stay within 90 days, then a
//! beta-blocker dispensing within 30 days of discharge"*.
//!
//! One interpreter runs every pattern: for each entry that passes the
//! first step (an *anchor*, in start order), the earliest completion of
//! the remaining steps, so hits come out in anchor order.
//!
//! * A **gap step** walks forward from the previous match and stops at
//!   the first entry that starts after the window's end (`end + gap.max`,
//!   saturating like all `DateTime` arithmetic): histories are sorted by
//!   start, so no later entry can fall back into the window.
//! * An **Allen step** searches the whole history in start order —
//!   qualitative relations like `Contains` are satisfied by entries that
//!   start *before* the previous match — and never reuses an entry of the
//!   hit.
//!
//! The interpreter takes its entry test, by step number, as a parameter.
//! The per-history [`find_matches`](TemporalPattern::find_matches) and
//! [`matches`](TemporalPattern::matches) pass [`EntryPredicate::matches`];
//! the planner's verification passes the steps bound once a query to the
//! collection's code dictionary ([`crate::BoundPredicate`], each code
//! leaf resolved by the one prefix resolver), so a code step reads one
//! flag per entry.
//! `matches` stops at the first hit. The original per-history scan
//! survives only as the `#[cfg(test)]` differential oracle.

use crate::predicate::EntryPredicate;
use pastas_model::{Entries, EntryRef, History};
use pastas_ontology::temporal::{AllenRel, AllenSet};
use pastas_time::Duration;
use std::cell::RefCell;

/// A gap constraint between consecutive pattern steps, measured from the
/// previous matched entry's **end** to the next matched entry's **start**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapBound {
    /// Minimum gap (may be negative to allow overlap).
    pub min: Duration,
    /// Maximum gap.
    pub max: Duration,
}

impl GapBound {
    /// Within `d` after the previous step (the common "within 30 days").
    pub fn within(d: Duration) -> GapBound {
        GapBound { min: Duration::ZERO, max: d }
    }

    /// Any later time.
    pub fn any_later() -> GapBound {
        GapBound { min: Duration::ZERO, max: Duration::days(100 * 365) }
    }
}

/// One matched pattern instance: the entry index per step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHit {
    /// Indexes into `history.entries()`, one per step, strictly ordered.
    pub steps: Vec<usize>,
}

/// How one step constrains its position relative to the previous step.
#[derive(Debug, Clone, Copy)]
pub enum StepConstraint {
    /// The next entry's start lies within a gap window after the previous
    /// entry's end.
    Gap(GapBound),
    /// The next entry stands in one of the given Allen relations to the
    /// previous matched entry (CNTRO-style qualitative constraints: e.g.
    /// a medication-exposure interval that `Contains` the hospital stay).
    Allen(AllenSet),
}

/// An ordered temporal pattern.
#[derive(Debug, Clone)]
pub struct TemporalPattern {
    first: EntryPredicate,
    rest: Vec<(StepConstraint, EntryPredicate)>,
}

thread_local! {
    /// The interpreter's step buffer, one per worker thread, so scans
    /// over millions of candidate histories allocate nothing in steady
    /// state.
    static STEP_SCRATCH: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl TemporalPattern {
    /// A pattern starting with entries matching `first`.
    pub fn starting_with(first: EntryPredicate) -> TemporalPattern {
        TemporalPattern { first, rest: Vec::new() }
    }

    /// Append a step: the next entry must match `pred` with the gap from
    /// the previous step's end inside `gap`.
    pub fn then(mut self, gap: GapBound, pred: EntryPredicate) -> TemporalPattern {
        self.rest.push((StepConstraint::Gap(gap), pred));
        self
    }

    /// Append a qualitatively-constrained step: the next entry (searched in
    /// start order after the previous match) must stand in one of `rels` to
    /// the previous matched entry.
    pub fn then_allen(mut self, rels: AllenSet, pred: EntryPredicate) -> TemporalPattern {
        self.rest.push((StepConstraint::Allen(rels), pred));
        self
    }

    /// Shorthand for a single base relation.
    pub fn then_related(self, rel: AllenRel, pred: EntryPredicate) -> TemporalPattern {
        self.then_allen(AllenSet::of(rel), pred)
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// Always at least one step.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Every step's entry predicate, in order. Each must be satisfied by
    /// *some* entry of a matching history, which is what lets the planner
    /// intersect per-step index postings as a sound prefilter.
    pub(crate) fn step_predicates(&self) -> impl Iterator<Item = &EntryPredicate> {
        std::iter::once(&self.first).chain(self.rest.iter().map(|(_, p)| p))
    }

    /// Append this pattern's canonical fingerprint to `out`.
    ///
    /// Gap bounds are written in whole seconds and Allen constraints as
    /// their relation bitmask, so two patterns fingerprint identically
    /// iff they impose the same constraints.
    pub(crate) fn write_fingerprint(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str("seq(");
        self.first.write_fingerprint(out);
        for (constraint, pred) in &self.rest {
            match constraint {
                StepConstraint::Gap(g) => {
                    let _ =
                        write!(out, "-[{}s..{}s]->", g.min.as_seconds(), g.max.as_seconds());
                }
                StepConstraint::Allen(set) => {
                    let _ = write!(out, "-[allen:{}]->", set.0);
                }
            }
            pred.write_fingerprint(out);
        }
        out.push(')');
    }

    /// Find all **anchor-disjoint** matches: for every entry matching the
    /// first step, the earliest completion of the remaining steps, in
    /// anchor order. (This is the semantics of Fails et al.'s multi-hit
    /// event chart, which the paper discusses: one line per search hit.)
    pub fn find_matches(&self, history: &History) -> Vec<PatternHit> {
        let mut hits = Vec::new();
        self.scan(history.entries(), &mut |step, e| self.step_matches(step, e), |steps| {
            hits.push(PatternHit { steps: steps.to_vec() });
            true
        });
        hits
    }

    /// True if the history contains at least one match. Stops at the
    /// first hit — no hit vector is materialized.
    pub fn matches(&self, history: &History) -> bool {
        self.matches_with(history.entries(), &mut |step, e| self.step_matches(step, e))
    }

    /// Whether `e` satisfies the predicate of step `step` (0 = first).
    fn step_matches(&self, step: usize, e: EntryRef<'_>) -> bool {
        self.step_predicates().nth(step).is_some_and(|p| p.matches(e))
    }

    /// [`matches`](TemporalPattern::matches) over `entries`, testing an
    /// entry against step `i`'s predicate (0 = first) with `test(i, e)`.
    pub(crate) fn matches_with<'e>(
        &self,
        entries: Entries<'e>,
        test: &mut impl FnMut(usize, EntryRef<'e>) -> bool,
    ) -> bool {
        let mut found = false;
        self.scan(entries, test, |_| {
            found = true;
            false
        });
        found
    }

    /// The interpreter: per anchor, in start order, the earliest
    /// completion of steps 2.., streaming each hit's entry indexes to
    /// `on_hit`; `on_hit` returning `false` stops the scan.
    fn scan<'e>(
        &self,
        entries: Entries<'e>,
        test: &mut impl FnMut(usize, EntryRef<'e>) -> bool,
        mut on_hit: impl FnMut(&[usize]) -> bool,
    ) {
        STEP_SCRATCH.with(|buf| {
            let mut steps = buf.borrow_mut();
            for (anchor, e) in entries.iter().enumerate() {
                if test(0, e)
                    && self.complete(entries, anchor, test, &mut steps)
                    && !on_hit(&steps)
                {
                    break;
                }
            }
        });
    }

    /// Earliest-first completion of steps 2.. from `anchor`, written into
    /// `steps` (which doubles as the no-reuse set for Allen steps). A gap
    /// step scans forward from the previous match up to the first entry
    /// past its window; an Allen step scans the whole history, evaluating
    /// the relation as `rel(candidate, previous)`.
    fn complete<'e>(
        &self,
        entries: Entries<'e>,
        anchor: usize,
        test: &mut impl FnMut(usize, EntryRef<'e>) -> bool,
        steps: &mut Vec<usize>,
    ) -> bool {
        steps.clear();
        steps.push(anchor);
        let (mut at, mut prev) = (anchor, entries.get(anchor));
        for (step, (constraint, _)) in (1..).zip(&self.rest) {
            let next = match *constraint {
                StepConstraint::Gap(gap) => {
                    let (lo, hi) = (prev.end() + gap.min, prev.end() + gap.max);
                    (at + 1..entries.len())
                        .map(|j| (j, entries.get(j)))
                        .take_while(|(_, e)| e.start() <= hi)
                        .find(|&(_, e)| e.start() >= lo && test(step, e))
                }
                StepConstraint::Allen(rels) => {
                    let span = (prev.start(), prev.end());
                    (0..entries.len()).map(|j| (j, entries.get(j))).find(|&(j, e)| {
                        !steps.contains(&j)
                            && rels.contains(AllenRel::between_times((e.start(), e.end()), span))
                            && test(step, e)
                    })
                }
            };
            let Some((j, e)) = next else { return false };
            steps.push(j);
            (at, prev) = (j, e);
        }
        true
    }

    /// The retired per-history scan, kept verbatim as the differential
    /// oracle for the scan (see `proptests`).
    #[cfg(test)]
    pub(crate) fn naive_find_matches(&self, history: &History) -> Vec<PatternHit> {
        let entries = history.entries();
        let mut hits = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            if !self.first.matches(e) {
                continue;
            }
            if let Some(mut steps) = self.naive_complete_from(history, i) {
                let mut full = vec![i];
                full.append(&mut steps);
                hits.push(PatternHit { steps: full });
            }
        }
        hits
    }

    /// Oracle twin of [`matches`](TemporalPattern::matches).
    #[cfg(test)]
    pub(crate) fn naive_matches(&self, history: &History) -> bool {
        let entries = history.entries();
        (0..entries.len()).any(|i| {
            self.first.matches(entries.get(i)) && self.naive_complete_from(history, i).is_some()
        })
    }

    #[cfg(test)]
    fn naive_complete_from(&self, history: &History, anchor: usize) -> Option<Vec<usize>> {
        let entries = history.entries();
        let mut used = vec![anchor];
        let mut prev = anchor;
        let mut out = Vec::with_capacity(self.rest.len());
        for (constraint, pred) in &self.rest {
            let next = match constraint {
                StepConstraint::Gap(gap) => {
                    let lo = entries.get(prev).end() + gap.min;
                    let hi = entries.get(prev).end() + gap.max;
                    (prev + 1..entries.len()).find(|&j| {
                        let e = entries.get(j);
                        let s = e.start();
                        s >= lo && s <= hi && pred.matches(e)
                    })?
                }
                StepConstraint::Allen(rels) => (0..entries.len()).find(|&j| {
                    let e = entries.get(j);
                    !used.contains(&j)
                        && pred.matches(e)
                        && rels.contains(AllenRel::between_times(
                            (e.start(), e.end()),
                            (entries.get(prev).start(), entries.get(prev).end()),
                        ))
                })?,
            };
            out.push(next);
            used.push(next);
            prev = next;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_codes::Code;
    use pastas_model::{Entry, EpisodeKind, Patient, PatientId, Payload, Sex, SourceKind};
    use pastas_time::Date;

    fn t(y: i32, m: u32, d: u32) -> pastas_time::DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    fn history(entries: Vec<Entry>) -> History {
        let mut h = History::new(Patient {
            id: PatientId(1),
            birth_date: Date::new(1940, 1, 1).unwrap(),
            sex: Sex::Female,
        });
        h.insert_all(entries);
        h
    }

    fn diag(time: pastas_time::DateTime, code: &str) -> Entry {
        Entry::event(time, Payload::Diagnosis(Code::icpc(code)), SourceKind::PrimaryCare)
    }

    fn stay(a: pastas_time::DateTime, b: pastas_time::DateTime) -> Entry {
        Entry::interval(a, b, Payload::Episode(EpisodeKind::Inpatient), SourceKind::Hospital)
    }

    fn p(code: &str) -> EntryPredicate {
        EntryPredicate::code_regex(code).unwrap()
    }

    #[test]
    fn two_step_within_gap() {
        // T90, then hospitalization within 90 days.
        let h = history(vec![
            diag(t(2013, 1, 10), "T90"),
            stay(t(2013, 3, 1), t(2013, 3, 5)),
        ]);
        let pat = TemporalPattern::starting_with(p("T90"))
            .then(GapBound::within(Duration::days(90)), EntryPredicate::IsInterval);
        assert!(pat.matches(&h));
        let hits = pat.find_matches(&h);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].steps, vec![0, 1]);
    }

    #[test]
    fn gap_excludes_late_events() {
        let h = history(vec![
            diag(t(2013, 1, 10), "T90"),
            stay(t(2013, 8, 1), t(2013, 8, 5)), // ~200 days later
        ]);
        let pat = TemporalPattern::starting_with(p("T90"))
            .then(GapBound::within(Duration::days(90)), EntryPredicate::IsInterval);
        assert!(!pat.matches(&h));
    }

    #[test]
    fn gap_measured_from_interval_end() {
        // Discharge → readmission within 30 days: gap from END of stay 1.
        let h = history(vec![
            stay(t(2013, 1, 1), t(2013, 1, 20)),
            stay(t(2013, 2, 10), t(2013, 2, 15)), // 21 days after discharge
        ]);
        let pat = TemporalPattern::starting_with(EntryPredicate::IsInterval)
            .then(GapBound::within(Duration::days(30)), EntryPredicate::IsInterval);
        assert!(pat.matches(&h), "21 days post-discharge is within 30");
        let tight = TemporalPattern::starting_with(EntryPredicate::IsInterval)
            .then(GapBound::within(Duration::days(20)), EntryPredicate::IsInterval);
        assert!(!tight.matches(&h));
    }

    #[test]
    fn three_step_pathway() {
        let h = history(vec![
            diag(t(2013, 1, 10), "K74"),
            stay(t(2013, 1, 20), t(2013, 1, 27)),
            Entry::event(
                t(2013, 2, 5),
                Payload::Medication(Code::atc("C07AB02")),
                SourceKind::Prescription,
            ),
        ]);
        let pat = TemporalPattern::starting_with(p("K74"))
            .then(GapBound::within(Duration::days(30)), EntryPredicate::IsInterval)
            .then(GapBound::within(Duration::days(30)), EntryPredicate::IsMedication);
        let hits = pat.find_matches(&h);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].steps, vec![0, 1, 2]);
        assert_eq!(pat.len(), 3);
    }

    #[test]
    fn one_hit_per_anchor() {
        // Two T90 codes each followed by a stay → two hits (Fails-style).
        let h = history(vec![
            diag(t(2013, 1, 1), "T90"),
            stay(t(2013, 1, 10), t(2013, 1, 12)),
            diag(t(2013, 6, 1), "T90"),
            stay(t(2013, 6, 10), t(2013, 6, 12)),
        ]);
        let pat = TemporalPattern::starting_with(p("T90"))
            .then(GapBound::within(Duration::days(60)), EntryPredicate::IsInterval);
        let hits = pat.find_matches(&h);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].steps, vec![0, 1]);
        assert_eq!(hits[1].steps, vec![2, 3]);
    }

    #[test]
    fn min_gap_skips_immediate_events() {
        // Require the follow-up to be at least 7 days later.
        let h = history(vec![
            diag(t(2013, 1, 1), "T90"),
            diag(t(2013, 1, 3), "T90"), // too soon
            diag(t(2013, 1, 20), "T90"),
        ]);
        let pat = TemporalPattern::starting_with(p("T90")).then(
            GapBound { min: Duration::days(7), max: Duration::days(365) },
            p("T90"),
        );
        let hits = pat.find_matches(&h);
        // Anchor 0 skips index 1 (2 days) and completes at index 2.
        assert_eq!(hits[0].steps, vec![0, 2]);
    }

    #[test]
    fn matches_stops_at_the_first_hit() {
        let h = history(vec![diag(t(2013, 1, 1), "T90"), diag(t(2013, 2, 1), "T90")]);
        let pat = TemporalPattern::starting_with(p("T90"));
        let mut tested = 0;
        let found = pat.matches_with(h.entries(), &mut |step, e| {
            tested += 1;
            pat.step_matches(step, e)
        });
        assert!(found);
        assert_eq!(tested, 1, "the first anchor is a hit, so no later entry is tested");
    }

    #[test]
    fn empty_history_never_matches() {
        let h = history(vec![]);
        let pat = TemporalPattern::starting_with(EntryPredicate::Any);
        assert!(!pat.matches(&h));
        assert!(pat.find_matches(&h).is_empty());
    }

    #[test]
    fn single_step_pattern_matches_each_hit() {
        let h = history(vec![diag(t(2013, 1, 1), "T90"), diag(t(2013, 2, 1), "T90")]);
        let pat = TemporalPattern::starting_with(p("T90"));
        assert_eq!(pat.find_matches(&h).len(), 2);
    }

    #[test]
    fn allen_step_finds_containing_interval() {
        use pastas_ontology::temporal::AllenRel;
        // A home-care period containing a hospital stay: the home-care
        // interval starts BEFORE the stay, so a gap step could never find
        // it; the Allen `Contains` step does.
        let h = history(vec![
            Entry::interval(
                t(2013, 1, 1),
                t(2013, 12, 1),
                Payload::Episode(EpisodeKind::HomeCare),
                SourceKind::Municipal,
            ),
            stay(t(2013, 5, 1), t(2013, 5, 10)),
        ]);
        let pat = TemporalPattern::starting_with(EntryPredicate::Source(SourceKind::Hospital))
            .then_related(
                AllenRel::Contains,
                EntryPredicate::Source(SourceKind::Municipal),
            );
        let hits = pat.find_matches(&h);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].steps, vec![1, 0], "stay anchors; home care relates");
    }

    #[test]
    fn allen_step_respects_relation_sets() {
        use pastas_ontology::temporal::{AllenRel, AllenSet};
        let h = history(vec![
            stay(t(2013, 1, 1), t(2013, 1, 10)),
            stay(t(2013, 1, 10), t(2013, 1, 20)), // meets the first
            stay(t(2013, 3, 1), t(2013, 3, 5)),   // after the first
        ]);
        // First stay, then something it meets or overlaps.
        let touching = TemporalPattern::starting_with(EntryPredicate::IsInterval).then_allen(
            AllenSet::from_rels(&[AllenRel::MetBy, AllenRel::OverlappedBy]),
            EntryPredicate::IsInterval,
        );
        let hits = touching.find_matches(&h);
        // Anchor 0 completes with entry 1 (which is met-by entry 0).
        assert!(hits.iter().any(|hit| hit.steps == vec![0, 1]), "{hits:?}");
        // Strictly-after never satisfies the touching set from anchor 1…
        // entry 2 is After entry 1 (gap), so anchor 1 has no completion.
        assert!(!hits.iter().any(|hit| hit.steps[0] == 2));
    }

    #[test]
    fn allen_step_never_reuses_an_entry() {
        use pastas_ontology::temporal::AllenRel;
        let h = history(vec![stay(t(2013, 1, 1), t(2013, 1, 10))]);
        // Equal-to-itself would trivially match if reuse were allowed.
        let pat = TemporalPattern::starting_with(EntryPredicate::IsInterval)
            .then_related(AllenRel::Equal, EntryPredicate::IsInterval);
        assert!(!pat.matches(&h));
    }

    #[test]
    fn builder_resets_the_compiled_automaton() {
        let h = history(vec![
            diag(t(2013, 1, 10), "T90"),
            stay(t(2013, 3, 1), t(2013, 3, 5)),
        ]);
        let one = TemporalPattern::starting_with(p("T90"));
        assert!(one.matches(&h));
        let two = one.then(GapBound::within(Duration::days(5)), EntryPredicate::IsInterval);
        assert!(!two.matches(&h), "an extended pattern runs its new step");
    }

    #[test]
    fn negative_min_gap_allows_overlap() {
        // Follow-up may start up to 10 days before the anchor's end.
        let h = history(vec![
            stay(t(2013, 1, 1), t(2013, 1, 20)),
            stay(t(2013, 1, 15), t(2013, 1, 25)),
        ]);
        let pat = TemporalPattern::starting_with(EntryPredicate::IsInterval).then(
            GapBound { min: Duration::days(-10), max: Duration::days(30) },
            EntryPredicate::IsInterval,
        );
        let hits = pat.find_matches(&h);
        assert_eq!(hits[0].steps, vec![0, 1]);
        assert_eq!(pat.naive_find_matches(&h), hits);
    }

    #[test]
    fn gap_windows_saturate_at_the_calendar_bounds() {
        let pattern = |text: &str| match crate::parse::parse_query(text, Date::new(2013, 1, 1).unwrap()) {
            Ok(crate::HistoryQuery::Pattern(pat)) => pat,
            other => panic!("{text}: {other:?}"),
        };
        let late = |y, m, d| Date::new(y, m, d).unwrap().at(23, 0, 0).unwrap();
        let cases = [
            // `Duration::days` saturates the bound to `i64::MAX` seconds.
            ("seq(T90 then[0d..9223372036854775807d] K.*)", t(2013, 1, 10), t(2020, 5, 1)),
            ("seq(T90 then[-9223372036854775807d..0d] K.*)", t(2013, 1, 10), t(2013, 1, 10)),
            // An anchor on the calendar's last day: its window ends there.
            ("seq(T90 then[0d..365d] K.*)", t(9999, 12, 31), late(9999, 12, 31)),
        ];
        for (text, anchor, next) in cases {
            let h = history(vec![diag(anchor, "T90"), diag(next, "K74")]);
            let pat = pattern(text);
            assert!(pat.naive_matches(&h), "{text}");
            assert_eq!(pat.matches(&h), pat.naive_matches(&h), "{text}");
            assert_eq!(pat.find_matches(&h), pat.naive_find_matches(&h), "{text}");
        }
    }

    #[test]
    fn automaton_agrees_with_oracle_on_the_unit_corpus() {
        let histories = [
            history(vec![]),
            history(vec![diag(t(2013, 1, 1), "T90")]),
            history(vec![
                diag(t(2013, 1, 1), "T90"),
                diag(t(2013, 1, 3), "T90"),
                stay(t(2013, 2, 1), t(2013, 2, 5)),
                diag(t(2013, 6, 1), "K74"),
                stay(t(2013, 6, 3), t(2013, 6, 9)),
            ]),
        ];
        let patterns = [
            TemporalPattern::starting_with(p("T90")),
            TemporalPattern::starting_with(p("T90"))
                .then(GapBound::within(Duration::days(60)), EntryPredicate::IsInterval),
            TemporalPattern::starting_with(p("T90"))
                .then(GapBound::any_later(), p("K74"))
                .then(GapBound::within(Duration::days(10)), EntryPredicate::IsInterval),
        ];
        for h in &histories {
            for pat in &patterns {
                assert_eq!(pat.find_matches(h), pat.naive_find_matches(h));
                assert_eq!(pat.matches(h), pat.naive_matches(h));
            }
        }
    }
}
