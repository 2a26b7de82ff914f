//! Entry-level predicates with boolean composition.

use pastas_codes::{Code, CodeSystem};
use pastas_model::{
    CodeDictionary, EntryRef, EntryView, EventStore, MeasurementKind, PayloadRef, SourceKind,
};
use pastas_regex::Regex;
use pastas_time::Date;
use std::sync::Arc;

/// A predicate over a single entry. This is the atom of the Fig. 4
/// query builder: every row in that dialog compiles to one of these.
///
/// Evaluation is generic over [`EntryView`], so the same predicate runs
/// against owned `&Entry` values and against the columnar store's
/// zero-copy [`pastas_model::EntryRef`] without materializing payloads.
#[derive(Debug, Clone)]
pub enum EntryPredicate {
    /// Always true (the builder's empty state).
    Any,
    /// The entry's code matches a regex **in full** (the §IV.A semantics:
    /// `F.*` selects chapter F codes, never `XF1`).
    CodeMatches(Regex),
    /// The entry's code equals or descends from the given code.
    CodeWithin(Code),
    /// The entry's code belongs to a code system.
    System(CodeSystem),
    /// The entry was aggregated from a given source.
    Source(SourceKind),
    /// The entry is a diagnosis.
    IsDiagnosis,
    /// The entry is a medication record.
    IsMedication,
    /// The entry is a measurement of the given kind, within `[lo, hi]`.
    MeasurementIn {
        /// Measured quantity.
        kind: MeasurementKind,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// The entry is an interval (episode) entry.
    IsInterval,
    /// The entry overlaps the closed date window `[from, to]`.
    InWindow {
        /// Window start (inclusive).
        from: Date,
        /// Window end (inclusive).
        to: Date,
    },
    /// Conjunction.
    And(Vec<EntryPredicate>),
    /// Disjunction.
    Or(Vec<EntryPredicate>),
    /// Negation.
    Not(Box<EntryPredicate>),
}

impl EntryPredicate {
    /// Compile a code regex predicate (full-match semantics).
    pub fn code_regex(pattern: &str) -> Result<EntryPredicate, pastas_regex::ParseError> {
        Ok(EntryPredicate::CodeMatches(Regex::new(pattern)?))
    }

    /// Evaluate against an entry view (`&Entry` or `EntryRef`).
    pub fn matches<E: EntryView>(&self, entry: E) -> bool {
        match self {
            EntryPredicate::Any => true,
            EntryPredicate::CodeMatches(_)
            | EntryPredicate::CodeWithin(_)
            | EntryPredicate::System(_) => entry.code_ref().is_some_and(|c| self.holds_for(c)),
            EntryPredicate::Source(s) => entry.source() == *s,
            EntryPredicate::IsDiagnosis => {
                matches!(entry.payload_ref(), PayloadRef::Diagnosis(_))
            }
            EntryPredicate::IsMedication => {
                matches!(entry.payload_ref(), PayloadRef::Medication(_))
            }
            EntryPredicate::MeasurementIn { kind, lo, hi } => match entry.payload_ref() {
                PayloadRef::Measurement { kind: k, value } => {
                    k == *kind && (*lo..=*hi).contains(&value)
                }
                _ => false,
            },
            EntryPredicate::IsInterval => entry.is_interval(),
            EntryPredicate::InWindow { from, to } => {
                // lint:allow(no-panic-hot-path) 23:59:59 is a valid constant clock time
                entry.overlaps_window(from.at_midnight(), to.at(23, 59, 59).expect("valid clock"))
            }
            EntryPredicate::And(ps) => ps.iter().all(|p| p.matches(entry)),
            EntryPredicate::Or(ps) => ps.iter().any(|p| p.matches(entry)),
            EntryPredicate::Not(p) => !p.matches(entry),
        }
    }

    /// For a code leaf (`CodeMatches`, `CodeWithin`, `System`), whether
    /// `code` satisfies it; false for every other variant.
    fn holds_for(&self, code: &Code) -> bool {
        match self {
            EntryPredicate::CodeMatches(re) => re.is_full_match(&code.value),
            EntryPredicate::CodeWithin(root) => code.is_within(root),
            EntryPredicate::System(sys) => code.system == *sys,
            _ => false,
        }
    }

    /// Convenience conjunction.
    pub fn and(self, other: EntryPredicate) -> EntryPredicate {
        match self {
            EntryPredicate::And(mut ps) => {
                ps.push(other);
                EntryPredicate::And(ps)
            }
            p => EntryPredicate::And(vec![p, other]),
        }
    }

    /// Convenience disjunction.
    pub fn or(self, other: EntryPredicate) -> EntryPredicate {
        match self {
            EntryPredicate::Or(mut ps) => {
                ps.push(other);
                EntryPredicate::Or(ps)
            }
            p => EntryPredicate::Or(vec![p, other]),
        }
    }

    /// Convenience negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> EntryPredicate {
        EntryPredicate::Not(Box::new(self))
    }

    /// Append this predicate's canonical fingerprint to `out`.
    ///
    /// The form is structural and injective over predicate semantics:
    /// regexes contribute their source pattern, dates their ISO form,
    /// and combinators parenthesize their operands — unlike `Debug`
    /// output, the result is stable across representation changes (a
    /// recompiled regex with the same pattern fingerprints identically).
    pub(crate) fn write_fingerprint(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            EntryPredicate::Any => out.push_str("any"),
            EntryPredicate::CodeMatches(re) => {
                let _ = write!(out, "code~{}", re.pattern());
            }
            EntryPredicate::CodeWithin(root) => {
                let _ = write!(out, "within:{:?}:{}", root.system, root.value);
            }
            EntryPredicate::System(sys) => {
                let _ = write!(out, "system:{sys:?}");
            }
            EntryPredicate::Source(s) => {
                let _ = write!(out, "source:{s:?}");
            }
            EntryPredicate::IsDiagnosis => out.push_str("diagnosis"),
            EntryPredicate::IsMedication => out.push_str("medication"),
            EntryPredicate::MeasurementIn { kind, lo, hi } => {
                let _ = write!(out, "meas:{kind:?}:{lo}:{hi}");
            }
            EntryPredicate::IsInterval => out.push_str("interval"),
            EntryPredicate::InWindow { from, to } => {
                let _ = write!(out, "window:{from}..{to}");
            }
            EntryPredicate::And(ps) => {
                out.push_str("&(");
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    p.write_fingerprint(out);
                }
                out.push(')');
            }
            EntryPredicate::Or(ps) => {
                out.push_str("|(");
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    p.write_fingerprint(out);
                }
                out.push(')');
            }
            EntryPredicate::Not(p) => {
                out.push_str("!(");
                p.write_fingerprint(out);
                out.push(')');
            }
        }
    }
}

/// An [`EntryPredicate`] bound once for one pass over columnar entries
/// (a render, a density matrix, an alignment). A code leaf tests one
/// flag byte per [`pastas_model::CodeId`], computed from the code
/// strings of the collection's dictionary as far as the stores met so
/// far reach into it; the other leaves read the entry's kinds byte, its
/// side table or its `i64` seconds. No entry is tested by a string.
#[derive(Debug)]
pub struct BoundPredicate<'p> {
    pred: &'p EntryPredicate,
    /// The code leaves of `pred`, by address.
    leaves: Vec<&'p EntryPredicate>,
    /// The longest dictionary version met: every store met is on a
    /// prefix of it.
    dict: Arc<CodeDictionary>,
    /// One flag a (code, leaf) of `dict`, at `id * leaves.len() + leaf`.
    flags: Vec<bool>,
}

impl<'p> BoundPredicate<'p> {
    /// Bind `pred`; codes are bound as stores reaching them are met.
    pub fn new(pred: &'p EntryPredicate) -> BoundPredicate<'p> {
        fn code_leaves<'p>(p: &'p EntryPredicate, out: &mut Vec<&'p EntryPredicate>) {
            match p {
                EntryPredicate::And(ps) | EntryPredicate::Or(ps) => {
                    ps.iter().for_each(|p| code_leaves(p, out));
                }
                EntryPredicate::Not(p) => code_leaves(p, out),
                EntryPredicate::CodeMatches(_)
                | EntryPredicate::CodeWithin(_)
                | EntryPredicate::System(_) => out.push(p),
                _ => {}
            }
        }
        let mut leaves = Vec::new();
        code_leaves(pred, &mut leaves);
        BoundPredicate { pred, leaves, dict: Arc::default(), flags: Vec::new() }
    }

    /// The test for entries of `store` (a history's
    /// [`pastas_model::History::store`]). A store on a longer dictionary
    /// than any met so far binds the codes it adds; one on another
    /// dictionary altogether (a store from a different collection)
    /// rebinds from scratch.
    pub fn on(&mut self, store: &EventStore) -> EntryTest<'_> {
        let dict = store.dictionary();
        if !self.leaves.is_empty() && !dict.is_prefix_of(&self.dict) {
            if !self.dict.is_prefix_of(dict) {
                self.flags.clear();
            }
            let (leaves, bound) = (&self.leaves, self.flags.len() / self.leaves.len());
            let codes = dict.iter().skip(bound);
            self.flags.extend(codes.flat_map(|c| leaves.iter().map(move |leaf| leaf.holds_for(c))));
            self.dict = Arc::clone(dict);
        }
        EntryTest { pred: self.pred, leaves: &self.leaves, flags: &self.flags }
    }
}

/// A [`BoundPredicate`] bound as far as one store's dictionary reaches:
/// test entries of that store with [`EntryTest::matches`].
#[derive(Debug, Clone, Copy)]
pub struct EntryTest<'b> {
    pred: &'b EntryPredicate,
    leaves: &'b [&'b EntryPredicate],
    flags: &'b [bool],
}

impl EntryTest<'_> {
    /// True if `entry`, a row of the store this test was bound to,
    /// satisfies the predicate.
    pub fn matches(&self, entry: EntryRef<'_>) -> bool {
        self.eval(self.pred, entry)
    }

    fn eval(&self, p: &EntryPredicate, e: EntryRef<'_>) -> bool {
        match p {
            EntryPredicate::Any => true,
            EntryPredicate::CodeMatches(_)
            | EntryPredicate::CodeWithin(_)
            | EntryPredicate::System(_) => e.code_id().is_some_and(|id| {
                let leaf = self.leaves.iter().position(|l| std::ptr::eq(*l, p)).unwrap_or(0);
                let at = id.0 as usize * self.leaves.len() + leaf;
                debug_assert!(at < self.flags.len(), "code id {} past the bound flags", id.0);
                // lint:allow(no-panic-hot-path) the store's dictionary is a prefix of the bound one
                self.flags[at]
            }),
            EntryPredicate::Source(s) => e.source() == *s,
            EntryPredicate::IsDiagnosis => matches!(e.payload(), PayloadRef::Diagnosis(_)),
            EntryPredicate::IsMedication => matches!(e.payload(), PayloadRef::Medication(_)),
            EntryPredicate::MeasurementIn { kind, lo, hi } => match e.payload() {
                PayloadRef::Measurement { kind: k, value } => {
                    k == *kind && (*lo..=*hi).contains(&value)
                }
                _ => false,
            },
            EntryPredicate::IsInterval => e.is_interval(),
            EntryPredicate::InWindow { from, to } => {
                let (from, to) = (from.at_midnight(), to.at_midnight().second_number() + 86_399);
                e.start().second_number() <= to && e.end() >= from
            }
            EntryPredicate::And(ps) => ps.iter().all(|p| self.eval(p, e)),
            EntryPredicate::Or(ps) => ps.iter().any(|p| self.eval(p, e)),
            EntryPredicate::Not(p) => !self.eval(p, e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_model::{Entry, EpisodeKind, Payload};
    use pastas_time::DateTime;

    fn t(y: i32, m: u32, d: u32) -> DateTime {
        Date::new(y, m, d).unwrap().at_midnight()
    }

    fn diag(code: &str) -> Entry {
        Entry::event(t(2014, 6, 1), Payload::Diagnosis(Code::icpc(code)), SourceKind::PrimaryCare)
    }

    fn med(code: &str) -> Entry {
        Entry::event(t(2014, 6, 1), Payload::Medication(Code::atc(code)), SourceKind::Prescription)
    }

    #[test]
    fn the_papers_eye_or_ear_filter() {
        let p = EntryPredicate::code_regex("F.*|H.*").unwrap();
        assert!(p.matches(&diag("F83")));
        assert!(p.matches(&diag("H71")));
        assert!(!p.matches(&diag("T90")));
        assert!(!p.matches(&med("C07AB02")), "full-match never hits ATC codes by accident");
    }

    #[test]
    fn code_within_walks_hierarchies() {
        let p = EntryPredicate::CodeWithin(Code::atc("C07"));
        assert!(p.matches(&med("C07AB02")));
        assert!(!p.matches(&med("A10BA02")));
        assert!(!p.matches(&diag("K74")), "cross-system never matches");
    }

    #[test]
    fn source_and_kind_predicates() {
        assert!(EntryPredicate::Source(SourceKind::PrimaryCare).matches(&diag("A01")));
        assert!(!EntryPredicate::Source(SourceKind::Hospital).matches(&diag("A01")));
        assert!(EntryPredicate::IsDiagnosis.matches(&diag("A01")));
        assert!(!EntryPredicate::IsDiagnosis.matches(&med("N02BE01")));
        assert!(EntryPredicate::IsMedication.matches(&med("N02BE01")));
        assert!(EntryPredicate::System(CodeSystem::Atc).matches(&med("N02BE01")));
    }

    #[test]
    fn measurement_ranges() {
        let high_bp = Entry::event(
            t(2014, 6, 1),
            Payload::Measurement { kind: MeasurementKind::SystolicBp, value: 165.0 },
            SourceKind::PrimaryCare,
        );
        let p = EntryPredicate::MeasurementIn { kind: MeasurementKind::SystolicBp, lo: 140.0, hi: 300.0 };
        assert!(p.matches(&high_bp));
        let p2 = EntryPredicate::MeasurementIn { kind: MeasurementKind::SystolicBp, lo: 90.0, hi: 140.0 };
        assert!(!p2.matches(&high_bp));
        let p3 = EntryPredicate::MeasurementIn { kind: MeasurementKind::Hba1c, lo: 0.0, hi: 300.0 };
        assert!(!p3.matches(&high_bp), "kind must match");
    }

    #[test]
    fn window_predicate_includes_overlapping_intervals() {
        let stay = Entry::interval(
            t(2014, 5, 20),
            t(2014, 6, 10),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        );
        let w = EntryPredicate::InWindow {
            from: Date::new(2014, 6, 1).unwrap(),
            to: Date::new(2014, 6, 30).unwrap(),
        };
        assert!(w.matches(&stay), "interval spans into the window");
        assert!(w.matches(&diag("A01")));
        let w2 = EntryPredicate::InWindow {
            from: Date::new(2015, 1, 1).unwrap(),
            to: Date::new(2015, 12, 31).unwrap(),
        };
        assert!(!w2.matches(&stay));
    }

    #[test]
    fn boolean_composition() {
        let p = EntryPredicate::IsDiagnosis
            .and(EntryPredicate::code_regex("T.*").unwrap())
            .or(EntryPredicate::IsMedication);
        assert!(p.matches(&diag("T90")));
        assert!(!p.matches(&diag("K74")));
        assert!(p.matches(&med("C07AB02")));
        assert!(!EntryPredicate::Any.not().matches(&diag("T90")));
    }

    #[test]
    fn interval_predicate() {
        let stay = Entry::interval(
            t(2014, 1, 1),
            t(2014, 1, 5),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        );
        assert!(EntryPredicate::IsInterval.matches(&stay));
        assert!(!EntryPredicate::IsInterval.matches(&diag("A01")));
    }

    #[test]
    fn a_code_of_one_interner_binds_per_interner() {
        use pastas_model::{History, Patient, PatientId, Sex};
        let history = |id: u64, code: &str| {
            let mut h = History::new(Patient {
                id: PatientId(id),
                birth_date: Date::new(1950, 1, 1).unwrap(),
                sex: Sex::Female,
            });
            h.insert(diag("A01"));
            h.insert(diag(code));
            h
        };
        // Each history has its own store on a dictionary of its own; only
        // the second holds Z99, and each switch between them rebinds.
        let (a, b) = (history(1, "T90"), history(2, "Z99"));
        let z99 = EntryPredicate::code_regex("Z99").unwrap();
        for pred in [z99.clone(), z99.not()] {
            let mut bound = BoundPredicate::new(&pred);
            for h in [&a, &b, &a] {
                let test = bound.on(h.store());
                for e in h.entries() {
                    assert_eq!(test.matches(e), pred.matches(e), "{pred:?} on {e:?}");
                }
            }
        }
        let pred = EntryPredicate::code_regex("Z99").unwrap();
        let mut bound = BoundPredicate::new(&pred);
        assert_eq!(b.entries().iter().filter(|&e| bound.on(b.store()).matches(e)).count(), 1);
        assert_eq!(a.entries().iter().filter(|&e| bound.on(a.store()).matches(e)).count(), 0);
    }
}
