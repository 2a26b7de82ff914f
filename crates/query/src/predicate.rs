//! Entry-level predicates with boolean composition.

use pastas_codes::{Code, CodeSystem};
use pastas_model::{CodeDictionary, EntryRef, EntryView, MeasurementKind, PayloadRef, SourceKind};
use pastas_regex::{PrefixInfo, Regex};
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
            #[expect(clippy::expect_used, reason = "23:59:59 is a valid constant clock time")]
            EntryPredicate::InWindow { from, to } => {
                entry.overlaps_window(from.at_midnight(), to.at(23, 59, 59).expect("valid clock"))
            }
            EntryPredicate::And(ps) => ps.iter().all(|p| p.matches(entry)),
            EntryPredicate::Or(ps) => ps.iter().any(|p| p.matches(entry)),
            EntryPredicate::Not(p) => !p.matches(entry),
        }
    }

    /// The ids (`CodeId.0`) of the codes of `dict` that this code leaf
    /// (`CodeMatches`, `CodeWithin`, `System`) holds for, ascending; none
    /// for any other variant. This is the one way a code leaf becomes
    /// [`pastas_model::CodeId`]s: the index's fetches and every bound
    /// predicate read it.
    ///
    /// A regex walks only its literal prefix's run of the dictionary's
    /// sorted view: an exact literal is one binary search and makes no VM
    /// call, and a prefix pattern runs the VM on its run alone.
    /// `CodeWithin` and `System` test the codes of the whole dictionary,
    /// by system first: a code can lie within a root its value does not
    /// start with (ICD-10 `E11.9` is within chapter `IV`).
    pub(crate) fn code_ids(&self, dict: &CodeDictionary) -> Vec<u32> {
        let mut ids: Vec<u32> = match self {
            EntryPredicate::CodeMatches(re) => {
                let PrefixInfo { prefix, exact } = re.prefix_info();
                let run = dict.sorted_from(prefix).take_while(|(_, c)| {
                    c.value.starts_with(prefix.as_str()) && (!exact || c.value == *prefix)
                });
                run.filter(|(_, c)| *exact || self.holds_for(c)).map(|(id, _)| id.0).collect()
            }
            EntryPredicate::CodeWithin(_) | EntryPredicate::System(_) => {
                let codes = (0u32..).zip(dict.iter());
                codes.filter(|(_, c)| self.holds_for(c)).map(|(id, _)| id).collect()
            }
            _ => Vec::new(),
        };
        ids.sort_unstable();
        ids
    }

    /// For a code leaf (`CodeMatches`, `CodeWithin`, `System`), whether
    /// `code` satisfies it; false for every other variant.
    pub(crate) fn holds_for(&self, code: &Code) -> bool {
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
    #[expect(
        clippy::should_implement_trait,
        reason = "a builder beside `and`/`or`, not the `!` operator"
    )]
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

/// An [`EntryPredicate`] bound once to a code dictionary, for passes
/// over columnar entries (a plan's verification, a render, a density
/// matrix, an alignment). Each code leaf is resolved at bind time by
/// `EntryPredicate::code_ids` into its own flag per
/// [`pastas_model::CodeId`], so it tests an entry by one lookup; the
/// other leaves read the entry's kinds byte, its side table or its
/// seconds. No entry is tested by a string, and one binding serves every
/// thread of a pass.
#[derive(Debug)]
pub struct BoundPredicate<'p> {
    root: Node<'p>,
    /// The dictionary bound: every store tested must be on a prefix of it.
    dict: Arc<CodeDictionary>,
}

/// One node of a bound predicate, mirroring the predicate's tree.
#[derive(Debug)]
enum Node<'p> {
    /// A code leaf: `flags[id]` is whether the code `CodeId(id)` holds.
    Code(Vec<bool>),
    /// Any other leaf, tested by [`EntryPredicate::matches`].
    Leaf(&'p EntryPredicate),
    And(Vec<Node<'p>>),
    Or(Vec<Node<'p>>),
    Not(Box<Node<'p>>),
}

impl<'p> BoundPredicate<'p> {
    /// Bind `pred` to `dict`, the newest dictionary of the collection
    /// whose entries it will test.
    pub fn new(pred: &'p EntryPredicate, dict: &Arc<CodeDictionary>) -> BoundPredicate<'p> {
        fn bind<'p>(p: &'p EntryPredicate, dict: &CodeDictionary) -> Node<'p> {
            match p {
                EntryPredicate::CodeMatches(_)
                | EntryPredicate::CodeWithin(_)
                | EntryPredicate::System(_) => {
                    let mut flags = vec![false; dict.len()];
                    for id in p.code_ids(dict) {
                        if let Some(flag) = flags.get_mut(id as usize) {
                            *flag = true;
                        }
                    }
                    Node::Code(flags)
                }
                EntryPredicate::And(ps) => Node::And(ps.iter().map(|p| bind(p, dict)).collect()),
                EntryPredicate::Or(ps) => Node::Or(ps.iter().map(|p| bind(p, dict)).collect()),
                EntryPredicate::Not(p) => Node::Not(Box::new(bind(p, dict))),
                _ => Node::Leaf(p),
            }
        }
        BoundPredicate { root: bind(pred, dict), dict: Arc::clone(dict) }
    }

    /// True if `entry`, a row of a store on a prefix of the bound
    /// dictionary, satisfies the predicate. A store on any other
    /// dictionary is a caller's bug: debug builds assert against it, and
    /// a code id past the bound dictionary panics.
    pub fn matches(&self, entry: EntryRef<'_>) -> bool {
        debug_assert!(
            entry.code_id().zip(entry.code()).is_none_or(|(id, code)| {
                self.dict.iter().nth(id.0 as usize) == Some(code)
            }),
            "an entry of a store off the bound dictionary"
        );
        self.root.matches(entry)
    }
}

impl Node<'_> {
    fn matches(&self, e: EntryRef<'_>) -> bool {
        match self {
            #[expect(
                clippy::indexing_slicing,
                reason = "an id past the bound dictionary is a store off it: a bug, not a miss"
            )]
            Node::Code(flags) => e.code_id().is_some_and(|id| flags[id.0 as usize]),
            Node::Leaf(p) => p.matches(e),
            Node::And(ns) => ns.iter().all(|n| n.matches(e)),
            Node::Or(ns) => ns.iter().any(|n| n.matches(e)),
            Node::Not(n) => !n.matches(e),
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
        // Within does not imply a value prefix, so the resolver cannot
        // walk the root's run of the sorted view.
        assert!(Code::icd10("E11.9").is_within(&Code::icd10("IV")));
        assert!(Code::icd10("E11").is_within(&Code::icd10("E10-E14")));
    }

    /// An exact literal resolves to its value's codes in every system and
    /// to nothing its value only starts; a prefix pattern to its run.
    #[test]
    fn code_leaves_resolve_to_their_run() {
        let mut dict = CodeDictionary::default();
        for code in [Code::icpc("T90"), Code::icd10("T90"), Code::icpc("T9"), Code::icd10("T90.1"), Code::icpc("K74")] {
            dict.intern(&code);
        }
        let ids = |pattern: &str| EntryPredicate::code_regex(pattern).unwrap().code_ids(&dict);
        assert_eq!(ids("T90"), [0, 1]);
        assert_eq!(ids("T9"), [2]);
        assert_eq!(ids("T9.*"), [0, 1, 2, 3]);
        assert_eq!(ids("T90|K74"), [0, 1, 4]);
        assert_eq!(ids("T90^"), [] as [u32; 0]);
        assert_eq!(EntryPredicate::System(CodeSystem::Icd10).code_ids(&dict), [1, 3]);
        assert_eq!(EntryPredicate::IsDiagnosis.code_ids(&dict), [] as [u32; 0]);
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
}
