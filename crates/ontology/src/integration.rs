//! The **integration & alignment** ontology — the first of the paper's two
//! OWL formalizations.
//!
//! Its job is to make heterogeneous records commensurable: every source
//! record becomes a `PatientEntry` subclass, every clinical code becomes a
//! class embedded in its hierarchy, and the ICPC↔ICD bridge makes a GP's
//! `T90` and a hospital's `E11.9` both subsumed by `cond:Diabetes`. The
//! bridge is expressed with genuine EL axioms (`entryWith:C ⊑ ∃hasCode.C`,
//! `∃hasCode.cond:X ⊑ entryFor:X`) so classification is carried entirely by
//! the reasoner's completion rules rather than ad-hoc lookups.

use crate::reasoner::{Axiom, ClassId, Reasoner, RoleId};
use crate::store::{Term, TripleStore};
use crate::vocab::{ns, Iri, Vocabulary};
use pastas_codes::Code;
use pastas_model::{EntryView, EpisodeKind, History, PayloadRef, SourceKind};
use std::collections::HashMap;

/// The chronic and acute conditions the cohort study tracks, with the
/// ICPC-2 codes and ICD-10 categories that indicate each.
pub const CONDITIONS: [(&str, &[&str], &[&str], bool); 17] = [
    // (name, icpc codes, icd categories, chronic?)
    ("Diabetes", &["T89", "T90"], &["E10", "E11", "E14"], true),
    ("Hypertension", &["K86", "K87"], &["I10", "I11", "I12", "I13", "I15"], true),
    ("IschaemicHeartDisease", &["K74", "K75", "K76"], &["I20", "I21", "I24", "I25"], true),
    ("HeartFailure", &["K77"], &["I50"], true),
    ("AtrialFibrillation", &["K78"], &["I48"], true),
    ("Stroke", &["K89", "K90"], &["I63", "I64", "G45"], true),
    ("COPD", &["R95"], &["J44"], true),
    ("Asthma", &["R96"], &["J45", "J46"], true),
    ("Depression", &["P76"], &["F32", "F33"], true),
    ("Anxiety", &["P74"], &["F41"], true),
    ("Dementia", &["P70"], &["F03"], true),
    ("RheumatoidArthritis", &["L88"], &["M05", "M06"], true),
    ("Osteoarthrosis", &["L89", "L90"], &["M16", "M17"], true),
    ("ChronicKidneyDisease", &["U99"], &["N18"], true),
    ("Migraine", &["N89"], &["G43"], true),
    ("Hypothyroidism", &["T86"], &["E03"], true),
    ("Pneumonia", &["R81"], &["J18"], false),
];

/// The integration & alignment ontology with its saturated reasoner.
#[derive(Debug)]
pub struct IntegrationOntology {
    vocab: Vocabulary,
    reasoner: Reasoner,
    classes: HashMap<Iri, ClassId>,
    /// Reverse map: ClassId index → interned name.
    class_names: Vec<Iri>,
    /// Codes whose hierarchy + bridge axioms have been emitted.
    registered_codes: std::collections::HashSet<String>,
    has_code: RoleId,
    saturated: bool,
}

impl IntegrationOntology {
    /// Build the schema: structural entry classes, condition classes, the
    /// catalog code hierarchies, and the cross-system bridge; then
    /// saturate.
    pub fn new() -> IntegrationOntology {
        let mut o = IntegrationOntology {
            vocab: Vocabulary::new(),
            reasoner: Reasoner::new(),
            classes: HashMap::new(),
            class_names: Vec::new(),
            registered_codes: std::collections::HashSet::new(),
            has_code: RoleId(0),
            saturated: false,
        };
        o.has_code = o.reasoner.new_role();
        o.build_structural_schema();
        o.build_condition_schema();
        // Pre-register every catalog code so the common case needs no
        // mutation after construction.
        for (c, _) in pastas_codes::catalog::ICPC_NAMES {
            o.register_code(&Code::icpc(c));
        }
        for (c, _) in pastas_codes::catalog::ICD_NAMES {
            o.register_code(&Code::icd10(c));
        }
        for (c, _) in pastas_codes::catalog::ATC_NAMES {
            o.register_code(&Code::atc(c));
        }
        // Every code the condition table mentions must be fully registered
        // (hierarchy + bridge), even when it is not in the display catalog.
        for (_, icpc, icd, _) in CONDITIONS {
            for c in icpc {
                o.register_code(&Code::icpc(c));
            }
            for c in icd {
                o.register_code(&Code::icd10(c));
            }
        }
        o.saturate();
        o
    }

    /// The interned vocabulary (read access for display).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Get-or-create the class for a name.
    fn class(&mut self, name: &str) -> ClassId {
        let iri = self.vocab.intern(name);
        if let Some(&c) = self.classes.get(&iri) {
            return c;
        }
        let c = self.reasoner.new_class();
        self.classes.insert(iri, c);
        debug_assert_eq!(self.class_names.len(), c.0 as usize);
        self.class_names.push(iri);
        self.saturated = false;
        c
    }

    /// Look up an existing class by name.
    pub fn lookup(&self, name: &str) -> Option<ClassId> {
        self.classes.get(&self.vocab.get(name)?).copied()
    }

    fn sub(&mut self, a: &str, b: &str) {
        let (a, b) = (self.class(a), self.class(b));
        self.reasoner.sub(a, b);
        self.saturated = false;
    }

    fn build_structural_schema(&mut self) {
        // Entry taxonomy.
        for (a, b) in [
            ("pastas-int:Contact", "pastas-int:PatientEntry"),
            ("pastas-int:PrimaryCareContact", "pastas-int:Contact"),
            ("pastas-int:OutOfHoursContact", "pastas-int:PrimaryCareContact"),
            ("pastas-int:SpecialistContact", "pastas-int:Contact"),
            ("pastas-int:HospitalContact", "pastas-int:Contact"),
            ("pastas-int:Dispensing", "pastas-int:PatientEntry"),
            ("pastas-int:Observation", "pastas-int:PatientEntry"),
            ("pastas-int:NoteEntry", "pastas-int:PatientEntry"),
            ("pastas-int:CareEpisode", "pastas-int:PatientEntry"),
            ("pastas-int:HospitalEpisode", "pastas-int:CareEpisode"),
            ("pastas-int:InpatientStay", "pastas-int:HospitalEpisode"),
            ("pastas-int:OutpatientSeries", "pastas-int:HospitalEpisode"),
            ("pastas-int:DayTreatment", "pastas-int:HospitalEpisode"),
            ("pastas-int:MunicipalEpisode", "pastas-int:CareEpisode"),
            ("pastas-int:HomeCare", "pastas-int:MunicipalEpisode"),
            ("pastas-int:NursingHome", "pastas-int:MunicipalEpisode"),
            ("pastas-int:Rehabilitation", "pastas-int:CareEpisode"),
            ("pastas-int:MedicationPeriod", "pastas-int:CareEpisode"),
        ] {
            self.sub(a, b);
        }
    }

    fn build_condition_schema(&mut self) {
        self.sub("cond:ChronicCondition", "cond:Condition");
        self.sub("cond:AcuteCondition", "cond:Condition");
        for (name, icpc, icd, chronic) in CONDITIONS {
            let cond_name = format!("cond:{name}");
            let parent = if chronic { "cond:ChronicCondition" } else { "cond:AcuteCondition" };
            self.sub(&cond_name, parent);
            for c in icpc {
                let code_class = format!("ICPC2:{c}");
                self.sub(&code_class, &cond_name);
            }
            for c in icd {
                let code_class = format!("ICD10:{c}");
                self.sub(&code_class, &cond_name);
            }
            // The existential bridge: any entry whose code falls under the
            // condition is an entry for it.
            let cond = self.class(&cond_name);
            let entry_for = self.class(&format!("pastas-int:EntryFor/{name}"));
            self.reasoner.add(Axiom::ExistsSub(self.has_code, cond, entry_for));
        }
    }

    /// Register a code: creates its class, walks the hierarchy up to the
    /// root adding subsumption axioms, and links the entry-with-code class
    /// through `hasCode`. Idempotent. Call [`Self::saturate`] after a batch.
    pub fn register_code(&mut self, code: &Code) -> ClassId {
        let name = code_class_name(code);
        if self.registered_codes.contains(&name) {
            return self.lookup(&name).expect("registered code has a class");
        }
        self.registered_codes.insert(name.clone());
        let class = self.class(&name);
        // Hierarchy axioms up to the root.
        let mut cur = code.clone();
        let mut cur_class = class;
        while let Some(parent) = cur.parent() {
            let parent_class = self.class(&code_class_name(&parent));
            self.reasoner.sub(cur_class, parent_class);
            cur_class = parent_class;
            cur = parent;
        }
        // entryWith:C ⊑ ∃hasCode.C — the lhs is what classify_entry asks
        // the reasoner about.
        let entry_with = self.class(&entry_with_name(code));
        self.reasoner.add(Axiom::SubExists(entry_with, self.has_code, class));
        self.saturated = false;
        class
    }

    /// (Re-)saturate after registering codes.
    pub fn saturate(&mut self) {
        self.reasoner.saturate();
        self.saturated = true;
    }

    /// True if `a ⊑ b` for two class names (false if either is unknown).
    pub fn is_subclass(&self, a: &str, b: &str) -> bool {
        match (self.lookup(a), self.lookup(b)) {
            (Some(a), Some(b)) => self.reasoner.is_subsumed(a, b),
            _ => false,
        }
    }

    /// The conditions a code indicates, via subsumption (so `E11.9` rolls
    /// up through `E11` to `Diabetes`). A code without a class of its own
    /// — an ingested subcode nobody registered — indicates what its
    /// nearest ancestor with one does; a code with neither yields nothing.
    pub fn conditions_of(&self, code: &Code) -> Vec<&'static str> {
        let own = self.lookup(&code_class_name(code));
        let Some(class) = own.or_else(|| {
            code.ancestors().iter().find_map(|ancestor| self.lookup(&code_class_name(ancestor)))
        }) else {
            return Vec::new();
        };
        CONDITIONS
            .iter()
            .filter(|(name, ..)| {
                self.lookup(&format!("cond:{name}"))
                    .is_some_and(|cond| self.reasoner.is_subsumed(class, cond))
            })
            .map(|&(name, ..)| name)
            .collect()
    }

    /// True if the code indicates the named condition.
    pub fn code_indicates(&self, code: &Code, condition: &str) -> bool {
        self.conditions_of(code).contains(&condition)
    }

    /// The tracked condition names in [`CONDITIONS`] order — the dense
    /// ids the analytics accumulators index by.
    pub fn condition_names() -> impl ExactSizeIterator<Item = &'static str> {
        CONDITIONS.iter().map(|&(name, ..)| name)
    }

    /// Position of a condition name within [`CONDITIONS`], if tracked.
    pub fn condition_index(name: &str) -> Option<usize> {
        CONDITIONS.iter().position(|&(n, ..)| n == name)
    }

    /// The structural class name for an entry (by payload × source).
    ///
    /// Generic over [`EntryView`] so both owned `&Entry` values and
    /// zero-copy [`pastas_model::EntryRef`] views classify without
    /// materializing a payload.
    pub fn structural_class<E: EntryView>(entry: E) -> &'static str {
        match (entry.payload_ref(), entry.source()) {
            (PayloadRef::Diagnosis(_), SourceKind::PrimaryCare) => "pastas-int:PrimaryCareContact",
            (PayloadRef::Diagnosis(_), SourceKind::Specialist) => "pastas-int:SpecialistContact",
            (PayloadRef::Diagnosis(_), _) => "pastas-int:HospitalContact",
            (PayloadRef::Medication(_), _) => "pastas-int:Dispensing",
            (PayloadRef::Measurement { .. }, _) => "pastas-int:Observation",
            (PayloadRef::Note(_), _) => "pastas-int:NoteEntry",
            (PayloadRef::Episode(k), _) => match k {
                EpisodeKind::Inpatient => "pastas-int:InpatientStay",
                EpisodeKind::Outpatient => "pastas-int:OutpatientSeries",
                EpisodeKind::DayTreatment => "pastas-int:DayTreatment",
                EpisodeKind::HomeCare => "pastas-int:HomeCare",
                EpisodeKind::NursingHome => "pastas-int:NursingHome",
                EpisodeKind::Rehabilitation => "pastas-int:Rehabilitation",
                EpisodeKind::MedicationExposure => "pastas-int:MedicationPeriod",
            },
        }
    }

    /// Every class name an entry belongs to: its structural classes plus,
    /// when it carries a registered code, everything the reasoner derives
    /// through the `hasCode` bridge (condition `EntryFor/...` classes).
    pub fn classify_entry<E: EntryView>(&self, entry: E) -> Vec<String> {
        let mut out = Vec::new();
        // Structural chain.
        let structural = Self::structural_class(entry);
        if let Some(c) = self.lookup(structural) {
            for &sup in self.reasoner.superclasses(c) {
                out.push(self.name_of(sup));
            }
        } else {
            out.push(structural.to_owned());
        }
        // Code-derived classes via the entryWith bridge.
        if let Some(code) = entry.code_ref() {
            if let Some(ew) = self.lookup(&entry_with_name(code)) {
                for &sup in self.reasoner.superclasses(ew) {
                    let name = self.name_of(sup);
                    // The entryWith:* helper classes are internal.
                    if !name.starts_with("entryWith:") {
                        out.push(name);
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn name_of(&self, class: ClassId) -> String {
        self.class_names
            .get(class.0 as usize)
            .map(|&iri| self.vocab.name(iri).to_owned())
            .unwrap_or_else(|| format!("?{}", class.0))
    }

    /// Materialize a history as ABox triples (the E10 scale experiment):
    /// type, code, patient, source, and time assertions per entry.
    pub fn assert_history(&self, history: &History, store: &mut TripleStore, vocab: &mut Vocabulary) {
        let patient = Term::Resource(vocab.intern(&history.id().to_string()));
        let rdf_type = Term::Resource(vocab.intern(ns::RDF_TYPE));
        let has_code = Term::Resource(vocab.intern(ns::HAS_CODE));
        let of_patient = Term::Resource(vocab.intern(ns::OF_PATIENT));
        let from_source = Term::Resource(vocab.intern(ns::FROM_SOURCE));
        let starts_at = Term::Resource(vocab.intern(ns::STARTS_AT));
        let ends_at = Term::Resource(vocab.intern(ns::ENDS_AT));
        for (i, e) in history.entries().iter().enumerate() {
            let id = format!("{}#e{}", history.id(), i);
            let entry = Term::Resource(vocab.intern(&id));
            store.insert(entry, of_patient, patient);
            let class = Term::Resource(vocab.intern(Self::structural_class(e)));
            store.insert(entry, rdf_type, class);
            if let Some(code) = e.code() {
                let code_term = Term::Resource(vocab.intern(&code_class_name(code)));
                store.insert(entry, has_code, code_term);
            }
            store.insert(entry, from_source, Term::Resource(vocab.intern(e.source().label())));
            store.insert(entry, starts_at, Term::Literal(vocab.intern(&e.start().to_string())));
            if e.is_interval() {
                store.insert(entry, ends_at, Term::Literal(vocab.intern(&e.end().to_string())));
            }
        }
    }
}

impl Default for IntegrationOntology {
    fn default() -> Self {
        Self::new()
    }
}

/// The ontology class name of a code: `"ICPC2:T90"`, `"ICD10:E11"`, …
pub fn code_class_name(code: &Code) -> String {
    format!("{}:{}", code.system.tag(), code.value)
}

fn entry_with_name(code: &Code) -> String {
    format!("entryWith:{}:{}", code.system.tag(), code.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_model::{Patient, PatientId, Sex};
    use pastas_time::Date;

    fn onto() -> IntegrationOntology {
        IntegrationOntology::new()
    }

    #[test]
    fn code_hierarchy_is_lifted_to_subsumption() {
        let o = onto();
        assert!(o.is_subclass("ICPC2:T90", "ICPC2:T"));
        assert!(o.is_subclass("ATC:C07AB02", "ATC:C07"));
        assert!(o.is_subclass("ATC:C07AB02", "ATC:C"));
        assert!(o.is_subclass("ICD10:E11", "ICD10:E10-E14"));
        assert!(o.is_subclass("ICD10:E11", "ICD10:IV"));
        assert!(!o.is_subclass("ICPC2:T90", "ICPC2:K"));
    }

    #[test]
    fn cross_system_bridge() {
        let o = onto();
        // The T90/E11 pair both roll up to the Diabetes condition class.
        assert!(o.is_subclass("ICPC2:T90", "cond:Diabetes"));
        assert!(o.is_subclass("ICD10:E11", "cond:Diabetes"));
        assert!(o.is_subclass("cond:Diabetes", "cond:ChronicCondition"));
        assert_eq!(o.conditions_of(&Code::icpc("T90")), vec!["Diabetes"]);
        assert_eq!(o.conditions_of(&Code::icd10("E11")), vec!["Diabetes"]);
        assert!(o.code_indicates(&Code::icpc("R95"), "COPD"));
        assert!(!o.code_indicates(&Code::icpc("R95"), "Diabetes"));
    }

    #[test]
    fn subcategory_rolls_up_through_category() {
        let mut o = onto();
        o.register_code(&Code::icd10("E11.9"));
        o.saturate();
        assert!(o.is_subclass("ICD10:E11.9", "cond:Diabetes"));
        assert_eq!(o.conditions_of(&Code::icd10("E11.9")), vec!["Diabetes"]);
    }

    /// An ingested subcode nobody registered indicates what its category
    /// does: the fresh ontology has no class for `E11.9`, only for `E11`.
    #[test]
    fn an_unregistered_subcode_rolls_up_to_its_category() {
        let o = IntegrationOntology::new();
        assert!(o.lookup("ICD10:E11.9").is_none(), "E11.9 is not registered");
        assert_eq!(o.conditions_of(&Code::icd10("E11.9")), vec!["Diabetes"]);
        assert_eq!(o.conditions_of(&Code::icd10("I50.1")), vec!["HeartFailure"]);
        assert!(o.conditions_of(&Code::icd10("E12.9")).is_empty());
    }

    #[test]
    fn unknown_codes_are_harmless() {
        let o = onto();
        assert!(o.conditions_of(&Code::icpc("A77")).is_empty());
        assert!(!o.is_subclass("ICPC2:A77", "cond:Diabetes"));
    }

    #[test]
    fn structural_classification() {
        use pastas_model::{Entry, Payload};
        let t = Date::new(2020, 1, 1).unwrap().at_midnight();
        let e = Entry::event(t, Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare);
        assert_eq!(IntegrationOntology::structural_class(&e), "pastas-int:PrimaryCareContact");
        let stay = Entry::interval(
            t,
            t + pastas_time::Duration::days(3),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        );
        assert_eq!(IntegrationOntology::structural_class(&stay), "pastas-int:InpatientStay");
    }

    #[test]
    fn classify_entry_combines_structure_and_condition() {
        use pastas_model::{Entry, Payload};
        let o = onto();
        let t = Date::new(2020, 1, 1).unwrap().at_midnight();
        let e = Entry::event(t, Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare);
        let classes = o.classify_entry(&e);
        for expected in [
            "pastas-int:PrimaryCareContact",
            "pastas-int:Contact",
            "pastas-int:PatientEntry",
            "pastas-int:EntryFor/Diabetes",
        ] {
            assert!(classes.iter().any(|c| c == expected), "missing {expected}: {classes:?}");
        }
        // No diabetes class on an unrelated code.
        let e2 = Entry::event(t, Payload::Diagnosis(Code::icpc("K74")), SourceKind::PrimaryCare);
        let classes2 = o.classify_entry(&e2);
        assert!(classes2.iter().any(|c| c == "pastas-int:EntryFor/IschaemicHeartDisease"));
        assert!(!classes2.iter().any(|c| c == "pastas-int:EntryFor/Diabetes"));
    }

    #[test]
    fn abox_materialization() {
        use pastas_model::{Entry, Payload};
        let o = onto();
        let mut h = History::new(Patient {
            id: PatientId(5),
            birth_date: Date::new(1950, 1, 1).unwrap(),
            sex: Sex::Female,
        });
        let t = Date::new(2020, 1, 1).unwrap().at_midnight();
        h.insert(Entry::event(t, Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare));
        h.insert(Entry::interval(
            t,
            t + pastas_time::Duration::days(3),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        ));
        let mut store = TripleStore::new();
        let mut vocab = Vocabulary::new();
        o.assert_history(&h, &mut store, &mut vocab);
        // Event: type + code + patient + source + start = 5; interval adds
        // end but has no code: type + patient + source + start + end = 5.
        assert_eq!(store.len(), 10);
        let rdf_type = Term::Resource(vocab.get(ns::RDF_TYPE).unwrap());
        let contact = Term::Resource(vocab.get("pastas-int:PrimaryCareContact").unwrap());
        assert_eq!(store.subjects(rdf_type, contact).len(), 1);
    }

    #[test]
    fn condition_table_codes_are_valid() {
        for (name, icpc, icd, _) in CONDITIONS {
            for c in icpc {
                assert!(Code::icpc(c).is_valid(), "{name}: bad ICPC {c}");
            }
            for c in icd {
                assert!(Code::icd10(c).is_valid(), "{name}: bad ICD {c}");
            }
        }
    }
}
