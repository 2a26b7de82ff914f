//! Clinical code systems for the PAsTAs workbench.
//!
//! The paper's imported data is "structured … and coded in a standard way.
//! For example, diagnoses are mainly coded using ICPC-2 and/or ICD-10", and
//! the visualization colors events by "different classes of medication"
//! (ATC groups). This crate implements the three code systems as navigable
//! hierarchies:
//!
//! * [`icpc`] — the International Classification of Primary Care, 2nd
//!   edition: 17 chapters × components, used by GP and emergency contacts;
//! * [`icd10`] — ICD-10 chapter/block/category structure, used by hospital
//!   episodes;
//! * [`atc`] — the Anatomical Therapeutic Chemical classification, 5 levels,
//!   used by prescriptions;
//! * [`mapping`] — a curated ICPC-2 ↔ ICD-10 bridge for the chronic
//!   conditions the cohort study follows (the aggregation step needs it to
//!   recognise that a GP's `T90` and a hospital's `E11` are the same
//!   diabetes);
//! * [`catalog`] — human-readable names for chapters, groups, and the codes
//!   the synthetic population uses (details-on-demand panels display them).
//!
//! Every system exposes the same two operations the query layer needs:
//! parsing with validation, and *hierarchy walking* (`parent`, `ancestors`,
//! `level`) which the ontology crate lifts into subsumption axioms.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod atc;
pub mod catalog;
pub mod icd10;
pub mod icpc;
pub mod mapping;

/// Which coding system a raw code string belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeSystem {
    /// ICPC-2 (primary care).
    Icpc2,
    /// ICD-10 (specialist/hospital care).
    Icd10,
    /// ATC (medications).
    Atc,
}

impl CodeSystem {
    /// Short identifier used in serialized output (`"ICPC2"`, …).
    pub fn tag(self) -> &'static str {
        match self {
            CodeSystem::Icpc2 => "ICPC2",
            CodeSystem::Icd10 => "ICD10",
            CodeSystem::Atc => "ATC",
        }
    }
}

impl std::fmt::Display for CodeSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// A code together with its system — the universal key used across the
/// model, query and ontology layers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Code {
    /// The owning code system.
    pub system: CodeSystem,
    /// The normalized code string (uppercase, no whitespace).
    pub value: String,
}

impl Code {
    /// Build a code, normalizing case and surrounding whitespace. Does not
    /// validate against the system grammar — use the per-system parsers for
    /// that.
    pub fn new(system: CodeSystem, value: &str) -> Code {
        Code { system, value: value.trim().to_ascii_uppercase() }
    }

    /// An ICPC-2 code.
    pub fn icpc(value: &str) -> Code {
        Code::new(CodeSystem::Icpc2, value)
    }

    /// An ICD-10 code.
    pub fn icd10(value: &str) -> Code {
        Code::new(CodeSystem::Icd10, value)
    }

    /// An ATC code.
    pub fn atc(value: &str) -> Code {
        Code::new(CodeSystem::Atc, value)
    }

    /// True if the code string is syntactically valid for its system.
    pub fn is_valid(&self) -> bool {
        match self.system {
            CodeSystem::Icpc2 => icpc::IcpcCode::parse(&self.value).is_some(),
            CodeSystem::Icd10 => icd10::Icd10Code::parse(&self.value).is_some(),
            CodeSystem::Atc => atc::AtcCode::parse(&self.value).is_some(),
        }
    }

    /// Immediate parent in the system hierarchy, if any.
    ///
    /// ICPC: `T90 → T` (chapter). ICD-10: `E11.9 → E11 → E10-E14 → IV`.
    /// ATC: `C07AB02 → C07AB → C07A → C07 → C`.
    pub fn parent(&self) -> Option<Code> {
        match self.system {
            CodeSystem::Icpc2 => {
                icpc::IcpcCode::parse(&self.value)?.parent().map(|p| Code::icpc(&p))
            }
            CodeSystem::Icd10 => icd10::hierarchy_parent(&self.value).map(|p| Code::icd10(&p)),
            CodeSystem::Atc => atc::AtcCode::parse(&self.value)?.parent().map(|p| Code::atc(&p)),
        }
    }

    /// All ancestors, nearest first.
    pub fn ancestors(&self) -> Vec<Code> {
        let mut out = Vec::new();
        let mut cur = self.parent();
        while let Some(c) = cur {
            cur = c.parent();
            out.push(c);
        }
        out
    }

    /// True if `self` is `other` or a descendant of it.
    pub fn is_within(&self, other: &Code) -> bool {
        if self.system != other.system {
            return false;
        }
        self == other || self.ancestors().contains(other)
    }

    /// Human-readable name from the catalog, if known.
    pub fn display_name(&self) -> Option<&'static str> {
        catalog::name_of(self.system, &self.value)
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.system.tag(), self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Code::icpc(" t90 ").value, "T90");
        assert_eq!(Code::atc("c07ab02").value, "C07AB02");
    }

    #[test]
    fn validity_dispatch() {
        assert!(Code::icpc("T90").is_valid());
        assert!(!Code::icpc("E11").is_valid()); // E is not an ICPC chapter
        assert!(Code::icd10("E11.9").is_valid());
        assert!(Code::atc("C07AB02").is_valid());
        assert!(!Code::atc("T90").is_valid());
    }

    #[test]
    fn ancestor_chains() {
        let c = Code::atc("C07AB02");
        let anc: Vec<String> = c.ancestors().into_iter().map(|a| a.value).collect();
        assert_eq!(anc, vec!["C07AB", "C07A", "C07", "C"]);
    }

    #[test]
    fn is_within_follows_hierarchy() {
        assert!(Code::atc("C07AB02").is_within(&Code::atc("C07")));
        assert!(Code::atc("C07").is_within(&Code::atc("C07")));
        assert!(!Code::atc("C07AB02").is_within(&Code::atc("A10")));
        assert!(!Code::icpc("T90").is_within(&Code::atc("C07"))); // cross-system
    }

    #[test]
    fn display_format() {
        assert_eq!(Code::icpc("T90").to_string(), "ICPC2:T90");
        assert_eq!(CodeSystem::Atc.to_string(), "ATC");
    }
}
