//! Code → dimension translation: one record a code of the collection's
//! dictionary, indexed by [`pastas_model::CodeId`].
//!
//! A code id names the same code in every arena of a collection, so the
//! digest column keeps one `Vec<CodeDims>` beside the collection's
//! [`pastas_model::CodeDictionary`]: each code's ICD-10 chapter, ATC main
//! group and condition bitmask in an 8-byte record, resolved once, so
//! the bulk build's per-entry loop is one array read and never touches a
//! string or a hash map. Labels come from the dictionary itself.

use pastas_codes::atc::AtcCode;
use pastas_codes::icd10::Icd10Code;
use pastas_codes::{Code, CodeSystem};
use pastas_ontology::integration::{IntegrationOntology, CONDITIONS};

/// Sentinel for "this code has no bucket in the dimension".
pub(crate) const NO_BUCKET: u8 = u8::MAX;

/// Everything the digest builder needs to know about one code.
#[derive(Clone, Copy)]
pub(crate) struct CodeDims {
    /// ICD-10 chapter index (`NO_BUCKET` for non-ICD codes).
    pub chapter: u8,
    /// ATC main-group index (`NO_BUCKET` for non-ATC codes).
    pub atc: u8,
    /// Bit `i` set ⇔ the code indicates `CONDITIONS[i]`.
    pub cond_mask: u32,
}

impl CodeDims {
    /// Parse `code` and resolve its conditions through `ontology`.
    pub fn of(code: &Code, ontology: &IntegrationOntology) -> CodeDims {
        const _: () = assert!(CONDITIONS.len() <= 32, "condition mask is a u32");
        CodeDims {
            chapter: chapter_of(code),
            atc: atc_group_of(code),
            cond_mask: condition_mask(ontology, code),
        }
    }
}

/// ICD-10 chapter index of a code, or `NO_BUCKET`.
pub(crate) fn chapter_of(code: &Code) -> u8 {
    if code.system != CodeSystem::Icd10 {
        return NO_BUCKET;
    }
    Icd10Code::parse(&code.value)
        .and_then(|c| c.chapter_index())
        .map(|i| i as u8)
        .unwrap_or(NO_BUCKET)
}

/// ATC main-group index of a code, or `NO_BUCKET`.
pub(crate) fn atc_group_of(code: &Code) -> u8 {
    if code.system != CodeSystem::Atc {
        return NO_BUCKET;
    }
    AtcCode::parse(&code.value).map(|c| c.main_group_index() as u8).unwrap_or(NO_BUCKET)
}

/// Bitmask over [`CONDITIONS`] of the conditions a code indicates.
pub(crate) fn condition_mask(ontology: &IntegrationOntology, code: &Code) -> u32 {
    let mut mask = 0u32;
    for name in ontology.conditions_of(code) {
        if let Some(i) = IntegrationOntology::condition_index(name) {
            mask |= 1 << i;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chapter_and_group_sentinels() {
        assert_eq!(chapter_of(&Code::icd10("E11")), 3); // chapter IV
        assert_eq!(chapter_of(&Code::icpc("T90")), NO_BUCKET);
        assert_eq!(atc_group_of(&Code::atc("C07AB02")), 2); // C = cardiovascular
        assert_eq!(atc_group_of(&Code::icd10("E11")), NO_BUCKET);
    }

    #[test]
    fn condition_mask_unifies_systems() {
        let ontology = IntegrationOntology::new();
        let gp = condition_mask(&ontology, &Code::icpc("T90"));
        let hospital = condition_mask(&ontology, &Code::icd10("E11"));
        let diabetes = IntegrationOntology::condition_index("Diabetes").expect("tracked");
        assert_ne!(gp & (1 << diabetes), 0, "T90 indicates diabetes");
        assert_ne!(hospital & (1 << diabetes), 0, "E11 indicates diabetes");
        assert_eq!(condition_mask(&ontology, &Code::atc("C07AB02")) >> CONDITIONS.len(), 0);
    }
}
