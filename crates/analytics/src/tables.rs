//! Code → condition translation, the one ontology-derived input of a
//! cohort profile: the model, which knows no ontology, holds each code's
//! chapter and ATC group ([`pastas_model::CodeGroups`]); a workbench
//! keeps one [`condition_mask`] a code of its dictionary.

use pastas_codes::Code;
use pastas_ontology::integration::{IntegrationOntology, CONDITIONS};

/// Bitmask over [`CONDITIONS`] of the conditions `code` indicates: bit
/// `i` set ⇔ it indicates `CONDITIONS[i]`.
pub fn condition_mask(ontology: &IntegrationOntology, code: &Code) -> u32 {
    const _: () = assert!(CONDITIONS.len() <= 32, "condition mask is a u32");
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
    use pastas_model::{CodeGroups, NO_GROUP};

    #[test]
    fn chapter_and_group_sentinels() {
        let groups = |code: Code| CodeGroups::of(&code);
        assert_eq!(groups(Code::icd10("E11")).chapter, 3); // chapter IV
        assert_eq!(groups(Code::icpc("T90")).chapter, NO_GROUP);
        assert_eq!(groups(Code::atc("C07AB02")).atc, 2); // C = cardiovascular
        assert_eq!(groups(Code::icd10("E11")).atc, NO_GROUP);
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
