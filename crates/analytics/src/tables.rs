//! Code → dimension translation: the global vocabulary the digest
//! column's code lists index into, and the bulk builder's per-interner
//! `CodeId → CodeDims` tables.
//!
//! `CodeId`s are interner-local (each shard of a sharded collection
//! interns its own symbol table), so a [`Vocab`] assigns every distinct
//! code one global id and keeps its ICD-10 chapter, ATC main group and
//! condition bitmask in a 12-byte record. [`Tables`] resolves every code
//! of every distinct interner once, so the bulk build's per-entry loop
//! is one array read and never touches a string or a hash map.

use pastas_codes::atc::AtcCode;
use pastas_codes::icd10::Icd10Code;
use pastas_codes::{Code, CodeSystem};
use pastas_model::{CodeInterner, History};
use pastas_ontology::integration::{IntegrationOntology, CONDITIONS};
use std::collections::HashMap;
use std::sync::Arc;

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
    /// Dense id into the vocabulary.
    pub global: u32,
}

/// The global code vocabulary of one digest column. Append-only: a code
/// keeps its id across ingest publishes, so rows built against an older
/// vocabulary stay valid against every later one.
#[derive(Clone, Default)]
pub(crate) struct Vocab {
    /// Display labels (`"ICPC2:T90"`), indexed by global code id.
    pub labels: Vec<String>,
    dims: Vec<CodeDims>,
    ids: HashMap<Code, u32>,
}

impl Vocab {
    /// The dimension record of a code the vocabulary already holds.
    pub fn get(&self, code: &Code) -> Option<CodeDims> {
        self.ids.get(code).map(|&id| self.dims[id as usize])
    }

    /// Add `code` (not yet held): parse it and resolve its conditions
    /// through `ontology`, once.
    pub fn insert(&mut self, code: &Code, ontology: &IntegrationOntology) -> CodeDims {
        const _: () = assert!(CONDITIONS.len() <= 32, "condition mask is a u32");
        let dims = CodeDims {
            chapter: chapter_of(code),
            atc: atc_group_of(code),
            cond_mask: condition_mask(ontology, code),
            global: self.labels.len() as u32,
        };
        self.labels.push(code.to_string());
        self.dims.push(dims);
        self.ids.insert(code.clone(), dims.global);
        dims
    }
}

/// `CodeId → CodeDims` for every distinct interner behind a run of
/// histories — the bulk builder's translation, dropped when the build
/// ends. Keyed by interner identity, and holding the `Arc` so the
/// address cannot be recycled under the key.
pub(crate) struct Tables {
    interners: Vec<(Arc<CodeInterner>, Vec<CodeDims>)>,
    by_address: HashMap<usize, usize>,
}

impl Tables {
    /// Resolve every code of every interner `histories` view, extending
    /// `vocab` in first-seen order.
    pub fn build(
        histories: &[Arc<History>],
        vocab: &mut Vocab,
        ontology: &IntegrationOntology,
    ) -> Tables {
        let mut tables = Tables { interners: Vec::new(), by_address: HashMap::new() };
        let mut previous = std::ptr::null();
        for history in histories {
            let interner = history.store().interner_arc();
            let address = Arc::as_ptr(interner);
            if address == previous || tables.by_address.contains_key(&(address as usize)) {
                continue;
            }
            previous = address;
            let dims = interner
                .iter()
                .map(|code| vocab.get(code).unwrap_or_else(|| vocab.insert(code, ontology)))
                .collect();
            tables.by_address.insert(address as usize, tables.interners.len());
            tables.interners.push((Arc::clone(interner), dims));
        }
        tables
    }

    /// The table of the interner behind `history`. `hint` is the caller's
    /// last hit: neighbouring rows nearly always share an arena.
    pub fn of(&self, history: &History, hint: &mut usize) -> &[CodeDims] {
        let interner = history.store().interner_arc();
        if !self.interners.get(*hint).is_some_and(|(held, _)| Arc::ptr_eq(held, interner)) {
            // Tables::build registered the interner of every history it was given
            *hint = self.by_address[&(Arc::as_ptr(interner) as usize)];
        }
        &self.interners[*hint].1
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
