//! Identity resolution across the four source id schemes.
//!
//! The person register keys patients by national id (`NIN-0000123`); the
//! other sources use their own forms of the same underlying number:
//! zero-padded digits (hospital), `M`-prefixed (municipal), and plain
//! digits (prescriptions). A [`Linkage`] canonicalizes all of them to
//! [`PatientId`] and answers the demographics a delta carries: an
//! [`IdentityRegistry`] on its own (the batch pipeline), or the persons a
//! live feed registered over the row table a server already publishes
//! ([`IdentityRegistry::over`]).

use pastas_model::{HistoryCollection, Patient, PatientId, Sex};
use pastas_time::Date;
use std::collections::HashMap;

/// What a delta parse links against: the demographics of canonical ids,
/// and a place to register the persons a `persons` increment names.
pub trait Linkage {
    /// Demographics for a canonical id; `None` when the id is unknown.
    fn patient(&self, id: PatientId) -> Option<Patient>;

    /// Register (or re-register) a person under their canonical id.
    fn register(&mut self, id: u64, birth_date: Date, sex: Sex);

    /// Resolve a raw identifier in any of the four schemes:
    ///
    /// * `NIN-0000123` (claims / person register)
    /// * `00000123` (hospital, zero-padded)
    /// * `M123` (municipal)
    /// * `123` (prescriptions)
    ///
    /// Whitespace is tolerated. Returns `None` for malformed ids or ids
    /// not known here (an unlinked row).
    fn resolve(&self, raw: &str) -> Option<Patient> {
        self.patient(PatientId(IdentityRegistry::parse_raw(raw)?))
    }
}

/// The linkage anchor: canonical ids plus demographics. An id's slot
/// holds its birth date and sex only (the id is the key): 16 bytes an
/// entry instead of a whole [`Patient`]'s 24. A server keeps one of the
/// persons its ingest registered, over its published row table
/// ([`IdentityRegistry::over`]), not one of every patient it holds.
#[derive(Debug, Default, Clone)]
pub struct IdentityRegistry {
    by_id: HashMap<u64, (Date, Sex)>,
}

impl IdentityRegistry {
    /// An empty registry.
    pub fn new() -> IdentityRegistry {
        IdentityRegistry::default()
    }

    /// Register a person under their canonical numeric id.
    pub fn register(&mut self, id: u64, birth_date: Date, sex: Sex) {
        self.by_id.insert(id, (birth_date, sex));
    }

    /// Number of registered persons.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True if no persons are registered.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Demographics for a canonical id.
    pub fn patient(&self, id: PatientId) -> Option<Patient> {
        let &(birth_date, sex) = self.by_id.get(&id.0)?;
        Some(Patient { id, birth_date, sex })
    }

    /// All registered patients (arbitrary order).
    pub fn patients(&self) -> impl Iterator<Item = Patient> + '_ {
        self.by_id.iter().map(|(&id, &(birth_date, sex))| Patient {
            id: PatientId(id),
            birth_date,
            sex,
        })
    }

    /// This registry over `table`: an id links to what this registry
    /// holds for it, else to its row's patient in `table`, and persons
    /// register here. So a re-registration overrides the row's
    /// demographics, and the table is read, never copied.
    pub fn over<'a>(&'a mut self, table: &'a HistoryCollection) -> Overlay<'a> {
        Overlay { registry: self, table }
    }

    /// Parse a raw id in any of the four schemes, without register
    /// membership (see [`Linkage::resolve`]).
    pub fn parse_raw(raw: &str) -> Option<u64> {
        let raw = raw.trim();
        let digits = raw.strip_prefix("NIN-").or_else(|| raw.strip_prefix('M')).unwrap_or(raw);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }
}

impl Linkage for IdentityRegistry {
    fn patient(&self, id: PatientId) -> Option<Patient> {
        IdentityRegistry::patient(self, id)
    }

    fn register(&mut self, id: u64, birth_date: Date, sex: Sex) {
        IdentityRegistry::register(self, id, birth_date, sex);
    }
}

/// An [`IdentityRegistry`] over a row table: see [`IdentityRegistry::over`].
#[derive(Debug)]
pub struct Overlay<'a> {
    registry: &'a mut IdentityRegistry,
    table: &'a HistoryCollection,
}

impl Linkage for Overlay<'_> {
    fn patient(&self, id: PatientId) -> Option<Patient> {
        self.registry.patient(id).or_else(|| self.table.get(id).map(|h| *h.patient()))
    }

    fn register(&mut self, id: u64, birth_date: Date, sex: Sex) {
        self.registry.register(id, birth_date, sex);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> IdentityRegistry {
        let mut r = IdentityRegistry::new();
        r.register(123, Date::new(1950, 1, 1).unwrap(), Sex::Female);
        r.register(7, Date::new(1940, 6, 1).unwrap(), Sex::Male);
        r
    }

    #[test]
    fn resolves_all_four_schemes() {
        let r = registry();
        for raw in ["NIN-0000123", "00000123", "M123", "123", " 123 "] {
            assert_eq!(r.resolve(raw).map(|p| p.id), Some(PatientId(123)), "{raw:?}");
        }
    }

    #[test]
    fn unknown_and_malformed_ids_fail() {
        let r = registry();
        assert_eq!(r.resolve("999"), None, "not registered");
        assert_eq!(r.resolve("NIN-"), None);
        assert_eq!(r.resolve("M12x"), None);
        assert_eq!(r.resolve(""), None);
        assert_eq!(r.resolve("PAT-123"), None);
    }

    #[test]
    fn demographics_lookup() {
        let r = registry();
        let p = r.patient(PatientId(7)).unwrap();
        assert_eq!(p.birth_date, Date::new(1940, 6, 1).unwrap());
        assert_eq!(p.sex, Sex::Male);
        assert!(r.patient(PatientId(999)).is_none());
        assert_eq!(r.len(), 2);
    }

    /// A slot holds birth date and sex beside its id key: 16 bytes, not
    /// the 24 of an id and a whole `Patient`.
    #[test]
    fn a_registry_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<(u64, (Date, Sex))>(), 16);
        assert_eq!(std::mem::size_of::<(u64, Patient)>(), 24);
        let r = registry();
        let mut ids: Vec<u64> = r.patients().map(|p| p.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, [7, 123]);
    }

    /// Over a row table, an id links to the registry's entry first, then
    /// to its row; persons register in the registry and the table stays
    /// as it was.
    #[test]
    fn an_overlay_links_registered_persons_over_the_table() {
        use pastas_model::History;
        let row = |id, year| Patient {
            id: PatientId(id),
            birth_date: Date::new(year, 1, 1).unwrap(),
            sex: Sex::Male,
        };
        let table = HistoryCollection::from_histories([
            History::new(row(5, 1930)),
            History::new(row(7, 1931)),
        ]);
        let mut r = registry();
        let mut overlay = r.over(&table);
        assert_eq!(overlay.resolve("M5"), Some(row(5, 1930)), "a table row");
        assert_eq!(
            overlay.resolve("NIN-0000123").map(|p| p.id),
            Some(PatientId(123)),
            "registered only"
        );
        assert_eq!(
            overlay.resolve("00000007").map(|p| p.birth_date),
            Some(Date::new(1940, 6, 1).unwrap()),
            "the registry wins"
        );
        assert_eq!(overlay.resolve("8"), None);
        assert_eq!(overlay.resolve("M5x"), None);
        overlay.register(5, Date::new(1999, 9, 9).unwrap(), Sex::Female);
        assert_eq!(
            overlay.resolve("5").map(|p| p.sex),
            Some(Sex::Female),
            "a re-registration wins"
        );
        assert_eq!(r.len(), 3);
        assert_eq!(table.get(PatientId(5)).map(|h| h.patient().sex), Some(Sex::Male));
    }

    #[test]
    fn parse_raw_is_scheme_agnostic() {
        assert_eq!(IdentityRegistry::parse_raw("NIN-0000042"), Some(42));
        assert_eq!(IdentityRegistry::parse_raw("M42"), Some(42));
        assert_eq!(IdentityRegistry::parse_raw("0042"), Some(42));
        assert_eq!(IdentityRegistry::parse_raw("x42"), None);
    }
}
