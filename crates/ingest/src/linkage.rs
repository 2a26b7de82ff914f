//! Identity resolution across the four source id schemes.
//!
//! The person register keys patients by national id (`NIN-0000123`); the
//! other sources use their own forms of the same underlying number:
//! zero-padded digits (hospital), `M`-prefixed (municipal), and plain
//! digits (prescriptions). The registry canonicalizes all of them to
//! [`PatientId`] and records demographics for validation.

use pastas_model::{Patient, PatientId, Sex};
use pastas_time::Date;
use std::collections::HashMap;

/// The linkage anchor: canonical ids plus demographics. An id's slot
/// holds its birth date and sex only (the id is the key): 16 bytes an
/// entry instead of a whole [`Patient`]'s 24, which matters to a server
/// that seeds one with every patient it holds.
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
        self.by_id.iter().map(|(&id, &(birth_date, sex))| Patient { id: PatientId(id), birth_date, sex })
    }

    /// Resolve a raw identifier in any of the four schemes:
    ///
    /// * `NIN-0000123` (claims / person register)
    /// * `00000123` (hospital, zero-padded)
    /// * `M123` (municipal)
    /// * `123` (prescriptions)
    ///
    /// Whitespace is tolerated. Returns `None` for malformed ids or ids
    /// not present in the register (an unlinked row).
    pub fn resolve(&self, raw: &str) -> Option<PatientId> {
        let raw = raw.trim();
        let digits = raw
            .strip_prefix("NIN-")
            .or_else(|| raw.strip_prefix('M'))
            .unwrap_or(raw);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let id: u64 = digits.parse().ok()?;
        self.by_id.contains_key(&id).then_some(PatientId(id))
    }

    /// Parse a raw id without register membership (used by tests and
    /// by sources loaded before the person register).
    pub fn parse_raw(raw: &str) -> Option<u64> {
        let raw = raw.trim();
        let digits = raw
            .strip_prefix("NIN-")
            .or_else(|| raw.strip_prefix('M'))
            .unwrap_or(raw);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
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
            assert_eq!(r.resolve(raw), Some(PatientId(123)), "{raw:?}");
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

    #[test]
    fn parse_raw_is_scheme_agnostic() {
        assert_eq!(IdentityRegistry::parse_raw("NIN-0000042"), Some(42));
        assert_eq!(IdentityRegistry::parse_raw("M42"), Some(42));
        assert_eq!(IdentityRegistry::parse_raw("0042"), Some(42));
        assert_eq!(IdentityRegistry::parse_raw("x42"), None);
    }
}
