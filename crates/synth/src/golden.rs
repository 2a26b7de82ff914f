//! A content hash of a generated collection, stable across toolchains.
//!
//! [`content_hash`] folds a canonical serialisation of a collection into
//! 64-bit FNV-1a (not `DefaultHasher`, whose output may change between
//! Rust releases):
//!
//! * the dictionary in id order, each code's system and value;
//! * every history in collection order: its patient, the slot of its
//!   arena among the collection's arenas, and its row span there;
//! * each of its entries decoded: start, end, interval flag, source and
//!   payload, a coded payload by its `CodeId`.
//!
//! Two collections hash alike when their dictionaries, arena layouts,
//! code columns and histories agree. [`RECORDED`] holds the hashes of
//! the generator's output at a few configurations; the golden test and
//! the CI synthesis smoke (`plan_explain --smoke-synth`) hold every
//! change to the generator or the builder to them.

use pastas_model::{HistoryCollection, PayloadRef, Sex};
use std::sync::Arc;

/// The seed of the recorded collections: the benchmark's data seed.
pub const RECORDED_SEED: u64 = 2016;

/// `(patients, shard_patients, content_hash)` of
/// `generate_collection(SynthConfig { shard_patients, ..with_patients(patients) },
/// RECORDED_SEED)`, the same at every thread count.
pub const RECORDED: &[(usize, usize, u64)] = &[
    (3_000, 0, 0xe53f_285e_7d05_91cb),
    (3_000, 512, 0x134d_566d_1981_3ccb),
    (1_000_000, 65_536, 0xe47c_ed8c_fe28_109b),
];

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The FNV-1a hash of `collection`'s canonical serialisation (see the
/// module doc).
pub fn content_hash(collection: &HistoryCollection) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    let dict = collection.dictionary();
    h.u64(dict.len() as u64);
    for code in dict.iter() {
        h.str(code.system.tag());
        h.str(&code.value);
    }
    let arenas = collection.sharded_store();
    let mut slot = 0;
    h.u64(collection.len() as u64);
    for history in collection.iter() {
        if !Arc::ptr_eq(&arenas.shards()[slot], history.store()) {
            slot = arenas
                .shards()
                .iter()
                .position(|s| Arc::ptr_eq(s, history.store()))
                .expect("every history's arena is one of the collection's");
        }
        let patient = history.patient();
        h.u64(patient.id.0);
        h.u64(patient.birth_date.day_number() as u64);
        h.bytes(&[u8::from(patient.sex == Sex::Female)]);
        let rows = history.rows();
        h.u64(slot as u64);
        h.u64(u64::from(rows.start));
        h.u64(u64::from(rows.end));
        for e in history.entries() {
            h.u64(e.start().second_number() as u64);
            h.u64(e.end().second_number() as u64);
            h.bytes(&[u8::from(e.is_interval()), e.source().dense_index() as u8]);
            match e.payload() {
                PayloadRef::Diagnosis(_) | PayloadRef::Medication(_) => {
                    let tag = u8::from(matches!(e.payload(), PayloadRef::Medication(_)));
                    h.bytes(&[tag]);
                    h.u64(u64::from(e.code_id().map_or(u32::MAX, |id| id.0)));
                }
                PayloadRef::Measurement { kind, value } => {
                    h.bytes(&[2, kind as u8]);
                    h.u64(value.to_bits());
                }
                PayloadRef::Episode(kind) => h.bytes(&[3, kind as u8]),
                PayloadRef::Note(text) => {
                    h.bytes(&[4]);
                    h.str(text);
                }
            }
        }
    }
    h.0
}
