//! The generator's output is pinned: `generate_collection` at the
//! recorded configurations hashes (dictionary in id order, arena layout,
//! every decoded entry) to the values in `pastas_synth::golden::RECORDED`,
//! one arena or many, serial or on two threads.

use pastas_synth::golden::{content_hash, RECORDED, RECORDED_SEED};
use pastas_synth::{generate_collection, SynthConfig};

#[test]
fn generated_collections_hash_to_the_recorded_values() {
    let mut mismatches = Vec::new();
    for &(patients, shard_patients, expect) in RECORDED.iter().filter(|r| r.0 <= 10_000) {
        let config = SynthConfig { shard_patients, ..SynthConfig::with_patients(patients) };
        for threads in [1, 2] {
            let collection =
                pastas_par::with_threads(threads, || generate_collection(config, RECORDED_SEED));
            let hash = content_hash(&collection);
            if hash != expect {
                mismatches.push(format!(
                    "{patients} patients, shard width {shard_patients}, {threads} thread(s): \
                     {hash:#018x}, recorded {expect:#018x}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "content hash changed:\n{}", mismatches.join("\n"));
}
