//! Property-based tests: the parallel combinators must agree with their
//! serial equivalents bit for bit, for every thread count.

use crate::{par_map_min, with_threads};
use proptest::collection::vec;
use proptest::prelude::*;

/// The thread counts the equivalence properties sweep: the exact serial
/// path, a small parallel split, and more threads than a typical input has
/// chunks (exercising the remainder-distribution logic).
const THREADS: [usize; 3] = [1, 2, 8];

proptest! {
    #[test]
    fn par_map_agrees_with_serial_map(items in vec(any::<u64>(), 0..400)) {
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31).rotate_left(7)).collect();
        for threads in THREADS {
            let got = with_threads(threads, || {
                par_map_min(&items, 1, |x| x.wrapping_mul(31).rotate_left(7))
            });
            prop_assert_eq!(&got, &serial, "threads {}", threads);
        }
    }
}
