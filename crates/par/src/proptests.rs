//! Property-based tests: the parallel combinators must agree with their
//! serial equivalents bit for bit, for every thread count.

use crate::{par_filter_indices_min, par_fold, par_map_min, with_threads};
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

    #[test]
    fn par_filter_agrees_with_serial_filter(items in vec(any::<u64>(), 0..400)) {
        let serial: Vec<u32> = items
            .iter()
            .enumerate()
            .filter(|(_, x)| *x % 3 == 0)
            .map(|(i, _)| i as u32)
            .collect();
        for threads in THREADS {
            let got = with_threads(threads, || {
                par_filter_indices_min(&items, 1, |x| *x % 3 == 0)
            });
            prop_assert_eq!(&got, &serial, "threads {}", threads);
        }
    }

    #[test]
    fn par_fold_sum_agrees_with_serial_sum(items in vec(any::<u64>(), 0..400)) {
        let serial: u64 = items.iter().fold(0u64, |a, x| a.wrapping_add(*x));
        for threads in THREADS {
            let got = with_threads(threads, || {
                par_fold(
                    &items,
                    || 0u64,
                    |a, x| *a = a.wrapping_add(*x),
                    |a, b| a.wrapping_add(b),
                )
            });
            prop_assert_eq!(got, serial, "threads {}", threads);
        }
    }

    #[test]
    fn par_fold_concat_preserves_item_order(items in vec(any::<u32>(), 0..300)) {
        // Vec concatenation is a non-commutative monoid: this fails for
        // any chunk reordering, not just wrong contents.
        let serial: Vec<u32> = items.clone();
        for threads in THREADS {
            let got = with_threads(threads, || {
                par_fold(
                    &items,
                    Vec::new,
                    |a, x| a.push(*x),
                    |mut a, mut b| {
                        a.append(&mut b);
                        a
                    },
                )
            });
            prop_assert_eq!(&got, &serial, "threads {}", threads);
        }
    }
}
