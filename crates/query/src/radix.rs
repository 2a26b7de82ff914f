//! The stable radix order the view sorts run on.
// lint:allow-file(no-panic-hot-path) indices are buckets <= BUCKETS or slots the prefix sums bound

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// The keys [`radix_order`] sorts, by position: read in position order
/// over a range, as the first pass reads them (a row table's chunk
/// slice at a time), or one position at a time, as a later pass reads a
/// key too wide to carry beside the order.
pub(crate) trait RowKeys: Sync {
    /// Call `f(p, key)` for each position `p` of `rows`, in order.
    fn each(&self, rows: Range<usize>, f: impl FnMut(usize, Option<u64>));

    /// The key of position `p`.
    fn key(&self, p: usize) -> Option<u64>;
}

/// A function of the position is a key source.
impl<F: Fn(usize) -> Option<u64> + Sync> RowKeys for F {
    fn each(&self, rows: Range<usize>, mut f: impl FnMut(usize, Option<u64>)) {
        for p in rows {
            f(p, self(p));
        }
    }

    fn key(&self, p: usize) -> Option<u64> {
        self(p)
    }
}

/// Bits a radix digit covers: 2,048 buckets, whose counts fit in L1.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;
const MASK: u64 = BUCKETS as u64 - 1;

/// Rows a thread takes at the least in one radix pass.
pub(crate) const RADIX_MIN_PER_THREAD: usize = 1 << 14;

/// One chunk's count of each digit, then its first slot in each digit's
/// bucket; the extra last bucket holds the keyless rows.
type Tally = [u32; BUCKETS + 1];

/// The bucket of `key`'s digit at `shift`.
fn bucket(key: Option<u64>, shift: u32) -> usize {
    key.map_or(BUCKETS, |k| ((k >> shift) & MASK) as usize)
}

/// Turn each chunk's digit counts into its first slot per bucket:
/// bucket by bucket, chunk by chunk within one, so the scatter is stable.
fn to_starts<T>(chunks: &mut [(usize, Tally, T)]) {
    let mut sum = 0;
    for b in 0..=BUCKETS {
        for (_, at, _) in chunks.iter_mut() {
            (sum, at[b]) = (sum + at[b], sum);
        }
    }
}

/// The slots of the chunk that starts at `start`.
fn starts_of<T>(chunks: &[(usize, Tally, T)], start: usize) -> Tally {
    chunks.iter().find(|c| c.0 == start).map_or([0; BUCKETS + 1], |c| c.1)
}

/// A `rows`-long array the scatter threads write into.
fn slots<A: Default>(rows: usize) -> Vec<A> {
    std::iter::repeat_with(A::default).take(rows).collect()
}

/// The positions `0..rows` in stable ascending order of `key`, the rows
/// whose key is `None` last in position order: an LSD radix sort over
/// 11-bit digits with a pass only for a digit that differs between two
/// rows, and none when the keys are already in order. The first pass
/// runs in position order ([`RowKeys::each`]), without an order array:
/// each `pastas_par` chunk counts its lowest digit and folds in the key range and whether
/// the keys are in order, then scatters its positions to where it starts
/// in each digit's bucket, and, when passes follow, the keys' remaining
/// bits beside them, which a later pass reads in order instead of
/// gathering. Every pass is stable at every thread count.
pub(crate) fn radix_order(rows: usize, keys: impl RowKeys) -> Vec<u32> {
    if rows < 2 {
        return (0..rows as u32).collect();
    }
    // Zero-sized: it only splits `0..rows` into the threads' chunks.
    let units = vec![(); rows];
    let rank = |k: Option<u64>| (k.is_none(), k.unwrap_or(0));
    let mut chunks = pastas_par::par_chunks(&units, RADIX_MIN_PER_THREAD, |start, chunk| {
        let mut at = [0; BUCKETS + 1];
        let (mut or, mut and, mut sorted) = (0, u64::MAX, true);
        let first = rank(keys.key(start));
        let mut last = first;
        keys.each(start..start + chunk.len(), |_, k| {
            at[bucket(k, 0)] += 1;
            (or, and) = k.map_or((or, and), |k| (or | k, and & k));
            sorted &= last <= rank(k);
            last = rank(k);
        });
        (start, at, (or, and, sorted, first, last))
    });
    let stats = || chunks.iter().map(|c| c.2);
    if stats().all(|s| s.2) && chunks.windows(2).all(|w| w[0].2 .4 <= w[1].2 .3) {
        return (0..rows as u32).collect();
    }
    // A digit is worth a pass only where two keyed rows differ.
    let (or, and) = stats().fold((0, u64::MAX), |(o, a), s| (o | s.0, a & s.1));
    let varies = |shift: &u32| (or ^ and) >> shift & MASK != 0;
    let mut shifts = (0..u64::BITS).step_by(DIGIT_BITS as usize).filter(varies);
    // Equal keys still take one pass, to move the keyless rows behind them.
    let first_shift = shifts.next().unwrap_or(0);
    let later: Vec<u32> = shifts.collect();
    if first_shift != 0 {
        chunks = pastas_par::par_chunks(&units, RADIX_MIN_PER_THREAD, |start, chunk| {
            let mut at = [0; BUCKETS + 1];
            keys.each(start..start + chunk.len(), |_, k| at[bucket(k, first_shift)] += 1);
            (start, at, chunks[0].2)
        });
    }
    let keyed = rows - chunks.iter().map(|c| c.1[BUCKETS] as usize).sum::<usize>();
    to_starts(&mut chunks);
    let mut order: Vec<AtomicU32> = slots(rows);
    // The keys' remaining bits, less those every key shares, carried as
    // `u32` when they fit; wider keys are read again through the positions.
    let base = later.first().copied().unwrap_or(0);
    let carry = !later.is_empty() && (or ^ and) >> base <= u64::from(u32::MAX);
    let narrow = |k: u64| ((k ^ and) >> base) as u32;
    let mut carried: Vec<AtomicU32> = if carry { slots(keyed) } else { Vec::new() };
    pastas_par::par_chunks(&units, RADIX_MIN_PER_THREAD, |start, chunk| {
        let mut at = starts_of(&chunks, start);
        keys.each(start..start + chunk.len(), |p, k| {
            let b = bucket(k, first_shift);
            order[at[b] as usize].store(p as u32, Relaxed);
            if let (Some(k), Some(slot)) = (k, carried.get(at[b] as usize)) {
                slot.store(narrow(k), Relaxed);
            }
            at[b] += 1;
        });
    });
    // The later passes order the keyed rows; the keyless ones stay last.
    let mut spare: Vec<AtomicU32> = Vec::new();
    if !later.is_empty() {
        spare = slots(rows);
        for (to, from) in spare[keyed..].iter().zip(&order[keyed..]) {
            to.store(from.load(Relaxed), Relaxed);
        }
    }
    let mut next_carried: Vec<AtomicU32> = Vec::new();
    for (i, &shift) in later.iter().enumerate() {
        let more = carry && i + 1 < later.len();
        next_carried.resize_with(if more { keyed } else { 0 }, AtomicU32::default);
        // The digit of the row at `slot` of the order, holding position `p`.
        let digit = |slot: usize, p: u32| match carried.get(slot) {
            Some(k) => (u64::from(k.load(Relaxed)) >> (shift - base) & MASK) as usize,
            None => bucket(keys.key(p as usize), shift),
        };
        let ordered = &order[..keyed];
        let mut chunks = pastas_par::par_chunks(ordered, RADIX_MIN_PER_THREAD, |start, chunk| {
            let mut at = [0; BUCKETS + 1];
            for (slot, p) in (start..).zip(chunk) {
                at[digit(slot, p.load(Relaxed))] += 1;
            }
            (start, at, ())
        });
        to_starts(&mut chunks);
        pastas_par::par_chunks(ordered, RADIX_MIN_PER_THREAD, |start, chunk| {
            let mut at = starts_of(&chunks, start);
            for (slot, p) in (start..).zip(chunk) {
                let (p, d) = (p.load(Relaxed), digit(slot, p.load(Relaxed)));
                spare[at[d] as usize].store(p, Relaxed);
                if let (Some(to), Some(k)) = (next_carried.get(at[d] as usize), carried.get(slot)) {
                    to.store(k.load(Relaxed), Relaxed);
                }
                at[d] += 1;
            }
        });
        std::mem::swap(&mut order, &mut spare);
        std::mem::swap(&mut carried, &mut next_carried);
    }
    order.into_iter().map(AtomicU32::into_inner).collect()
}
