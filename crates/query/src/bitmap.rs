//! Compressed roaring-style posting lists.
//!
//! `Vec<u32>` postings were the memory and merge ceiling on the road from
//! 168k to 10M patients: a negated clause materializes millions of
//! positions, and every `Intersect`/`Union` walks them one `u32` at a
//! time. This module replaces them with the classic roaring layout:
//! positions are partitioned by their high 16 bits into *containers*,
//! and each container picks the cheapest of three encodings for its low
//! 16 bits:
//!
//! * **Array** — a sorted `Vec<u16>` (≤ [`ARRAY_MAX`] values): sparse
//!   sets, 2 B per position;
//! * **Bits** — a fixed 8 KiB bit set with a cached popcount: dense
//!   mid-range sets, word-at-a-time boolean algebra;
//! * **Runs** — sorted, non-overlapping, non-adjacent inclusive
//!   `(start, last)` intervals: the shape complements produce (a
//!   `lacks(T90)` cohort is a handful of runs, not a million integers).
//!
//! Every constructor and operator normalizes each container to the
//! smallest of the three encodings (ties broken deterministically: a
//! flat encoding wins byte-size ties over runs, and array wins over
//! bits), so two bitmaps holding the same set
//! are structurally identical — the property the shard fan-out's
//! determinism tests lean on. Set operations ([`Bitmap::intersect`],
//! [`Bitmap::union`], [`Bitmap::complement_up_to`]) run container by
//! container on the compressed form: galloping intersection for skewed
//! array×array pairs, word-AND/OR for bits×bits, interval merges for
//! runs — no decode to `Vec<u32>` in the middle of the algebra (the
//! select budget of `crates/core/tests/alloc_budgets.rs` counts the
//! bytes a planned select allocates and fails on one).

use std::cmp::Ordering;

/// Largest array-container cardinality; one more value converts to the
/// 8 KiB bits encoding (the classic roaring threshold: 4096 × 2 B =
/// 8 KiB, the break-even point).
pub const ARRAY_MAX: usize = 4096;

/// Words per bits container (1024 × 64 = 65536 positions).
const WORDS: usize = 1 << 10;

/// Bytes of an encoded bits container (the normalization break-even).
const BITS_BYTES: usize = WORDS * 8;

/// A fixed 65536-position bit set with its cardinality cached — the
/// dense container encoding.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Bits {
    words: [u64; WORDS],
    /// Cached popcount over `words` ([`Bitmap::debug_validate`] checks it).
    ones: u32,
}

impl Bits {
    fn zeroed() -> Box<Bits> {
        Box::new(Bits { words: [0; WORDS], ones: 0 })
    }

    #[inline]
    fn contains(&self, v: u16) -> bool {
        // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
        self.words[(v >> 6) as usize] & (1u64 << (v & 63)) != 0
    }

    #[inline]
    fn set(&mut self, v: u16) {
        // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
        self.words[(v >> 6) as usize] |= 1u64 << (v & 63);
    }

    fn recount(&mut self) {
        self.ones = self.words.iter().map(|w| w.count_ones()).sum();
    }

    /// Set the bit of each of `rows`, from bit `offset` on, that `keep`
    /// accepts ([`Bitmap::from_column`]); the bits must fit.
    fn fill<T>(&mut self, offset: usize, rows: &[T], keep: &impl Fn(&T) -> bool) {
        let (head, body) = rows.split_at((offset.next_multiple_of(64) - offset).min(rows.len()));
        if let Some(word) = self.words.get_mut(offset / 64) {
            for (bit, row) in (offset % 64..).zip(head) {
                *word |= u64::from(keep(row)) << bit;
            }
        }
        let words = self.words.iter_mut().skip((offset + head.len()) / 64);
        for (word, rows) in words.zip(body.chunks(64)) {
            let mut kept = [0u8; 64];
            for (k, row) in kept.iter_mut().zip(rows) {
                *k = u8::from(keep(row));
            }
            *word |= pack_bytes(&kept);
        }
    }

    /// Number of runs of consecutive set bits (for normalization).
    fn run_count(&self) -> usize {
        let mut runs = 0u32;
        let mut carry = 0u64; // high bit of the previous word
        for &w in &self.words {
            runs += (w & !((w << 1) | carry)).count_ones();
            carry = w >> 63;
        }
        runs as usize
    }

    fn to_array(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.ones as usize);
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push(((wi as u32) << 6 | bit) as u16);
                w &= w - 1;
            }
        }
        out
    }

    fn to_runs(&self) -> Vec<(u16, u16)> {
        let mut out = Vec::new();
        let mut open: Option<u32> = None;
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            let base = (wi as u32) << 6;
            // Word-skip fast paths keep the dense case cheap.
            if w == u64::MAX {
                match open {
                    Some(_) => {}
                    None => open = Some(base),
                }
                continue;
            }
            if w == 0 {
                if let Some(s) = open.take() {
                    out.push((s as u16, (base - 1) as u16));
                }
                continue;
            }
            for bit in 0..64u32 {
                let set = w & 1 != 0;
                w >>= 1;
                match (set, open) {
                    (true, None) => open = Some(base + bit),
                    (false, Some(s)) => {
                        out.push((s as u16, (base + bit - 1) as u16));
                        open = None;
                    }
                    _ => {}
                }
            }
        }
        if let Some(s) = open {
            out.push((s as u16, u16::MAX));
        }
        out
    }
}

impl std::fmt::Debug for Bits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bits({} ones)", self.ones)
    }
}

/// One 65536-position chunk in its cheapest encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Container {
    /// Sorted, unique low-16 values (≤ [`ARRAY_MAX`]).
    Array(Vec<u16>),
    /// 8 KiB bit set with cached cardinality.
    Bits(Box<Bits>),
    /// Sorted, non-overlapping, non-adjacent inclusive intervals.
    Runs(Vec<(u16, u16)>),
}

impl Container {
    fn len(&self) -> usize {
        match self {
            Container::Array(a) => a.len(),
            Container::Bits(b) => b.ones as usize,
            Container::Runs(r) => {
                r.iter().map(|&(s, l)| l as usize - s as usize + 1).sum()
            }
        }
    }

    fn contains(&self, v: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&v).is_ok(),
            Container::Bits(b) => b.contains(v),
            Container::Runs(r) => r
                .binary_search_by(|&(s, l)| {
                    if v < s {
                        Ordering::Greater
                    } else if v > l {
                        Ordering::Less
                    } else {
                        Ordering::Equal
                    }
                })
                .is_ok(),
        }
    }

    /// Number of values ≤ `v`.
    fn rank(&self, v: u16) -> usize {
        match self {
            Container::Array(a) => a.partition_point(|&x| x <= v),
            Container::Bits(b) => {
                let wi = (v >> 6) as usize;
                // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
                let full: u32 = b.words[..wi].iter().map(|w| w.count_ones()).sum();
                let shift = 63 - (v & 63) as u32;
                // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
                full as usize + ((b.words[wi] << shift).count_ones()) as usize
            }
            Container::Runs(r) => {
                let mut n = 0usize;
                for &(s, l) in r {
                    if v < s {
                        break;
                    }
                    n += (v.min(l) - s) as usize + 1;
                }
                n
            }
        }
    }

    /// The `i`-th smallest value (0-based; `i < self.len()`).
    fn select(&self, i: usize) -> u16 {
        match self {
            // lint:allow(no-panic-hot-path) caller contract: i < self.len()
            Container::Array(a) => a[i],
            Container::Bits(b) => {
                let mut remaining = i as u32;
                for (wi, &w) in b.words.iter().enumerate() {
                    let ones = w.count_ones();
                    if remaining < ones {
                        let mut word = w;
                        for _ in 0..remaining {
                            word &= word - 1;
                        }
                        return ((wi as u32) << 6 | word.trailing_zeros()) as u16;
                    }
                    remaining -= ones;
                }
                // lint:allow(no-panic-hot-path) i < len guarantees a hit above
                unreachable!("select index within cached cardinality")
            }
            Container::Runs(r) => {
                let mut remaining = i;
                for &(s, l) in r {
                    let n = (l - s) as usize + 1;
                    if remaining < n {
                        return s + remaining as u16;
                    }
                    remaining -= n;
                }
                // lint:allow(no-panic-hot-path) i < len guarantees a hit above
                unreachable!("select index within run cardinality")
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Container::Array(a) => a.capacity() * 2,
            Container::Bits(_) => std::mem::size_of::<Bits>(),
            Container::Runs(r) => r.capacity() * 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Container normalization: always the cheapest encoding
// ---------------------------------------------------------------------------

/// Encoded byte sizes → canonical encoding. Runs are chosen only when
/// strictly smaller: on a byte-size tie the flat encoding (array, then
/// bits) wins — a deterministic total order so equal sets are
/// structurally equal at any thread count or op order.
fn runs_win(n: usize, r: usize) -> bool {
    let runs_bytes = 4 * r;
    let best_flat = if n <= ARRAY_MAX { 2 * n } else { BITS_BYTES };
    runs_bytes < best_flat
}

/// Runs of consecutive values in a sorted unique array.
fn array_run_count(vals: &[u16]) -> usize {
    let mut runs = 0usize;
    let mut prev: Option<u16> = None;
    for &v in vals {
        // The first value opens a run whatever it is (0 has no predecessor).
        if prev.is_none_or(|p| p.checked_add(1) != Some(v)) {
            runs += 1;
        }
        prev = Some(v);
    }
    runs
}

fn array_to_runs(vals: &[u16]) -> Vec<(u16, u16)> {
    let mut out = Vec::new();
    for &v in vals {
        match out.last_mut() {
            Some((_, l)) if *l + 1 == v => *l = v,
            _ => out.push((v, v)),
        }
    }
    out
}

fn array_to_bits(vals: &[u16]) -> Box<Bits> {
    let mut b = Bits::zeroed();
    for &v in vals {
        b.set(v);
    }
    b.ones = vals.len() as u32;
    b
}

fn runs_to_bits(runs: &[(u16, u16)]) -> Box<Bits> {
    let mut b = Bits::zeroed();
    for &(s, l) in runs {
        let (s, l) = (s as usize, l as usize);
        let (ws, wl) = (s >> 6, l >> 6);
        let first = u64::MAX << (s & 63);
        let last = u64::MAX >> (63 - (l & 63));
        if ws == wl {
            // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
            b.words[ws] |= first & last;
        } else {
            // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
            b.words[ws] |= first;
            // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
            for w in &mut b.words[ws + 1..wl] {
                *w = u64::MAX;
            }
            // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
            b.words[wl] |= last;
        }
    }
    b.recount();
    b
}

/// Canonicalize a sorted unique value list (any cardinality ≤ 65536).
fn norm_array(vals: Vec<u16>) -> Container {
    let n = vals.len();
    let r = array_run_count(&vals);
    if runs_win(n, r) {
        Container::Runs(array_to_runs(&vals))
    } else if n <= ARRAY_MAX {
        Container::Array(vals)
    } else {
        Container::Bits(array_to_bits(&vals))
    }
}

/// Bit `i` of the result is byte `i` of `bytes`, each byte 0 or 1:
/// eight bytes a multiply. With one bit in the low place of each byte,
/// multiplying by `0x0102_0408_1020_4080` moves byte `j`'s bit to bit
/// `56 + j` and no two partial products share a bit, so nothing carries.
#[inline]
fn pack_bytes(bytes: &[u8; 64]) -> u64 {
    let mut word = 0u64;
    for (i, eight) in bytes.chunks_exact(8).enumerate() {
        let mut lanes = [0u8; 8];
        lanes.copy_from_slice(eight);
        word |= (u64::from_le_bytes(lanes).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    word
}

/// Canonicalize a bit set whose `ones` cache is current.
fn norm_bits(bits: Box<Bits>) -> Container {
    let n = bits.ones as usize;
    let r = bits.run_count();
    if runs_win(n, r) {
        Container::Runs(bits.to_runs())
    } else if n <= ARRAY_MAX {
        Container::Array(bits.to_array())
    } else {
        Container::Bits(bits)
    }
}

/// Canonicalize sorted, non-overlapping, non-adjacent runs.
fn norm_runs(runs: Vec<(u16, u16)>) -> Container {
    let n: usize = runs.iter().map(|&(s, l)| l as usize - s as usize + 1).sum();
    if runs_win(n, runs.len()) {
        Container::Runs(runs)
    } else if n <= ARRAY_MAX {
        let mut vals = Vec::with_capacity(n);
        for &(s, l) in &runs {
            vals.extend(s..=l);
        }
        Container::Array(vals)
    } else {
        Container::Bits(runs_to_bits(&runs))
    }
}

// ---------------------------------------------------------------------------
// Container set algebra
// ---------------------------------------------------------------------------

/// Array ∩ array. Gallops from the smaller side when the size ratio is
/// large (the skewed case: a rare code against a broad chapter), linear
/// merge otherwise.
fn and_arrays(a: &[u16], b: &[u16]) -> Vec<u16> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    if small.len() * 16 < large.len() {
        // Galloping: exponential probe then binary search, resuming from
        // the previous hit so the whole pass is O(s · log(l/s)).
        let mut lo = 0usize;
        for &v in small {
            let mut step = 1usize;
            let mut hi = lo;
            // lint:allow(no-panic-hot-path) hi < large.len() checked first
            while hi < large.len() && large[hi] < v {
                lo = hi;
                hi += step;
                step <<= 1;
            }
            // The probe loop exits at the first `hi` with large[hi] >= v,
            // so the match may sit exactly at `hi` — the search range must
            // include it (lo..=hi), hence the +1 before clamping.
            let hi = (hi + 1).min(large.len());
            // lint:allow(no-panic-hot-path) lo ≤ hi ≤ large.len() by the clamp above
            match large[lo..hi].binary_search(&v) {
                Ok(i) => {
                    out.push(v);
                    lo += i + 1;
                }
                Err(i) => lo += i,
            }
            if lo >= large.len() {
                break;
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while let (Some(&x), Some(&y)) = (small.get(i), large.get(j)) {
            match x.cmp(&y) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    out.push(x);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    out
}

fn or_arrays(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    loop {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => match x.cmp(&y) {
                Ordering::Less => {
                    out.push(x);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(y);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push(x);
                    i += 1;
                    j += 1;
                }
            },
            (Some(_), None) => {
                // lint:allow(no-panic-hot-path) a.get(i) was Some, so i < a.len()
                out.extend_from_slice(&a[i..]);
                break;
            }
            (None, Some(_)) => {
                // lint:allow(no-panic-hot-path) b.get(j) was Some, so j < b.len()
                out.extend_from_slice(&b[j..]);
                break;
            }
            (None, None) => break,
        }
    }
    out
}

fn and_array_runs(vals: &[u16], runs: &[(u16, u16)]) -> Vec<u16> {
    let mut out = Vec::new();
    let mut ri = 0usize;
    for &v in vals {
        // lint:allow(no-panic-hot-path) ri < runs.len() checked first
        while ri < runs.len() && runs[ri].1 < v {
            ri += 1;
        }
        match runs.get(ri) {
            Some(&(s, _)) if v >= s => out.push(v),
            Some(_) => {}
            None => break,
        }
    }
    out
}

fn and_runs(a: &[(u16, u16)], b: &[(u16, u16)]) -> Vec<(u16, u16)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while let (Some(&(sa, la)), Some(&(sb, lb))) = (a.get(i), b.get(j)) {
        let s = sa.max(sb);
        let l = la.min(lb);
        if s <= l {
            out.push((s, l));
        }
        if la <= lb {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Merge + coalesce two canonical run lists (u32 arithmetic so a run
/// ending at 65535 cannot overflow the adjacency check).
fn or_runs(a: &[(u16, u16)], b: &[(u16, u16)]) -> Vec<(u16, u16)> {
    let mut out: Vec<(u16, u16)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x.0 <= y.0 {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        match out.last_mut() {
            Some(last) if next.0 as u32 <= last.1 as u32 + 1 => {
                last.1 = last.1.max(next.1);
            }
            _ => out.push(next),
        }
    }
    out
}

/// Complement of canonical runs within `0..=last`.
fn not_runs(runs: &[(u16, u16)], last: u16) -> Vec<(u16, u16)> {
    let mut out = Vec::with_capacity(runs.len() + 1);
    let mut next = 0u32;
    for &(s, l) in runs {
        if (s as u32) > next {
            out.push((next as u16, s - 1));
        }
        next = l as u32 + 1;
    }
    if next <= last as u32 {
        out.push((next as u16, last));
    }
    out
}

fn and(a: &Container, b: &Container) -> Container {
    use Container::{Array, Bits as B, Runs};
    match (a, b) {
        (Array(x), Array(y)) => norm_array(and_arrays(x, y)),
        (Array(x), B(w)) | (B(w), Array(x)) => {
            norm_array(x.iter().copied().filter(|&v| w.contains(v)).collect())
        }
        (Array(x), Runs(r)) | (Runs(r), Array(x)) => norm_array(and_array_runs(x, r)),
        (B(x), B(y)) => {
            let mut out = Bits::zeroed();
            for ((o, &p), &q) in out.words.iter_mut().zip(&x.words).zip(&y.words) {
                *o = p & q;
            }
            out.recount();
            norm_bits(out)
        }
        (B(w), Runs(r)) | (Runs(r), B(w)) => {
            // Keep only the bits inside some run: AND against the runs'
            // bit image (word fills, no per-position work).
            let mut out = runs_to_bits(r);
            for (o, &p) in out.words.iter_mut().zip(&w.words) {
                *o &= p;
            }
            out.recount();
            norm_bits(out)
        }
        (Runs(x), Runs(y)) => norm_runs(and_runs(x, y)),
    }
}

fn or(a: &Container, b: &Container) -> Container {
    use Container::{Array, Bits as B, Runs};
    match (a, b) {
        (Array(x), Array(y)) => norm_array(or_arrays(x, y)),
        (Runs(x), Runs(y)) => norm_runs(or_runs(x, y)),
        (B(x), B(y)) => {
            let mut out = Bits::zeroed();
            for ((o, &p), &q) in out.words.iter_mut().zip(&x.words).zip(&y.words) {
                *o = p | q;
            }
            out.recount();
            norm_bits(out)
        }
        (Array(x), B(w)) | (B(w), Array(x)) => {
            let mut out = Box::new((**w).clone());
            for &v in x {
                out.set(v);
            }
            out.recount();
            norm_bits(out)
        }
        (Runs(r), B(w)) | (B(w), Runs(r)) => {
            let mut out = runs_to_bits(r);
            for (o, &p) in out.words.iter_mut().zip(&w.words) {
                *o |= p;
            }
            out.recount();
            norm_bits(out)
        }
        (Array(x), Runs(r)) | (Runs(r), Array(x)) => {
            let mut out = runs_to_bits(r);
            for &v in x {
                out.set(v);
            }
            out.recount();
            norm_bits(out)
        }
    }
}

/// Complement within `0..=last` (the final chunk of a bounded universe).
fn not(c: &Container, last: u16) -> Container {
    match c {
        Container::Array(a) => norm_runs(not_runs(&array_to_runs(a), last)),
        Container::Runs(r) => norm_runs(not_runs(r, last)),
        Container::Bits(b) => {
            let mut out = Bits::zeroed();
            for (o, &w) in out.words.iter_mut().zip(&b.words) {
                *o = !w;
            }
            // Clear everything above `last`.
            let wl = (last >> 6) as usize;
            // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
            out.words[wl] &= u64::MAX >> (63 - (last & 63));
            // lint:allow(no-panic-hot-path) u16 >> 6 < 1024 == WORDS by construction
            for w in &mut out.words[wl + 1..] {
                *w = 0;
            }
            out.recount();
            norm_bits(out)
        }
    }
}

// ---------------------------------------------------------------------------
// The bitmap
// ---------------------------------------------------------------------------

/// A compressed set of `u32` positions: sorted `(high-16-bits, container)`
/// pairs, each container holding the chunk's low 16 bits in its cheapest
/// encoding. Structural equality is set equality (all constructors
/// normalize).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    containers: Vec<(u16, Container)>,
    len: usize,
}

impl Bitmap {
    /// The empty set.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// The full universe `0..n`.
    pub fn full(n: u32) -> Bitmap {
        if n == 0 {
            return Bitmap::new();
        }
        let last = n - 1;
        let mut containers = Vec::with_capacity((last >> 16) as usize + 1);
        for key in 0..=(last >> 16) as u16 {
            let chunk_last =
                if u32::from(key) == last >> 16 { last as u16 } else { u16::MAX };
            containers.push((key, norm_runs(vec![(0, chunk_last)])));
        }
        Bitmap { containers, len: n as usize }
    }

    /// Build from a strictly ascending position slice.
    pub fn from_sorted(values: &[u32]) -> Bitmap {
        let mut b = BitmapBuilder::new();
        for &v in values {
            b.push(v);
        }
        b.finish()
    }

    /// The positions of a column whose value `keep` accepts, the column
    /// given as consecutive `parts` (a row table's chunks): one dense
    /// pass, 64 rows a word, no position list in between — how a
    /// per-row column (birth day numbers, sexes) becomes a set the
    /// algebra can intersect with postings. Each word's 64 answers are
    /// written as bytes first, so the test loop carries no shift
    /// dependency, and then packed eight to a multiply; only a part that
    /// starts inside a word sets its first bits one by one.
    pub fn from_column<'a, T: 'a>(
        parts: impl IntoIterator<Item = &'a [T]>,
        keep: impl Fn(&T) -> bool,
    ) -> Bitmap {
        const SPAN: usize = 1 << 16;
        let (mut containers, mut len) = (Vec::new(), 0usize);
        let mut seal = |bits: Box<Bits>, key: usize| {
            if bits.ones > 0 {
                len += bits.ones as usize;
                // lint:allow(no-silent-truncation) positions are u32, so at most 65536 containers
                containers.push((key as u16, norm_bits(bits)));
            }
        };
        let (mut bits, mut at) = (Bits::zeroed(), 0usize);
        for part in parts {
            let mut rest = part;
            while !rest.is_empty() {
                let offset = at % SPAN;
                let (now, later) = rest.split_at(rest.len().min(SPAN - offset));
                bits.fill(offset, now, &keep);
                (at, rest) = (at + now.len(), later);
                if at % SPAN == 0 {
                    bits.recount();
                    seal(std::mem::replace(&mut bits, Bits::zeroed()), at / SPAN - 1);
                }
            }
        }
        if at % SPAN != 0 {
            bits.recount();
            seal(bits, at / SPAN);
        }
        Bitmap { containers, len }
    }

    /// Number of positions in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no position is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    pub fn contains(&self, v: u32) -> bool {
        let key = (v >> 16) as u16;
        self.containers
            .binary_search_by_key(&key, |&(k, _)| k)
            // lint:allow(no-panic-hot-path) Ok(i) from binary_search is in bounds
            .is_ok_and(|i| self.containers[i].1.contains(v as u16))
    }

    /// Number of positions ≤ `v`.
    ///
    /// Fast path: one pass over container *headers* — per-container
    /// cardinalities are cached, so only the single container holding
    /// `v` is ranked internally (O(1) for bitset containers, binary
    /// search for arrays). Prefer this over decoding: `rank`/[`select`]
    /// on the compressed form are how consumers (the analytics
    /// dimension pass, pagination) count and slice cohorts without ever
    /// materializing a `Vec<u32>`.
    ///
    /// [`select`]: Bitmap::select
    pub fn rank(&self, v: u32) -> usize {
        let key = (v >> 16) as u16;
        let mut n = 0usize;
        for (k, c) in &self.containers {
            match k.cmp(&key) {
                Ordering::Less => n += c.len(),
                Ordering::Equal => n += c.rank(v as u16),
                Ordering::Greater => break,
            }
        }
        n
    }

    /// The `i`-th smallest position (0-based), if `i < len`.
    ///
    /// Fast path: skips whole containers by their cached cardinality
    /// and descends into exactly one — the dual of [`rank`](Bitmap::rank).
    /// For *sequential* access use [`iter`](Bitmap::iter) (chunked
    /// decode, amortized O(1) per position) or a single hoisted
    /// [`decode_into`](Bitmap::decode_into); calling `select(i)` in a
    /// dense loop re-walks the header prefix every time, and calling
    /// `to_vec()` in a loop defeats the compression outright (the
    /// allocation budgets of `crates/core/tests/alloc_budgets.rs` fail
    /// on the latter in a planned select or a cohort read).
    pub fn select(&self, i: usize) -> Option<u32> {
        if i >= self.len {
            return None;
        }
        let mut remaining = i;
        for (k, c) in &self.containers {
            let n = c.len();
            if remaining < n {
                return Some((u32::from(*k) << 16) | u32::from(c.select(remaining)));
            }
            remaining -= n;
        }
        None
    }

    /// `self ∩ other`.
    pub fn intersect(&self, other: &Bitmap) -> Bitmap {
        let mut containers = Vec::with_capacity(self.containers.len().min(other.containers.len()));
        let mut len = 0usize;
        let (mut i, mut j) = (0, 0);
        while let (Some((ka, ca)), Some((kb, cb))) =
            (self.containers.get(i), other.containers.get(j))
        {
            match ka.cmp(kb) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let c = and(ca, cb);
                    let n = c.len();
                    if n > 0 {
                        len += n;
                        containers.push((*ka, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        Bitmap { containers, len }
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &Bitmap) -> Bitmap {
        let mut containers = Vec::with_capacity(self.containers.len() + other.containers.len());
        let mut len = 0usize;
        let (mut i, mut j) = (0, 0);
        loop {
            let entry = match (self.containers.get(i), other.containers.get(j)) {
                (Some((ka, ca)), Some((kb, cb))) => match ka.cmp(kb) {
                    Ordering::Less => {
                        i += 1;
                        (*ka, ca.clone())
                    }
                    Ordering::Greater => {
                        j += 1;
                        (*kb, cb.clone())
                    }
                    Ordering::Equal => {
                        i += 1;
                        j += 1;
                        (*ka, or(ca, cb))
                    }
                },
                (Some((ka, ca)), None) => {
                    i += 1;
                    (*ka, ca.clone())
                }
                (None, Some((kb, cb))) => {
                    j += 1;
                    (*kb, cb.clone())
                }
                (None, None) => break,
            };
            len += entry.1.len();
            containers.push(entry);
        }
        Bitmap { containers, len }
    }

    /// `{0..n} \ self`. Positions of `self` at or beyond `n` must not
    /// exist (postings only ever hold positions inside the universe).
    pub fn complement_up_to(&self, n: u32) -> Bitmap {
        if n == 0 {
            return Bitmap::new();
        }
        let last = n - 1;
        let high = (last >> 16) as u16;
        let mut containers = Vec::with_capacity(high as usize + 1);
        let mut len = 0usize;
        let mut i = 0usize;
        for key in 0..=high {
            let chunk_last = if key == high { last as u16 } else { u16::MAX };
            let c = match self.containers.get(i) {
                Some((k, c)) if *k == key => {
                    i += 1;
                    not(c, chunk_last)
                }
                _ => norm_runs(vec![(0, chunk_last)]),
            };
            let n = c.len();
            if n > 0 {
                len += n;
                containers.push((key, c));
            }
        }
        Bitmap { containers, len }
    }

    /// Append every position, offset by `base`, to `out` in ascending
    /// order — the shard-merge decode path (`base` is the shard's first
    /// global position).
    pub fn decode_into(&self, base: u32, out: &mut Vec<u32>) {
        out.reserve(self.len);
        for (k, c) in &self.containers {
            let hi = u32::from(*k) << 16;
            match c {
                Container::Array(a) => {
                    out.extend(a.iter().map(|&v| base + (hi | u32::from(v))));
                }
                Container::Bits(b) => {
                    for (wi, &word) in b.words.iter().enumerate() {
                        let mut w = word;
                        let wbase = base + (hi | (wi as u32) << 6);
                        while w != 0 {
                            out.push(wbase + w.trailing_zeros());
                            w &= w - 1;
                        }
                    }
                }
                Container::Runs(r) => {
                    for &(s, l) in r {
                        out.extend((base + (hi | u32::from(s)))..=(base + (hi | u32::from(l))));
                    }
                }
            }
        }
    }

    /// Decode to a sorted `Vec<u32>`. Fine at boundaries (tests, final
    /// result assembly); never call this between set operations — that is
    /// exactly the allocation the compressed form exists to avoid, and
    /// the select budget of `crates/core/tests/alloc_budgets.rs` fails
    /// on it inside an operator.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        self.decode_into(0, &mut out);
        out
    }

    /// Iterate positions in ascending order without materializing.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter { bitmap: self, ci: 0, state: IterState::fresh() }
    }

    /// Append `other`'s positions, offset by `base`. Every offset
    /// position must exceed every existing one (shards ascend).
    ///
    /// Production shard bases are 65536-aligned, where this is a pure
    /// container concatenation with rebased keys — no decode, containers
    /// move wholesale. An unaligned `base` (reduced-width test indexes
    /// only) falls back to decoding and rebuilding.
    pub fn append_shard(&mut self, base: u32, other: &Bitmap) {
        if base & 0xFFFF == 0 {
            let shift = (base >> 16) as u16;
            for (k, c) in &other.containers {
                let key = shift + *k;
                debug_assert!(
                    self.containers.last().is_none_or(|(last, _)| *last < key),
                    "shard containers must append in ascending key order"
                );
                self.containers.push((key, c.clone()));
            }
            self.len += other.len;
        } else {
            let mut vals = Vec::with_capacity(self.len + other.len);
            self.decode_into(0, &mut vals);
            other.decode_into(base, &mut vals);
            *self = Bitmap::from_sorted(&vals);
        }
    }

    /// Heap bytes of the compressed form (container headers + payloads).
    pub fn heap_bytes(&self) -> usize {
        self.containers.capacity() * std::mem::size_of::<(u16, Container)>()
            + self.containers.iter().map(|(_, c)| c.heap_bytes()).sum::<usize>()
    }

    /// Bytes the same set costs as an uncompressed `Vec<u32>`.
    pub fn uncompressed_bytes_est(&self) -> usize {
        self.len * 4
    }

    /// How many containers use each encoding: `(array, bits, runs)`.
    pub fn container_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for (_, c) in &self.containers {
            match c {
                Container::Array(_) => counts.0 += 1,
                Container::Bits(_) => counts.1 += 1,
                Container::Runs(_) => counts.2 += 1,
            }
        }
        counts
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    ///
    /// Panics unless keys ascend strictly, no container is empty or
    /// over-full, the cached lengths are consistent, and each container
    /// honours its encoding's invariants: arrays sorted and unique (and
    /// ≤ [`ARRAY_MAX`]), bits cardinality matching the actual popcount,
    /// runs sorted, non-overlapping and non-adjacent.
    #[cfg(debug_assertions)]
    pub fn debug_validate(&self) {
        let mut total = 0usize;
        let mut prev_key: Option<u16> = None;
        for (key, c) in &self.containers {
            assert!(
                prev_key.is_none_or(|p| p < *key),
                "bitmap: container keys out of order at {key}"
            );
            prev_key = Some(*key);
            let n = c.len();
            assert!(n > 0, "bitmap: empty container at key {key}");
            total += n;
            match c {
                Container::Array(a) => {
                    assert!(a.len() <= ARRAY_MAX, "bitmap: array container over-full");
                    for w in a.windows(2) {
                        assert!(
                            // lint:allow(no-panic-hot-path) windows(2) yields pairs
                            w[0] < w[1],
                            "bitmap: array container out of order or duplicated at key {key}"
                        );
                    }
                }
                Container::Bits(b) => {
                    let pop: u32 = b.words.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(
                        b.ones, pop,
                        "bitmap: bits container cached cardinality != popcount at key {key}"
                    );
                    assert!(
                        pop as usize > ARRAY_MAX,
                        "bitmap: bits container below the array threshold at key {key}"
                    );
                }
                Container::Runs(r) => {
                    assert!(!r.is_empty(), "bitmap: empty run list at key {key}");
                    for &(s, l) in r {
                        assert!(s <= l, "bitmap: reversed run at key {key}");
                    }
                    for w in r.windows(2) {
                        assert!(
                            // lint:allow(no-panic-hot-path) windows(2) yields pairs
                            (w[0].1 as u32) + 1 < w[1].0 as u32,
                            "bitmap: overlapping or adjacent runs at key {key}"
                        );
                    }
                }
            }
        }
        assert_eq!(self.len, total, "bitmap: cached length != container total");
    }

    /// Deep invariant check (debug builds only; a no-op in release).
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn debug_validate(&self) {}
}

impl FromIterator<u32> for Bitmap {
    /// Collect from strictly ascending positions.
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Bitmap {
        let mut b = BitmapBuilder::new();
        for v in iter {
            b.push(v);
        }
        b.finish()
    }
}

/// Push-based constructor for strictly ascending positions — the index
/// build's path (chunk values accumulate as `u16` and seal into a
/// normalized container when the position crosses a chunk boundary).
#[derive(Debug, Default)]
pub struct BitmapBuilder {
    containers: Vec<(u16, Container)>,
    key: u16,
    chunk: Vec<u16>,
    len: usize,
    last: Option<u32>,
}

impl BitmapBuilder {
    /// An empty builder.
    pub fn new() -> BitmapBuilder {
        BitmapBuilder::default()
    }

    /// Append a position. Must be strictly greater than every previous
    /// push (debug-asserted).
    pub fn push(&mut self, v: u32) {
        debug_assert!(
            self.last.is_none_or(|p| p < v),
            "BitmapBuilder positions must ascend strictly"
        );
        self.last = Some(v);
        let key = (v >> 16) as u16;
        if key != self.key && !self.chunk.is_empty() {
            let vals = std::mem::take(&mut self.chunk);
            self.containers.push((self.key, norm_array(vals)));
        }
        self.key = key;
        self.chunk.push(v as u16);
        self.len += 1;
    }

    /// Seal the final chunk and return the bitmap.
    pub fn finish(mut self) -> Bitmap {
        if !self.chunk.is_empty() {
            self.containers.push((self.key, norm_array(self.chunk)));
        }
        Bitmap { containers: self.containers, len: self.len }
    }
}

enum IterState {
    /// Index into the current array / expanded position in runs / word
    /// cursor in bits.
    Array(usize),
    Bits { wi: usize, word: u64 },
    Runs { ri: usize, next: u32 },
}

impl IterState {
    fn fresh() -> IterState {
        IterState::Array(0)
    }
}

/// Ascending-order position iterator over a [`Bitmap`].
pub struct BitmapIter<'a> {
    bitmap: &'a Bitmap,
    ci: usize,
    state: IterState,
}

impl Iterator for BitmapIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            let (key, c) = self.bitmap.containers.get(self.ci)?;
            let hi = u32::from(*key) << 16;
            match c {
                Container::Array(a) => {
                    let IterState::Array(i) = &mut self.state else {
                        self.state = IterState::Array(0);
                        continue;
                    };
                    if let Some(&v) = a.get(*i) {
                        *i += 1;
                        return Some(hi | u32::from(v));
                    }
                }
                Container::Bits(b) => {
                    let IterState::Bits { wi, word } = &mut self.state else {
                        // lint:allow(no-panic-hot-path) WORDS == 1024 words always exist
                        self.state = IterState::Bits { wi: 0, word: b.words[0] };
                        continue;
                    };
                    loop {
                        if *word != 0 {
                            let bit = word.trailing_zeros();
                            *word &= *word - 1;
                            return Some(hi | (*wi as u32) << 6 | bit);
                        }
                        *wi += 1;
                        match b.words.get(*wi) {
                            Some(&w) => *word = w,
                            None => break,
                        }
                    }
                }
                Container::Runs(r) => {
                    let IterState::Runs { ri, next } = &mut self.state else {
                        // lint:allow(no-panic-hot-path) run containers are never empty
                        self.state = IterState::Runs { ri: 0, next: u32::from(r[0].0) };
                        continue;
                    };
                    if let Some(&(s, l)) = r.get(*ri) {
                        let v = (*next).max(u32::from(s));
                        if v <= u32::from(l) {
                            *next = v + 1;
                            return Some(hi | v);
                        }
                        *ri += 1;
                        if let Some(&(s2, _)) = r.get(*ri) {
                            *next = u32::from(s2);
                        }
                        continue;
                    }
                }
            }
            self.ci += 1;
            self.state = IterState::fresh();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.bitmap.len))
    }
}

impl<'a> IntoIterator for &'a Bitmap {
    type Item = u32;
    type IntoIter = BitmapIter<'a>;
    fn into_iter(self) -> BitmapIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64 — the same tiny deterministic generator the proptests
    /// use; no external randomness in tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn sorted_set(rng: &mut Rng, max: u32, approx: usize) -> Vec<u32> {
        let mut v: Vec<u32> =
            (0..approx).map(|_| rng.below(u64::from(max)) as u32).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A run-heavy shape: long consecutive stretches with gaps.
    fn runny_set(rng: &mut Rng, max: u32) -> Vec<u32> {
        let mut v = Vec::new();
        let mut pos = 0u32;
        while pos < max {
            let run = rng.below(2_000) as u32 + 1;
            let gap = rng.below(5_000) as u32 + 1;
            v.extend(pos..(pos + run).min(max));
            pos += run + gap;
        }
        v
    }

    #[test]
    fn round_trip_preserves_values() {
        let mut rng = Rng(7);
        for max in [100u32, 70_000, 300_000] {
            for approx in [0usize, 5, 900, 6_000] {
                let vals = sorted_set(&mut rng, max, approx);
                let bm = Bitmap::from_sorted(&vals);
                bm.debug_validate();
                assert_eq!(bm.to_vec(), vals);
                assert_eq!(bm.len(), vals.len());
                assert_eq!(bm.iter().collect::<Vec<_>>(), vals);
            }
        }
    }

    /// The dense column pass builds the same canonical bitmap as the
    /// position list it skips: sparse, dense, runny, all and none, over
    /// lengths off the 64-row and 65536-row boundaries.
    #[test]
    fn from_column_equals_from_sorted() {
        // One canonical form whichever constructor counted the runs.
        assert_eq!(Bitmap::from_sorted(&[0]), Bitmap::full(1));
        let mut rng = Rng(11);
        for rows in [0u32, 1, 63, 64, 65, 4_097, 65_535, 65_536, 65_537, 150_001] {
            let shapes = [
                Vec::new(),
                (0..rows).collect(),
                sorted_set(&mut rng, rows.max(1), 40),
                sorted_set(&mut rng, rows.max(1), rows as usize / 2),
                runny_set(&mut rng, rows),
            ];
            for vals in shapes {
                let vals: Vec<u32> = vals.into_iter().filter(|&v| v < rows).collect();
                let mut column = vec![false; rows as usize];
                for &v in &vals {
                    column[v as usize] = true;
                }
                let bm = Bitmap::from_column([&column[..]], |&set| set);
                bm.debug_validate();
                assert_eq!(bm, Bitmap::from_sorted(&vals), "{rows} rows, {} set", vals.len());
            }
        }
    }

    /// The byte-packed pass against a per-row reference, for both column
    /// types the planner reads: every density, over lengths on and off
    /// the 64-row word and the 65,536-row container.
    #[test]
    fn packed_from_column_equals_a_per_row_reference() {
        use pastas_model::Sex;
        fn check<T>(column: &[T], keep: impl Fn(&T) -> bool) {
            let kept: Vec<u32> = (0..column.len() as u32).filter(|&i| keep(&column[i as usize])).collect();
            let bm = Bitmap::from_column([column], &keep);
            bm.debug_validate();
            assert_eq!(bm, Bitmap::from_sorted(&kept), "{} rows, {} kept", column.len(), kept.len());
            // Cut into parts on and off the word and the container.
            for cut in [1, 63, 4_096, 65_535] {
                let parts = column.chunks(cut).flat_map(|c| {
                    let (a, b) = c.split_at(c.len() / 3);
                    [a, b]
                });
                assert_eq!(Bitmap::from_column(parts, &keep), bm, "{} rows cut at {cut}", column.len());
            }
        }
        let mut rng = Rng(29);
        for rows in [0usize, 1, 63, 64, 65, 65_535, 65_536, 65_537, 131_073] {
            // None, all, alternating and random rows fall inside 250..=749.
            let days: [Vec<i32>; 4] = [
                vec![2_000; rows],
                vec![500; rows],
                (0..rows).map(|i| if i % 2 == 0 { 500 } else { -7 }).collect(),
                (0..rows).map(|_| rng.below(1_000) as i32).collect(),
            ];
            for column in &days {
                check(column, |&day| (250..=749).contains(&day));
            }
            let sexes: [Vec<Sex>; 4] = [
                vec![Sex::Male; rows],
                vec![Sex::Female; rows],
                (0..rows).map(|i| if i % 2 == 1 { Sex::Female } else { Sex::Male }).collect(),
                (0..rows).map(|_| if rng.below(2) == 0 { Sex::Female } else { Sex::Male }).collect(),
            ];
            for column in &sexes {
                check(column, |&sex| sex == Sex::Female);
            }
        }
    }

    #[test]
    fn container_boundary_values_round_trip() {
        // Values straddling chunk edges and the array→bits threshold.
        let mut vals: Vec<u32> = vec![0, 1, 65_535, 65_536, 65_537, 131_071, 131_072];
        vals.extend(200_000..200_000 + ARRAY_MAX as u32 + 10); // force bits.. wait, runs
        let bm = Bitmap::from_sorted(&vals);
        bm.debug_validate();
        assert_eq!(bm.to_vec(), vals);
        // A dense-but-scattered chunk exceeds ARRAY_MAX and becomes bits.
        let scattered: Vec<u32> = (0..(ARRAY_MAX as u32 + 100)).map(|i| i * 3).collect();
        let bm = Bitmap::from_sorted(&scattered);
        bm.debug_validate();
        let (_, bits, _) = bm.container_counts();
        assert!(bits >= 1, "scattered 4196 values over 12k span must use bits");
        assert_eq!(bm.to_vec(), scattered);
    }

    #[test]
    fn run_heavy_sets_choose_runs() {
        let vals: Vec<u32> = (10..60_000).collect();
        let bm = Bitmap::from_sorted(&vals);
        bm.debug_validate();
        let (_, _, runs) = bm.container_counts();
        assert_eq!(runs, 1, "one dense run must encode as a run container");
        // Dominated by the container header; the payload is one 4-byte run.
        assert!(bm.heap_bytes() < 512, "run encoding is tiny, got {}", bm.heap_bytes());
        assert_eq!(bm.to_vec(), vals);
    }

    #[test]
    fn full_and_complement() {
        for n in [0u32, 1, 100, 65_536, 65_537, 200_000] {
            let full = Bitmap::full(n);
            full.debug_validate();
            assert_eq!(full.len(), n as usize);
            let none = full.complement_up_to(n);
            none.debug_validate();
            assert!(none.is_empty(), "complement of full is empty at {n}");
            let refill = Bitmap::new().complement_up_to(n);
            assert_eq!(refill, full, "complement of empty is full at {n}");
        }
    }

    #[test]
    fn equal_sets_are_structurally_equal() {
        // Same set via different construction routes must compare equal —
        // the canonical-form guarantee the determinism tests rely on.
        let vals: Vec<u32> = (0..50_000).filter(|v| v % 7 != 0).collect();
        let built = Bitmap::from_sorted(&vals);
        let multiples: Vec<u32> = (0..50_000).filter(|v| v % 7 == 0).collect();
        let complemented = Bitmap::from_sorted(&multiples).complement_up_to(50_000);
        assert_eq!(built, complemented);
        let unioned = {
            let (a, b): (Vec<u32>, Vec<u32>) = vals.iter().partition(|&&v| v % 2 == 0);
            Bitmap::from_sorted(&a).union(&Bitmap::from_sorted(&b))
        };
        assert_eq!(built, unioned);
    }

    #[test]
    fn rank_and_select_are_inverse() {
        let mut rng = Rng(42);
        let vals = sorted_set(&mut rng, 400_000, 3_000);
        let bm = Bitmap::from_sorted(&vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(bm.select(i), Some(v), "select({i})");
            assert_eq!(bm.rank(v), i + 1, "rank({v})");
        }
        assert_eq!(bm.select(vals.len()), None);
        assert_eq!(bm.rank(0), usize::from(vals.first() == Some(&0)));
        // Rank of a value below the first element is 0.
        if let Some(&first) = vals.first() {
            if first > 0 {
                assert_eq!(bm.rank(first - 1), 0);
            }
        }
    }

    #[test]
    fn contains_matches_membership() {
        let vals = vec![0u32, 3, 65_535, 65_536, 131_072, 400_001];
        let bm = Bitmap::from_sorted(&vals);
        for &v in &vals {
            assert!(bm.contains(v));
        }
        for v in [1u32, 2, 65_534, 65_537, 400_000, 400_002] {
            assert!(!bm.contains(v), "{v}");
        }
    }

    /// Differential: bitmap ops versus the sorted-vec reference merges in
    /// `plan.rs`, over random, boundary-straddling and run-heavy shapes.
    #[test]
    fn ops_agree_with_sorted_vec_merges() {
        use crate::plan::reference;
        let mut rng = Rng(2016);
        let universe = 300_000u32;
        for case in 0..40 {
            let a = match case % 4 {
                0 => sorted_set(&mut rng, universe, 4_000),
                1 => runny_set(&mut rng, universe),
                2 => sorted_set(&mut rng, 70_000, 8_000),
                _ => Vec::new(),
            };
            let b = match case % 3 {
                0 => runny_set(&mut rng, universe),
                1 => sorted_set(&mut rng, universe, 50),
                _ => sorted_set(&mut rng, universe, 9_000),
            };
            let (ba, bb) = (Bitmap::from_sorted(&a), Bitmap::from_sorted(&b));
            let i = ba.intersect(&bb);
            let u = ba.union(&bb);
            let c = ba.complement_up_to(universe);
            i.debug_validate();
            u.debug_validate();
            c.debug_validate();
            assert_eq!(i.to_vec(), reference::intersect2(&a, &b), "case {case} ∩");
            assert_eq!(u.to_vec(), reference::union2(&a, &b), "case {case} ∪");
            assert_eq!(c.to_vec(), reference::complement(&a, universe), "case {case} ¬");
            // Ops commute.
            assert_eq!(i, bb.intersect(&ba), "case {case} ∩ commutes");
            assert_eq!(u, bb.union(&ba), "case {case} ∪ commutes");
        }
    }

    #[test]
    fn galloping_intersection_handles_skew() {
        // A tiny array against a huge one takes the galloping path. The
        // large side must be non-compressible (no consecutive values) so
        // normalization keeps it an Array container rather than Runs —
        // otherwise the intersect routes to the array×runs merge and the
        // gallop ships untested.
        let small: Vec<u32> = vec![0, 2_000, 3_999, 4_000, 7_998];
        let large: Vec<u32> = (0..4_000).map(|i| i * 2).collect();
        let (bs, bl) = (Bitmap::from_sorted(&small), Bitmap::from_sorted(&large));
        assert_eq!(bs.container_counts(), (1, 0, 0), "small side must be an array");
        assert_eq!(bl.container_counts(), (1, 0, 0), "large side must be an array");
        // Regression: 0 == large[0] exercises the gallop's empty-probe
        // resume point (v == large[lo]), which once dropped the match.
        assert_eq!(bs.intersect(&bl).to_vec(), vec![0, 2_000, 4_000, 7_998]);
        assert_eq!(bl.intersect(&bs).to_vec(), vec![0, 2_000, 4_000, 7_998]);
    }

    /// Differential sweep over skewed same-chunk array×array pairs — the
    /// galloping path with matches forced at resume points (`v ==
    /// large[lo]`), a shape the random generators in
    /// `ops_agree_with_sorted_vec_merges` almost never produce.
    #[test]
    fn galloping_intersection_agrees_with_reference() {
        use crate::plan::reference;
        for seed in 0..8u64 {
            let mut rng = Rng(seed * 7 + 1);
            // ~3900 scattered values in one chunk: Array, not Runs/Bits.
            let large = sorted_set(&mut rng, 60_000, 4_000);
            // Every 64th large value is a guaranteed hit (including
            // large[0], the empty-probe case), plus scattered misses.
            let mut small: Vec<u32> = large.iter().copied().step_by(64).collect();
            small.extend((0..16).map(|_| rng.below(60_000) as u32));
            small.sort_unstable();
            small.dedup();
            let (bs, bl) = (Bitmap::from_sorted(&small), Bitmap::from_sorted(&large));
            assert_eq!(bl.container_counts(), (1, 0, 0), "seed {seed}: large not array");
            assert_eq!(bs.container_counts(), (1, 0, 0), "seed {seed}: small not array");
            assert!(small.len() * 16 < large.len(), "seed {seed}: skew below gallop cutoff");
            let got = bs.intersect(&bl);
            got.debug_validate();
            assert_eq!(got.to_vec(), reference::intersect2(&small, &large), "seed {seed}");
            assert_eq!(got, bl.intersect(&bs), "seed {seed}: ∩ commutes");
        }
    }

    #[test]
    fn append_shard_concatenates_without_decoding() {
        let a: Vec<u32> = (0..1_000).map(|v| v * 3).collect();
        let b: Vec<u32> = (0..500).map(|v| v * 5).collect();
        let mut merged = Bitmap::new();
        merged.append_shard(0, &Bitmap::from_sorted(&a));
        merged.append_shard(1 << 16, &Bitmap::from_sorted(&b));
        merged.debug_validate();
        let mut expect = a;
        expect.extend(b.iter().map(|v| v + (1 << 16)));
        assert_eq!(merged.to_vec(), expect);
    }

    #[test]
    fn compression_beats_vec_u32_on_posting_shapes() {
        // A 7.7%-selectivity posting over 65536 rows (the paper's cohort
        // density) must compress well below 4 B/position.
        let mut rng = Rng(13);
        let vals = sorted_set(&mut rng, 65_536, 5_000);
        let bm = Bitmap::from_sorted(&vals);
        assert!(
            bm.heap_bytes() * 2 <= bm.uncompressed_bytes_est(),
            "compressed {} B vs vec {} B",
            bm.heap_bytes(),
            bm.uncompressed_bytes_est()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of order or duplicated")]
    fn debug_validate_catches_unsorted_array() {
        // Non-consecutive values, so normalization keeps the array form.
        let mut bm = Bitmap::from_sorted(&[1, 5, 9]);
        if let Container::Array(a) = &mut bm.containers[0].1 {
            a.swap(0, 2);
        }
        bm.debug_validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cached cardinality != popcount")]
    fn debug_validate_catches_stale_popcount() {
        let scattered: Vec<u32> = (0..(ARRAY_MAX as u32 + 100)).map(|i| i * 3).collect();
        let mut bm = Bitmap::from_sorted(&scattered);
        if let Container::Bits(b) = &mut bm.containers[0].1 {
            b.words[0] ^= 1;
        }
        bm.debug_validate();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping or adjacent runs")]
    fn debug_validate_catches_adjacent_runs() {
        let vals: Vec<u32> = (10..60_000).collect();
        let mut bm = Bitmap::from_sorted(&vals);
        if let Container::Runs(r) = &mut bm.containers[0].1 {
            let (s, l) = r[0];
            let mid = s + (l - s) / 2;
            *r = vec![(s, mid), (mid + 1, l)]; // adjacent split
        }
        bm.debug_validate();
    }
}
