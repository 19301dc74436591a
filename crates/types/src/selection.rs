//! Query result selections.
//!
//! `PDCquery_get_selection` returns the coordinates of all matching
//! elements. Matches of range queries on scientific data are heavily
//! clustered (and fully contiguous on sorted replicas), so we store the
//! selection as sorted, non-overlapping, non-adjacent **runs** of linear
//! coordinates. Set operations (AND → intersection, OR → union) are linear
//! merges; the paper's "merge sort to remove duplicates" for OR corresponds
//! to [`Selection::union`].

use serde::{Deserialize, Serialize};

/// A maximal contiguous run of selected coordinates `[start, start+len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Run {
    /// First selected coordinate.
    pub start: u64,
    /// Number of consecutive selected coordinates.
    pub len: u64,
}

impl Run {
    /// Run covering `[start, start+len)`.
    pub const fn new(start: u64, len: u64) -> Self {
        Self { start, len }
    }

    /// One past the last selected coordinate.
    #[inline]
    pub const fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// A set of selected element coordinates, run-length encoded.
///
/// Invariants (checked in debug builds, preserved by all constructors):
/// runs are sorted by `start`, non-empty, non-overlapping and
/// non-adjacent (adjacent runs are coalesced).
///
/// ```
/// use pdc_types::Selection;
/// let a = Selection::from_unsorted_coords(vec![5, 3, 4, 10]);
/// let b = Selection::from_span(4, 3); // {4, 5, 6}
/// assert_eq!(a.union(&b).count(), 5); // {3, 4, 5, 6, 10}
/// assert_eq!(a.intersect(&b).iter_coords().collect::<Vec<_>>(), vec![4, 5]);
/// assert_eq!(a.num_runs(), 2); // {3,4,5} and {10}
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Selection {
    runs: Vec<Run>,
}

impl Selection {
    /// The empty selection.
    pub fn empty() -> Self {
        Selection { runs: Vec::new() }
    }

    /// Selection of every coordinate in `[0, n)`.
    pub fn all(n: u64) -> Self {
        if n == 0 {
            Selection::empty()
        } else {
            Selection { runs: vec![Run::new(0, n)] }
        }
    }

    /// Selection of a single contiguous span.
    pub fn from_span(start: u64, len: u64) -> Self {
        if len == 0 {
            Selection::empty()
        } else {
            Selection { runs: vec![Run::new(start, len)] }
        }
    }

    /// Build from an iterator of **strictly ascending** coordinates.
    ///
    /// Panics in debug builds if the input is not strictly ascending.
    pub fn from_sorted_coords<I: IntoIterator<Item = u64>>(coords: I) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        for c in coords {
            match runs.last_mut() {
                Some(r) if c == r.end() => r.len += 1,
                Some(r) => {
                    debug_assert!(c > r.end(), "coordinates must be strictly ascending");
                    runs.push(Run::new(c, 1));
                }
                None => runs.push(Run::new(c, 1)),
            }
        }
        Selection { runs }
    }

    /// Build from arbitrary (possibly unsorted, possibly duplicated)
    /// coordinates.
    pub fn from_unsorted_coords(mut coords: Vec<u64>) -> Self {
        coords.sort_unstable();
        coords.dedup();
        Self::from_sorted_coords(coords)
    }

    /// Build from the concatenation of unsorted, possibly duplicated
    /// coordinate slices in linear time; equal to
    /// [`Selection::from_unsorted_coords`] of the concatenation. Dense
    /// coordinates (at least one per 64 of their range) are set in a bitset
    /// over that range and read back run by run; sparse ones are LSD radix
    /// sorted. Inputs too small to amortize the radix buckets take the
    /// comparison sort.
    pub fn from_unsorted_slices(slices: &[&[u64]]) -> Self {
        let k: usize = slices.iter().map(|s| s.len()).sum();
        if k < 512 {
            return Self::from_unsorted_coords(slices.concat());
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &c in slices.iter().flat_map(|s| s.iter()) {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        let words = (hi - lo) / 64 + 1;
        if words <= k as u64 {
            let mut bits = vec![0u64; words as usize];
            for &c in slices.iter().flat_map(|s| s.iter()) {
                let off = c - lo;
                bits[(off / 64) as usize] |= 1u64 << (off % 64);
            }
            return Self::from_bitset(lo, &bits);
        }
        let mut offs: Vec<u64> = Vec::with_capacity(k);
        for s in slices {
            offs.extend(s.iter().map(|&c| c - lo));
        }
        radix_sort(&mut offs, hi - lo);
        offs.dedup();
        Self::from_sorted_coords(offs.into_iter().map(|o| o + lo))
    }

    /// Build from a bitset whose bit `i` (bit `i % 64` of word `i / 64`)
    /// selects coordinate `base + i`, one run per maximal block of set bits.
    fn from_bitset(base: u64, bits: &[u64]) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        let mut open: Option<u64> = None;
        for (wi, &w) in bits.iter().enumerate() {
            let word_base = base + 64 * wi as u64;
            let mut bit = 0u32;
            while bit < 64 {
                let rest = w >> bit;
                match open {
                    Some(start) => {
                        // `rest`'s vacated high bits are zero, so this
                        // stops at the word end at the latest.
                        bit += (!rest).trailing_zeros();
                        if bit < 64 {
                            runs.push(Run::new(start, word_base + u64::from(bit) - start));
                            open = None;
                        }
                    }
                    None if rest == 0 => break,
                    None => {
                        bit += rest.trailing_zeros();
                        open = Some(word_base + u64::from(bit));
                    }
                }
            }
        }
        if let Some(start) = open {
            runs.push(Run::new(start, base + 64 * bits.len() as u64 - start));
        }
        Selection { runs }
    }

    /// Build from runs that are already sorted, disjoint and non-adjacent.
    ///
    /// Debug-asserts the invariants.
    pub fn from_canonical_runs(runs: Vec<Run>) -> Self {
        #[cfg(debug_assertions)]
        {
            for r in &runs {
                debug_assert!(r.len > 0, "empty run");
            }
            for w in runs.windows(2) {
                debug_assert!(w[0].end() < w[1].start, "runs must be disjoint, non-adjacent, sorted");
            }
        }
        Selection { runs }
    }

    /// Build from arbitrary runs (sorts, merges overlaps, coalesces).
    pub fn from_runs(mut runs: Vec<Run>) -> Self {
        runs.retain(|r| r.len > 0);
        runs.sort_unstable_by_key(|r| r.start);
        let mut out: Vec<Run> = Vec::with_capacity(runs.len());
        for r in runs {
            match out.last_mut() {
                Some(last) if r.start <= last.end() => {
                    let end = last.end().max(r.end());
                    last.len = end - last.start;
                }
                _ => out.push(r),
            }
        }
        Selection { runs: out }
    }

    /// Number of selected coordinates (the paper's "number of hits").
    pub fn count(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }

    /// Whether nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The underlying canonical runs.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of runs (a measure of fragmentation — contiguity of results
    /// is what makes the sorted strategy fast).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Iterate over all selected coordinates in ascending order.
    pub fn iter_coords(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|r| r.start..r.end())
    }

    /// Membership test (binary search over runs).
    pub fn contains(&self, c: u64) -> bool {
        match self.runs.binary_search_by_key(&c, |r| r.start) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.runs[i - 1].contains_coord(c),
        }
    }

    /// Set union — the paper's OR combination ("combine the results ...
    /// and remove the duplicates with a merge sort").
    pub fn union(&self, other: &Selection) -> Selection {
        let mut merged: Vec<Run> = Vec::with_capacity(self.runs.len() + other.runs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() || j < other.runs.len() {
            let take_left = match (self.runs.get(i), other.runs.get(j)) {
                (Some(a), Some(b)) => a.start <= b.start,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            let r = if take_left {
                i += 1;
                self.runs[i - 1]
            } else {
                j += 1;
                other.runs[j - 1]
            };
            match merged.last_mut() {
                Some(last) if r.start <= last.end() => {
                    let end = last.end().max(r.end());
                    last.len = end - last.start;
                }
                _ => merged.push(r),
            }
        }
        Selection { runs: merged }
    }

    /// K-way set union: merge the runs of many selections in a single
    /// O(n log k) heap-driven pass (n total runs, k inputs) instead of k
    /// pairwise [`Selection::union`] merges, which degrade to O(k·n) when
    /// an accumulator re-walks its own runs on every fold step. The result
    /// is canonical RLE, so it is bit-identical to any fold of `union`.
    pub fn union_many<'a, I: IntoIterator<Item = &'a Selection>>(sels: I) -> Selection {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let sources: Vec<&[Run]> =
            sels.into_iter().map(|s| s.runs()).filter(|r| !r.is_empty()).collect();
        match sources.len() {
            0 => return Selection::empty(),
            1 => return Selection { runs: sources[0].to_vec() },
            _ => {}
        }
        // Heap entries are (next run start, source, run index); the source
        // index breaks ties deterministically.
        let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = sources
            .iter()
            .enumerate()
            .map(|(k, runs)| Reverse((runs[0].start, k, 0)))
            .collect();
        let mut merged: Vec<Run> = Vec::with_capacity(sources.iter().map(|r| r.len()).sum());
        while let Some(Reverse((_, k, i))) = heap.pop() {
            let r = sources[k][i];
            if let Some(next) = sources[k].get(i + 1) {
                heap.push(Reverse((next.start, k, i + 1)));
            }
            match merged.last_mut() {
                Some(last) if r.start <= last.end() => {
                    let end = last.end().max(r.end());
                    last.len = end - last.start;
                }
                _ => merged.push(r),
            }
        }
        Selection { runs: merged }
    }

    /// Set intersection — the paper's AND combination.
    pub fn intersect(&self, other: &Selection) -> Selection {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let a = self.runs[i];
            let b = other.runs[j];
            let lo = a.start.max(b.start);
            let hi = a.end().min(b.end());
            if lo < hi {
                out.push(Run::new(lo, hi - lo));
            }
            if a.end() <= b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        Selection { runs: out }
    }

    /// Restrict the selection to the span `[start, start+len)`. Binary
    /// searches for the first overlapping run, so clipping a selection to
    /// each of many regions costs O(log runs) per region plus the output.
    pub fn restrict_to_span(&self, start: u64, len: u64) -> Selection {
        if len == 0 {
            return Selection::empty();
        }
        let end = start + len;
        let first = self.runs.partition_point(|r| r.end() <= start);
        let mut out = Vec::new();
        for r in &self.runs[first..] {
            if r.start >= end {
                break;
            }
            let lo = r.start.max(start);
            let hi = r.end().min(end);
            out.push(Run::new(lo, hi - lo));
        }
        Selection { runs: out }
    }

    /// Shift every coordinate by `delta` (used to translate region-local
    /// selections to object-global coordinates).
    pub fn shifted(&self, delta: u64) -> Selection {
        Selection {
            runs: self.runs.iter().map(|r| Run::new(r.start + delta, r.len)).collect(),
        }
    }

    /// Keep only coordinates satisfying `pred` (used for arbitrary spatial
    /// constraints from `PDCquery_set_region` on multi-dimensional shapes).
    pub fn filter_coords<F: FnMut(u64) -> bool>(&self, mut pred: F) -> Selection {
        Selection::from_sorted_coords(self.iter_coords().filter(|&c| pred(c)))
    }

    /// Serialized size estimate in bytes (for the simulated network:
    /// selections are shipped server → client).
    pub fn wire_size_bytes(&self) -> u64 {
        16 * self.runs.len() as u64 + 8
    }

    /// The selected locations as N-dimensional array coordinates under
    /// `shape` — the form `PDCquery_get_selection` reports for
    /// multi-dimensional objects ("the locations (array coordinates) of
    /// the matching elements").
    pub fn to_nd_coords(&self, shape: &crate::region::Shape) -> Vec<Vec<u64>> {
        self.iter_coords().map(|c| shape.unravel(c)).collect()
    }
}

/// LSD radix sort of values `<= max` in 11-bit digits (as many passes as
/// `max` needs).
fn radix_sort(v: &mut Vec<u64>, max: u64) {
    const BITS: u32 = 11;
    const BUCKETS: usize = 1 << BITS;
    let passes = (64 - max.leading_zeros()).div_ceil(BITS);
    let mut tmp = vec![0u64; v.len()];
    for p in 0..passes {
        let shift = p * BITS;
        let digit = |x: u64| ((x >> shift) as usize) & (BUCKETS - 1);
        let mut pos = [0usize; BUCKETS];
        for &x in v.iter() {
            pos[digit(x)] += 1;
        }
        let mut sum = 0;
        for slot in pos.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &x in v.iter() {
            let d = digit(x);
            tmp[pos[d]] = x;
            pos[d] += 1;
        }
        std::mem::swap(v, &mut tmp);
    }
}

/// The rank of each selected coordinate: its index in the selection's
/// ascending coordinate order, which is where `PDCquery_get_data` puts its
/// value. Answers from the runs' prefix counts by binary search; built
/// with [`SelectionRanks::with_lookups`] for many lookups over a dense
/// selection, it adds a rank bitset over the selection's coordinate range
/// (never the whole object's) that answers in O(1).
#[derive(Debug, Clone)]
pub struct SelectionRanks<'a> {
    runs: &'a [Run],
    /// `before[i]`: selected coordinates in `runs[..i]`.
    before: Vec<u64>,
    dense: Option<DenseRanks>,
}

/// A bitset over `[base, base + 64·bits.len())` with per-word prefix
/// counts.
#[derive(Debug, Clone)]
struct DenseRanks {
    base: u64,
    bits: Vec<u64>,
    before: Vec<u64>,
}

impl<'a> SelectionRanks<'a> {
    /// Prefix counts only: O(log runs) per lookup.
    pub fn new(sel: &'a Selection) -> Self {
        let mut before = Vec::with_capacity(sel.runs.len());
        let mut acc = 0;
        for r in &sel.runs {
            before.push(acc);
            acc += r.len;
        }
        SelectionRanks { runs: &sel.runs, before, dense: None }
    }

    /// Prefix counts plus, when the rank bitset over the selection's
    /// coordinate range has at most one word per expected lookup, that
    /// bitset, so the `lookups` membership tests cost O(1) each. A narrow
    /// selection scattered over a large object keeps the binary search.
    pub fn with_lookups(sel: &'a Selection, lookups: u64) -> Self {
        let mut ranks = Self::new(sel);
        let (Some(first), Some(last)) = (sel.runs.first(), sel.runs.last()) else {
            return ranks;
        };
        let base = first.start;
        let words = (last.end() - 1 - base) / 64 + 1;
        if words > lookups {
            return ranks;
        }
        let mut bits = vec![0u64; words as usize];
        for r in &sel.runs {
            let (s, e) = (r.start - base, r.end() - base);
            let (ws, we) = ((s / 64) as usize, ((e - 1) / 64) as usize);
            let head = !0u64 << (s % 64);
            let tail = !0u64 >> (63 - (e - 1) % 64);
            if ws == we {
                bits[ws] |= head & tail;
            } else {
                bits[ws] |= head;
                bits[ws + 1..we].fill(!0);
                bits[we] |= tail;
            }
        }
        let mut before = Vec::with_capacity(bits.len());
        let mut acc = 0;
        for w in &bits {
            before.push(acc);
            acc += u64::from(w.count_ones());
        }
        ranks.dense = Some(DenseRanks { base, bits, before });
        ranks
    }

    /// Number of selected coordinates strictly below `c`.
    pub fn rank_before(&self, c: u64) -> u64 {
        let i = self.runs.partition_point(|r| r.start < c);
        match i.checked_sub(1) {
            None => 0,
            Some(j) => self.before[j] + (c - self.runs[j].start).min(self.runs[j].len),
        }
    }

    /// The rank of `c`, or `None` when `c` is not selected.
    #[inline]
    pub fn rank_of(&self, c: u64) -> Option<u64> {
        if let Some(d) = &self.dense {
            let off = c.checked_sub(d.base)?;
            let word = (off / 64) as usize;
            let w = *d.bits.get(word)?;
            let below = w & ((1u64 << (off % 64)) - 1);
            return (w >> (off % 64) & 1 == 1)
                .then(|| d.before[word] + u64::from(below.count_ones()));
        }
        let i = self.runs.partition_point(|r| r.start <= c).checked_sub(1)?;
        let r = self.runs[i];
        r.contains_coord(c).then(|| self.before[i] + (c - r.start))
    }
}

impl Run {
    /// Whether the run contains coordinate `c`.
    #[inline]
    pub const fn contains_coord(&self, c: u64) -> bool {
        c >= self.start && c < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(coords: &[u64]) -> Selection {
        Selection::from_unsorted_coords(coords.to_vec())
    }

    #[test]
    fn from_sorted_coords_coalesces_runs() {
        let s = Selection::from_sorted_coords([1, 2, 3, 7, 8, 20]);
        assert_eq!(
            s.runs(),
            &[Run::new(1, 3), Run::new(7, 2), Run::new(20, 1)]
        );
        assert_eq!(s.count(), 6);
        assert_eq!(s.num_runs(), 3);
    }

    #[test]
    fn from_unsorted_dedups() {
        let s = Selection::from_unsorted_coords(vec![5, 3, 5, 4, 10]);
        assert_eq!(s.runs(), &[Run::new(3, 3), Run::new(10, 1)]);
    }

    #[test]
    fn from_runs_normalizes_overlaps_and_adjacency() {
        let s = Selection::from_runs(vec![
            Run::new(10, 5),
            Run::new(0, 3),
            Run::new(12, 10),
            Run::new(3, 2), // adjacent to [0,3)
            Run::new(40, 0), // empty, dropped
        ]);
        assert_eq!(s.runs(), &[Run::new(0, 5), Run::new(10, 12)]);
    }

    #[test]
    fn count_and_membership() {
        let s = sel(&[0, 1, 2, 10, 11, 50]);
        assert_eq!(s.count(), 6);
        for c in [0, 2, 10, 11, 50] {
            assert!(s.contains(c), "{c}");
        }
        for c in [3, 9, 12, 49, 51] {
            assert!(!s.contains(c), "{c}");
        }
        assert!(!Selection::empty().contains(0));
    }

    #[test]
    fn union_equals_set_union() {
        let a = sel(&[1, 2, 3, 10]);
        let b = sel(&[3, 4, 5, 20]);
        let u = a.union(&b);
        let expect: Vec<u64> = vec![1, 2, 3, 4, 5, 10, 20];
        assert_eq!(u.iter_coords().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = sel(&[4, 5, 9]);
        assert_eq!(a.union(&Selection::empty()), a);
        assert_eq!(Selection::empty().union(&a), a);
    }

    #[test]
    fn union_many_matches_pairwise_fold() {
        let inputs = [
            sel(&[1, 2, 3, 10]),
            sel(&[3, 4, 5, 20]),
            Selection::empty(),
            Selection::from_span(9, 3), // bridges 10 and introduces 9, 11
            sel(&[0, 21]),              // adjacent to 1 and 20
        ];
        let folded = inputs.iter().fold(Selection::empty(), |acc, s| acc.union(s));
        assert_eq!(Selection::union_many(inputs.iter()), folded);
        assert_eq!(Selection::union_many([].into_iter()), Selection::empty());
        let single = sel(&[7, 9]);
        assert_eq!(Selection::union_many([&single]), single);
    }

    #[test]
    fn union_many_pseudorandom_inputs_match_fold() {
        // Deterministic pseudo-random run soup across many sources.
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let sources: Vec<Selection> = (0..13)
            .map(|_| {
                let coords: Vec<u64> = (0..200).map(|_| next() % 1500).collect();
                Selection::from_unsorted_coords(coords)
            })
            .collect();
        let folded = sources.iter().fold(Selection::empty(), |acc, s| acc.union(s));
        assert_eq!(Selection::union_many(sources.iter()), folded);
    }

    #[test]
    fn intersect_equals_set_intersection() {
        let a = sel(&[1, 2, 3, 4, 10, 11]);
        let b = sel(&[3, 4, 5, 11, 12]);
        let i = a.intersect(&b);
        assert_eq!(i.iter_coords().collect::<Vec<_>>(), vec![3, 4, 11]);
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Selection::from_span(0, 10);
        let b = Selection::from_span(10, 10);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn all_and_span() {
        let all = Selection::all(100);
        assert_eq!(all.count(), 100);
        assert_eq!(all.num_runs(), 1);
        assert!(Selection::all(0).is_empty());
        assert!(Selection::from_span(5, 0).is_empty());
    }

    #[test]
    fn restrict_to_span_clips() {
        let s = sel(&[0, 1, 2, 8, 9, 10, 11, 30]);
        let r = s.restrict_to_span(2, 9); // [2, 11)
        assert_eq!(r.iter_coords().collect::<Vec<_>>(), vec![2, 8, 9, 10]);
        assert!(s.restrict_to_span(100, 5).is_empty());
        assert!(s.restrict_to_span(0, 0).is_empty());
    }

    #[test]
    fn shifted_translates() {
        let s = Selection::from_span(0, 3).shifted(100);
        assert_eq!(s.runs(), &[Run::new(100, 3)]);
    }

    #[test]
    fn filter_coords_applies_predicate() {
        let s = Selection::all(10);
        let even = s.filter_coords(|c| c % 2 == 0);
        assert_eq!(even.iter_coords().collect::<Vec<_>>(), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn to_nd_coords_unravels_row_major() {
        let shape = crate::region::Shape(vec![3, 4]);
        let s = sel(&[0, 5, 11]);
        assert_eq!(
            s.to_nd_coords(&shape),
            vec![vec![0, 0], vec![1, 1], vec![2, 3]]
        );
    }

    /// Deterministic LCG stream for the pseudo-random cases below.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    #[test]
    fn from_unsorted_slices_matches_comparison_sort() {
        let mut next = lcg(0xC0FFEE);
        // A permutation of [0, n) cut into slices, as a sorted replica's
        // band is cut into regions: dense (bitset) and, over a larger
        // coordinate range, sparse (radix) inputs, with duplicates.
        let cases =
            [(5000u64, 1u64, false), (3000, 977, false), (4000, 3, true), (100, 1 << 40, true)];
        for (n, stride, dups) in cases {
            let mut coords: Vec<u64> = (0..n).map(|i| 17 + i * stride).collect();
            for i in (1..coords.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                coords.swap(i, j);
            }
            if dups {
                let extra: Vec<u64> = coords[..n as usize / 3].to_vec();
                coords.extend(extra);
            }
            for cut in [1usize, 7, 130, coords.len()] {
                let slices: Vec<&[u64]> = coords.chunks(cut).collect();
                assert_eq!(
                    Selection::from_unsorted_slices(&slices),
                    Selection::from_unsorted_coords(coords.clone()),
                    "n={n} stride={stride} cut={cut}"
                );
            }
        }
        // A band keeping a random half of a permutation: runs of every
        // length, crossing word boundaries.
        let kept: Vec<u64> = (0..20_000u64).filter(|_| next().is_multiple_of(2)).collect();
        assert_eq!(
            Selection::from_unsorted_slices(&[&kept[..]]),
            Selection::from_sorted_coords(kept.iter().copied())
        );
        assert!(Selection::from_unsorted_slices(&[]).is_empty());
        let full: Vec<u64> = (64..64 * 9).rev().collect();
        assert_eq!(Selection::from_unsorted_slices(&[&full[..]]).runs(), &[Run::new(64, 512)]);
    }

    #[test]
    fn ranks_match_position_in_coordinate_order() {
        let mut next = lcg(7);
        let coords: Vec<u64> =
            (0..3000u64).filter(|_| !next().is_multiple_of(3)).map(|c| c * 2 + 5).collect();
        let s = Selection::from_sorted_coords(coords.iter().copied());
        for ranks in [SelectionRanks::new(&s), SelectionRanks::with_lookups(&s, u64::MAX)] {
            for c in 0..6100u64 {
                let expect = coords.binary_search(&c).ok().map(|i| i as u64);
                assert_eq!(ranks.rank_of(c), expect, "{c}");
                assert_eq!(ranks.rank_before(c), coords.partition_point(|&x| x < c) as u64, "{c}");
            }
        }
        let dense = SelectionRanks::with_lookups(&s, u64::MAX);
        assert!(dense.dense.is_some());
        // Scattered over a wide range, a few lookups keep the binary search.
        let sparse = Selection::from_sorted_coords([3, 1 << 30, 1 << 40]);
        let ranks = SelectionRanks::with_lookups(&sparse, 3);
        assert!(ranks.dense.is_none());
        assert_eq!(ranks.rank_of(1 << 40), Some(2));
        assert_eq!(SelectionRanks::with_lookups(&Selection::empty(), 10).rank_of(0), None);
    }

    #[test]
    fn restrict_to_span_matches_linear_filter() {
        let s = sel(&[1, 2, 3, 9, 10, 20, 21, 22, 40]);
        for start in 0..45 {
            for len in 0..25 {
                let expect: Vec<u64> =
                    s.iter_coords().filter(|&c| c >= start && c < start + len).collect();
                let got: Vec<u64> = s.restrict_to_span(start, len).iter_coords().collect();
                assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn wire_size_grows_with_fragmentation() {
        let contiguous = Selection::from_span(0, 1000);
        let fragmented = Selection::from_sorted_coords((0..1000).map(|i| i * 2));
        assert!(fragmented.wire_size_bytes() > contiguous.wire_size_bytes());
    }
}
