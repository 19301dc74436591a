//! # pdc-sorted
//!
//! Data reorganization with sorting (paper §III-D3).
//!
//! "When there is prior knowledge on how the data would be queried, sorting
//! and reorganizing the data by value based on one or more objects speeds
//! up the query evaluation process. ... A query condition with high
//! selectivity on the energy object would result in data clustered only in
//! a few regions and thus lead to high efficiency."
//!
//! A [`SortedReplica`] is a full copy of one object's values ordered by
//! value, together with the permutation mapping each sorted slot back to
//! its original array coordinate. The replica is partitioned into regions
//! like any PDC object; each sorted region carries a `[min, max]` range so
//! a range query touches only the contiguous band of regions overlapping
//! the query interval — that contiguity is the whole point of the
//! reorganization. The replica costs a full copy of the object's storage
//! ("the sorted copy requires a full copy of the data"), which the
//! overhead experiment (E6) accounts for.

use pdc_types::{Interval, RegionSpec, Run, Selection};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A value-sorted copy of one object, with the original-coordinate
/// permutation and per-region value ranges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortedReplica {
    /// Values in ascending order.
    keys: Vec<f64>,
    /// `perm[s]` = original coordinate of sorted slot `s`.
    perm: Vec<u64>,
    /// Elements per region of the sorted replica.
    region_len: u64,
    /// Per-region `[min, max]` of the sorted keys (redundant with `keys`
    /// but kept as region metadata, mirroring PDC's histogram-min/max).
    region_ranges: Vec<(f64, f64)>,
}

/// The answer to a range lookup on a sorted replica.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedLookup {
    /// The contiguous matching span in *sorted* coordinates.
    pub sorted_span: Run,
    /// The matching elements translated back to original coordinates.
    pub selection: Selection,
}

impl SortedReplica {
    /// Build a sorted replica of `values`, partitioned into regions of
    /// `region_len` elements.
    pub fn build(values: &[f64], region_len: u64) -> SortedReplica {
        assert!(region_len > 0, "region length must be positive");
        let mut pairs: Vec<(f64, u64)> =
            values.iter().enumerate().map(|(i, &v)| (v, i as u64)).collect();
        // Parallel sort by value; ties keep original coordinate order so
        // the permutation is deterministic.
        pairs.par_sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
        let keys: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let perm: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let region_ranges = RegionSpec::partition(keys.len() as u64, region_len)
            .into_iter()
            .map(|r| {
                let lo = keys[r.offset as usize];
                let hi = keys[(r.end() - 1) as usize];
                (lo, hi)
            })
            .collect();
        SortedReplica { keys, perm, region_len, region_ranges }
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Whether the replica is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of regions in the sorted replica.
    pub fn num_regions(&self) -> u32 {
        self.region_ranges.len() as u32
    }

    /// Elements per region.
    pub fn region_len(&self) -> u64 {
        self.region_len
    }

    /// `[min, max]` of sorted region `r`.
    pub fn region_range(&self, r: u32) -> (f64, f64) {
        self.region_ranges[r as usize]
    }

    /// The sorted keys (ascending).
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }

    /// The permutation: original coordinate of each sorted slot.
    pub fn perm(&self) -> &[u64] {
        &self.perm
    }

    /// Storage footprint of the replica in bytes, assuming `elem_bytes`
    /// per key: keys plus the permutation array (u64 each). "If the
    /// original data has to be kept, additional storage space is required
    /// to maintain the sorted replica."
    pub fn size_bytes(&self, elem_bytes: u64) -> u64 {
        self.keys.len() as u64 * (elem_bytes + 8)
    }

    /// The contiguous sorted-coordinate span matching `interval`.
    pub fn matching_span(&self, interval: &Interval) -> Run {
        let below = |k: f64| match interval.lo {
            Some(b) => k < b.value || (k == b.value && !b.inclusive),
            None => false,
        };
        let within = |k: f64| match interval.hi {
            Some(b) => k < b.value || (k == b.value && b.inclusive),
            None => true,
        };
        let start = self.keys.partition_point(|&k| below(k)) as u64;
        let end = self.keys.partition_point(|&k| below(k) || within(k)) as u64;
        Run::new(start, end.saturating_sub(start))
    }

    /// Evaluate a range query: binary-search the contiguous matching span
    /// and translate it back to original coordinates.
    pub fn lookup(&self, interval: &Interval) -> SortedLookup {
        let span = self.matching_span(interval);
        let coords = &self.perm[span.start as usize..span.end() as usize];
        SortedLookup { sorted_span: span, selection: Selection::from_unsorted_slices(&[coords]) }
    }

    /// Indices of the sorted regions overlapping `interval` — always a
    /// contiguous band; these are the only regions a sorted-strategy query
    /// must read.
    pub fn regions_overlapping(&self, interval: &Interval) -> Vec<u32> {
        (0..self.num_regions())
            .filter(|&r| {
                let (lo, hi) = self.region_range(r);
                interval.overlaps_range(lo, hi)
            })
            .collect()
    }

    /// Validate the replica against the object it claims to mirror: the
    /// length must match, `perm` must be a permutation of the original
    /// coordinates (no duplicates, none out of range), and the keys must be
    /// ascending (NaN-tolerant — NaNs sort to a stable position, so only a
    /// strict descent is evidence of corruption). A replica failing this
    /// check could silently drop or duplicate hits and must be rebuilt.
    pub fn self_check(&self, expected_len: u64) -> bool {
        if self.len() != expected_len || self.perm.len() != self.keys.len() {
            return false;
        }
        if self.region_len == 0 {
            return false;
        }
        let n = self.keys.len();
        let mut seen = vec![false; n];
        for &p in &self.perm {
            let Some(slot) = seen.get_mut(p as usize) else { return false };
            if *slot {
                return false;
            }
            *slot = true;
        }
        self.keys
            .windows(2)
            .all(|w| !matches!(w[0].partial_cmp(&w[1]), Some(std::cmp::Ordering::Greater)))
    }

    /// A deterministically corrupted clone for integrity-injection tests:
    /// one permutation entry is overwritten with a duplicate of its
    /// neighbour, which [`Self::self_check`] is guaranteed to reject for
    /// any replica of at least two elements.
    pub fn corrupted_copy(&self, seed: u64) -> SortedReplica {
        let mut bad = self.clone();
        if bad.perm.len() >= 2 {
            let i = (seed as usize) % (bad.perm.len() - 1);
            bad.perm[i] = bad.perm[i + 1];
        }
        bad
    }

    /// The sorted-coordinate span covered by sorted region `r`.
    pub fn region_span(&self, r: u32) -> Run {
        let start = u64::from(r) * self.region_len;
        Run::new(start, (start + self.region_len).min(self.len()) - start)
    }

    /// The sorted regions containing the matching span (equivalent to
    /// [`Self::regions_overlapping`] but computed from the span).
    pub fn regions_of_span(&self, span: &Run) -> Vec<u32> {
        if span.len == 0 {
            return Vec::new();
        }
        let first = (span.start / self.region_len) as u32;
        let last = ((span.end() - 1) / self.region_len) as u32;
        (first..=last).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::QueryOp;

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| (((i * 73) % 997) as f32 / 100.0) as f64).collect()
    }

    fn exact_coords(values: &[f64], iv: &Interval) -> Vec<u64> {
        values
            .iter()
            .enumerate()
            .filter(|(_, &v)| iv.contains(v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    #[test]
    fn keys_are_sorted() {
        let r = SortedReplica::build(&sample(5000), 512);
        assert!(r.keys().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.len(), 5000);
    }

    #[test]
    fn perm_is_a_permutation() {
        let r = SortedReplica::build(&sample(3000), 512);
        let mut seen = vec![false; 3000];
        for &p in r.perm() {
            assert!(!seen[p as usize], "duplicate coord {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn perm_recovers_original_values() {
        let values = sample(2000);
        let r = SortedReplica::build(&values, 256);
        for s in 0..r.len() as usize {
            assert_eq!(r.keys()[s], values[r.perm()[s] as usize]);
        }
    }

    #[test]
    fn lookup_matches_naive_filter() {
        let values = sample(4000);
        let r = SortedReplica::build(&values, 512);
        for iv in [
            Interval::open(2.1, 2.2),
            Interval::closed(0.0, 1.0),
            Interval::from_op(QueryOp::Gt, 9.0),
            Interval::from_op(QueryOp::Lte, 0.5),
            Interval::from_op(QueryOp::Eq, 3.33),
            Interval::empty(),
        ] {
            let got = r.lookup(&iv).selection.iter_coords().collect::<Vec<_>>();
            assert_eq!(got, exact_coords(&values, &iv), "{iv}");
        }
    }

    #[test]
    fn matching_span_is_contiguous_and_correct_count() {
        let values = sample(4000);
        let r = SortedReplica::build(&values, 512);
        let iv = Interval::open(2.0, 5.0);
        let span = r.matching_span(&iv);
        assert_eq!(span.len, exact_coords(&values, &iv).len() as u64);
        // every key in the span matches; neighbours don't
        for s in span.start..span.end() {
            assert!(iv.contains(r.keys()[s as usize]));
        }
        if span.start > 0 {
            assert!(!iv.contains(r.keys()[span.start as usize - 1]));
        }
        if (span.end() as usize) < r.keys().len() {
            assert!(!iv.contains(r.keys()[span.end() as usize]));
        }
    }

    #[test]
    fn region_ranges_cover_and_order() {
        let r = SortedReplica::build(&sample(5000), 512);
        assert_eq!(r.num_regions(), 10);
        for i in 0..r.num_regions() {
            let (lo, hi) = r.region_range(i);
            assert!(lo <= hi);
            if i > 0 {
                assert!(r.region_range(i - 1).1 <= lo);
            }
        }
    }

    #[test]
    fn overlapping_regions_form_contiguous_band() {
        let values = sample(8000);
        let r = SortedReplica::build(&values, 512);
        let iv = Interval::open(3.0, 4.0);
        let regions = r.regions_overlapping(&iv);
        assert!(!regions.is_empty());
        for w in regions.windows(2) {
            assert_eq!(w[0] + 1, w[1], "band must be contiguous");
        }
        // spans agree with region arithmetic
        let span = r.matching_span(&iv);
        let from_span = r.regions_of_span(&span);
        for reg in &from_span {
            assert!(regions.contains(reg));
        }
    }

    #[test]
    fn high_selectivity_touches_few_regions() {
        let values = sample(100_000);
        let r = SortedReplica::build(&values, 1000); // 100 regions
        // ~0.1% selectivity window
        let iv = Interval::open(5.0, 5.01);
        let regions = r.regions_of_span(&r.matching_span(&iv));
        assert!(regions.len() <= 2, "highly selective query touched {} regions", regions.len());
    }

    #[test]
    fn empty_interval_and_span_regions() {
        let r = SortedReplica::build(&sample(1000), 100);
        let lookup = r.lookup(&Interval::empty());
        assert!(lookup.selection.is_empty());
        assert_eq!(lookup.sorted_span.len, 0);
        assert!(r.regions_of_span(&lookup.sorted_span).is_empty());
    }

    #[test]
    fn duplicate_values_all_found() {
        let values = vec![1.0, 2.0, 2.0, 2.0, 3.0, 2.0, 0.5];
        let r = SortedReplica::build(&values, 4);
        let iv = Interval::from_op(QueryOp::Eq, 2.0);
        let got = r.lookup(&iv).selection.iter_coords().collect::<Vec<_>>();
        assert_eq!(got, vec![1, 2, 3, 5]);
    }

    #[test]
    fn size_accounts_keys_plus_permutation() {
        let r = SortedReplica::build(&sample(1000), 100);
        assert_eq!(r.size_bytes(4), 1000 * 12);
        assert_eq!(r.size_bytes(8), 1000 * 16);
    }

    #[test]
    #[should_panic(expected = "region length must be positive")]
    fn zero_region_len_panics() {
        SortedReplica::build(&[1.0], 0);
    }

    #[test]
    fn self_check_accepts_freshly_built() {
        let values = sample(3000);
        let r = SortedReplica::build(&values, 512);
        assert!(r.self_check(values.len() as u64));
        assert!(!r.self_check(values.len() as u64 + 1));
    }

    #[test]
    fn corrupted_copy_always_fails_self_check() {
        let values = sample(2000);
        let r = SortedReplica::build(&values, 256);
        for seed in 0..32u64 {
            let bad = r.corrupted_copy(seed);
            assert!(!bad.self_check(values.len() as u64), "seed {seed} escaped detection");
            assert_eq!(bad, r.corrupted_copy(seed));
        }
    }
}
