//! Property-based tests for `Selection` and `Interval`: the run-length set
//! algebra must agree with a naive `BTreeSet` model, and interval algebra
//! must agree with direct predicate evaluation.

use pdc_types::{Interval, QueryOp, Run, Selection, SelectionRanks};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn coords_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..500, 0..120)
}

fn model(coords: &[u64]) -> BTreeSet<u64> {
    coords.iter().copied().collect()
}

proptest! {
    #[test]
    fn selection_roundtrips_coords(coords in coords_strategy()) {
        let s = Selection::from_unsorted_coords(coords.clone());
        let m = model(&coords);
        prop_assert_eq!(s.iter_coords().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(s.count(), m.len() as u64);
    }

    #[test]
    fn selection_runs_are_canonical(coords in coords_strategy()) {
        let s = Selection::from_unsorted_coords(coords);
        for r in s.runs() {
            prop_assert!(r.len > 0);
        }
        for w in s.runs().windows(2) {
            prop_assert!(w[0].end() < w[1].start, "runs must be sorted and non-adjacent");
        }
    }

    #[test]
    fn union_matches_set_model(a in coords_strategy(), b in coords_strategy()) {
        let sa = Selection::from_unsorted_coords(a.clone());
        let sb = Selection::from_unsorted_coords(b.clone());
        let expect: Vec<u64> = model(&a).union(&model(&b)).copied().collect();
        prop_assert_eq!(sa.union(&sb).iter_coords().collect::<Vec<_>>(), expect);
        // commutative
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
    }

    #[test]
    fn intersect_matches_set_model(a in coords_strategy(), b in coords_strategy()) {
        let sa = Selection::from_unsorted_coords(a.clone());
        let sb = Selection::from_unsorted_coords(b.clone());
        let expect: Vec<u64> = model(&a).intersection(&model(&b)).copied().collect();
        prop_assert_eq!(sa.intersect(&sb).iter_coords().collect::<Vec<_>>(), expect);
        prop_assert_eq!(sa.intersect(&sb), sb.intersect(&sa));
    }

    #[test]
    fn demorgan_style_counts(a in coords_strategy(), b in coords_strategy()) {
        // |A ∪ B| + |A ∩ B| == |A| + |B|
        let sa = Selection::from_unsorted_coords(a);
        let sb = Selection::from_unsorted_coords(b);
        prop_assert_eq!(
            sa.union(&sb).count() + sa.intersect(&sb).count(),
            sa.count() + sb.count()
        );
    }

    #[test]
    fn restrict_matches_filter(coords in coords_strategy(), start in 0u64..500, len in 0u64..200) {
        let s = Selection::from_unsorted_coords(coords.clone());
        let expect: Vec<u64> = model(&coords)
            .into_iter()
            .filter(|&c| c >= start && c < start + len)
            .collect();
        prop_assert_eq!(
            s.restrict_to_span(start, len).iter_coords().collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn contains_matches_model(coords in coords_strategy(), probe in 0u64..600) {
        let s = Selection::from_unsorted_coords(coords.clone());
        prop_assert_eq!(s.contains(probe), model(&coords).contains(&probe));
    }

    #[test]
    fn from_runs_equals_coord_expansion(runs in prop::collection::vec((0u64..300, 0u64..20), 0..30)) {
        let runs: Vec<Run> = runs.into_iter().map(|(s, l)| Run::new(s, l)).collect();
        let mut expect = BTreeSet::new();
        for r in &runs {
            for c in r.start..r.end() {
                expect.insert(c);
            }
        }
        let s = Selection::from_runs(runs);
        prop_assert_eq!(s.iter_coords().collect::<Vec<_>>(), expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn interval_intersect_is_conjunction(
        op1 in prop::sample::select(vec![QueryOp::Gt, QueryOp::Gte, QueryOp::Lt, QueryOp::Lte, QueryOp::Eq]),
        op2 in prop::sample::select(vec![QueryOp::Gt, QueryOp::Gte, QueryOp::Lt, QueryOp::Lte, QueryOp::Eq]),
        v1 in -100.0f64..100.0,
        v2 in -100.0f64..100.0,
        probe in -150.0f64..150.0,
    ) {
        let iv = Interval::from_op(op1, v1).intersect(&Interval::from_op(op2, v2));
        prop_assert_eq!(iv.contains(probe), op1.eval(probe, v1) && op2.eval(probe, v2));
    }

    #[test]
    fn interval_overlap_agrees_with_membership_sampling(
        lo in -50.0f64..50.0,
        width in 0.0f64..30.0,
        rmin in -60.0f64..60.0,
        rwidth in 0.0f64..30.0,
    ) {
        let iv = Interval::closed(lo, lo + width);
        let (rmin, rmax) = (rmin, rmin + rwidth);
        let overlap = iv.overlaps_range(rmin, rmax);
        // sample the range densely; if any sample matches, overlap must be true
        let any_match = (0..=100).any(|i| {
            let v = rmin + (rmax - rmin) * (i as f64) / 100.0;
            iv.contains(v)
        });
        if any_match {
            prop_assert!(overlap);
        }
        // and if ranges are fully disjoint, overlap must be false
        if rmax < lo || rmin > lo + width {
            prop_assert!(!overlap);
        }
    }

    #[test]
    fn sorted_materialization_matches_comparison_sort(
        n in 1u64..6000,
        spread in 1u64..400,
        seed in any::<u64>(),
        cuts in prop::collection::vec(0usize..6000, 0..12),
    ) {
        // A shuffled band of coordinates (as a sorted replica's permutation
        // slice looks), spread over `spread`× its length and cut at
        // arbitrary points into per-region slices.
        let mut coords: Vec<u64> = (0..n).map(|i| i * spread + seed % 7).collect();
        let mut state = seed | 1;
        for i in (1..coords.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            coords.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % coords.len()).collect();
        bounds.extend([0, coords.len()]);
        bounds.sort_unstable();
        let slices: Vec<&[u64]> = bounds.windows(2).map(|w| &coords[w[0]..w[1]]).collect();
        prop_assert_eq!(
            Selection::from_unsorted_slices(&slices),
            Selection::from_unsorted_coords(coords.clone())
        );
    }

    #[test]
    fn ranks_match_coordinate_order(coords in coords_strategy(), dense in any::<bool>()) {
        let s = Selection::from_unsorted_coords(coords.clone());
        let order: Vec<u64> = model(&coords).into_iter().collect();
        let ranks = if dense {
            SelectionRanks::with_lookups(&s, u64::MAX)
        } else {
            SelectionRanks::new(&s)
        };
        for c in 0..520u64 {
            prop_assert_eq!(ranks.rank_of(c), order.binary_search(&c).ok().map(|i| i as u64));
            prop_assert_eq!(ranks.rank_before(c), order.partition_point(|&x| x < c) as u64);
        }
    }
}
