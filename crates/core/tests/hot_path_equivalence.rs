//! The query hot path against naive models: candidate routing of the AND
//! point check, sorted-band materialization, and `get_data` assembly on
//! both the sorted-replica path and the coordinate path.
//!
//! The worlds are laid out so the primary constraint's hits form
//! candidate runs at the awkward places of the region grid: ending
//! exactly on a region boundary, straddling one, covering several whole
//! regions, inside the last (partial) region, and with whole regions
//! holding no candidate at all.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, QueryOutcome, Strategy};
use pdc_types::{ObjectId, PdcError, QueryOp, Run, Selection, TypedVec};
use std::path::PathBuf;
use std::sync::Arc;

const STRATEGIES: [Strategy; 5] = [
    Strategy::FullScan,
    Strategy::Histogram,
    Strategy::HistogramIndex,
    Strategy::SortedHistogram,
    Strategy::Adaptive,
];

/// Elements per region (4 KiB regions of f32).
const REGION: u64 = 1024;
/// Ten whole regions plus a partial eleventh.
const N: u64 = 10 * REGION + 300;

/// The primary constraint's candidate runs.
fn candidate_runs() -> Vec<Run> {
    let mut runs = vec![
        Run::new(1000, 24),                       // ends exactly on the 0|1 boundary
        Run::new(2 * REGION - 48, 100),           // straddles the 1|2 boundary
        Run::new(3 * REGION - 5, 2 * REGION + 7), // covers regions 3 and 4 whole
        Run::new(7 * REGION, 1),                  // first element of region 7
        Run::new(8 * REGION - 1, 1),              // last element of region 7
        Run::new(10 * REGION + 100, 200),         // runs to the end of the partial region
    ];
    // Scattered singles in region 8; regions 5, 6 and 9 hold none.
    runs.extend((0..20).map(|i| Run::new(8 * REGION + 3 + 37 * i, 1)));
    runs.sort_by_key(|r| r.start);
    runs
}

struct World {
    odms: Arc<Odms>,
    a: ObjectId,
    b: ObjectId,
    a_vals: Vec<f32>,
    b_vals: Vec<f32>,
}

fn build_world() -> World {
    let cands = Selection::from_runs(candidate_runs());
    // `a` is high exactly on the candidates (distinct values, so the
    // sorted band is a real permutation slice); `b` is pseudo-random.
    let a_vals: Vec<f32> = (0..N)
        .map(|i| {
            let jitter = (i % 97) as f32 / 1000.0;
            if cands.contains(i) {
                2.0 + jitter
            } else {
                0.5 + jitter
            }
        })
        .collect();
    let b_vals: Vec<f32> =
        (0..N).map(|i| ((i.wrapping_mul(2654435761) >> 7) % 1000) as f32 / 1000.0).collect();
    let odms = Arc::new(Odms::new(4));
    let c = odms.create_container("hot");
    let opts = ImportOptions {
        region_bytes: REGION * 4,
        build_index: true,
        build_sorted: true,
        ..Default::default()
    };
    let a = odms.import_array(c, "a", TypedVec::Float(a_vals.clone()), &opts).unwrap().object;
    let b = odms.import_array(c, "b", TypedVec::Float(b_vals.clone()), &opts).unwrap().object;
    World { odms, a, b, a_vals, b_vals }
}

fn spill_dir(tag: &str) -> PathBuf {
    let thread = std::thread::current()
        .name()
        .unwrap_or("t")
        .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    std::env::temp_dir().join(format!("pdc_hotpath_{tag}_{}_{thread}", std::process::id()))
}

fn engine(world: &World, strategy: Strategy, spill: Option<&PathBuf>) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig {
            strategy,
            num_servers: 3,
            // Keep `a` primary so `b` is point-checked at its candidates.
            order_by_selectivity: false,
            memory_budget: spill.map(|_| 8 * 1024),
            spill_dir: spill.cloned(),
            block_cache_bytes: 16 * 1024,
            ..Default::default()
        },
    )
}

/// The naive answer of `a > 1 AND b < cut`.
fn naive(world: &World, cut: f32) -> Vec<u64> {
    (0..N).filter(|&i| world.a_vals[i as usize] > 1.0 && world.b_vals[i as usize] < cut).collect()
}

fn conj(world: &World, cut: f32) -> PdcQuery {
    PdcQuery::create(world.a, QueryOp::Gt, 1.0f32).and(PdcQuery::create(world.b, QueryOp::Lt, cut))
}

fn values(data: &TypedVec) -> &[f32] {
    let TypedVec::Float(v) = data else { panic!("f32 object") };
    v
}

/// The naive coordinate-order gather `get_data` must equal.
fn gather(vals: &[f32], sel: &Selection) -> Vec<f32> {
    sel.iter_coords().map(|c| vals[c as usize]).collect()
}

#[test]
fn point_check_routing_matches_naive_filter() {
    let world = build_world();
    for strategy in STRATEGIES {
        let eng = engine(&world, strategy, None);
        // Every cut, from "keeps nothing" to "keeps every candidate".
        for cut in [0.0f32, 0.1, 0.5, 0.9, 1.5] {
            let out = eng.run(&conj(&world, cut)).unwrap();
            let got: Vec<u64> = out.selection.iter_coords().collect();
            assert_eq!(got, naive(&world, cut), "{strategy}, b < {cut}");
        }
        // The primary alone selects exactly the candidate runs.
        let prim = eng.run(&PdcQuery::create(world.a, QueryOp::Gt, 1.0f32)).unwrap();
        assert_eq!(prim.selection, Selection::from_runs(candidate_runs()), "{strategy}");
    }
}

#[test]
fn point_check_routing_over_spilled_regions_matches_resident() {
    // Spilled regions are point-checked block by block (`scan_cold_run`);
    // selections and every simulated charge must equal the resident run.
    for strategy in STRATEGIES {
        let resident = build_world();
        let spilled = build_world();
        let dir = spill_dir(&format!("{strategy}"));
        let a = engine(&resident, strategy, None);
        let b = engine(&spilled, strategy, Some(&dir));
        for cut in [0.1f32, 0.5, 1.5] {
            let x = a.run(&conj(&resident, cut)).unwrap();
            let y = b.run(&conj(&spilled, cut)).unwrap();
            assert_eq!(y.selection.iter_coords().collect::<Vec<_>>(), naive(&spilled, cut));
            assert_eq!(x.selection, y.selection, "{strategy}, b < {cut}");
            assert_eq!(x.elapsed, y.elapsed, "{strategy}, b < {cut}: elapsed");
            assert_eq!(x.io, y.io, "{strategy}, b < {cut}: io");
            assert_eq!(x.work, y.work, "{strategy}, b < {cut}: work");
            assert_eq!(x.breakdown, y.breakdown, "{strategy}, b < {cut}: breakdown");
        }
        let stats = spilled.odms.store().spill_stats().expect("spill configured");
        assert!(stats.spilled_regions > 0, "{strategy}: nothing spilled: {stats:?}");
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `get_data` and every `get_data_batch` split of it equal the naive
/// gather, for both objects (the sorted key object and another one).
fn check_get_data(eng: &QueryEngine, world: &World, out: &QueryOutcome, ctx: &str) {
    for (obj, vals) in [(world.a, &world.a_vals), (world.b, &world.b_vals)] {
        let want = gather(vals, &out.selection);
        let got = eng.get_data(out, obj).unwrap();
        assert_eq!(values(&got.data), &want[..], "{ctx}: get_data");
        for batch in [61u64, 1000, u64::MAX / 2] {
            let parts = eng.get_data_batch(out, obj, batch).unwrap();
            let joined: Vec<f32> = parts.iter().flat_map(|p| values(&p.data).to_vec()).collect();
            assert_eq!(joined, want, "{ctx}: get_data_batch({batch})");
        }
    }
}

#[test]
fn get_data_matches_naive_gather_on_both_paths() {
    let world = build_world();
    for strategy in STRATEGIES {
        let eng = engine(&world, strategy, None);
        let queries = [
            PdcQuery::create(world.a, QueryOp::Gt, 1.0f32),
            PdcQuery::range_open(world.a, 2.01f32, 2.05f32),
            conj(&world, 0.5),
            PdcQuery::range_open(world.b, 0.2f32, 0.7f32),
        ];
        for (i, q) in queries.iter().enumerate() {
            let out = eng.run(q).unwrap();
            check_get_data(&eng, &world, &out, &format!("{strategy}, query {i}"));
        }
    }
}

#[test]
fn get_data_sorted_path_is_exercised() {
    // The suite above is only meaningful if the sorted path ran.
    let world = build_world();
    let eng = engine(&world, Strategy::SortedHistogram, None);
    let out = eng.run(&PdcQuery::create(world.a, QueryOp::Gt, 1.0f32)).unwrap();
    assert!(matches!(out.sorted_hint, Some((o, _)) if o == world.a));
}

#[test]
fn get_data_outside_the_sorted_band_is_correct_or_typed() {
    let world = build_world();
    let eng = engine(&world, Strategy::SortedHistogram, None);
    let base = eng.run(&PdcQuery::create(world.a, QueryOp::Gt, 1.0f32)).unwrap();
    assert!(base.sorted_hint.is_some());
    // A selection the band covers only partly (and one it misses
    // entirely): the values are still exactly the naive gather.
    for sel in [
        base.selection.union(&Selection::from_span(5 * REGION, 300)),
        Selection::from_span(6 * REGION, 50),
        Selection::all(N),
    ] {
        let mut out = base.clone();
        out.nhits = sel.count();
        out.selection = sel;
        let got = eng.get_data(&out, world.a).unwrap();
        assert_eq!(values(&got.data), &gather(&world.a_vals, &out.selection)[..]);
        let parts = eng.get_data_batch(&out, world.a, 333).unwrap();
        let joined: Vec<f32> = parts.iter().flat_map(|p| values(&p.data).to_vec()).collect();
        assert_eq!(joined, gather(&world.a_vals, &out.selection));
    }
    // Coordinates past the object's extent: a typed error on both paths,
    // never a panic or a short result.
    for (strategy, obj) in [(Strategy::SortedHistogram, world.a), (Strategy::Histogram, world.b)] {
        let eng = engine(&world, strategy, None);
        let mut out = eng.run(&PdcQuery::create(world.a, QueryOp::Gt, 1.0f32)).unwrap();
        out.selection = out.selection.union(&Selection::from_span(N + 10, 5));
        out.nhits = out.selection.count();
        match eng.get_data(&out, obj) {
            Err(PdcError::SelectionOutOfBounds { coord, len }) => {
                assert_eq!(len, N);
                assert!(coord >= N);
            }
            other => panic!("{strategy}: expected SelectionOutOfBounds, got {other:?}"),
        }
    }
}
