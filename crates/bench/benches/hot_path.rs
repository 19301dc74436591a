//! Criterion benchmarks of the query hot path's host bookkeeping at
//! paper-mix scale (2M VPIC particles, 128 KiB regions, 8 servers):
//! routing AND point-check candidates to regions, assembling `get_data`
//! results, and materializing sorted-band selections. A host regression
//! in one of these layers shows here without running the repository
//! benchmark. `PDC_KERNEL_BENCH_N` overrides the particle count, as for the
//! kernel benchmarks (the bench smoke in `ci.sh` sets it small).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdc_odms::{ImportOptions, Odms};
use pdc_query::exec::{point_check, EvalCtx};
use pdc_query::{EngineConfig, MetaSnapshot, PdcQuery, QueryEngine, ServerState, Strategy};
use pdc_storage::CostModel;
use pdc_types::{Interval, ObjectId, QueryOp, Selection, TypedVec};
use pdc_workloads::{VpicConfig, VpicData};
use std::sync::Arc;

const SERVERS: u32 = 8;

fn particles() -> usize {
    std::env::var("PDC_KERNEL_BENCH_N").ok().and_then(|s| s.parse().ok()).unwrap_or(2_000_000)
}

/// Energy, x, y, z with bitmap indexes and a sorted Energy replica, as in
/// the paper-mix world.
struct World {
    odms: Arc<Odms>,
    energy: ObjectId,
    x: ObjectId,
    n: usize,
}

fn world() -> World {
    let n = particles();
    let data = VpicData::generate(&VpicConfig { particles: n, seed: 7 });
    let odms = Arc::new(Odms::new(64));
    let container = odms.create_container("bench");
    let mut ids = Vec::new();
    for (i, (name, values)) in data.variables().into_iter().take(4).enumerate() {
        let opts = ImportOptions {
            region_bytes: 128 << 10,
            build_index: true,
            build_sorted: i == 0,
            ..Default::default()
        };
        let values = TypedVec::Float(values.clone());
        ids.push(odms.import_array(container, name, values, &opts).unwrap().object);
    }
    World { odms, energy: ids[0], x: ids[1], n }
}

/// The cost model scaled to the world the way the figure harnesses do.
fn cost(n: usize) -> CostModel {
    let f = 125e9 / n as f64;
    CostModel::scaled(f, f * f64::from(SERVERS) / 64.0, 256.0)
}

fn engine(w: &World, strategy: Strategy) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&w.odms),
        EngineConfig {
            strategy,
            num_servers: SERVERS,
            cache_bytes_per_server: 1 << 30,
            cost: cost(w.n),
            ..Default::default()
        },
    )
}

/// The Fig-4 candidate shape: one server's share of the `Energy > 1.5`
/// band — scattered, mostly single-element runs over every region —
/// point-checked against `100 < x < 150`.
fn bench_point_check(c: &mut Criterion, w: &World) {
    let snap = MetaSnapshot::capture(&w.odms, &[w.energy, w.x]).unwrap();
    let replica = snap.sorted_replica(w.energy).unwrap();
    let band = replica.matching_span(&Interval::from_op(QueryOp::Gt, 1.5));
    let share = &replica.perm()[band.start as usize..band.end() as usize];
    let share: Vec<u64> = share.iter().copied().step_by(SERVERS as usize).collect();
    let candidates = Selection::from_unsorted_coords(share);
    let cost = cost(w.n);
    let ctx = EvalCtx {
        odms: &w.odms,
        snap: &snap,
        cost: &cost,
        strategy: Strategy::Adaptive,
        n_servers: SERVERS,
        n_slots: SERVERS,
        server: 0,
        scan_threads: 1,
        scan_kernels: true,
        use_cache: false,
        use_directory: true,
    };
    let mut state = ServerState::new(1 << 30);
    let iv = Interval::open(100.0, 150.0);
    let mut g = c.benchmark_group("hot_path_point_check");
    g.throughput(Throughput::Elements(candidates.num_runs() as u64));
    g.bench_function("fig4_candidates", |b| {
        b.iter(|| point_check(&ctx, &mut state, w.x, &iv, black_box(&candidates), None).unwrap())
    });
    g.finish();
}

/// `get_data(Energy)` on the sorted path (a wide and a narrow window)
/// and on the coordinate path.
fn bench_get_data(c: &mut Criterion, w: &World) {
    let sorted = engine(w, Strategy::SortedHistogram);
    let coord = engine(w, Strategy::Histogram);
    let cases = [
        ("sorted_wide", &sorted, PdcQuery::range_open(w.energy, 1.0f32, 3.0f32)),
        ("sorted_narrow", &sorted, PdcQuery::range_open(w.energy, 3.0f32, 3.1f32)),
        ("coord_wide", &coord, PdcQuery::range_open(w.x, 50.0f32, 150.0f32)),
        ("coord_narrow", &coord, PdcQuery::range_open(w.energy, 3.0f32, 3.1f32)),
    ];
    let mut g = c.benchmark_group("hot_path_get_data");
    for (name, eng, q) in cases {
        let out = eng.run(&q).unwrap();
        eng.get_data(&out, w.energy).unwrap(); // warm
        g.throughput(Throughput::Elements(out.nhits));
        g.bench_with_input(BenchmarkId::new("energy", name), &out, |b, out| {
            b.iter(|| eng.get_data(black_box(out), w.energy).unwrap())
        });
    }
    g.finish();
}

/// One server's share of a sorted band, cut into sorted-region slices and
/// materialized at once.
fn bench_sorted_materialization(c: &mut Criterion, w: &World) {
    let snap = MetaSnapshot::capture(&w.odms, &[w.energy]).unwrap();
    let replica = snap.sorted_replica(w.energy).unwrap();
    let mut g = c.benchmark_group("hot_path_sorted_materialization");
    for (name, iv) in [
        ("energy_gt_1.5", Interval::from_op(QueryOp::Gt, 1.5)),
        ("energy_3.0_3.1", Interval::open(3.0, 3.1)),
    ] {
        let band = replica.matching_span(&iv);
        let slices: Vec<&[u64]> = replica
            .regions_of_span(&band)
            .into_iter()
            .step_by(SERVERS as usize)
            .map(|r| {
                let span = replica.region_span(r);
                let lo = band.start.max(span.start) as usize;
                let hi = band.end().min(span.end()) as usize;
                &replica.perm()[lo..hi]
            })
            .collect();
        g.throughput(Throughput::Elements(slices.iter().map(|s| s.len() as u64).sum()));
        g.bench_with_input(BenchmarkId::new("one_pass", name), &slices, |b, s| {
            b.iter(|| Selection::from_unsorted_slices(black_box(s)))
        });
        g.bench_with_input(BenchmarkId::new("comparison_sort", name), &slices, |b, s| {
            b.iter(|| Selection::from_unsorted_coords(black_box(s).concat()))
        });
    }
    g.finish();
}

fn benches(c: &mut Criterion) {
    let w = world();
    bench_point_check(c, &w);
    bench_get_data(c, &w);
    bench_sorted_materialization(c, &w);
}

criterion_group!(hot_path, benches);
criterion_main!(hot_path);
