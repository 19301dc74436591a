//! Pins everything a client can observe of a fixed query set under every
//! strategy, on a resident and on a spilled world: the selections, each
//! `QueryOutcome` (simulated elapsed time, breakdown, work and IO
//! counters), `explain`, `get_data`, `get_data_batch` and `run_batch`.
//!
//! Host-side bookkeeping may be rewritten freely (DESIGN.md §5l); what it
//! produces and the simulated charges may not move. A change that alters
//! a simulated charge on purpose updates the pinned digests below and
//! says why.

use pdc_odms::{ImportOptions, Odms};
use pdc_query::{EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_storage::CostModel;
use pdc_types::{NdRegion, ObjectId, QueryOp, TypedVec};
use std::sync::Arc;

const N: usize = 40_000;

/// FNV-1a over a value's `Debug` text: stable across toolchains, unlike
/// `DefaultHasher`.
fn digest<T: std::fmt::Debug>(acc: &mut u64, x: &T) {
    for b in format!("{x:?}").bytes() {
        *acc ^= u64::from(b);
        *acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Deterministic uniform draws in [0, 1).
fn uniform(seed: u64) -> impl Iterator<Item = f32> {
    let mut s = seed;
    std::iter::repeat_with(move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z >> 40) as f32 / (1u64 << 24) as f32
    })
}

/// Energy (skewed towards 0, as in VPIC), x, y and z, with bitmap
/// indexes, sorted replicas on Energy and x, and a joint grid on
/// (Energy, x).
fn world(spill_dir: Option<&std::path::Path>) -> (Arc<Odms>, [ObjectId; 4]) {
    let odms = Arc::new(Odms::new(64));
    if let Some(dir) = spill_dir {
        odms.store().configure_spill(dir, 96 << 10, 32 << 10).unwrap();
    }
    let c = odms.create_container("digest");
    let cols: [Vec<f32>; 4] = [
        uniform(1).take(N).map(|u| 4.0 * u * u).collect(),
        uniform(2).take(N).map(|u| 300.0 * u).collect(),
        uniform(3).take(N).map(|u| 300.0 * u - 150.0).collect(),
        uniform(4).take(N).map(|u| 200.0 * u).collect(),
    ];
    let ids: Vec<ObjectId> = cols
        .into_iter()
        .enumerate()
        .map(|(i, col)| {
            let opts = ImportOptions {
                region_bytes: 8 << 10,
                build_index: true,
                build_sorted: i < 2,
                ..Default::default()
            };
            odms.import_array(c, &format!("v{i}"), TypedVec::Float(col), &opts).unwrap().object
        })
        .collect();
    odms.register_joint_pair(ids[0], ids[1]).unwrap();
    (odms, [ids[0], ids[1], ids[2], ids[3]])
}

fn queries([e, x, y, z]: [ObjectId; 4]) -> Vec<PdcQuery> {
    let mut qs: Vec<PdcQuery> = [(1.1f32, 1.2f32), (2.0, 2.1), (3.5, 3.6), (1.0, 3.0), (0.0, 10.0)]
        .into_iter()
        .map(|(lo, hi)| PdcQuery::range_open(e, lo, hi))
        .collect();
    qs.push(PdcQuery::create(e, QueryOp::Gt, 3.0f32));
    qs.push(PdcQuery::range_open(x, 50.0f32, 150.0f32));
    qs.push(
        PdcQuery::create(e, QueryOp::Gt, 1.5f32)
            .and(PdcQuery::range_open(x, 100.0f32, 150.0f32))
            .and(PdcQuery::range_open(y, -90.0f32, 0.0f32))
            .and(PdcQuery::range_open(z, 0.0f32, 66.0f32)),
    );
    qs.push(
        PdcQuery::create(e, QueryOp::Gt, 2.0f32).and(PdcQuery::range_open(x, 100.0f32, 200.0f32)),
    );
    qs.push(
        PdcQuery::range_open(x, 100.0f32, 110.0f32).and(PdcQuery::create(e, QueryOp::Gt, 1.2f32)),
    );
    qs.push(PdcQuery::create(e, QueryOp::Lt, 0.01f32).or(PdcQuery::create(e, QueryOp::Gt, 3.9f32)));
    qs.push(PdcQuery::range_open(e, 1.5f32, 2.5f32).set_region(NdRegion::one_d(5_000, 20_000)));
    qs
}

/// One digest per strategy, over both planner orders.
fn digests(odms: &Arc<Odms>, ids: [ObjectId; 4]) -> Vec<(String, u64)> {
    let qs = queries(ids);
    let f = 125e9 / N as f64;
    let strategies = [
        Strategy::FullScan,
        Strategy::Histogram,
        Strategy::HistogramIndex,
        Strategy::SortedHistogram,
        Strategy::Adaptive,
    ];
    strategies
        .into_iter()
        .map(|strategy| {
            let mut acc = 0xcbf2_9ce4_8422_2325;
            for order_by_selectivity in [true, false] {
                let eng = QueryEngine::new(
                    Arc::clone(odms),
                    EngineConfig {
                        strategy,
                        num_servers: 8,
                        order_by_selectivity,
                        cost: CostModel::scaled(f, f * 8.0 / 64.0, 256.0),
                        ..Default::default()
                    },
                );
                for q in &qs {
                    let out = eng.run(q).unwrap();
                    digest(&mut acc, &out);
                    digest(&mut acc, &eng.explain(q).unwrap());
                    digest(&mut acc, &eng.get_data(&out, ids[0]).unwrap());
                    digest(&mut acc, &eng.get_data(&out, ids[1]).unwrap());
                    digest(&mut acc, &eng.get_data_batch(&out, ids[0], 777).unwrap());
                }
                digest(&mut acc, &eng.run_batch(&qs).unwrap().outcomes);
            }
            (strategy.to_string(), acc)
        })
        .collect()
}

fn pinned(table: &[(&str, u64)]) -> Vec<(String, u64)> {
    table.iter().map(|&(s, d)| (s.to_string(), d)).collect()
}

#[test]
fn resident_outcomes_match_pinned_digests() {
    let (odms, ids) = world(None);
    assert_eq!(
        digests(&odms, ids),
        pinned(&[
            ("PDC-F", 4639451498556067214),
            ("PDC-H", 7692467612159195911),
            ("PDC-HI", 10384128751059582706),
            ("PDC-SH", 13624848031094321022),
            ("PDC-A", 14935820096207056036),
        ])
    );
}

#[test]
fn spilled_outcomes_match_pinned_digests() {
    let dir = std::env::temp_dir().join(format!("pdc_digest_{}", std::process::id()));
    let (odms, ids) = world(Some(&dir));
    assert!(odms.store().spill_stats().unwrap().demotions > 0, "the world must spill");
    let got = digests(&odms, ids);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        got,
        pinned(&[
            ("PDC-F", 11349120994362612604),
            ("PDC-H", 3601502537912132963),
            ("PDC-HI", 15044843625694310052),
            ("PDC-SH", 3360268188856993685),
            ("PDC-A", 4375291532841112759),
        ])
    );
}
