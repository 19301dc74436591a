//! The data, the query pools and the correctness oracle the workloads
//! share, plus the import and engine set-up they all use.

use crate::trace::Tracer;
use pdc_odms::{ImportOptions, Odms};
use pdc_query::{parse_query, EngineConfig, PdcQuery, QueryEngine, Strategy};
use pdc_storage::CostModel;
use pdc_types::{ObjectId, TypedVec};
use pdc_workloads::{multi_object_catalog, single_object_catalog, VpicConfig, VpicData};
use std::path::Path;
use std::sync::Arc;

/// Logical PDC servers.
pub const SERVERS: u32 = 8;
/// Region size: the repository's "best region size" (the paper's 32 MB).
pub const REGION_BYTES: u64 = 128 << 10;
/// Per-server region cache: larger than any world here, so a warm
/// engine never re-reads a region from the simulated PFS.
const CACHE_BYTES_PER_SERVER: u64 = 1 << 30;
/// Variable names in `VpicData::variables` order.
pub const VARS: [&str; 7] = ["Energy", "x", "y", "z", "Ux", "Uy", "Uz"];
pub const ENERGY: usize = 0;
/// Pairs with 2-D joint-occupancy grids, as in the pruning benchmark:
/// the Fig-4 conjunctions constrain Energy, x, y and z.
const JOINT_PAIRS: [(usize, usize); 3] = [(0, 1), (1, 2), (1, 3)];

/// The generated VPIC arrays for one seed.
pub fn generate(particles: usize, seed: u64) -> VpicData {
    VpicData::generate(&VpicConfig { particles, seed })
}

/// Borrow the seven variables in `VARS` order.
pub fn columns(data: &VpicData) -> [&[f32]; 7] {
    data.variables().map(|(_, v)| v.as_slice())
}

/// The cost model scaled to `particles` the way the figure harnesses
/// scale it (I/O by the data factor, CPU by the data factor corrected
/// for the 64-server paper deployment, regions 1:256).
pub fn cost_model(particles: usize) -> CostModel {
    let f = 125e9 / particles as f64;
    CostModel::scaled(f, f * SERVERS as f64 / 64.0, 256.0)
}

/// An imported world.
pub struct World {
    pub odms: Arc<Odms>,
    pub ids: [ObjectId; 7],
    /// Host CPU seconds inside `Odms::import_array`, per variable.
    pub import_secs: [f64; 7],
    /// Raw user bytes imported.
    pub import_bytes: u64,
}

/// Spill configuration of an out-of-core world.
pub struct Spill<'a> {
    pub dir: &'a Path,
    pub memory_budget: u64,
    pub block_cache_bytes: u64,
}

/// Import the first `n` elements of every variable with per-region
/// bitmap indexes on all of them and a sorted `Energy` replica, then
/// register the joint pairs. Spill, when given, is configured before
/// the import so the import itself runs under the memory budget.
pub fn import(data: &VpicData, n: usize, spill: Option<Spill>, tr: &mut Tracer) -> World {
    let odms = Arc::new(Odms::new(64));
    if let Some(s) = spill {
        odms.store()
            .configure_spill(s.dir, s.memory_budget, s.block_cache_bytes)
            .expect("configure spill directory");
    }
    let container = odms.create_container("vpic");
    let mut ids = [ObjectId::default(); 7];
    let mut import_secs = [0.0; 7];
    let mut import_bytes = 0;
    for (i, col) in columns(data).into_iter().enumerate() {
        let opts = ImportOptions {
            region_bytes: REGION_BYTES,
            build_index: true,
            build_sorted: i == ENERGY,
            ..Default::default()
        };
        let values = TypedVec::Float(col[..n].to_vec());
        let (report, took) = tr.time("odms.import_array", || {
            odms.import_array(container, VARS[i], values, &opts)
        });
        let report = report.expect("import a generated variable");
        ids[i] = report.object;
        import_secs[i] = took.as_secs_f64();
        import_bytes += report.data_bytes;
    }
    for (a, b) in JOINT_PAIRS {
        let (r, _) = tr.time("odms.register_joint_pair", || {
            odms.register_joint_pair(ids[a], ids[b])
        });
        r.expect("register an aligned joint pair");
    }
    World {
        odms,
        ids,
        import_secs,
        import_bytes,
    }
}

/// A query engine over a world.
pub fn engine(world: &World, strategy: Strategy, particles: usize) -> QueryEngine {
    QueryEngine::new(
        Arc::clone(&world.odms),
        EngineConfig {
            strategy,
            num_servers: SERVERS,
            cache_bytes_per_server: CACHE_BYTES_PER_SERVER,
            cost: cost_model(particles),
            ..Default::default()
        },
    )
}

/// Stored bytes per raw user byte: data and index payloads as stored
/// (spilled regions at their compressed size) plus the sorted replica.
pub fn bytes_per_user_byte(world: &World, raw_bytes: u64) -> f64 {
    let store = world.odms.store();
    let logical: u64 = store.bytes_by_tier().values().sum();
    let (spilled_raw, spilled_comp) = store
        .spill_stats()
        .map_or((0, 0), |s| (s.spilled_raw_bytes, s.spilled_comp_bytes));
    let sorted = pdc_query::MetaSnapshot::capture(&world.odms, &[world.ids[ENERGY]])
        .and_then(|s| s.sorted_replica(world.ids[ENERGY]))
        .map_or(0, |r| r.size_bytes(4));
    (logical - spilled_raw + spilled_comp + sorted) as f64 / raw_bytes as f64
}

/// One open-interval constraint `lo < var < hi` (either side optional).
#[derive(Debug, Clone, Copy)]
pub struct Constraint {
    pub var: usize,
    pub lo: Option<f32>,
    pub hi: Option<f32>,
}

impl Constraint {
    fn holds(&self, v: f32) -> bool {
        self.lo.is_none_or(|lo| v > lo) && self.hi.is_none_or(|hi| v < hi)
    }

    fn text(&self) -> String {
        let name = VARS[self.var];
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) => format!("{lo} < {name} < {hi}"),
            (Some(lo), None) => format!("{name} > {lo}"),
            (None, Some(hi)) => format!("{name} < {hi}"),
            (None, None) => unreachable!("a constraint bounds at least one side"),
        }
    }
}

/// A query as its user writes it, plus the conjunction the oracle
/// evaluates independently of the engine.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    pub text: String,
    pub constraints: Vec<Constraint>,
}

impl PoolQuery {
    fn new(constraints: Vec<Constraint>) -> Self {
        let text = constraints
            .iter()
            .map(Constraint::text)
            .collect::<Vec<_>>()
            .join(" AND ");
        PoolQuery { text, constraints }
    }

    /// Parse the query text against the world's metadata.
    pub fn parse(&self, odms: &Odms) -> PdcQuery {
        parse_query(&self.text, odms).expect("pool queries are well formed")
    }
}

fn range(var: usize, lo: f32, hi: f32) -> Constraint {
    Constraint {
        var,
        lo: Some(lo),
        hi: Some(hi),
    }
}

/// The 15 Fig-3 windows on `Energy`.
pub fn fig3() -> Vec<PoolQuery> {
    single_object_catalog()
        .iter()
        .map(|s| PoolQuery::new(vec![range(ENERGY, s.lo, s.hi)]))
        .collect()
}

/// The 6 Fig-4 conjunctions on `(Energy, x, y, z)`.
pub fn fig4() -> Vec<PoolQuery> {
    multi_object_catalog()
        .iter()
        .map(|s| {
            PoolQuery::new(vec![
                Constraint {
                    var: ENERGY,
                    lo: Some(s.energy_gt),
                    hi: None,
                },
                range(1, s.x_lo, s.x_hi),
                range(2, s.y_lo, s.y_hi),
                range(3, s.z_lo, s.z_hi),
            ])
        })
        .collect()
}

/// The paper's traffic: Fig-3 and Fig-4 queries plus two wide windows.
pub fn paper_pool() -> Vec<PoolQuery> {
    let mut pool = fig3();
    pool.extend(fig4());
    pool.push(PoolQuery::new(vec![range(ENERGY, 1.0, 3.0)]));
    pool.push(PoolQuery::new(vec![range(1, 50.0, 150.0)]));
    pool
}

/// Six overlapping `Energy` tail windows (a dashboard refreshing views
/// that share most of their regions).
pub fn tail_windows() -> Vec<PoolQuery> {
    (0..6)
        .map(|j| {
            let lo = 2.0 + 0.15 * j as f32;
            PoolQuery::new(vec![range(ENERGY, lo, lo + 0.25)])
        })
        .collect()
}

/// What a correct answer holds: the hit count and the sum, in coordinate
/// order, of the hits' `Energy` values (what `get_data(Energy)` returns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Expected {
    pub hits: u64,
    pub energy_sum: f64,
    /// Elements evaluated so far (the prefix the answer covers).
    pub upto: usize,
}

impl Expected {
    /// Extend the naive filter to the prefix `[0, to)`. The running sum
    /// continues in coordinate order, so it stays bit-identical to a
    /// sequential sum of the engine's `get_data` values.
    pub fn advance(&mut self, cols: &[&[f32]; 7], q: &PoolQuery, to: usize) {
        for (i, &energy) in cols[ENERGY].iter().enumerate().take(to).skip(self.upto) {
            if q.constraints.iter().all(|c| c.holds(cols[c.var][i])) {
                self.hits += 1;
                self.energy_sum += energy as f64;
            }
        }
        self.upto = self.upto.max(to);
    }

    /// The naive answer over the prefix `[0, n)`.
    pub fn over(cols: &[&[f32]; 7], q: &PoolQuery, n: usize) -> Expected {
        let mut e = Expected::default();
        e.advance(cols, q, n);
        e
    }
}

/// Sum of `get_data(Energy)` values, in the order returned.
pub fn energy_sum(data: &TypedVec) -> f64 {
    match data {
        TypedVec::Float(v) => v.iter().map(|&x| x as f64).sum(),
        other => panic!("Energy is f32, got {:?}", other.pdc_type()),
    }
}
