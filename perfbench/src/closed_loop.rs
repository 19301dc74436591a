//! The closed-loop user operation shared by `paper-mix` and
//! `ingest-outofcore`: one client runs a query, then fetches the hits'
//! `Energy` values, then sends the next query.

use crate::layers::{Layers, ReplayCache};
use crate::trace::Tracer;
use crate::world::{Expected, PoolQuery, World};
use pdc_query::{PdcQuery, QueryEngine};
use pdc_types::PdcResult;

/// What one operation returned and cost.
pub struct OpRecord {
    pub query: usize,
    /// Host CPU time of `run` + `get_data`.
    pub host_ms: f64,
    /// Simulated latency of the query (`QueryOutcome::elapsed`).
    pub sim_s: f64,
    pub nhits: u64,
    pub data_len: u64,
    pub energy_sum: f64,
    /// The primary object's extent at plan time.
    pub planned: u64,
    pub aux_rebuilds: u64,
}

impl OpRecord {
    /// Whether the engine's answer matches the naive filter.
    pub fn matches(&self, e: &Expected) -> bool {
        self.nhits == e.hits && self.data_len == e.hits && self.energy_sum == e.energy_sum
    }
}

/// A seeded query stream over a pool, dealt in decks: each deck is a
/// fresh shuffle of the whole pool. Every query then has the same share
/// of a run, so percentiles over a mix whose queries differ a
/// hundredfold in cost do not move with the seed's luck of the draw.
pub struct Deck {
    state: u64,
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(seed: u64, salt: u64, pool: usize) -> Self {
        Deck {
            state: seed ^ salt,
            order: (0..pool).collect(),
            next: pool,
        }
    }

    pub fn deal(&mut self) -> usize {
        if self.next == self.order.len() {
            // Fisher-Yates, driven by splitmix64.
            for i in (1..self.order.len()).rev() {
                let j = (pdc_query::splitmix64(&mut self.state) % (i as u64 + 1)) as usize;
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }

    /// Whether the current deck is fully dealt.
    pub fn at_deck_end(&self) -> bool {
        self.next == self.order.len()
    }
}

/// Run query `qi` and fetch its data. A traced operation also records
/// its spans and runs the layer probes under its root span.
#[allow(clippy::too_many_arguments)]
pub fn op(
    tr: &mut Tracer,
    layers: &mut Layers,
    eng: &QueryEngine,
    world: &World,
    cols: &[&[f32]; 7],
    pool: &[PoolQuery],
    parsed: &[PdcQuery],
    qi: usize,
    replay: &mut ReplayCache,
) -> PdcResult<OpRecord> {
    let traced = tr.recording();
    let root = tr.open_op("op");
    let query = if traced {
        let (q, took) = tr.time("core.plan.parse_query", || pool[qi].parse(&world.odms));
        layers.parse_us.push(took.as_secs_f64() * 1e6);
        q
    } else {
        parsed[qi].clone()
    };
    let (out, run_took) = tr.time("core.engine.run", || eng.run(&query));
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            tr.close(root);
            return Err(e);
        }
    };
    let (energy_sum, data_len, get_took) = match layers.get_data(tr, eng, &out, world) {
        Ok(g) => g,
        Err(e) => {
            tr.close(root);
            return Err(e);
        }
    };
    let user_us = (run_took + get_took).as_secs_f64() * 1e6;
    layers.user_us.push((qi, traced, user_us));
    if traced {
        layers.outcome(&out);
        layers.probe(tr, eng, world, cols, &query, replay);
    }
    tr.close(root);
    Ok(OpRecord {
        query: qi,
        host_ms: user_us / 1e3,
        sim_s: out.elapsed.as_secs_f64(),
        nhits: out.nhits,
        data_len,
        energy_sum,
        planned: out.planned_elements,
        aux_rebuilds: out.integrity.aux_rebuilds,
    })
}
