//! `paper-mix`: the paper's traffic on a resident world.
//!
//! One closed-loop client on 2M particles × 7 f32 variables, bitmap
//! indexes on every variable, a sorted `Energy` replica and region caches
//! larger than the data, under PDC-A. The stream is a seeded uniform
//! draw over the 15 Fig-3 windows, the 6 Fig-4 conjunctions and two wide
//! windows; each query is followed by `get_data(Energy)`. No spill is
//! configured, so the blockstore does no work.

use crate::closed_loop::{op, Deck, OpRecord};
use crate::host::CpuInstant;
use crate::layers::{Layers, ReplayCache};
use crate::report::{mean, EndToEnd};
use crate::trace::Tracer;
use crate::world::{self, Expected, ENERGY};
use crate::{Args, Outcome, TempDir};
use pdc_query::Strategy;
use std::collections::BTreeSet;
use std::time::Instant;

pub const PARTICLES: usize = 2_000_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Untraced runs measure at least this many operations, so p99 rests on
/// at least ten samples beyond it.
pub const MIN_OPS: usize = 1000;
/// Simulated metrics are taken over this prefix of the stream (44 whole
/// decks of the 23-query pool), which every untraced run completes: they
/// repeat exactly for a seed.
pub const SIM_OPS: usize = 44 * 23;
const STREAM_SALT: u64 = 0x7A9E_12F3_0000_0001;

pub fn run(args: &Args, tr: &mut Tracer, _scratch: &TempDir) -> Result<Outcome, String> {
    let pool = world::paper_pool();
    let mut layers = Layers::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take()); // free the previous world before building the next
        tr.set_recording(args.trace);
        let root = tr.open_op("setup");
        let t0 = CpuInstant::now();
        let data = world::generate(PARTICLES, args.seed);
        let w = world::import(&data, PARTICLES, None, tr);
        let eng = world::engine(&w, Strategy::Adaptive, PARTICLES);
        let parsed: Vec<_> = pool.iter().map(|q| q.parse(&w.odms)).collect();
        for q in &parsed {
            let out = eng.run(q).expect("warm-up query");
            eng.get_data(&out, w.ids[ENERGY]).expect("warm-up get_data");
        }
        setups.push(t0.elapsed().as_secs_f64());
        tr.close(root);
        layers.import(&w);
        kept = Some((data, w, eng, parsed));
    }
    let (data, w, eng, parsed) = kept.expect("at least one set-up");
    let cols = world::columns(&data);
    let expected: Vec<Expected> = pool
        .iter()
        .map(|q| Expected::over(&cols, q, PARTICLES))
        .collect();

    let mut deck = Deck::new(args.seed, STREAM_SALT, pool.len());
    let mut replay = ReplayCache::default();
    let mut records: Vec<OpRecord> = Vec::new();
    let mut errors = 0u64;
    let budget = args.seconds;
    let start = Instant::now();
    let cpu_start = CpuInstant::now();
    loop {
        let done = records.len() + errors as usize;
        let elapsed = start.elapsed().as_secs_f64();
        let enough = args.trace || (done >= MIN_OPS.max(SIM_OPS) && deck.at_deck_end());
        if elapsed >= budget && enough {
            break;
        }
        // A traced run measures its first half untraced: the baseline
        // of the tracing overhead.
        tr.set_recording(args.trace && elapsed >= budget / 2.0);
        let qi = deck.deal();
        match op(
            tr,
            &mut layers,
            &eng,
            &w,
            &cols,
            &pool,
            &parsed,
            qi,
            &mut replay,
        ) {
            Ok(r) => records.push(r),
            Err(e) => {
                eprintln!("query {:?} failed: {e}", pool[qi].text);
                errors += 1;
            }
        }
    }
    let timed = cpu_start.elapsed().as_secs_f64();
    tr.set_recording(false);

    let wrong = records
        .iter()
        .filter(|r| !r.matches(&expected[r.query]))
        .count() as u64;
    for r in records.iter().filter(|r| !r.matches(&expected[r.query])) {
        eprintln!(
            "MISMATCH {:?}: {} hits, expected {:?}",
            pool[r.query].text, r.nhits, expected[r.query]
        );
    }
    let attempted = records.len() as u64 + errors;
    let failed = errors + wrong;

    // Guards: no blockstore activity; PDC-A uses at least three of the
    // four operators over the pool.
    let mut kinds = BTreeSet::new();
    for q in &parsed {
        let (_, plan) = eng.explain(q).expect("explain a pool query");
        for row in &plan.regions {
            kinds.insert(if row.pruned { "prune" } else { row.op.label() });
        }
    }
    let spill = w.odms.store().spill_stats();
    let guards = vec![
        (
            format!("blockstore idle (spill configured: {})", spill.is_some()),
            spill.is_none(),
        ),
        (
            format!("PDC-A operator kinds >= 3 ({kinds:?})"),
            kinds.len() >= 3,
        ),
    ];

    let metrics = if args.trace {
        layers.histogram_replay(tr, &w, &cols);
        let batch = eng.run_batch(&parsed).expect("run_batch over the pool");
        layers.plan_hit_ratio = batch.stats.plan_hit_ratio();
        layers.artifact_hit_ratio = batch.stats.artifact_hit_ratio();
        layers.prewarm_regions = batch.stats.prewarm_regions;
        layers.metrics(tr.num_spans())
    } else {
        let sim: Vec<f64> = records.iter().take(SIM_OPS).map(|r| r.sim_s).collect();
        EndToEnd {
            setup_s: setups,
            query_ms: records.iter().map(|r| r.host_ms).collect(),
            host_qps: records.len() as f64 / timed,
            sim_max_rate_qps: 1.0 / mean(&sim),
            sim_s: sim,
            ingest_mb_s: layers.import_mb_s(),
            ok_frac: (attempted - failed) as f64 / attempted as f64,
            bytes_per_user_byte: world::bytes_per_user_byte(&w, w.import_bytes),
        }
        .metrics()
    };
    Ok(Outcome {
        metrics,
        attempted,
        errors,
        wrong,
        guards,
    })
}
