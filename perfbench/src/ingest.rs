//! `ingest-outofcore`: writes beside reads on a store larger than its
//! memory budget.
//!
//! One closed-loop client grows a world from 1Mi to 3Mi particles by
//! `append_array` batches of 64Ki elements on all seven variables. Each
//! batch is followed by 16 queries of the `paper-mix` pool (each with its
//! `get_data(Energy)`), and deferred index maintenance runs every few
//! batches. Strategy PDC-HI. The store's
//! memory budget is a quarter of the final raw bytes and the block cache
//! is smaller than the decoded working set, so regions demote, fault in
//! and evict. One growth from 1Mi to 3Mi is an episode; a run makes at
//! least three, each on a fresh world, and more until its time is used.

use crate::closed_loop::{op, OpRecord};
use crate::host::CpuInstant;
use crate::layers::{Layers, ReplayCache};
use crate::report::{mean, EndToEnd};
use crate::trace::Tracer;
use crate::world::{self, Expected, Spill, World, ENERGY};
use crate::{Args, Outcome, TempDir};
use pdc_query::{QueryEngine, Strategy};
use pdc_types::TypedVec;
use std::time::Instant;

const INITIAL: usize = 1 << 20;
const BATCH: usize = 1 << 16;
const BATCHES: usize = 32;
pub const FINAL: usize = INITIAL + BATCH * BATCHES;
const MAINTENANCE_EVERY: usize = 4;
/// Raw bytes of the final world: 7 f32 variables.
const FINAL_RAW_BYTES: u64 = (FINAL * 7 * 4) as u64;
const MEMORY_BUDGET: u64 = FINAL_RAW_BYTES / 4;
/// Eight decoded 128 KiB blocks: smaller than the blocks the scans of
/// spilled regions touch in one episode (about 14), so blocks evict.
const BLOCK_CACHE_BYTES: u64 = 1 << 20;
/// Episodes per run at least (`setup_s` is the median of their set-ups).
const MIN_EPISODES: usize = 4;
/// Fig-3 windows per batch, rotating through all 15.
const FIG3_PER_BATCH: usize = 8;

/// Everything one episode measured.
#[derive(Default)]
struct Episode {
    setup_s: f64,
    records: Vec<OpRecord>,
    /// Queries run, warm-up included.
    attempted: u64,
    errors: u64,
    wrong: u64,
    /// Host CPU seconds of the timed phase: appends, maintenance, queries.
    timed_s: f64,
    /// Wall seconds of the timed phase (what `--seconds` bounds).
    wall_s: f64,
    write_s: f64,
    appended_bytes: u64,
    bytes_per_user_byte: f64,
    demotions: u64,
    fault_ins: u64,
    evictions: u64,
}

pub fn run(args: &Args, tr: &mut Tracer, scratch: &TempDir) -> Result<Outcome, String> {
    // One worker thread: two server threads that seal regions at once can
    // demote the same region and fail the query (README: known defect),
    // at a rate that differs from run to run.
    crate::host::one_cpu();
    let pool = world::paper_pool();
    assert_eq!(
        pool.len(),
        23,
        "batch_queries indexes the 15 + 6 + 2 paper pool"
    );
    let mut layers = Layers::default();
    let mut episodes: Vec<Episode> = Vec::new();
    let (mut timed, mut wall) = (0.0, 0.0);
    while episodes.len() < MIN_EPISODES || wall < args.seconds {
        let dir = scratch.path().join(format!("episode-{}", episodes.len()));
        let ep = episode(args, tr, &mut layers, &pool, &dir, episodes.len());
        let _ = std::fs::remove_dir_all(&dir);
        timed += ep.timed_s;
        wall += ep.wall_s;
        episodes.push(ep);
    }

    let first = &episodes[0];
    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let errors: u64 = episodes.iter().map(|e| e.errors).sum();
    let wrong: u64 = episodes.iter().map(|e| e.wrong).sum();
    let failed = errors + wrong;
    let aux_rebuilds: u64 = first.records.iter().map(|r| r.aux_rebuilds).sum();
    let guards = vec![
        (
            format!("demotions > 0 ({})", first.demotions),
            first.demotions > 0,
        ),
        (
            format!("fault-ins > 0 ({})", first.fault_ins),
            first.fault_ins > 0,
        ),
        (
            format!("block-cache evictions > 0 ({})", first.evictions),
            first.evictions > 0,
        ),
        (
            format!("aux rebuilds > 0 ({aux_rebuilds})"),
            aux_rebuilds > 0,
        ),
    ];

    let metrics = if args.trace {
        layers.metrics(tr.num_spans())
    } else {
        let queries: usize = episodes.iter().map(|e| e.records.len()).sum();
        let sim: Vec<f64> = first.records.iter().map(|r| r.sim_s).collect();
        let write_s: f64 = episodes.iter().map(|e| e.write_s).sum();
        let appended: u64 = episodes.iter().map(|e| e.appended_bytes).sum();
        EndToEnd {
            setup_s: episodes.iter().map(|e| e.setup_s).collect(),
            query_ms: episodes
                .iter()
                .flat_map(|e| e.records.iter().map(|r| r.host_ms))
                .collect(),
            host_qps: queries as f64 / timed,
            sim_max_rate_qps: 1.0 / mean(&sim),
            sim_s: sim,
            ingest_mb_s: appended as f64 / 1e6 / write_s,
            ok_frac: (attempted - failed) as f64 / attempted as f64,
            bytes_per_user_byte: first.bytes_per_user_byte,
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

/// Set up a fresh 1Mi world and grow it to 3Mi. Episode `k > 0` draws
/// its data from a seed derived from the run's seed and `k`: whether a
/// narrow tail window holds a block of hits, and whether its regions are
/// spilled, moves a query's host cost several-fold between datasets, so a
/// run averages over four. The first episode of a traced run records
/// spans and feeds the per-layer metrics; the later ones run the same
/// queries untraced, the baseline of the tracing overhead.
fn episode(
    args: &Args,
    tr: &mut Tracer,
    layers: &mut Layers,
    pool: &[world::PoolQuery],
    spill_dir: &std::path::Path,
    k: usize,
) -> Episode {
    let traced = args.trace && k == 0;
    tr.set_recording(traced);
    let root = tr.open_op("setup");
    let t0 = CpuInstant::now();
    // Episode k draws the k-th output of a splitmix64 stream seeded by
    // the run's seed, so nearby run seeds share no dataset.
    let seed = match k {
        0 => args.seed,
        _ => {
            let mut state = args.seed;
            (0..k).fold(0, |_, _| pdc_query::splitmix64(&mut state))
        }
    };
    let data = world::generate(FINAL, seed);
    let spill = Spill {
        dir: spill_dir,
        memory_budget: MEMORY_BUDGET,
        block_cache_bytes: BLOCK_CACHE_BYTES,
    };
    let w = world::import(&data, INITIAL, Some(spill), tr);
    let eng = world::engine(&w, Strategy::HistogramIndex, FINAL);
    let parsed: Vec<_> = pool.iter().map(|q| q.parse(&w.odms)).collect();
    // A typed error, the warm-up's too, is counted rather than
    // aborting the run.
    let mut warm_errors = 0;
    for q in &parsed {
        if let Err(e) = eng.run(q).and_then(|out| eng.get_data(&out, w.ids[ENERGY])) {
            eprintln!("warm-up query failed: {e}");
            warm_errors += 1;
        }
    }
    let mut ep = Episode {
        setup_s: t0.elapsed().as_secs_f64(),
        attempted: parsed.len() as u64,
        errors: warm_errors,
        ..Default::default()
    };
    tr.close(root);
    if traced {
        layers.import(&w);
    }
    let store = w.odms.store();
    let before = store.spill_stats().expect("spill is configured");

    let cols = world::columns(&data);
    let mut replay = ReplayCache::default();
    for b in 0..BATCHES {
        let lo = INITIAL + b * BATCH;
        let deltas: Vec<TypedVec> = cols
            .iter()
            .map(|c| TypedVec::Float(c[lo..lo + BATCH].to_vec()))
            .collect();
        let (t, wall) = (CpuInstant::now(), Instant::now());
        tr.set_recording(traced);
        let root = tr.open_op("append_batch");
        for (v, delta) in deltas.iter().enumerate() {
            let (r, _) = tr.time("odms.append_array", || w.odms.append_array(w.ids[v], delta));
            r.expect("append a batch");
        }
        let append_s = tr.close(root).as_secs_f64();
        ep.appended_bytes += (BATCH * 7 * 4) as u64;
        let mut write_s = append_s;
        if (b + 1) % MAINTENANCE_EVERY == 0 {
            let root = tr.open_op("maintenance");
            let (r, took) = tr.time("odms.run_deferred_maintenance", || {
                w.odms.run_deferred_maintenance()
            });
            r.expect("deferred maintenance");
            tr.close(root);
            write_s += took.as_secs_f64();
            if traced {
                layers.maintenance_s.push(took.as_secs_f64());
            }
        }
        if traced {
            layers.append_s.push(append_s);
        }
        ep.write_s += write_s;
        for qi in batch_queries(b) {
            tr.set_recording(traced);
            ep.attempted += 1;
            match op(tr, layers, &eng, &w, &cols, pool, &parsed, qi, &mut replay) {
                Ok(r) => ep.records.push(r),
                Err(e) => {
                    eprintln!("query {:?} failed: {e}", pool[qi].text);
                    ep.errors += 1;
                }
            }
        }
        ep.timed_s += t.elapsed().as_secs_f64();
        ep.wall_s += wall.elapsed().as_secs_f64();
    }
    tr.set_recording(false);

    let after = store.spill_stats().expect("spill is configured");
    ep.demotions = after.demotions - before.demotions;
    ep.fault_ins = after.fault_ins - before.fault_ins;
    ep.evictions = after.block_cache.evictions - before.block_cache.evictions;
    ep.bytes_per_user_byte = world::bytes_per_user_byte(&w, FINAL_RAW_BYTES);
    ep.wrong = check(&ep.records, pool, &cols);
    if traced {
        layers.demotions = ep.demotions;
        layers.fault_ins = ep.fault_ins;
        layers.block_cache_evictions = ep.evictions;
        layers.compression_ratio = after.compression_ratio();
        layers.resident_high_water = after.resident_high_water;
        let (hits, misses) = (
            after.block_cache.hits - before.block_cache.hits,
            after.block_cache.misses - before.block_cache.misses,
        );
        layers.block_cache_hit_rate = crate::report::ratio(hits as f64, (hits + misses) as f64);
        finish_trace(tr, layers, &eng, &w, &cols, &parsed);
    }
    ep
}

/// The queries that follow batch `b`, in a fixed order: both wide
/// windows, all six Fig-4 conjunctions and eight of the fifteen Fig-3
/// windows, rotating. Every batch has the same mix, and the first query
/// after an append, which pays the new regions' cold reads, is always the
/// same one (a seeded order moved the simulated p99 by 27 % between
/// seeds).
fn batch_queries(b: usize) -> Vec<usize> {
    let (fig3, fig4, wide) = (0..15, 15..21, 21..23);
    let mut qs: Vec<usize> = wide.chain(fig4).collect();
    qs.extend((0..FIG3_PER_BATCH).map(|j| fig3.start + (FIG3_PER_BATCH * b + j) % fig3.len()));
    qs
}

/// Check every answer against the naive filter over the prefix its
/// query planned against. Within an episode extents only grow, so each
/// query's filter advances incrementally.
fn check(records: &[OpRecord], pool: &[world::PoolQuery], cols: &[&[f32]; 7]) -> u64 {
    let mut expected = vec![Expected::default(); pool.len()];
    let mut wrong = 0;
    for r in records {
        let e = &mut expected[r.query];
        assert!(
            r.planned as usize >= e.upto,
            "extents only grow within an episode"
        );
        e.advance(cols, &pool[r.query], r.planned as usize);
        if !r.matches(e) {
            eprintln!(
                "MISMATCH {:?} at extent {}: {} hits, expected {e:?}",
                pool[r.query].text, r.planned, r.nhits
            );
            wrong += 1;
        }
    }
    wrong
}

/// End-of-run layer replays of a traced episode.
fn finish_trace(
    tr: &mut Tracer,
    layers: &mut Layers,
    eng: &QueryEngine,
    w: &World,
    cols: &[&[f32]; 7],
    parsed: &[pdc_query::PdcQuery],
) {
    layers.histogram_replay(tr, w, cols);
    match eng.run_batch(parsed) {
        Ok(batch) => {
            layers.plan_hit_ratio = batch.stats.plan_hit_ratio();
            layers.artifact_hit_ratio = batch.stats.artifact_hit_ratio();
            layers.prewarm_regions = batch.stats.prewarm_regions;
        }
        Err(e) => eprintln!("cache counters unread: run_batch failed: {e}"),
    }
}
