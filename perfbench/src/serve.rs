//! `serve-tenants`: three tenants served open-loop by
//! `QueryEngine::serve` on the resident 2M world, under PDC-H.
//!
//! Arrivals are Poisson in simulated time. `dash` (weight 2) sends
//! overlapping `Energy` tail windows, `explore` (weight 1) the Fig-4
//! conjunctions, and `flood` sends tail windows at 8× the rate of each
//! of the others, with a tight admission budget and a short queue. The
//! well-behaved pair is offered three fixed loads, as fractions of 1/E
//! where E is the mean solo warm simulated latency of their queries.
//! Only this workload exercises the scheduler, admission control, the
//! shared-scan groups and the artifact cache.

use crate::host::CpuInstant;
use crate::layers::{Layers, ReplayCache};
use crate::report::{median, percentile, EndToEnd};
use crate::trace::Tracer;
use crate::world::{self, Expected, PoolQuery, World};
use crate::{Args, Outcome, TempDir};
use pdc_blockstore::Fnv1a;
use pdc_query::{
    poisson_times, splitmix64, Arrival, GroupStats, PdcQuery, QueryEngine, ServiceConfig,
    ServiceReport, ServiceStats, Strategy, TenantSpec,
};
use pdc_storage::{CostBreakdown, SimDuration};
use pdc_types::Selection;
use std::time::Instant;

const PARTICLES: usize = 2_000_000;
const SETUPS: usize = 5;
/// Offered load of `dash` and `explore` together, in units of 1/E.
const LOADS: [f64; 3] = [0.1, 0.25, 0.5];
/// The load whose latencies the `sim_*` percentiles report.
const MIDDLE: usize = 1;
/// Simulated horizon of every load, in units of E.
const HORIZON_E: f64 = 3600.0;
/// Flood rate as a multiple of one well-behaved tenant's rate.
const FLOOD_X: f64 = 8.0;
const FLOOD_BUDGET_E: f64 = 1.5;
const FLOOD_QUEUE_CAP: usize = 3;
/// Well-behaved tenants are not meant to hit admission control.
const GENEROUS_BUDGET_E: f64 = 1000.0;
const GENEROUS_QUEUE_CAP: usize = 64;
/// `sim_max_rate_qps` is the highest load whose well-behaved p99 stays
/// within this many E, with the last completion no later than this past
/// the horizon (no backlog left).
pub const P99_LIMIT_E: f64 = 10.0;

struct Tenant {
    name: &'static str,
    weight: u32,
    /// Arrival rate relative to one well-behaved tenant's.
    rate_x: f64,
    budget_e: f64,
    queue_cap: usize,
    /// Indices into the pool.
    queries: std::ops::Range<usize>,
}

fn tenants() -> [Tenant; 3] {
    [
        Tenant {
            name: "dash",
            weight: 2,
            rate_x: 1.0,
            budget_e: GENEROUS_BUDGET_E,
            queue_cap: GENEROUS_QUEUE_CAP,
            queries: 0..6,
        },
        Tenant {
            name: "explore",
            weight: 1,
            rate_x: 1.0,
            budget_e: GENEROUS_BUDGET_E,
            queue_cap: GENEROUS_QUEUE_CAP,
            queries: 6..12,
        },
        Tenant {
            name: "flood",
            weight: 1,
            rate_x: FLOOD_X,
            budget_e: FLOOD_BUDGET_E,
            queue_cap: FLOOD_QUEUE_CAP,
            queries: 0..6,
        },
    ]
}

/// One load's arrival schedule: `(arrival, pool index)` in time order.
/// Arrival times and the query each arrival sends are one fixed trace
/// per (load, tenant), with times scaled by E; the seed draws the data.
/// A seeded trace would let the queueing luck of one horizon dominate
/// the seed-to-seed spread of the latency percentiles.
fn schedule(load: usize, e: f64, parsed: &[PdcQuery]) -> (Vec<Arrival>, Vec<usize>) {
    let per_tenant_rate = LOADS[load] / e / 2.0;
    let horizon = SimDuration::from_secs_f64(HORIZON_E * e);
    let mut tagged = Vec::new();
    for (ti, t) in tenants().iter().enumerate() {
        let mut pick = 0x5E2F_7E4A_0000_0000 ^ ((load as u64) << 8 | ti as u64);
        let tseed = splitmix64(&mut pick);
        for at in poisson_times(tseed, per_tenant_rate * t.rate_x, horizon) {
            let n = t.queries.len() as u64;
            let qi = t.queries.start + (splitmix64(&mut pick) % n) as usize;
            tagged.push((at, ti, qi));
        }
    }
    tagged.sort_by_key(|&(at, ti, _)| (at, ti));
    let arrivals = tagged
        .iter()
        .map(|&(at, ti, qi)| Arrival {
            at,
            tenant: tenants()[ti].name.to_string(),
            query: parsed[qi].clone(),
        })
        .collect();
    (arrivals, tagged.iter().map(|t| t.2).collect())
}

fn config(e: f64) -> ServiceConfig {
    let specs = tenants()
        .iter()
        .map(|t| {
            TenantSpec::new(
                t.name,
                t.weight,
                SimDuration::from_secs_f64(t.budget_e * e),
                t.queue_cap,
            )
        })
        .collect();
    let mut cfg = ServiceConfig::new(specs);
    cfg.quantum = SimDuration::from_secs_f64(e);
    cfg
}

/// A fresh engine, warmed by one pass over the pool.
fn warm_engine(w: &World, parsed: &[PdcQuery]) -> QueryEngine {
    let eng = world::engine(w, Strategy::Histogram, PARTICLES);
    for q in parsed {
        eng.run(q).expect("warm-up query");
    }
    eng
}

/// What the replay and the metrics need of the middle load's report.
/// Selections are kept as fingerprints: a report holds every served
/// selection, and keeping whole ones would dominate the run's memory.
struct Middle {
    served: Vec<Served>,
    well: Vec<f64>,
    stats: ServiceStats,
    group: GroupStats,
    flood_rejected: u64,
    engine: QueryEngine,
}

struct Served {
    arrival_index: usize,
    selection: u64,
    elapsed: SimDuration,
    breakdown: CostBreakdown,
}

/// FNV-1a over a selection's runs.
fn fingerprint(sel: &Selection) -> u64 {
    let mut h = Fnv1a::new();
    for r in sel.runs() {
        h.write_u64(r.start);
        h.write_u64(r.len);
    }
    h.finish()
}

/// The well-behaved tenants' latencies, in simulated seconds.
fn well_latencies(report: &ServiceReport) -> Vec<f64> {
    report
        .served
        .iter()
        .filter(|s| tenants()[s.tenant as usize].rate_x <= 1.0)
        .map(|s| s.latency().as_secs_f64())
        .collect()
}

pub fn run(args: &Args, tr: &mut Tracer, _scratch: &TempDir) -> Result<Outcome, String> {
    let mut pool: Vec<PoolQuery> = world::tail_windows();
    pool.extend(world::fig4());
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
        let parsed: Vec<_> = pool.iter().map(|q| q.parse(&w.odms)).collect();
        let eng = warm_engine(&w, &parsed);
        setups.push(t0.elapsed().as_secs_f64());
        tr.close(root);
        layers.import(&w);
        kept = Some((data, w, parsed, eng));
    }
    let (data, w, parsed, calibration) = kept.expect("at least one set-up");
    tr.set_recording(false);
    let cols = world::columns(&data);
    let expected: Vec<Expected> = pool
        .iter()
        .map(|q| Expected::over(&cols, q, PARTICLES))
        .collect();

    // E: mean solo warm simulated latency of the well-behaved queries.
    let solo: Vec<f64> = parsed
        .iter()
        .map(|q| {
            calibration
                .run(q)
                .expect("calibration query")
                .elapsed
                .as_secs_f64()
        })
        .collect();
    drop(calibration);
    let e = solo.iter().sum::<f64>() / solo.len() as f64;
    let schedules: Vec<_> = (0..LOADS.len()).map(|l| schedule(l, e, &parsed)).collect();
    let cfg = config(e);

    // Timed phase: serve every load on a fresh warm engine, in rounds,
    // until the time is used. Simulated results repeat exactly each
    // round; the first round's are checked and reported.
    let horizon = HORIZON_E * e;
    let mut well_p99 = [0.0; LOADS.len()];
    let mut past_horizon = [0.0; LOADS.len()];
    let mut mid: Option<Middle> = None;
    let (mut rounds, mut served, mut serve_s, mut attempted, mut wrong) =
        (0, 0u64, 0.0, 0u64, 0u64);
    let mut host_us_per_served = Vec::new();
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for (l, (arrivals, qis)) in schedules.iter().enumerate() {
            let eng = warm_engine(&w, &parsed);
            tr.set_recording(args.trace && rounds == 0);
            let root = tr.open_op("serve");
            let (report, took) = tr.time("core.service.serve", || eng.serve(&cfg, arrivals));
            tr.close(root);
            let report = report.map_err(|e| format!("serve at load {}/E: {e}", LOADS[l]))?;
            attempted += arrivals.len() as u64;
            served += report.served.len() as u64;
            serve_s += took.as_secs_f64();
            if l == MIDDLE {
                host_us_per_served.push(took.as_secs_f64() * 1e6 / report.served.len() as f64);
            }
            if rounds > 0 {
                continue;
            }
            // Oracle: every served answer against the naive filter.
            for s in &report.served {
                let want = expected[qis[s.arrival_index]].hits;
                if s.outcome.nhits != want || s.outcome.selection.count() != want {
                    eprintln!(
                        "MISMATCH {:?}: {} hits, expected {want}",
                        pool[qis[s.arrival_index]].text, s.outcome.nhits
                    );
                    wrong += 1;
                }
            }
            well_p99[l] = percentile(&well_latencies(&report), 99.0);
            past_horizon[l] = report.end_time.as_secs_f64() - horizon;
            if l == MIDDLE {
                mid = Some(Middle {
                    served: report
                        .served
                        .iter()
                        .map(|s| Served {
                            arrival_index: s.arrival_index,
                            selection: fingerprint(&s.outcome.selection),
                            elapsed: s.outcome.elapsed,
                            breakdown: s.outcome.breakdown,
                        })
                        .collect(),
                    well: well_latencies(&report),
                    stats: report.stats,
                    group: report.group.unwrap_or_default(),
                    flood_rejected: report.tenant_summary("flood").map_or(0, |t| t.rejected),
                    engine: eng,
                });
            }
        }
        rounds += 1;
    }
    tr.set_recording(false);
    let mid = mid.expect("the middle load was served");

    // Scheduling decides when, never what: replay the middle load in
    // dispatch order on a twin engine; every outcome must be identical.
    // The replay's host times are the per-query host latencies.
    let (mid_arrivals, mid_qis) = &schedules[MIDDLE];
    let twin = warm_engine(&w, &parsed);
    let mut replay = ReplayCache::default();
    let mut errors = 0u64;
    let mut query_ms = Vec::with_capacity(mid.served.len());
    for (k, s) in mid.served.iter().enumerate() {
        // A traced run replays its first half untraced: the baseline of
        // the tracing overhead.
        let traced = args.trace && k >= mid.served.len() / 2;
        tr.set_recording(traced);
        let qi = mid_qis[s.arrival_index];
        let root = tr.open_op("op");
        if traced {
            let (_, took) = tr.time("core.plan.parse_query", || pool[qi].parse(&w.odms));
            layers.parse_us.push(took.as_secs_f64() * 1e6);
        }
        let query = &mid_arrivals[s.arrival_index].query;
        let (out, took) = tr.time("core.engine.run", || twin.run(query));
        match out {
            Ok(out) => {
                if fingerprint(&out.selection) != s.selection
                    || out.elapsed != s.elapsed
                    || out.breakdown != s.breakdown
                {
                    eprintln!(
                        "DIVERGED {:?}: served outcome differs from its replay",
                        pool[qi].text
                    );
                    wrong += 1;
                }
                query_ms.push(took.as_secs_f64() * 1e3);
                layers.user_us.push((qi, traced, took.as_secs_f64() * 1e6));
                if traced {
                    layers.outcome(&out);
                    let _ = layers.get_data(tr, &twin, &out, &w);
                    layers.probe(tr, &twin, &w, &cols, query, &mut replay);
                }
            }
            Err(err) => {
                eprintln!("replay of {:?} failed: {err}", pool[qi].text);
                errors += 1;
            }
        }
        tr.close(root);
        attempted += 1;
    }
    tr.set_recording(false);

    let (group, flood_rejected) = (mid.group, mid.flood_rejected);
    let guards = vec![
        (
            format!("late joins > 0 ({})", group.late_joins),
            group.late_joins > 0,
        ),
        (
            format!("flood rejections > 0 ({flood_rejected})"),
            flood_rejected > 0,
        ),
    ];

    let metrics = if args.trace {
        layers.service_admitted = mid.stats.admitted;
        layers.deferrals = mid.stats.deferrals;
        layers.rejected = mid.stats.rejected;
        layers.host_us_per_served = median(&host_us_per_served);
        layers.late_joins = group.late_joins;
        layers.prewarm_regions = group.prewarm_regions;
        layers.admitted_intervals = group.admitted_intervals;
        layers.histogram_replay(tr, &w, &cols);
        let batch = mid
            .engine
            .run_batch(&parsed)
            .expect("run_batch over the pool");
        layers.plan_hit_ratio = batch.stats.plan_hit_ratio();
        layers.artifact_hit_ratio = batch.stats.artifact_hit_ratio();
        layers.metrics(tr.num_spans())
    } else {
        let limit = P99_LIMIT_E * e;
        let mut max_rate = 0.0;
        for l in 0..LOADS.len() {
            println!(
                "  load {:.2}/E: well-behaved p99 {:.3} s (limit {limit:.3} s), \
                 last completion {:.3} s past the horizon",
                LOADS[l], well_p99[l], past_horizon[l]
            );
            if well_p99[l] <= limit && past_horizon[l] <= limit {
                max_rate = LOADS[l] / e;
            }
        }
        let submitted = mid.stats.submitted;
        EndToEnd {
            setup_s: setups,
            query_ms,
            host_qps: served as f64 / serve_s,
            sim_s: mid.well,
            sim_max_rate_qps: max_rate,
            ingest_mb_s: layers.import_mb_s(),
            ok_frac: mid.stats.completed as f64 / submitted as f64,
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
