//! Per-layer metrics of the traced run.
//!
//! Two sources feed them. Counters come from what the public calls
//! return (`QueryOutcome`, `ExplainPlan`, `BatchStats`, `ServiceReport`,
//! `SpillStats`). Host times come from replaying, under a span each, the
//! layer call a user operation made inside the engine: the directory
//! probe, the kernel scan over the admitted regions, the selection
//! merge, the sorted-replica lookup, the bitmap probe and the block
//! decode. Replays read the benchmark's own copy of the data, never the
//! store, so they leave the store's caches and spill state untouched.

use crate::report::{mean, median, ratio, Metrics};
use crate::trace::Tracer;
use crate::world::{energy_sum, World, ENERGY};
use pdc_bitmap::{BinnedBitmapIndex, BinningConfig, ValueDomain};
use pdc_histogram::{merge_all, Histogram, HistogramConfig};
use pdc_query::{MetaSnapshot, OpKind, PdcQuery, QueryEngine, QueryOutcome};
use pdc_types::{kernels, PdcResult, PdcType, RegionId, Selection, TypedVec};
use std::collections::HashMap;
use std::time::Duration;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Region payloads and derived bytes the replays reuse across
/// operations, keyed by `(variable, region, elements)`: a growing tail
/// region gets a new entry at each extent.
#[derive(Default)]
pub struct ReplayCache {
    regions: HashMap<(usize, u32, u64), TypedVec>,
    indexes: HashMap<(usize, u32, u64), Vec<u8>>,
    blocks: HashMap<(usize, u32, u64), (u8, Vec<u8>)>,
}

/// Everything the traced run measures, with every per-layer metric the
/// benchmark declares. Fields a workload never touches stay zero: that
/// layer does no work on that workload.
#[derive(Default)]
pub struct Layers {
    // odms
    /// Per set-up, the seconds of each variable's import.
    imports: Vec<[f64; 7]>,
    import_bytes: u64,
    pub append_s: Vec<f64>,
    pub maintenance_s: Vec<f64>,
    aux_rebuilds: u64,
    // histogram
    build_s: f64,
    merge_s: f64,
    histogram_bins: u64,
    // directory
    dir_probe_us: Vec<f64>,
    bins_probed: u64,
    killed_1d: u64,
    killed_joint: u64,
    dir_admitted: u64,
    // core.plan
    pub parse_us: Vec<f64>,
    pub plan_hit_ratio: f64,
    // core.ops
    regions: [u64; 4],
    est_hits: f64,
    actual_hits: f64,
    // types.kernels
    scan_elems: u64,
    scan_secs: f64,
    elements_scanned: u64,
    // types.selection
    merge_us: Vec<f64>,
    runs: u64,
    // sorted
    lookup_us: Vec<f64>,
    sorted_probes: u64,
    elements_gathered: u64,
    // bitmap
    bitmap_probe_us: Vec<f64>,
    bitmap_words: u64,
    // server
    retry_rounds: u64,
    failed_servers: u64,
    imbalance: Vec<f64>,
    // storage
    pfs_bytes_read: u64,
    cache_hits: u64,
    cache_misses: u64,
    sim_io_s: f64,
    sim_cpu_s: f64,
    sim_net_s: f64,
    // blockstore
    pub demotions: u64,
    pub fault_ins: u64,
    pub compression_ratio: f64,
    pub resident_high_water: u64,
    pub block_cache_hit_rate: f64,
    pub block_cache_evictions: u64,
    decode_bytes: u64,
    decode_secs: f64,
    // core.qcache
    pub artifact_hit_ratio: f64,
    pub prewarm_regions: u64,
    pub late_joins: u64,
    pub admitted_intervals: u64,
    // core.service
    pub service_admitted: u64,
    pub deferrals: u64,
    pub rejected: u64,
    pub host_us_per_served: f64,
    // core.engine
    get_data_us: Vec<f64>,
    bytes_transferred: u64,
    // counters summed over outcomes
    outcomes: u64,
    useful_hits: u64,
    // trace
    /// Host time of the user work (the calls an untraced operation makes)
    /// per operation: `(query, traced, microseconds)`.
    pub user_us: Vec<(usize, bool, f64)>,
}

impl Layers {
    /// Record one set-up's import.
    pub fn import(&mut self, w: &World) {
        self.imports.push(w.import_secs);
        self.import_bytes = w.import_bytes;
    }

    /// Import seconds of one set-up, each variable's taken as its median
    /// over the set-ups (steadier than the median of set-up totals).
    fn import_s(&self) -> f64 {
        (0..7)
            .map(|v| median(&self.imports.iter().map(|i| i[v]).collect::<Vec<_>>()))
            .sum()
    }

    /// User bytes imported per host CPU second.
    pub fn import_mb_s(&self) -> f64 {
        self.import_bytes as f64 / 1e6 / self.import_s()
    }

    /// Fold in the counters one query outcome carries.
    pub fn outcome(&mut self, out: &QueryOutcome) {
        self.outcomes += 1;
        self.aux_rebuilds += out.integrity.aux_rebuilds;
        self.histogram_bins += out.work.histogram_bins;
        self.elements_scanned += out.work.elements_scanned;
        self.bitmap_words += out.work.bitmap_words;
        self.sorted_probes += out.work.sorted_probes;
        self.elements_gathered += out.work.elements_gathered;
        self.runs += out.selection.num_runs() as u64;
        self.retry_rounds += out.retry_rounds as u64;
        self.failed_servers += out.failed_servers.len() as u64;
        let per: Vec<f64> = out.per_server.iter().map(|d| d.as_secs_f64()).collect();
        let avg = mean(&per);
        if avg > 0.0 {
            self.imbalance
                .push(per.iter().cloned().fold(0.0, f64::max) / avg);
        }
        self.pfs_bytes_read += out.io.pfs_bytes_read;
        self.cache_hits += out.io.cache_hits;
        self.cache_misses += out.io.cache_misses;
        self.sim_io_s += out.breakdown.io.as_secs_f64();
        self.sim_cpu_s += out.breakdown.cpu.as_secs_f64();
        self.sim_net_s += out.breakdown.net.as_secs_f64();
        self.useful_hits += out.nhits;
    }

    /// Time `get_data(Energy)`; on a traced operation also fold in what
    /// it returns. Yields the data's `Energy` sum and length for the
    /// oracle.
    pub fn get_data(
        &mut self,
        tr: &mut Tracer,
        eng: &QueryEngine,
        out: &QueryOutcome,
        world: &World,
    ) -> PdcResult<(f64, u64, Duration)> {
        let (got, took) = tr.time("core.engine.get_data", || {
            eng.get_data(out, world.ids[ENERGY])
        });
        let got = got?;
        if tr.recording() {
            self.get_data_us.push(us(took));
            self.bytes_transferred += got.bytes_transferred;
        }
        Ok((energy_sum(&got.data), got.data.len() as u64, took))
    }

    /// The replay probes of one traced operation, as children of its
    /// root span.
    pub fn probe(
        &mut self,
        tr: &mut Tracer,
        eng: &QueryEngine,
        world: &World,
        cols: &[&[f32]; 7],
        query: &PdcQuery,
        cache: &mut ReplayCache,
    ) {
        let (explained, _) = tr.time("core.engine.explain", || eng.explain(query));
        let plan = match explained {
            Ok((_, plan)) => plan,
            Err(e) => {
                eprintln!("probes skipped: explain failed: {e}");
                return;
            }
        };
        for d in &plan.directory {
            self.bins_probed += d.bins_probed;
            self.killed_1d += d.killed_1d as u64;
            self.killed_joint += d.killed_joint as u64;
            self.dir_admitted += d.admitted as u64;
        }
        for row in &plan.regions {
            let kind = match (row.pruned, row.op) {
                (true, _) => 0,
                (false, OpKind::ScanExact | OpKind::VerifyRebuild) => 1,
                (false, OpKind::IndexProbe) => 2,
                (false, OpKind::SortedRange) => 3,
                (false, OpKind::Prune) => 0,
            };
            self.regions[kind] += 1;
            if let (Some(est), Some(actual)) = (row.est, row.actual_hits) {
                self.est_hits += est.midpoint();
                self.actual_hits += actual as f64;
            }
        }

        let (obj, iv, _) = plan.constraints[0];
        let var = world
            .ids
            .iter()
            .position(|&id| id == obj)
            .expect("a world variable");
        let objects: Vec<_> = plan.constraints.iter().map(|c| c.0).collect();
        let snap = MetaSnapshot::capture(&world.odms, &objects).expect("snapshot");
        let meta = snap.meta(obj).expect("object metadata");
        let dir = snap
            .directory(obj)
            .expect("every object carries a directory");
        let (found, took) = tr.time("directory.probe", || dir.probe(&iv));
        self.dir_probe_us.push(us(took));

        // The admitted regions' payloads, from the benchmark's own copy.
        let mut payloads = Vec::with_capacity(found.candidates.len());
        for &r in &found.candidates {
            let span = meta.region_span(r);
            let key = (var, r, span.len);
            cache.regions.entry(key).or_insert_with(|| {
                let lo = span.offset as usize;
                TypedVec::Float(cols[var][lo..lo + span.len as usize].to_vec())
            });
            payloads.push((key, span.offset));
        }

        let (sels, took) = tr.time("types.kernels.scan_interval", || {
            payloads
                .iter()
                .map(|(key, base)| kernels::scan_interval(&cache.regions[key], &iv, *base))
                .collect::<Vec<Selection>>()
        });
        self.scan_elems += payloads.iter().map(|(k, _)| k.2).sum::<u64>();
        self.scan_secs += took.as_secs_f64();
        let (_, took) = tr.time("types.selection.union_many", || {
            Selection::union_many(&sels)
        });
        self.merge_us.push(us(took));

        if let Some(&(eobj, eiv, _)) = plan.constraints.iter().find(|c| c.0 == world.ids[ENERGY]) {
            if snap.sorted_available(eobj) {
                let replica = snap.sorted_replica(eobj).expect("sorted replica");
                let (_, took) = tr.time("sorted.lookup", || replica.lookup(&eiv));
                self.lookup_us.push(us(took));
            }
        }

        for (key, _) in &payloads {
            cache.indexes.entry(*key).or_insert_with(|| {
                let values: Vec<f64> = cols_f64(&cache.regions[key]);
                BinnedBitmapIndex::build_with_domain(
                    &values,
                    &BinningConfig::default(),
                    ValueDomain::F32,
                )
                .expect("non-empty region")
                .to_bytes()
                .to_vec()
            });
        }
        let (_, took) = tr.time("bitmap.probe", || {
            for (key, _) in &payloads {
                let idx = BinnedBitmapIndex::from_bytes(&cache.indexes[key]).expect("own bytes");
                std::hint::black_box(idx.query(&iv));
            }
        });
        self.bitmap_probe_us.push(us(took));

        // Block decode, for the admitted regions the store holds spilled.
        let store = world.odms.store();
        let spilled: Vec<_> = payloads
            .iter()
            .filter(|(key, _)| store.is_spilled(RegionId::new(obj, key.1)))
            .map(|(key, _)| *key)
            .collect();
        if !spilled.is_empty() {
            for key in &spilled {
                cache.blocks.entry(*key).or_insert_with(|| {
                    let tv = &cache.regions[key];
                    pdc_blockstore::codec::encode_block(tv, 0, tv.len())
                });
            }
            let (_, took) = tr.time("blockstore.decode_block", || {
                for key in &spilled {
                    let (enc, bytes) = &cache.blocks[key];
                    let tv = pdc_blockstore::codec::decode_block(
                        PdcType::Float,
                        *enc,
                        key.2 as usize,
                        bytes,
                    )
                    .expect("own block");
                    std::hint::black_box(tv);
                }
            });
            self.decode_bytes += spilled.iter().map(|k| k.2 * 4).sum::<u64>();
            self.decode_secs += took.as_secs_f64();
        }
    }

    /// Replay the histogram layer once: build `Energy`'s per-region
    /// histograms over the world's current extent, then merge them into
    /// the global one.
    pub fn histogram_replay(&mut self, tr: &mut Tracer, world: &World, cols: &[&[f32]; 7]) {
        let id = world.ids[ENERGY];
        let snap = MetaSnapshot::capture(&world.odms, &[id]).expect("snapshot");
        let meta = snap.meta(id).expect("Energy metadata");
        let cfg = HistogramConfig::default();
        let slices: Vec<Vec<f64>> = (0..meta.num_regions())
            .map(|r| {
                let s = meta.region_span(r);
                let lo = s.offset as usize;
                cols[ENERGY][lo..lo + s.len as usize]
                    .iter()
                    .map(|&v| v as f64)
                    .collect()
            })
            .collect();
        let (hists, took) = tr.time("histogram.build", || {
            slices
                .iter()
                .map(|s| Histogram::build(s, &cfg).expect("non-empty region"))
                .collect::<Vec<_>>()
        });
        self.build_s = took.as_secs_f64();
        let (_, took) = tr.time("histogram.merge", || merge_all(&hists));
        self.merge_s = took.as_secs_f64();
    }

    /// Every per-layer metric, in declaration order.
    pub fn metrics(&self, spans: usize) -> Metrics {
        let per_op = |x: u64| ratio(x as f64, self.outcomes as f64);
        let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
        let mut m = Metrics::default();
        m.put("odms.import_s", self.import_s(), "s");
        m.put("odms.import_mb_s", self.import_mb_s(), "MB/s");
        m.put("odms.append_s", med(&self.append_s), "s");
        m.put("odms.maintenance_s", med(&self.maintenance_s), "s");
        m.put("odms.aux_rebuilds", per_op(self.aux_rebuilds), "count");
        m.put("histogram.build_s", self.build_s, "s");
        m.put("histogram.merge_s", self.merge_s, "s");
        m.put(
            "histogram.work.histogram_bins",
            per_op(self.histogram_bins),
            "count",
        );
        m.put("directory.probe_us", med(&self.dir_probe_us), "us");
        let probes = self.dir_probe_us.len() as f64;
        m.put(
            "directory.bins_probed",
            ratio(self.bins_probed as f64, probes),
            "count",
        );
        m.put(
            "directory.killed_1d",
            ratio(self.killed_1d as f64, probes),
            "count",
        );
        m.put(
            "directory.killed_joint",
            ratio(self.killed_joint as f64, probes),
            "count",
        );
        m.put(
            "directory.admitted",
            ratio(self.dir_admitted as f64, probes),
            "count",
        );
        m.put("core.plan.parse_us", med(&self.parse_us), "us");
        m.put("core.plan.plan_hit_ratio", self.plan_hit_ratio, "ratio");
        for (i, name) in [
            "core.ops.regions_pruned",
            "core.ops.regions_scan",
            "core.ops.regions_probe",
            "core.ops.regions_sorted",
        ]
        .into_iter()
        .enumerate()
        {
            m.put(name, ratio(self.regions[i] as f64, probes), "count");
        }
        m.put(
            "core.ops.est_vs_actual_hits",
            ratio(self.est_hits, self.actual_hits),
            "ratio",
        );
        m.put(
            "core.ops.useful_ratio",
            ratio(self.useful_hits as f64, self.elements_scanned as f64),
            "ratio",
        );
        m.put(
            "types.kernels.scan_melem_s",
            ratio(self.scan_elems as f64 / 1e6, self.scan_secs),
            "Melem/s",
        );
        m.put(
            "types.kernels.elements_scanned",
            per_op(self.elements_scanned),
            "count",
        );
        m.put("types.selection.merge_us", med(&self.merge_us), "us");
        m.put(
            "types.selection.runs_per_result",
            per_op(self.runs),
            "count",
        );
        m.put("sorted.lookup_us", med(&self.lookup_us), "us");
        m.put("sorted.sorted_probes", per_op(self.sorted_probes), "count");
        m.put(
            "sorted.elements_gathered",
            per_op(self.elements_gathered),
            "count",
        );
        m.put("bitmap.probe_us", med(&self.bitmap_probe_us), "us");
        m.put("bitmap.bitmap_words", per_op(self.bitmap_words), "count");
        m.put("server.retry_rounds", per_op(self.retry_rounds), "count");
        m.put(
            "server.failed_servers",
            per_op(self.failed_servers),
            "count",
        );
        m.put(
            "server.per_server_imbalance",
            mean(&self.imbalance),
            "ratio",
        );
        m.put("storage.pfs_bytes_read", per_op(self.pfs_bytes_read), "B");
        m.put(
            "storage.cache_hit_ratio",
            ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses) as f64,
            ),
            "ratio",
        );
        let ops = self.outcomes as f64;
        m.put("storage.sim_io_s", ratio(self.sim_io_s, ops), "s");
        m.put("storage.sim_cpu_s", ratio(self.sim_cpu_s, ops), "s");
        m.put("storage.sim_net_s", ratio(self.sim_net_s, ops), "s");
        m.put("blockstore.demotions", self.demotions as f64, "count");
        m.put("blockstore.fault_ins", self.fault_ins as f64, "count");
        m.put(
            "blockstore.compression_ratio",
            self.compression_ratio,
            "ratio",
        );
        m.put(
            "blockstore.resident_high_water",
            self.resident_high_water as f64,
            "B",
        );
        m.put(
            "blockstore.block_cache_hit_rate",
            self.block_cache_hit_rate,
            "ratio",
        );
        m.put(
            "blockstore.block_cache_evictions",
            self.block_cache_evictions as f64,
            "count",
        );
        m.put(
            "blockstore.decode_mb_s",
            ratio(self.decode_bytes as f64 / 1e6, self.decode_secs),
            "MB/s",
        );
        m.put(
            "core.qcache.artifact_hit_ratio",
            self.artifact_hit_ratio,
            "ratio",
        );
        m.put(
            "core.qcache.prewarm_regions",
            self.prewarm_regions as f64,
            "count",
        );
        m.put("core.qcache.late_joins", self.late_joins as f64, "count");
        m.put(
            "core.qcache.admitted_intervals",
            self.admitted_intervals as f64,
            "count",
        );
        m.put(
            "core.service.admitted",
            self.service_admitted as f64,
            "count",
        );
        m.put("core.service.deferrals", self.deferrals as f64, "count");
        m.put("core.service.rejected", self.rejected as f64, "count");
        m.put(
            "core.service.host_us_per_served",
            self.host_us_per_served,
            "us",
        );
        m.put("core.engine.get_data_us", med(&self.get_data_us), "us");
        m.put(
            "core.engine.bytes_transferred",
            ratio(self.bytes_transferred as f64, self.get_data_us.len() as f64),
            "B",
        );
        m.put("trace.overhead_pct", self.overhead_pct(), "%");
        m.put("trace.spans", spans as f64, "count");
        m
    }
}

impl Layers {
    /// Tracing overhead: the user work of traced operations against that
    /// of the run's untraced ones, matched per query (the pool mixes
    /// queries whose costs differ a hundredfold): sum over queries of the
    /// traced median over the same sum of untraced medians, minus one, in
    /// percent. It includes what the probes of a traced operation cost
    /// the next one (caches they evict), not only the span bookkeeping.
    fn overhead_pct(&self) -> f64 {
        let mut by_query: HashMap<usize, (Vec<f64>, Vec<f64>)> = HashMap::new();
        for &(q, traced, us) in &self.user_us {
            let e = by_query.entry(q).or_default();
            if traced {
                e.0.push(us)
            } else {
                e.1.push(us)
            }
        }
        let (mut on, mut off) = (0.0, 0.0);
        for (traced, untraced) in by_query.values() {
            if !traced.is_empty() && !untraced.is_empty() {
                on += median(traced);
                off += median(untraced);
            }
        }
        if off == 0.0 {
            0.0
        } else {
            (on / off - 1.0) * 100.0
        }
    }
}

fn cols_f64(tv: &TypedVec) -> Vec<f64> {
    match tv {
        TypedVec::Float(v) => v.iter().map(|&x| x as f64).collect(),
        other => panic!("VPIC variables are f32, got {:?}", other.pdc_type()),
    }
}
