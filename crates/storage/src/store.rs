//! The backing object store: region payloads on storage tiers.
//!
//! PDC regions "can reside on any layer of the memory/storage hierarchy".
//! The store keeps each region's payload (a typed array for data regions,
//! raw bytes for index files) together with its tier and striped placement
//! across simulated OSTs. The store itself is time-free — callers charge
//! their own [`crate::sim::SimClock`] via the cost model, because the
//! *pattern* of access (aggregated vs. flat, cached vs. not) is a property
//! of the reader, not of the store.

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use pdc_blockstore::{blockfile, BlockCache, BlockCacheStats, BlockReader, Fnv1a};
use pdc_types::{with_slice, PdcError, PdcResult, PdcType, RegionId, TypedVec};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, PoisonError};

/// Storage tier a region resides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageTier {
    /// Server DRAM (pre-loaded or cached).
    Dram,
    /// Burst buffer / NVRAM.
    BurstBuffer,
    /// The Lustre-like parallel file system.
    Pfs,
}

impl StorageTier {
    /// Human-readable tier name (used in corruption error context).
    pub fn name(&self) -> &'static str {
        match self {
            StorageTier::Dram => "dram",
            StorageTier::BurstBuffer => "burst-buffer",
            StorageTier::Pfs => "pfs",
        }
    }
}

/// FNV-1a 64-bit over a byte slice — the checksum primitive shared by
/// payload verification, block-frame checksums, and the metadata
/// snapshot frame. Delegates to the one streaming implementation in
/// `pdc-blockstore` so every checksum in the system agrees.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    pdc_blockstore::fnv1a64(bytes)
}

/// FNV-1a 64-bit over a payload's typed bytes (little-endian element
/// encoding for typed arrays, the bytes themselves for raw payloads).
/// Cheap, dependency-free, and plenty for detecting injected bit flips.
pub fn payload_checksum(payload: &StoredPayload) -> u64 {
    match payload {
        StoredPayload::Typed(v) => {
            let mut h = Fnv1a::new();
            with_slice!(&**v, xs => {
                for x in xs {
                    h.update(&x.to_le_bytes());
                }
            });
            h.finish()
        }
        StoredPayload::Raw(bytes) => fnv1a64(bytes),
    }
}

/// SplitMix64 step used to derive deterministic corruption sites.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministically flip one bit of one element/byte of a payload.
/// Returns `None` when the payload is empty (nothing to flip).
fn flipped_payload(payload: &StoredPayload, seed: u64) -> Option<StoredPayload> {
    let r0 = mix64(seed);
    let r1 = mix64(r0);
    match payload {
        StoredPayload::Typed(v) => {
            let len = v.len();
            if len == 0 {
                return None;
            }
            let idx = (r0 % len as u64) as usize;
            let mut copy = (**v).clone();
            match &mut copy {
                TypedVec::Float(xs) => {
                    xs[idx] = f32::from_bits(xs[idx].to_bits() ^ (1 << (r1 % 32)));
                }
                TypedVec::Double(xs) => {
                    xs[idx] = f64::from_bits(xs[idx].to_bits() ^ (1 << (r1 % 64)));
                }
                TypedVec::Int32(xs) => xs[idx] ^= 1 << (r1 % 32),
                TypedVec::UInt32(xs) => xs[idx] ^= 1 << (r1 % 32),
                TypedVec::Int64(xs) => xs[idx] ^= 1 << (r1 % 64),
                TypedVec::UInt64(xs) => xs[idx] ^= 1 << (r1 % 64),
            }
            Some(StoredPayload::Typed(Arc::new(copy)))
        }
        StoredPayload::Raw(bytes) => {
            if bytes.is_empty() {
                return None;
            }
            let idx = (r0 % bytes.len() as u64) as usize;
            let mut copy = bytes.to_vec();
            copy[idx] ^= 1 << (r1 % 8);
            Some(StoredPayload::Raw(Bytes::from(copy)))
        }
    }
}

/// Deterministically flip one bit of a spilled region's block file,
/// stashing a pristine sibling copy first (the on-disk analogue of the
/// in-memory `pristine` stash). The flip site can land anywhere in the
/// file — payload, frame header, index, or footer — and every one of
/// those is covered by a checksum, so the next fault-in detects it.
fn corrupt_block_file(path: &Path, seed: u64) -> PdcResult<()> {
    let io = |e: std::io::Error| PdcError::Storage(format!("spill corrupt {}: {e}", path.display()));
    let mut bytes = std::fs::read(path).map_err(io)?;
    if bytes.is_empty() {
        return Err(PdcError::Storage(format!("spill file {} is empty", path.display())));
    }
    let orig = orig_path(path);
    if !orig.exists() {
        std::fs::copy(path, &orig).map_err(io)?;
    }
    let r0 = mix64(seed);
    let r1 = mix64(r0);
    let idx = (r0 % bytes.len() as u64) as usize;
    bytes[idx] ^= 1 << (r1 % 8);
    std::fs::write(path, &bytes).map_err(io)?;
    Ok(())
}

/// A region's payload.
#[derive(Debug, Clone)]
pub enum StoredPayload {
    /// Array data (shared, immutable once written).
    Typed(Arc<TypedVec>),
    /// Opaque bytes (serialized index files, metadata snapshots).
    Raw(Bytes),
}

impl StoredPayload {
    /// Payload size in bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            StoredPayload::Typed(v) => v.size_bytes(),
            StoredPayload::Raw(b) => b.len() as u64,
        }
    }
}

/// Where a region's payload physically lives.
///
/// Residency is invisible to simulated time: a region's tier, checksum,
/// and every cost charge are identical whether its payload is held in
/// memory or demoted to a block-compressed spill file. Only host-side
/// spill statistics observe the difference.
#[derive(Debug, Clone)]
enum Residency {
    /// Payload held in memory.
    Resident(StoredPayload),
    /// Payload demoted to a block-compressed file on disk.
    Spilled(ColdHandle),
}

/// Element shape of a spilled payload.
#[derive(Debug, Clone, Copy)]
enum ColdKind {
    Typed { ty: PdcType, elems: u64, block_elems: u32 },
    Raw,
}

/// Durable location + shape of a spilled payload.
#[derive(Debug, Clone)]
struct ColdHandle {
    path: PathBuf,
    kind: ColdKind,
    /// Uncompressed payload bytes — the size every simulated charge and
    /// capacity decision keeps using after demotion.
    raw_bytes: u64,
    /// Compressed on-disk bytes (host-side accounting only).
    comp_bytes: u64,
}

#[derive(Debug, Clone)]
struct StoredRegion {
    res: Residency,
    tier: StorageTier,
    ost: u32,
    /// FNV-1a over the payload bytes, computed at `put` time.
    checksum: u64,
    /// The last-known-good payload, stashed when corruption is injected.
    /// Models the durable PFS copy a real deployment re-reads to repair a
    /// bad replica; `None` means no verified fallback exists. Spilled
    /// regions keep their pristine copy as a sibling `.orig` file instead.
    pristine: Option<StoredPayload>,
}

impl StoredRegion {
    /// Logical (uncompressed) payload size, independent of residency.
    fn size_bytes(&self) -> u64 {
        match &self.res {
            Residency::Resident(p) => p.size_bytes(),
            Residency::Spilled(h) => h.raw_bytes,
        }
    }
}

/// The sibling path holding a spilled region's pristine copy while its
/// primary block file carries injected corruption.
fn orig_path(path: &Path) -> PathBuf {
    path.with_extension("pbf.orig")
}

/// The `(object token, region index)` pair used as the block-cache
/// region prefix for `id`.
fn cache_token(id: RegionId) -> (u64, u32) {
    (id.object.raw(), id.index)
}

/// Host-side accounting for the spill subsystem.
#[derive(Debug, Default, Clone, Copy)]
struct SpillAcct {
    resident_bytes: u64,
    high_water: u64,
    demotions: u64,
    fault_ins: u64,
    spilled_regions: u64,
    spilled_raw_bytes: u64,
    spilled_comp_bytes: u64,
}

impl SpillAcct {
    fn note_high_water(&mut self) {
        self.high_water = self.high_water.max(self.resident_bytes);
    }
}

#[derive(Debug, Default)]
struct SpillTicks {
    tick: u64,
    last_use: HashMap<RegionId, u64>,
}

/// Spill configuration + accounting, present once out-of-core mode is
/// enabled via [`ObjectStore::configure_spill`].
#[derive(Debug)]
struct SpillState {
    dir: PathBuf,
    memory_budget: u64,
    block_cache: Arc<BlockCache>,
    acct: Mutex<SpillAcct>,
    /// Access recency driving LRU demotion order (separate from the
    /// region map so reads only take this one small lock).
    ticks: Mutex<SpillTicks>,
    /// Regions a `demote` call has claimed and is writing. Concurrent
    /// budget enforcers skip them, so no two calls ever write, rename or
    /// clean up the same spill file.
    demoting: Mutex<HashSet<RegionId>>,
    /// Signalled whenever a claim in `demoting` is released, so an
    /// enforcer that found every victim claimed can wait for the budget
    /// to settle instead of returning over it.
    claim_released: Condvar,
}

/// A claim on one region's demotion, released on drop.
struct DemoteClaim<'a> {
    s: &'a SpillState,
    id: RegionId,
}

impl Drop for DemoteClaim<'_> {
    fn drop(&mut self) {
        self.s.demoting.lock().remove(&self.id);
        self.s.claim_released.notify_all();
    }
}

impl SpillState {
    fn add_resident(&self, bytes: u64) {
        self.acct.lock().resident_bytes += bytes;
    }

    fn sub_resident(&self, bytes: u64) {
        let mut a = self.acct.lock();
        a.resident_bytes = a.resident_bytes.saturating_sub(bytes);
    }

    /// Record the settled resident footprint (sampled when budget
    /// enforcement finishes, so the high-water mark reflects steady state
    /// rather than the unavoidable transient while a payload is being
    /// demoted).
    fn note_high_water(&self) {
        self.acct.lock().note_high_water();
    }

    /// Forget a spilled region: delete its files, drop its cached blocks,
    /// and roll its bytes out of the spill accounting.
    fn drop_spilled(&self, h: &ColdHandle, token: (u64, u32)) {
        let _ = std::fs::remove_file(&h.path);
        let _ = std::fs::remove_file(orig_path(&h.path));
        self.block_cache.invalidate_region(token);
        let mut a = self.acct.lock();
        a.spilled_regions = a.spilled_regions.saturating_sub(1);
        a.spilled_raw_bytes = a.spilled_raw_bytes.saturating_sub(h.raw_bytes);
        a.spilled_comp_bytes = a.spilled_comp_bytes.saturating_sub(h.comp_bytes);
    }
}

/// Snapshot of the spill subsystem's host-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpillStats {
    /// Uncompressed bytes currently held in memory.
    pub resident_bytes: u64,
    /// Settled high-water mark of `resident_bytes`.
    pub resident_high_water: u64,
    /// Regions demoted to disk since spill was configured.
    pub demotions: u64,
    /// Whole-region materializations of spilled payloads.
    pub fault_ins: u64,
    /// Regions currently spilled.
    pub spilled_regions: u64,
    /// Uncompressed bytes of currently spilled regions.
    pub spilled_raw_bytes: u64,
    /// On-disk (compressed) bytes of currently spilled regions.
    pub spilled_comp_bytes: u64,
    /// Decoded-block cache statistics.
    pub block_cache: BlockCacheStats,
    /// Decoded-block cache residency in bytes.
    pub block_cache_bytes: u64,
}

impl SpillStats {
    /// Compression ratio over currently spilled regions (uncompressed /
    /// on-disk); 1.0 when nothing is spilled.
    pub fn compression_ratio(&self) -> f64 {
        if self.spilled_comp_bytes == 0 {
            1.0
        } else {
            self.spilled_raw_bytes as f64 / self.spilled_comp_bytes as f64
        }
    }
}

/// A read handle over a spilled region's block file: per-block decode
/// through the shared budgeted block cache, so an interval scan touches
/// only the blocks its intervals overlap and never materializes the
/// whole region.
#[derive(Clone)]
pub struct ColdRegion {
    id: RegionId,
    path: PathBuf,
    ty: PdcType,
    elems: u64,
    block_elems: u32,
    raw_bytes: u64,
    cache: Arc<BlockCache>,
    /// Lazily opened, shared across clones so repeated block reads pay
    /// the open+index-verify cost once.
    reader: Arc<Mutex<Option<Arc<BlockReader>>>>,
}

impl std::fmt::Debug for ColdRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdRegion")
            .field("id", &self.id)
            .field("path", &self.path)
            .field("ty", &self.ty)
            .field("elems", &self.elems)
            .field("block_elems", &self.block_elems)
            .finish()
    }
}

impl ColdRegion {
    /// The region this handle reads.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Element count.
    pub fn len(&self) -> u64 {
        self.elems
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.elems == 0
    }

    /// Element type.
    pub fn pdc_type(&self) -> PdcType {
        self.ty
    }

    /// Uncompressed payload size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Elements per block (last block may be short).
    pub fn block_elems(&self) -> u32 {
        self.block_elems
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> u32 {
        if self.elems == 0 {
            0
        } else {
            self.elems.div_ceil(self.block_elems as u64) as u32
        }
    }

    /// Element span `[start, end)` of block `b`.
    pub fn block_span(&self, b: u32) -> (u64, u64) {
        let start = b as u64 * self.block_elems as u64;
        let end = (start + self.block_elems as u64).min(self.elems);
        (start, end)
    }

    /// Blocks whose element spans intersect `[lo, hi)`.
    pub fn blocks_overlapping(&self, lo: u64, hi: u64) -> std::ops::Range<u32> {
        let hi = hi.min(self.elems);
        if lo >= hi {
            return 0..0;
        }
        let first = (lo / self.block_elems as u64) as u32;
        let last = ((hi - 1) / self.block_elems as u64) as u32;
        first..last + 1
    }

    fn reader(&self) -> PdcResult<Arc<BlockReader>> {
        let mut g = self.reader.lock();
        if let Some(r) = &*g {
            return Ok(Arc::clone(r));
        }
        let r = Arc::new(BlockReader::open(&self.path)?);
        *g = Some(Arc::clone(&r));
        Ok(r)
    }

    /// Decode block `b`, serving from the shared block cache when hot.
    /// Every decoded frame is checksum-verified by the block reader.
    pub fn read_block(&self, b: u32) -> PdcResult<Arc<TypedVec>> {
        let key = (self.id.object.raw(), self.id.index, b);
        if let Some(hit) = self.cache.get(key) {
            return Ok(hit);
        }
        let block = Arc::new(self.reader()?.read_typed_block(b)?);
        self.cache.put(key, Arc::clone(&block));
        Ok(block)
    }
}

/// The shared object store.
///
/// Thread-safe: servers read concurrently; imports write up front.
/// Every `get` re-derives the payload checksum and compares it against
/// the one recorded at `put`; a mismatch quarantines the region and
/// surfaces as [`PdcError::CorruptRegion`] with the tier it was found on.
#[derive(Debug, Default)]
pub struct ObjectStore {
    regions: RwLock<HashMap<RegionId, StoredRegion>>,
    quarantine: RwLock<HashSet<RegionId>>,
    /// Regions whose payload has reached its final extent. Sealing guards
    /// the streaming-ingest append path only: `append_typed` refuses a
    /// sealed region, while `put` (a wholesale rewrite) and `remove` start
    /// the region's life over and clear the mark.
    sealed: RwLock<HashSet<RegionId>>,
    num_osts: u32,
    /// Monotonic data-plane epoch: bumped by every mutation that can
    /// change what a read of any region would return (put, remove,
    /// migrate, corrupt, repair) and by metadata-only rebuilds via
    /// [`ObjectStore::bump_epoch`]. Caches derived from region contents
    /// (prune verdicts, partial selections, built plans) key their
    /// entries to the epoch they were computed at and drop them when it
    /// moves.
    epoch: std::sync::atomic::AtomicU64,
    /// Out-of-core spill state; `None` until
    /// [`ObjectStore::configure_spill`] enables demotion.
    spill: RwLock<Option<Arc<SpillState>>>,
}

impl ObjectStore {
    /// A store striped over `num_osts` simulated OSTs.
    pub fn new(num_osts: u32) -> Self {
        Self {
            regions: RwLock::new(HashMap::new()),
            quarantine: RwLock::new(HashSet::new()),
            sealed: RwLock::new(HashSet::new()),
            num_osts: num_osts.max(1),
            epoch: std::sync::atomic::AtomicU64::new(0),
            spill: RwLock::new(None),
        }
    }

    fn spill_state(&self) -> Option<Arc<SpillState>> {
        self.spill.read().clone()
    }

    /// Bump the access tick used for LRU demotion ordering (no-op when
    /// spill is disabled).
    fn touch(&self, id: RegionId) {
        if let Some(s) = self.spill_state() {
            let mut t = s.ticks.lock();
            t.tick += 1;
            let tick = t.tick;
            t.last_use.insert(id, tick);
        }
    }

    /// Number of simulated OSTs.
    pub fn num_osts(&self) -> u32 {
        self.num_osts
    }

    /// The current data-plane epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Advance the data-plane epoch, invalidating all epoch-keyed caches.
    /// Called internally by every mutating store operation; exposed for
    /// mutations that bypass the store (metadata-only histogram or
    /// sorted-replica rebuilds).
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    /// Insert (or replace) a region payload on a tier. Placement is
    /// round-robin by region index — PDC "automatically distributes the
    /// data across the parallel file system's storage devices".
    pub fn put(&self, id: RegionId, payload: StoredPayload, tier: StorageTier) {
        let ost = (id.index + id.object.raw() as u32) % self.num_osts;
        let checksum = payload_checksum(&payload);
        let new_bytes = payload.size_bytes();
        let old = self.regions.write().insert(
            id,
            StoredRegion { res: Residency::Resident(payload), tier, ost, checksum, pristine: None },
        );
        self.quarantine.write().remove(&id);
        self.sealed.write().remove(&id);
        if let Some(s) = self.spill_state() {
            match old.map(|r| r.res) {
                Some(Residency::Resident(p)) => s.sub_resident(p.size_bytes()),
                Some(Residency::Spilled(h)) => s.drop_spilled(&h, cache_token(id)),
                None => {}
            }
            s.add_resident(new_bytes);
            self.touch(id);
        }
        self.bump_epoch();
        // Best-effort: writes stay within budget as sealed regions demote.
        let _ = self.enforce_budget();
    }

    /// Extend a typed region's payload with `delta` (streaming ingest).
    ///
    /// The existing prefix is never rewritten — appended elements only ever
    /// grow the tail — so a reader holding a plan-time span can scan the
    /// first `span.len` elements of a grown payload and observe exactly the
    /// bytes that were present when its snapshot was taken. Refuses sealed
    /// regions, raw payloads, element-type mismatches, and payloads that
    /// fail checksum verification (appending to a corrupt copy would
    /// launder the corruption into a fresh checksum). Returns the new
    /// element count.
    pub fn append_typed(&self, id: RegionId, delta: &TypedVec) -> PdcResult<u64> {
        if self.is_sealed(id) {
            return Err(PdcError::Storage(format!("region {id} is sealed against appends")));
        }
        let mut map = self.regions.write();
        let r = map.get_mut(&id).ok_or(PdcError::NoSuchRegion(id))?;
        let old_bytes = r.size_bytes();
        let grown = match &r.res {
            Residency::Resident(StoredPayload::Typed(v)) => {
                if v.pdc_type() != delta.pdc_type() {
                    return Err(PdcError::Storage(format!(
                        "append type mismatch on {id}: region holds {:?}, delta is {:?}",
                        v.pdc_type(),
                        delta.pdc_type()
                    )));
                }
                if payload_checksum(&StoredPayload::Typed(Arc::clone(v))) != r.checksum {
                    let found_on = r.tier;
                    drop(map);
                    self.quarantine.write().insert(id);
                    return Err(PdcError::CorruptRegion {
                        region: id,
                        tier: found_on.name().into(),
                    });
                }
                let mut grown = (**v).clone();
                grown.extend_from_range(delta, 0..delta.len())?;
                grown
            }
            Residency::Resident(StoredPayload::Raw(_)) => {
                return Err(PdcError::Storage(format!(
                    "region {id} holds raw bytes; append requires typed data"
                )))
            }
            // Only sealed regions ever demote, and sealed regions were
            // refused above — defend anyway so the invariant is local.
            Residency::Spilled(_) => {
                return Err(PdcError::Storage(format!(
                    "region {id} is spilled (sealed) and cannot accept appends"
                )))
            }
        };
        let new_len = grown.len() as u64;
        let payload = StoredPayload::Typed(Arc::new(grown));
        r.checksum = payload_checksum(&payload);
        let new_bytes = payload.size_bytes();
        r.res = Residency::Resident(payload);
        // Any stashed pristine copy predates the append and no longer
        // matches the recorded checksum; drop it rather than let a later
        // repair "restore" a truncated payload.
        r.pristine = None;
        drop(map);
        if let Some(s) = self.spill_state() {
            s.sub_resident(old_bytes);
            s.add_resident(new_bytes);
            self.touch(id);
        }
        self.bump_epoch();
        let _ = self.enforce_budget();
        Ok(new_len)
    }

    /// Mark a region as sealed: its payload has reached final extent and
    /// further `append_typed` calls must fail. Sealing is idempotent and
    /// metadata-only (no epoch bump — the readable bytes are unchanged).
    pub fn seal(&self, id: RegionId) -> PdcResult<()> {
        if !self.contains(id) {
            return Err(PdcError::NoSuchRegion(id));
        }
        self.sealed.write().insert(id);
        // Sealing makes the region demotable; spill immediately if the
        // resident footprint is over budget. The high-water mark samples
        // resident bytes here — seal boundaries are the points where the
        // budget is enforceable (an open region is pinned by ingest
        // itself, so its transient footprint is charged to the writer).
        self.settle_budget(true)?;
        Ok(())
    }

    /// Whether a region has been sealed against appends.
    pub fn is_sealed(&self, id: RegionId) -> bool {
        self.sealed.read().contains(&id)
    }

    /// Fetch a region's payload and tier, verifying the payload checksum
    /// recorded at `put`. A mismatch quarantines the region and reports
    /// the tier the corrupt copy was found on.
    pub fn get(&self, id: RegionId) -> PdcResult<(StoredPayload, StorageTier)> {
        self.touch(id);
        let (res, tier, checksum) = self
            .regions
            .read()
            .get(&id)
            .map(|r| (r.res.clone(), r.tier, r.checksum))
            .ok_or(PdcError::NoSuchRegion(id))?;
        let payload = match res {
            Residency::Resident(p) => p,
            Residency::Spilled(h) => self.fault_in(id, &h, tier)?,
        };
        if payload_checksum(&payload) != checksum {
            self.quarantine.write().insert(id);
            return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
        }
        Ok((payload, tier))
    }

    /// Materialize a spilled payload from its block file. Any failure —
    /// torn file, bad frame checksum, hostile index — quarantines the
    /// region and surfaces as [`PdcError::CorruptRegion`], exactly like a
    /// resident checksum mismatch, so the verify-and-fallback repair lane
    /// handles both identically.
    fn fault_in(&self, id: RegionId, h: &ColdHandle, tier: StorageTier) -> PdcResult<StoredPayload> {
        match Self::materialize(h) {
            Ok(p) => {
                if let Some(s) = self.spill_state() {
                    s.acct.lock().fault_ins += 1;
                }
                Ok(p)
            }
            Err(_) => {
                self.quarantine.write().insert(id);
                Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() })
            }
        }
    }

    /// Decode a spilled payload in full (transient — the store copy stays
    /// cold and the block cache is not populated by whole-region reads).
    fn materialize(h: &ColdHandle) -> PdcResult<StoredPayload> {
        let reader = BlockReader::open(&h.path)?;
        match h.kind {
            ColdKind::Typed { .. } => Ok(StoredPayload::Typed(Arc::new(reader.read_all_typed()?))),
            ColdKind::Raw => Ok(StoredPayload::Raw(Bytes::from(reader.read_all_raw()?))),
        }
    }

    /// Fetch a region's payload and tier WITHOUT re-deriving its checksum.
    /// For advisory reads only (e.g. batch prewarm seeding caches keyed by
    /// the store epoch): skipping verification is safe there because every
    /// mutation — including `corrupt` and repair — bumps the epoch, which
    /// invalidates whatever the advisory reader derived. Anything that
    /// feeds query results or durability must use [`Self::get`].
    pub fn get_unverified(&self, id: RegionId) -> PdcResult<(StoredPayload, StorageTier)> {
        self.touch(id);
        let (res, tier) = self
            .regions
            .read()
            .get(&id)
            .map(|r| (r.res.clone(), r.tier))
            .ok_or(PdcError::NoSuchRegion(id))?;
        match res {
            Residency::Resident(p) => Ok((p, tier)),
            // Spilled reads are implicitly verified: every decoded frame
            // carries its own checksum.
            Residency::Spilled(h) => Ok((self.fault_in(id, &h, tier)?, tier)),
        }
    }

    /// Size in bytes of a region's payload, without any verification,
    /// tier charge, or access bookkeeping — a host-side metadata peek for
    /// planners ranking operators before deciding what to read.
    pub fn payload_size(&self, id: RegionId) -> Option<u64> {
        self.regions.read().get(&id).map(|r| r.size_bytes())
    }

    /// Fetch a typed-array region (most callers).
    pub fn get_typed(&self, id: RegionId) -> PdcResult<Arc<TypedVec>> {
        match self.get(id)? {
            (StoredPayload::Typed(v), _) => Ok(v),
            (StoredPayload::Raw(_), _) => {
                Err(PdcError::Storage(format!("region {id} holds raw bytes, not typed data")))
            }
        }
    }

    /// Fetch a raw-bytes region (index files).
    pub fn get_raw(&self, id: RegionId) -> PdcResult<Bytes> {
        match self.get(id)? {
            (StoredPayload::Raw(b), _) => Ok(b),
            (StoredPayload::Typed(_), _) => {
                Err(PdcError::Storage(format!("region {id} holds typed data, not raw bytes")))
            }
        }
    }

    /// The simulated OST a region is placed on.
    pub fn ost_of(&self, id: RegionId) -> PdcResult<u32> {
        self.regions.read().get(&id).map(|r| r.ost).ok_or(PdcError::NoSuchRegion(id))
    }

    /// Whether a region exists.
    pub fn contains(&self, id: RegionId) -> bool {
        self.regions.read().contains_key(&id)
    }

    /// Remove a region; returns whether it existed. Also clears any
    /// quarantine entry so a later `put` at the same id starts clean.
    pub fn remove(&self, id: RegionId) -> bool {
        self.quarantine.write().remove(&id);
        self.sealed.write().remove(&id);
        let old = self.regions.write().remove(&id);
        let existed = old.is_some();
        if let (Some(r), Some(s)) = (old, self.spill_state()) {
            match r.res {
                Residency::Resident(p) => s.sub_resident(p.size_bytes()),
                Residency::Spilled(h) => s.drop_spilled(&h, cache_token(id)),
            }
            s.ticks.lock().last_use.remove(&id);
        }
        if existed {
            self.bump_epoch();
        }
        existed
    }

    /// Move a region to a different tier (data movement across the
    /// hierarchy). The payload is verified before it moves — migrating a
    /// corrupt copy would spread it. Returns the payload size moved.
    pub fn migrate(&self, id: RegionId, tier: StorageTier) -> PdcResult<u64> {
        let mut map = self.regions.write();
        let r = map.get_mut(&id).ok_or(PdcError::NoSuchRegion(id))?;
        let verified = match &r.res {
            Residency::Resident(p) => payload_checksum(p) == r.checksum,
            Residency::Spilled(h) => Self::materialize(h)
                .map(|p| payload_checksum(&p) == r.checksum)
                .unwrap_or(false),
        };
        if !verified {
            let found_on = r.tier;
            drop(map);
            self.quarantine.write().insert(id);
            return Err(PdcError::CorruptRegion { region: id, tier: found_on.name().into() });
        }
        r.tier = tier;
        let bytes = r.size_bytes();
        drop(map);
        self.bump_epoch();
        Ok(bytes)
    }

    /// Deterministically corrupt a region in place: flip one bit of the
    /// stored payload (site chosen from `seed`), keeping the previous
    /// payload as the pristine durable copy for [`ObjectStore::repair`].
    /// Empty payloads are left untouched. Returns whether a bit flipped.
    pub fn corrupt(&self, id: RegionId, seed: u64) -> PdcResult<bool> {
        let mut map = self.regions.write();
        let r = map.get_mut(&id).ok_or(PdcError::NoSuchRegion(id))?;
        let site_seed = seed ^ id.object.raw().rotate_left(32) ^ id.index as u64;
        match &r.res {
            Residency::Resident(p) => match flipped_payload(p, site_seed) {
                Some(bad) => {
                    if r.pristine.is_none() {
                        r.pristine = Some(p.clone());
                    }
                    r.res = Residency::Resident(bad);
                    drop(map);
                    self.bump_epoch();
                    Ok(true)
                }
                None => Ok(false),
            },
            Residency::Spilled(h) => {
                // Empty payloads cannot be corrupted — parity with the
                // resident path (the block file's framing bytes are not
                // payload).
                if h.raw_bytes == 0 {
                    return Ok(false);
                }
                let path = h.path.clone();
                corrupt_block_file(&path, site_seed)?;
                drop(map);
                if let Some(s) = self.spill_state() {
                    s.block_cache.invalidate_region(cache_token(id));
                }
                self.bump_epoch();
                Ok(true)
            }
        }
    }

    /// Restore a quarantined region from its pristine durable copy
    /// (models re-reading the authoritative PFS copy). Clears the
    /// quarantine mark and returns the number of bytes re-read. Errors
    /// with [`PdcError::CorruptRegion`] when no pristine copy exists.
    pub fn repair(&self, id: RegionId) -> PdcResult<u64> {
        let mut map = self.regions.write();
        let r = map.get_mut(&id).ok_or(PdcError::NoSuchRegion(id))?;
        let tier = r.tier;
        let bytes = match &r.res {
            Residency::Resident(_) => {
                let Some(pristine) = r.pristine.take() else {
                    return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
                };
                if payload_checksum(&pristine) != r.checksum {
                    // The "durable" copy is bad too: keep the region quarantined.
                    r.pristine = Some(pristine);
                    drop(map);
                    return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
                }
                let bytes = pristine.size_bytes();
                r.res = Residency::Resident(pristine);
                bytes
            }
            Residency::Spilled(h) => {
                // The pristine copy lives in the sibling `.orig` file.
                let orig = orig_path(&h.path);
                if !orig.exists() {
                    return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
                }
                std::fs::copy(&orig, &h.path).map_err(|e| {
                    PdcError::Storage(format!("spill repair {}: {e}", h.path.display()))
                })?;
                // Verify the restored file decodes to the recorded
                // checksum; if not, leave the `.orig` marker in place and
                // stay quarantined.
                let ok = Self::materialize(h)
                    .map(|p| payload_checksum(&p) == r.checksum)
                    .unwrap_or(false);
                if !ok {
                    drop(map);
                    return Err(PdcError::CorruptRegion { region: id, tier: tier.name().into() });
                }
                let _ = std::fs::remove_file(&orig);
                let bytes = h.raw_bytes;
                drop(map);
                if let Some(s) = self.spill_state() {
                    s.block_cache.invalidate_region(cache_token(id));
                }
                self.quarantine.write().remove(&id);
                self.bump_epoch();
                return Ok(bytes);
            }
        };
        drop(map);
        self.quarantine.write().remove(&id);
        self.bump_epoch();
        Ok(bytes)
    }

    /// Whether a region has failed checksum verification and not yet been
    /// repaired or replaced.
    pub fn is_quarantined(&self, id: RegionId) -> bool {
        self.quarantine.read().contains(&id)
    }

    /// All currently quarantined regions (sorted for determinism).
    pub fn quarantined(&self) -> Vec<RegionId> {
        let mut out: Vec<RegionId> = self.quarantine.read().iter().copied().collect();
        out.sort();
        out
    }

    /// Re-derive and verify a region's checksum without returning the
    /// payload. Quarantines on mismatch, like [`ObjectStore::get`].
    pub fn verify(&self, id: RegionId) -> PdcResult<()> {
        self.get(id).map(|_| ())
    }

    /// The storage tier a region is placed on. Pure metadata — residency
    /// (resident vs spilled) never changes a region's tier.
    pub fn tier_of(&self, id: RegionId) -> PdcResult<StorageTier> {
        self.regions.read().get(&id).map(|r| r.tier).ok_or(PdcError::NoSuchRegion(id))
    }

    /// Total stored bytes per tier.
    pub fn bytes_by_tier(&self) -> HashMap<StorageTier, u64> {
        let mut out = HashMap::new();
        for r in self.regions.read().values() {
            *out.entry(r.tier).or_insert(0) += r.size_bytes();
        }
        out
    }

    /// Number of stored regions.
    pub fn num_regions(&self) -> usize {
        self.regions.read().len()
    }

    // ------------------------------------------------------------------
    // Out-of-core spill: demotion under a byte budget, block-level reads.
    // ------------------------------------------------------------------

    /// Enable out-of-core mode: sealed regions demote to block-compressed
    /// files under `dir` whenever the resident footprint exceeds
    /// `memory_budget` bytes; decoded blocks of spilled regions are served
    /// through a shared cache of at most `block_cache_bytes`.
    ///
    /// Spilling is physically real but simulation-invisible: tiers,
    /// checksums, and cost charges never depend on residency.
    pub fn configure_spill(
        &self,
        dir: &Path,
        memory_budget: u64,
        block_cache_bytes: u64,
    ) -> PdcResult<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| PdcError::Storage(format!("spill dir {}: {e}", dir.display())))?;
        let resident: u64 = self
            .regions
            .read()
            .values()
            .map(|r| match &r.res {
                Residency::Resident(p) => p.size_bytes(),
                Residency::Spilled(_) => 0,
            })
            .sum();
        // Reconfiguring keeps cumulative counters and access recency;
        // only the budget, directory, and (fresh) block cache change.
        let prev = self.spill_state();
        let mut acct = prev.as_ref().map(|p| *p.acct.lock()).unwrap_or_default();
        acct.resident_bytes = resident;
        acct.high_water = 0;
        let ticks = prev
            .as_ref()
            .map(|p| std::mem::take(&mut *p.ticks.lock()))
            .unwrap_or_default();
        let state = SpillState {
            dir: dir.to_path_buf(),
            memory_budget,
            block_cache: Arc::new(BlockCache::new(block_cache_bytes)),
            acct: Mutex::new(acct),
            ticks: Mutex::new(ticks),
            demoting: Mutex::new(HashSet::new()),
            claim_released: Condvar::new(),
        };
        *self.spill.write() = Some(Arc::new(state));
        self.settle_budget(true)?;
        Ok(())
    }

    /// Whether out-of-core mode is enabled.
    pub fn spill_enabled(&self) -> bool {
        self.spill.read().is_some()
    }

    /// The configured memory budget, if spill is enabled.
    pub fn memory_budget(&self) -> Option<u64> {
        self.spill_state().map(|s| s.memory_budget)
    }

    /// Whether a region's payload currently lives on disk.
    pub fn is_spilled(&self, id: RegionId) -> bool {
        self.regions
            .read()
            .get(&id)
            .map(|r| matches!(r.res, Residency::Spilled(_)))
            .unwrap_or(false)
    }

    /// Host-side spill statistics (None when spill is disabled).
    pub fn spill_stats(&self) -> Option<SpillStats> {
        let s = self.spill_state()?;
        let a = *s.acct.lock();
        Some(SpillStats {
            resident_bytes: a.resident_bytes,
            resident_high_water: a.high_water,
            demotions: a.demotions,
            fault_ins: a.fault_ins,
            spilled_regions: a.spilled_regions,
            spilled_raw_bytes: a.spilled_raw_bytes,
            spilled_comp_bytes: a.spilled_comp_bytes,
            block_cache: s.block_cache.stats(),
            block_cache_bytes: s.block_cache.used_bytes(),
        })
    }

    /// A block-granular read handle for a spilled typed region, or `None`
    /// when the region is resident, raw, missing, or spill is disabled.
    /// Readers that can stream (interval scans) use this to touch only
    /// the blocks they need; everything else faults the region in whole.
    pub fn cold_region(&self, id: RegionId) -> Option<ColdRegion> {
        let s = self.spill_state()?;
        let handle = {
            let map = self.regions.read();
            match &map.get(&id)?.res {
                Residency::Spilled(h) => h.clone(),
                Residency::Resident(_) => return None,
            }
        };
        let ColdKind::Typed { ty, elems, block_elems } = handle.kind else {
            return None;
        };
        self.touch(id);
        Some(ColdRegion {
            id,
            path: handle.path,
            ty,
            elems,
            block_elems,
            raw_bytes: handle.raw_bytes,
            cache: Arc::clone(&s.block_cache),
            reader: Arc::new(Mutex::new(None)),
        })
    }

    /// Demote resident sealed regions (least-recently-used first) until
    /// the resident footprint fits the budget or nothing more is
    /// demotable. Returns the number of regions demoted. No epoch bump:
    /// demotion is physically real but changes no readable bytes.
    pub fn enforce_budget(&self) -> PdcResult<u64> {
        self.settle_budget(false)
    }

    /// [`Self::enforce_budget`], optionally sampling the resident
    /// high-water mark where it returns. A victim another call has
    /// claimed is waited for rather than skipped, so concurrent enforcers
    /// all return with the budget settled, not mid-demotion.
    fn settle_budget(&self, sample_high_water: bool) -> PdcResult<u64> {
        let Some(s) = self.spill_state() else {
            return Ok(0);
        };
        let mut demoted = 0u64;
        loop {
            {
                // Check and sample under one lock, so a concurrent `put`
                // cannot land between them.
                let mut a = s.acct.lock();
                if a.resident_bytes <= s.memory_budget {
                    if sample_high_water {
                        a.note_high_water();
                    }
                    return Ok(demoted);
                }
            }
            let victim = {
                let map = self.regions.read();
                let sealed = self.sealed.read();
                let quar = self.quarantine.read();
                let ticks = s.ticks.lock();
                let mut demoting = s.demoting.lock();
                let mut best: Option<(u64, RegionId)> = None;
                for (id, r) in map.iter() {
                    if !matches!(r.res, Residency::Resident(_))
                        || r.pristine.is_some()
                        || r.size_bytes() == 0
                        || !sealed.contains(id)
                        || quar.contains(id)
                        || demoting.contains(id)
                    {
                        continue;
                    }
                    let t = ticks.last_use.get(id).copied().unwrap_or(0);
                    if best.is_none_or(|b| (t, *id) < b) {
                        best = Some((t, *id));
                    }
                }
                match best {
                    Some((_, id)) => {
                        demoting.insert(id);
                        DemoteClaim { s: &s, id }
                    }
                    // Every remaining victim is being demoted by another
                    // call: wait for one to finish, then re-check.
                    None if !demoting.is_empty() => {
                        drop((map, sealed, quar, ticks));
                        let released = s.claim_released.wait(demoting);
                        drop(released.unwrap_or_else(PoisonError::into_inner));
                        continue;
                    }
                    // Nothing demotable: the excess is pinned (open,
                    // quarantined or pristine-backed regions). Sample
                    // while the region map is still locked.
                    None => {
                        if sample_high_water {
                            s.note_high_water();
                        }
                        return Ok(demoted);
                    }
                }
            };
            if !self.demote(&victim)? {
                break; // raced away; don't spin
            }
            demoted += 1;
        }
        if sample_high_water {
            s.note_high_water();
        }
        Ok(demoted)
    }

    /// Demote one claimed region to its block-compressed spill file. Only
    /// sealed, unquarantined, pristine-free resident regions are eligible.
    /// The claim makes this call the only writer of the region's spill
    /// file, so the file it removes on a lost race is its own uncommitted
    /// one.
    fn demote(&self, claim: &DemoteClaim) -> PdcResult<bool> {
        let (id, s) = (claim.id, claim.s);
        // Snapshot without holding the write lock across file IO.
        let (payload, checksum) = {
            let map = self.regions.read();
            let Some(r) = map.get(&id) else { return Ok(false) };
            match &r.res {
                Residency::Resident(p) if r.pristine.is_none() => (p.clone(), r.checksum),
                _ => return Ok(false),
            }
        };
        if !self.is_sealed(id) || self.is_quarantined(id) || payload.size_bytes() == 0 {
            return Ok(false);
        }
        let path = s.dir.join(format!("r_{:016x}_{:08x}.pbf", id.object.raw(), id.index));
        let (meta, kind) = match &payload {
            StoredPayload::Typed(v) => (
                blockfile::write_typed(&path, v, blockfile::DEFAULT_BLOCK_ELEMS)?,
                ColdKind::Typed {
                    ty: v.pdc_type(),
                    elems: v.len() as u64,
                    block_elems: blockfile::DEFAULT_BLOCK_ELEMS,
                },
            ),
            StoredPayload::Raw(b) => {
                (blockfile::write_raw(&path, b, blockfile::DEFAULT_BLOCK_ELEMS)?, ColdKind::Raw)
            }
        };
        let handle = ColdHandle { path, kind, raw_bytes: meta.raw_bytes, comp_bytes: meta.comp_bytes };
        let mut map = self.regions.write();
        let still_clean = map.get(&id).is_some_and(|r| {
            matches!(r.res, Residency::Resident(_)) && r.pristine.is_none() && r.checksum == checksum
        });
        if !still_clean {
            drop(map);
            let _ = std::fs::remove_file(&handle.path);
            return Ok(false);
        }
        let r = map.get_mut(&id).expect("checked above");
        let freed = r.size_bytes();
        let (raw, comp) = (handle.raw_bytes, handle.comp_bytes);
        r.res = Residency::Spilled(handle);
        drop(map);
        s.sub_resident(freed);
        let mut a = s.acct.lock();
        a.demotions += 1;
        a.spilled_regions += 1;
        a.spilled_raw_bytes += raw;
        a.spilled_comp_bytes += comp;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_types::ObjectId;

    fn rid(o: u64, i: u32) -> RegionId {
        RegionId::new(ObjectId(o), i)
    }

    #[test]
    fn put_get_roundtrip_typed() {
        let store = ObjectStore::new(8);
        let v: TypedVec = vec![1.0f32, 2.0, 3.0].into();
        store.put(rid(1, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        let got = store.get_typed(rid(1, 0)).unwrap();
        assert_eq!(&*got, &v);
        let (_, tier) = store.get(rid(1, 0)).unwrap();
        assert_eq!(tier, StorageTier::Pfs);
    }

    #[test]
    fn put_get_roundtrip_raw() {
        let store = ObjectStore::new(8);
        store.put(rid(2, 5), StoredPayload::Raw(Bytes::from_static(b"abc")), StorageTier::Pfs);
        assert_eq!(store.get_raw(rid(2, 5)).unwrap(), Bytes::from_static(b"abc"));
    }

    #[test]
    fn wrong_kind_is_an_error() {
        let store = ObjectStore::new(8);
        store.put(rid(1, 0), StoredPayload::Raw(Bytes::from_static(b"x")), StorageTier::Pfs);
        assert!(store.get_typed(rid(1, 0)).is_err());
        let v: TypedVec = vec![1i32].into();
        store.put(rid(1, 1), StoredPayload::Typed(Arc::new(v)), StorageTier::Dram);
        assert!(store.get_raw(rid(1, 1)).is_err());
    }

    #[test]
    fn missing_region_is_an_error() {
        let store = ObjectStore::new(8);
        assert!(matches!(store.get(rid(9, 9)), Err(PdcError::NoSuchRegion(_))));
        assert!(!store.contains(rid(9, 9)));
    }

    #[test]
    fn placement_spreads_across_osts() {
        let store = ObjectStore::new(4);
        for i in 0..16 {
            let v: TypedVec = vec![0.0f32].into();
            store.put(rid(1, i), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        }
        let mut used = std::collections::HashSet::new();
        for i in 0..16 {
            used.insert(store.ost_of(rid(1, i)).unwrap());
        }
        assert_eq!(used.len(), 4, "round-robin should hit every OST");
    }

    #[test]
    fn migrate_changes_tier() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1.0f64; 100].into();
        store.put(rid(3, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        let moved = store.migrate(rid(3, 0), StorageTier::Dram).unwrap();
        assert_eq!(moved, 800);
        assert_eq!(store.get(rid(3, 0)).unwrap().1, StorageTier::Dram);
    }

    #[test]
    fn bytes_by_tier_accounts() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![0u32; 10].into(); // 40 bytes
        store.put(rid(1, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.put(rid(1, 1), StoredPayload::Typed(Arc::new(v)), StorageTier::Dram);
        store.put(rid(1, 2), StoredPayload::Raw(Bytes::from(vec![0u8; 7])), StorageTier::Pfs);
        let by_tier = store.bytes_by_tier();
        assert_eq!(by_tier[&StorageTier::Pfs], 47);
        assert_eq!(by_tier[&StorageTier::Dram], 40);
        assert_eq!(store.num_regions(), 3);
    }

    #[test]
    fn remove_region() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![0u32; 1].into();
        store.put(rid(1, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        assert!(store.remove(rid(1, 0)));
        assert!(!store.remove(rid(1, 0)));
    }

    #[test]
    fn corrupt_get_reports_tier_and_quarantines() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1.0f64; 16].into();
        store.put(rid(4, 1), StoredPayload::Typed(Arc::new(v)), StorageTier::BurstBuffer);
        assert!(store.corrupt(rid(4, 1), 7).unwrap());
        match store.get(rid(4, 1)) {
            Err(PdcError::CorruptRegion { region, tier }) => {
                assert_eq!(region, rid(4, 1));
                assert_eq!(tier, "burst-buffer");
            }
            other => panic!("expected CorruptRegion, got {other:?}"),
        }
        assert!(store.is_quarantined(rid(4, 1)));
        assert_eq!(store.quarantined(), vec![rid(4, 1)]);
        // Migration must refuse to spread the corrupt copy.
        assert!(matches!(
            store.migrate(rid(4, 1), StorageTier::Dram),
            Err(PdcError::CorruptRegion { .. })
        ));
    }

    #[test]
    fn repair_restores_pristine_copy() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![3.5f32; 8].into();
        store.put(rid(5, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.corrupt(rid(5, 0), 99).unwrap();
        assert!(store.get(rid(5, 0)).is_err());
        let bytes = store.repair(rid(5, 0)).unwrap();
        assert_eq!(bytes, 32);
        assert!(!store.is_quarantined(rid(5, 0)));
        assert_eq!(&*store.get_typed(rid(5, 0)).unwrap(), &v);
    }

    #[test]
    fn repair_without_pristine_is_typed_error() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![0i64; 4].into();
        store.put(rid(6, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        assert!(matches!(store.repair(rid(6, 0)), Err(PdcError::CorruptRegion { .. })));
    }

    #[test]
    fn corrupt_raw_payload_detected() {
        let store = ObjectStore::new(2);
        store.put(rid(7, 2), StoredPayload::Raw(Bytes::from(vec![9u8; 64])), StorageTier::Pfs);
        assert!(store.corrupt(rid(7, 2), 1).unwrap());
        assert!(matches!(store.get_raw(rid(7, 2)), Err(PdcError::CorruptRegion { .. })));
        store.repair(rid(7, 2)).unwrap();
        assert_eq!(store.get_raw(rid(7, 2)).unwrap(), Bytes::from(vec![9u8; 64]));
    }

    #[test]
    fn corruption_site_is_seed_deterministic() {
        let make = |seed: u64| {
            let store = ObjectStore::new(2);
            let v: TypedVec = (0..128u32).collect::<Vec<u32>>().into();
            store.put(rid(8, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
            store.corrupt(rid(8, 0), seed).unwrap();
            let map = store.regions.read();
            match &map[&rid(8, 0)].res {
                Residency::Resident(p) => payload_checksum(p),
                Residency::Spilled(_) => unreachable!("spill is not enabled"),
            }
        };
        assert_eq!(make(42), make(42));
        assert_ne!(make(42), make(43));
    }

    #[test]
    fn put_and_remove_clear_quarantine() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1u32; 8].into();
        store.put(rid(9, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.corrupt(rid(9, 0), 3).unwrap();
        let _ = store.get(rid(9, 0));
        assert!(store.is_quarantined(rid(9, 0)));
        store.put(rid(9, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        assert!(!store.is_quarantined(rid(9, 0)), "rewrite must clear quarantine");
        store.corrupt(rid(9, 0), 3).unwrap();
        let _ = store.get(rid(9, 0));
        assert!(store.remove(rid(9, 0)));
        assert!(!store.is_quarantined(rid(9, 0)), "remove must clear quarantine");
    }

    #[test]
    fn epoch_advances_on_every_data_mutation() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1.0f32; 8].into();
        let e0 = store.epoch();
        store.put(rid(11, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        let e1 = store.epoch();
        assert!(e1 > e0, "put must bump");
        store.migrate(rid(11, 0), StorageTier::Dram).unwrap();
        let e2 = store.epoch();
        assert!(e2 > e1, "migrate must bump");
        store.corrupt(rid(11, 0), 5).unwrap();
        let e3 = store.epoch();
        assert!(e3 > e2, "corrupt must bump");
        store.repair(rid(11, 0)).unwrap();
        let e4 = store.epoch();
        assert!(e4 > e3, "repair must bump");
        store.remove(rid(11, 0));
        let e5 = store.epoch();
        assert!(e5 > e4, "remove must bump");
        assert_eq!(store.epoch(), e5, "reads must not bump");
        store.bump_epoch();
        assert_eq!(store.epoch(), e5 + 1);
        // removing a missing region is a no-op
        assert!(!store.remove(rid(11, 0)));
        assert_eq!(store.epoch(), e5 + 1);
    }

    #[test]
    fn append_grows_payload_and_bumps_epoch() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1.0f64, 2.0, 3.0].into();
        store.put(rid(12, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        let e0 = store.epoch();
        let delta: TypedVec = vec![4.0f64, 5.0].into();
        assert_eq!(store.append_typed(rid(12, 0), &delta).unwrap(), 5);
        assert!(store.epoch() > e0, "append must bump the epoch");
        let got = store.get_typed(rid(12, 0)).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got.to_f64_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn append_preserves_prefix_bytes() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![9u32, 8, 7].into();
        store.put(rid(12, 1), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        let delta: TypedVec = vec![6u32].into();
        store.append_typed(rid(12, 1), &delta).unwrap();
        let got = store.get_typed(rid(12, 1)).unwrap();
        match (&*got, &v) {
            (TypedVec::UInt32(grown), TypedVec::UInt32(orig)) => {
                assert_eq!(&grown[..3], &orig[..]);
                assert_eq!(grown[3], 6);
            }
            _ => panic!("unexpected variants"),
        }
    }

    #[test]
    fn append_refuses_sealed_missing_raw_and_mismatched() {
        let store = ObjectStore::new(2);
        let delta: TypedVec = vec![1.0f64].into();
        // missing
        assert!(matches!(store.append_typed(rid(13, 0), &delta), Err(PdcError::NoSuchRegion(_))));
        // sealed
        let v: TypedVec = vec![1.0f64; 4].into();
        store.put(rid(13, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        store.seal(rid(13, 0)).unwrap();
        assert!(store.is_sealed(rid(13, 0)));
        assert!(matches!(store.append_typed(rid(13, 0), &delta), Err(PdcError::Storage(_))));
        // raw payload
        store.put(rid(13, 1), StoredPayload::Raw(Bytes::from_static(b"idx")), StorageTier::Pfs);
        assert!(matches!(store.append_typed(rid(13, 1), &delta), Err(PdcError::Storage(_))));
        // element-type mismatch
        let ints: TypedVec = vec![1i32; 4].into();
        store.put(rid(13, 2), StoredPayload::Typed(Arc::new(ints)), StorageTier::Pfs);
        assert!(matches!(store.append_typed(rid(13, 2), &delta), Err(PdcError::Storage(_))));
        // sealing a missing region is a typed error
        assert!(matches!(store.seal(rid(13, 9)), Err(PdcError::NoSuchRegion(_))));
    }

    #[test]
    fn append_to_corrupt_region_quarantines() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1.0f64; 16].into();
        store.put(rid(14, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        store.corrupt(rid(14, 0), 11).unwrap();
        let delta: TypedVec = vec![2.0f64].into();
        assert!(matches!(
            store.append_typed(rid(14, 0), &delta),
            Err(PdcError::CorruptRegion { .. })
        ));
        assert!(store.is_quarantined(rid(14, 0)));
    }

    #[test]
    fn put_and_remove_clear_seal_mark() {
        let store = ObjectStore::new(2);
        let v: TypedVec = vec![1u64; 2].into();
        store.put(rid(15, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.seal(rid(15, 0)).unwrap();
        store.put(rid(15, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        assert!(!store.is_sealed(rid(15, 0)), "rewrite starts an open region");
        store.seal(rid(15, 0)).unwrap();
        store.remove(rid(15, 0));
        store.put(rid(15, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        assert!(!store.is_sealed(rid(15, 0)), "remove must clear the seal");
    }

    #[test]
    fn empty_payload_cannot_be_corrupted() {
        let store = ObjectStore::new(2);
        store.put(rid(10, 0), StoredPayload::Raw(Bytes::new()), StorageTier::Pfs);
        assert!(!store.corrupt(rid(10, 0), 5).unwrap());
        assert!(store.get_raw(rid(10, 0)).is_ok());
    }

    // ------------------------------------------------------------------
    // Out-of-core spill
    // ------------------------------------------------------------------

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let thread = std::thread::current()
            .name()
            .unwrap_or("t")
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        let d = std::env::temp_dir().join(format!("pdc_store_{tag}_{}_{thread}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn seeded_floats(n: usize) -> TypedVec {
        (0..n).map(|i| (i as f32 * 0.25).sin()).collect::<Vec<f32>>().into()
    }

    #[test]
    fn sealed_regions_demote_under_budget_and_fault_back_in() {
        let dir = tmp_dir("demote");
        let store = ObjectStore::new(4);
        store.configure_spill(&dir, 10_000, 1 << 20).unwrap();
        // Four sealed 40 KB regions against a 10 KB budget.
        let mut originals = Vec::new();
        for i in 0..4 {
            let v = seeded_floats(10_000);
            originals.push(v.clone());
            store.put(rid(1, i), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
            store.seal(rid(1, i)).unwrap();
        }
        let stats = store.spill_stats().unwrap();
        assert!(stats.resident_bytes <= 10_000, "resident {} > budget", stats.resident_bytes);
        assert!(stats.resident_high_water <= 10_000);
        assert!(stats.demotions >= 3, "expected ≥3 demotions, got {}", stats.demotions);
        assert_eq!(stats.spilled_regions, stats.demotions);
        assert!(stats.spilled_comp_bytes > 0);
        // Reads still verify and return the exact payload.
        for i in 0..4 {
            let got = store.get_typed(rid(1, i)).unwrap();
            assert_eq!(&*got, &originals[i as usize]);
        }
        assert!(store.spill_stats().unwrap().fault_ins >= 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_sealers_never_race_a_demotion() {
        // Every seal enforces a budget far below what the writers hold, so
        // concurrent enforcers keep picking the same LRU victims; each
        // victim must still be written and committed exactly once. The
        // budget holds the threads' open regions (one each, at most 4384
        // bytes), so every seal can settle within it and the high-water
        // mark it samples must too.
        let dir = tmp_dir("race");
        let store = Arc::new(ObjectStore::new(4));
        let budget = 20_000;
        store.configure_spill(&dir, budget, 1 << 16).unwrap();
        let threads = 4u32;
        let per_thread = 24u32;
        // Every round, all threads seal at once.
        let barrier = Arc::new(std::sync::Barrier::new(threads as usize));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    // Errors are collected, not raised, so a failing
                    // thread keeps meeting the others at the barrier.
                    let mut errors = Vec::new();
                    for i in 0..per_thread {
                        let id = rid(9, t * per_thread + i);
                        let v = seeded_floats(1_000 + (t * per_thread + i) as usize);
                        store.put(id, StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
                        barrier.wait();
                        errors.extend(store.seal(id).err());
                        errors.extend(store.enforce_budget().err());
                    }
                    errors
                })
            })
            .collect();
        for h in handles {
            let errors = h.join().expect("sealer thread panicked");
            assert!(errors.is_empty(), "concurrent seals failed: {errors:?}");
        }
        let stats = store.spill_stats().unwrap();
        assert!(stats.demotions > 0);
        assert_eq!(stats.spilled_regions, stats.demotions, "each victim committed once");
        assert!(
            stats.resident_high_water <= budget,
            "high-water {} > budget {budget}",
            stats.resident_high_water
        );
        let mut spilled = 0;
        for k in 0..threads * per_thread {
            let id = rid(9, k);
            spilled += u32::from(store.is_spilled(id));
            // `get` re-derives the checksum recorded at `put`, so a lost
            // or clobbered spill file fails here.
            let got = store.get_typed(id).unwrap();
            assert_eq!(&*got, &seeded_floats(1_000 + k as usize), "region {k}");
        }
        assert_eq!(u64::from(spilled), stats.spilled_regions);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsealed_regions_never_demote() {
        let dir = tmp_dir("unsealed");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 100, 1 << 20).unwrap();
        store.put(rid(2, 0), StoredPayload::Typed(Arc::new(seeded_floats(1000))), StorageTier::Pfs);
        assert!(!store.is_spilled(rid(2, 0)));
        // Over budget, but the only region is unsealed: nothing to demote.
        assert!(store.spill_stats().unwrap().resident_bytes > 100);
        assert_eq!(store.spill_stats().unwrap().demotions, 0);
        // Appends still work (spilled regions would refuse).
        let delta: TypedVec = vec![1.0f32].into();
        store.append_typed(rid(2, 0), &delta).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_order_picks_least_recently_used_victim() {
        let dir = tmp_dir("lru");
        let store = ObjectStore::new(2);
        // Budget fits exactly three 400-byte regions.
        store.configure_spill(&dir, 1200, 1 << 20).unwrap();
        for i in 0..3 {
            store.put(rid(3, i), StoredPayload::Typed(Arc::new(seeded_floats(100))), StorageTier::Pfs);
            store.seal(rid(3, i)).unwrap();
        }
        // Touch 0 so region 1 becomes the LRU.
        store.get(rid(3, 0)).unwrap();
        // A fourth region pushes resident to 1600: exactly one demotion.
        store.put(rid(3, 3), StoredPayload::Typed(Arc::new(seeded_floats(100))), StorageTier::Pfs);
        store.seal(rid(3, 3)).unwrap();
        assert!(store.is_spilled(rid(3, 1)), "LRU region must spill first");
        assert!(!store.is_spilled(rid(3, 0)));
        assert!(!store.is_spilled(rid(3, 2)));
        assert!(!store.is_spilled(rid(3, 3)));
        assert_eq!(store.spill_stats().unwrap().demotions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_corrupt_detects_quarantines_and_repairs() {
        let dir = tmp_dir("corrupt");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let v = seeded_floats(5_000);
        store.put(rid(4, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.seal(rid(4, 0)).unwrap();
        assert!(store.is_spilled(rid(4, 0)));
        assert!(store.corrupt(rid(4, 0), 77).unwrap());
        match store.get(rid(4, 0)) {
            Err(PdcError::CorruptRegion { region, .. }) => assert_eq!(region, rid(4, 0)),
            other => panic!("expected CorruptRegion, got {other:?}"),
        }
        assert!(store.is_quarantined(rid(4, 0)));
        // Repair restores from the sibling file and reports the
        // uncompressed byte count, exactly like the resident path.
        let bytes = store.repair(rid(4, 0)).unwrap();
        assert_eq!(bytes, v.size_bytes());
        assert!(!store.is_quarantined(rid(4, 0)));
        assert!(store.is_spilled(rid(4, 0)), "repair keeps the region cold");
        assert_eq!(&*store.get_typed(rid(4, 0)).unwrap(), &v);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_corrupt_site_is_seed_deterministic_and_repair_without_corruption_errors() {
        let dir = tmp_dir("corrupt_det");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        store.put(rid(5, 0), StoredPayload::Typed(Arc::new(seeded_floats(1000))), StorageTier::Pfs);
        store.seal(rid(5, 0)).unwrap();
        // repair with no corruption marker is a typed error
        assert!(matches!(store.repair(rid(5, 0)), Err(PdcError::CorruptRegion { .. })));
        assert!(store.corrupt(rid(5, 0), 42).unwrap());
        assert!(store.get(rid(5, 0)).is_err());
        store.repair(rid(5, 0)).unwrap();
        assert!(store.get(rid(5, 0)).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_raw_region_roundtrips_and_repairs() {
        let dir = tmp_dir("raw");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let bytes: Vec<u8> = (0..4096u32).map(|i| (i % 7) as u8).collect();
        store.put(rid(6, 0), StoredPayload::Raw(Bytes::from(bytes.clone())), StorageTier::Pfs);
        store.seal(rid(6, 0)).unwrap();
        assert!(store.is_spilled(rid(6, 0)));
        assert_eq!(store.get_raw(rid(6, 0)).unwrap(), Bytes::from(bytes.clone()));
        assert!(store.corrupt(rid(6, 0), 9).unwrap());
        assert!(matches!(store.get_raw(rid(6, 0)), Err(PdcError::CorruptRegion { .. })));
        store.repair(rid(6, 0)).unwrap();
        assert_eq!(store.get_raw(rid(6, 0)).unwrap(), Bytes::from(bytes));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_region_streams_blocks_through_cache() {
        let dir = tmp_dir("cold");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let n = blockfile::DEFAULT_BLOCK_ELEMS as usize * 2 + 100; // 3 blocks
        let v = seeded_floats(n);
        store.put(rid(7, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.seal(rid(7, 0)).unwrap();
        let cold = store.cold_region(rid(7, 0)).expect("spilled typed region");
        assert_eq!(cold.len(), n as u64);
        assert_eq!(cold.n_blocks(), 3);
        assert_eq!(cold.pdc_type(), PdcType::Float);
        // Interval → block mapping.
        assert_eq!(cold.blocks_overlapping(0, 10), 0..1);
        let be = blockfile::DEFAULT_BLOCK_ELEMS as u64;
        assert_eq!(cold.blocks_overlapping(be - 1, be + 1), 0..2);
        assert_eq!(cold.blocks_overlapping(2 * be, n as u64), 2..3);
        assert_eq!(cold.blocks_overlapping(5, 5), 0..0);
        // Block contents match the original slice; second read hits cache.
        let b1 = cold.read_block(1).unwrap();
        let (s1, e1) = cold.block_span(1);
        assert_eq!(b1.len() as u64, e1 - s1);
        assert_eq!(b1.to_f64_vec(), v.slice(s1 as usize, (e1 - s1) as usize).to_f64_vec());
        let before = store.spill_stats().unwrap().block_cache.hits;
        let _ = cold.read_block(1).unwrap();
        assert_eq!(store.spill_stats().unwrap().block_cache.hits, before + 1);
        // Resident / raw / missing regions have no cold handle.
        store.put(rid(7, 1), StoredPayload::Raw(Bytes::from_static(b"idx")), StorageTier::Pfs);
        assert!(store.cold_region(rid(7, 1)).is_none());
        assert!(store.cold_region(rid(9, 9)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_and_remove_clean_up_spill_files() {
        let dir = tmp_dir("cleanup");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        let v = seeded_floats(1000);
        store.put(rid(8, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        store.seal(rid(8, 0)).unwrap();
        assert!(store.is_spilled(rid(8, 0)));
        let files = || std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(files(), 1);
        // Rewrite: spill file deleted, region resident again, then respills on seal.
        store.put(rid(8, 0), StoredPayload::Typed(Arc::new(v.clone())), StorageTier::Pfs);
        assert!(!store.is_spilled(rid(8, 0)));
        assert_eq!(files(), 0);
        store.seal(rid(8, 0)).unwrap();
        assert_eq!(files(), 1);
        // Remove: file and accounting gone.
        assert!(store.remove(rid(8, 0)));
        assert_eq!(files(), 0);
        let stats = store.spill_stats().unwrap();
        assert_eq!(stats.spilled_regions, 0);
        assert_eq!(stats.spilled_raw_bytes, 0);
        assert_eq!(stats.resident_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_compresses_and_migrate_verifies_cold_payloads() {
        let dir = tmp_dir("ratio");
        let store = ObjectStore::new(2);
        store.configure_spill(&dir, 0, 1 << 20).unwrap();
        // Monotone ints delta-pack far below raw size.
        let v: TypedVec = (0..100_000i64).collect::<Vec<i64>>().into();
        store.put(rid(9, 0), StoredPayload::Typed(Arc::new(v)), StorageTier::Pfs);
        store.seal(rid(9, 0)).unwrap();
        let stats = store.spill_stats().unwrap();
        assert!(
            stats.compression_ratio() > 4.0,
            "monotone i64 should compress well, got {:.2}",
            stats.compression_ratio()
        );
        let moved = store.migrate(rid(9, 0), StorageTier::Dram).unwrap();
        assert_eq!(moved, 800_000);
        assert_eq!(store.get(rid(9, 0)).unwrap().1, StorageTier::Dram);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
