//! Live index mutations: an epoch-versioned store with delta segments,
//! tombstones, and threshold-triggered compaction.
//!
//! Every other index in this crate borrows an immutable `&[f32]` and a
//! build-once [`HashTable`]; serving live traffic means inserts and deletes
//! must land without a retrain-and-rebuild and without blocking in-flight
//! queries. This module provides that:
//!
//! * The store behind a [`MutableIndex`] **owns** its vectors and
//!   publishes immutable [`Generation`]s. A reader pins the current
//!   generation by cloning an `Arc` (a read lock held only for the clone);
//!   the query itself then runs entirely lock-free on frozen data, so a
//!   query started at epoch `E` sees exactly epoch `E` no matter how many
//!   mutations land while it runs — no torn reads, no reader-side blocking.
//! * [`IndexWriter`] routes [`insert`](IndexWriter::insert) /
//!   [`delete`](IndexWriter::delete) / [`upsert`](IndexWriter::upsert)
//!   into an append-only **delta segment** (hashed through the same
//!   [`HashModel`], so one prober walks base and delta together) and a
//!   **tombstone set** masking deleted rows at evaluate time. Each
//!   mutation publishes a brand-new generation (an insert copies the small
//!   delta, a delete shares it; the large base segment is always shared by
//!   `Arc`), so publishing is one atomic pointer swap.
//! * When `delta rows + tombstones` reaches the compaction threshold, the
//!   store **compacts**: live rows are folded into a fresh base segment
//!   (main table plus MIH block tables rebuilt from cached codes), the
//!   delta drains, tombstones are remapped or dropped, and the new
//!   generation is swapped in atomically. Compaction runs inline by
//!   default or on the global [`Executor`] with
//!   [`MutableIndexBuilder::background_compaction`].
//!
//! # Determinism
//!
//! Compaction keeps live rows in slot order and rebuilds the table from the
//! *cached* codes ([`HashTable::from_codes`]), so a compacted index is
//! bit-identical to an index freshly built over the same rows in the same
//! order — same buckets, same in-bucket order, same probe sequence, same
//! distances (`tests/live_mutations.rs` pins this).
//!
//! # Id model
//!
//! External ids are stable across compaction. Internally every row lives in
//! a *global slot*: base slot `s` is slot `s`, delta row `j` is slot
//! `base_rows + j`. Tombstones name global slots; each segment carries a
//! slot → external-id array. A read searches base and delta as one index
//! over the global slots and maps its answer to external ids. The
//! allocator hands out ids from `next_id` in steps of `id_step` — 1 for a
//! built index, whatever a loaded snapshot's live state records.

use crate::attrs::AttributeStore;
use crate::code::CodeWord;
use crate::engine::SearchResponse;
use crate::executor::Executor;
use crate::metrics::{metric_name, MarkerKind, MetricsRegistry, SpanId};
use crate::persist::{
    corrupt, validate_index, IndexSections, LoadedIndex, LoadedShard, PersistError, SectionKind,
    SnapshotFile,
};
use crate::probe::mih::MihIndex;
use crate::probe_loop::{open_source, Part, ProbeCtx, SegmentedRows, Target};
use crate::recall::RecallModel;
use crate::request::SearchRequest;
use crate::table::HashTable;
use gqr_l2h::HashModel;
use gqr_linalg::vecops::Metric;
use gqr_linalg::wire::{ByteReader, ByteWriter, WireError};
use gqr_linalg::RowBuffer;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Default for [`MutableIndexBuilder::compaction_threshold`]: compact once
/// `delta rows + tombstones` reaches this. Keeps the per-mutation
/// copy-on-write cost (cloning the delta) bounded while amortizing the
/// rebuild.
pub const DEFAULT_COMPACTION_THRESHOLD: usize = 512;

/// One frozen run of rows: vectors, per-slot external ids and codes, the
/// hash table over the slots, and an optional MIH side index. Both segments
/// of a generation are shared by `Arc`: the large base until a compaction,
/// the small delta until the next insert or upsert clones and extends it.
#[derive(Clone)]
struct Segment<C: CodeWord = u64> {
    /// Row-major vectors, `dim` columns, in the aligned (and, once large,
    /// huge-page) buffer the evaluator scores from.
    data: RowBuffer,
    /// Slot → external id.
    ids: Vec<u32>,
    /// Slot → bucket code (cached so compaction never re-encodes).
    codes: Vec<C>,
    /// Slot-addressed hash table (dense ids `0..rows`).
    table: HashTable<C>,
    /// MIH block tables over `codes`, when MIH is enabled.
    mih: Option<MihIndex<C>>,
}

impl<C: CodeWord> Segment<C> {
    fn empty(code_length: usize) -> Segment<C> {
        Segment {
            data: RowBuffer::new(),
            ids: Vec::new(),
            codes: Vec::new(),
            table: HashTable::from_codes(code_length, &[]),
            mih: None,
        }
    }

    fn rows(&self) -> usize {
        self.ids.len()
    }

    fn row_data(&self, slot: usize, dim: usize) -> &[f32] {
        &self.data[slot * dim..(slot + 1) * dim]
    }

    /// Append one row; the caller rebuilds the MIH afterwards if needed.
    fn push(&mut self, row: &[f32], id: u32, code: C) {
        let local = self.ids.len() as u32;
        self.data.extend_from_slice(row);
        self.ids.push(id);
        self.codes.push(code);
        self.table.insert(code, local);
    }

    fn rebuild_mih(&mut self, blocks: Option<usize>) {
        self.mih = match blocks {
            Some(b) if !self.codes.is_empty() => {
                Some(MihIndex::build(self.table.code_length(), &self.codes, b))
            }
            _ => None,
        };
    }
}

/// Hasher of the tombstone set. A read tests every candidate against the
/// set, and slots are the index's own dense integers: a Fibonacci multiply
/// spreads them, where SipHash would only slow the test.
#[derive(Default)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("SlotHasher only hashes u32 slots");
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// One immutable published version of the index: a shared base segment, a
/// copy-on-append delta segment, and the tombstone set masking deleted
/// global slots. Obtained from [`MutableIndex::pin`]; everything reachable
/// from a generation is frozen, so a pinned generation can be queried
/// concurrently with any number of mutations.
pub struct Generation<C: CodeWord = u64> {
    epoch: u64,
    base: Arc<Segment<C>>,
    delta: Arc<Segment<C>>,
    /// Deleted global slots (base slot `s` → `s`; delta row `j` →
    /// `base_rows + j`). Shared between generations when a mutation does
    /// not touch it.
    tombstones: Arc<HashSet<u32, BuildHasherDefault<SlotHasher>>>,
}

impl<C: CodeWord> Generation<C> {
    /// The epoch counter: bumped by exactly one per published mutation or
    /// compaction.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rows in the frozen base segment.
    pub fn base_rows(&self) -> usize {
        self.base.rows()
    }

    /// Rows in the append-only delta segment.
    pub fn delta_rows(&self) -> usize {
        self.delta.rows()
    }

    /// Deleted rows masked by the tombstone set.
    pub fn n_tombstones(&self) -> usize {
        self.tombstones.len()
    }

    /// Live rows visible to a query against this generation.
    pub fn n_live(&self) -> usize {
        // Every tombstone names a distinct formerly-live slot, so the
        // count is exact.
        self.base.rows() + self.delta.rows() - self.tombstones.len()
    }

    /// External ids of every live row (arbitrary order).
    pub fn live_ids(&self) -> Vec<u32> {
        let total = self.base.rows() + self.delta.rows();
        let mut out = Vec::with_capacity(self.n_live());
        for g in 0..total as u32 {
            if !self.tombstones.contains(&g) {
                out.push(self.ext_id(g));
            }
        }
        out
    }

    /// The segment holding global slot `g`, and the slot's place in it.
    fn locate(&self, g: usize) -> (&Segment<C>, usize) {
        match g.checked_sub(self.base.rows()) {
            Some(j) => (&self.delta, j),
            None => (&self.base, g),
        }
    }

    /// External id of global slot `g`.
    fn ext_id(&self, g: u32) -> u32 {
        let (seg, slot) = self.locate(g as usize);
        seg.ids[slot]
    }

    /// `(vector, external id, code)` of global slot `g`.
    fn row(&self, g: usize, dim: usize) -> (&[f32], u32, C) {
        let (seg, slot) = self.locate(g);
        (seg.row_data(slot, dim), seg.ids[slot], seg.codes[slot])
    }
}

/// Writer-side bookkeeping, serialized by the writer mutex.
struct WriterState {
    /// Next external id [`IndexWriter::insert`] hands out.
    next_id: u32,
    /// External id → global slot of every live row.
    live: HashMap<u32, u32>,
}

/// What one mutation changes in the overlay: the grown delta, if it
/// appended a row, and the global slot to tombstone, if it removed one.
type Change<C> = (Option<Segment<C>>, Option<u32>);

/// The epoch-versioned vector store behind [`MutableIndex`]: owns the
/// vectors, publishes [`Generation`]s, serializes writers, and runs
/// compaction. Shared by every handle (`Arc`); all methods take `&self`.
struct VersionedStore<M: HashModel + ?Sized, C: CodeWord = u64> {
    model: Arc<M>,
    dim: usize,
    metric: Metric,
    mih_blocks: Option<usize>,
    compaction_threshold: usize,
    background_compaction: bool,
    id_step: u32,
    current: RwLock<Arc<Generation<C>>>,
    writer: Mutex<WriterState>,
    /// Guards against concurrent compactions (the flag is set before the
    /// rebuild starts and cleared after the swap).
    compacting: AtomicBool,
    /// Self-reference so background compaction jobs can keep the store
    /// alive on the executor without a reference cycle.
    myself: Weak<VersionedStore<M, C>>,
    metrics: MetricsRegistry,
    /// Owned recall calibration model, consulted by every query so requests
    /// with a `recall_target` terminate adaptively. Calibration is
    /// against a frozen index; mutations drift the distribution, so treat
    /// the model as advisory on a heavily mutated store until recalibrated.
    recall: Option<RecallModel>,
    /// Attribute store keyed by **external** ids, fixed at build time.
    /// Rows inserted after the store was built have no attributes and
    /// match no predicate (the documented missing-attribute semantics);
    /// rebuild the index to re-attribute.
    attrs: Option<AttributeStore>,
}

impl<M: HashModel + ?Sized + 'static, C: CodeWord> VersionedStore<M, C> {
    /// Pin the current generation: one brief read-lock to clone the `Arc`,
    /// after which the caller holds a frozen, consistent view.
    fn pin(&self) -> Arc<Generation<C>> {
        self.current.read().clone()
    }

    /// Swap in a new generation and refresh the size gauges. Callers hold
    /// the writer mutex, so publishes are totally ordered.
    fn publish(&self, gen: Generation<C>) {
        if self.metrics.is_enabled() {
            self.metrics.set("gqr_live_epoch", gen.epoch);
            self.metrics.set("gqr_delta_items", gen.delta.rows() as u64);
            self.metrics
                .set("gqr_tombstones", gen.tombstones.len() as u64);
        }
        *self.current.write() = Arc::new(gen);
    }

    /// Append `vector` under external id `id` to a copy of `gen`'s delta,
    /// and point the live map at the row's global slot.
    fn grown_delta(
        &self,
        w: &mut WriterState,
        gen: &Generation<C>,
        vector: &[f32],
        id: u32,
    ) -> Segment<C> {
        let total = gen.base.rows() + gen.delta.rows();
        assert!(total < u32::MAX as usize, "slot space is u32");
        let mut delta = (*gen.delta).clone();
        let code = C::from_blocks(self.model.encode_wide(vector).blocks());
        delta.push(vector, id, code);
        delta.rebuild_mih(self.mih_blocks);
        w.live.insert(id, total as u32);
        delta
    }

    /// The one mutation step. Under the writer lock, `edit` updates the
    /// writer state against the pinned generation and says what changes:
    /// the grown delta, if it appended a row, and the slot to tombstone, if
    /// it removed one — or `None`, and nothing is published. The next
    /// generation shares whatever did not change by `Arc`: a delete shares
    /// the delta, an insert the tombstone set. Each published mutation is
    /// counted, recorded as a one-marker trace (gated by the same 1-in-N
    /// sampler as queries), and may start a compaction. Returns whether it
    /// published.
    fn mutate(
        &self,
        op: &str,
        edit: impl FnOnce(&mut WriterState, &Generation<C>) -> Option<Change<C>>,
    ) -> bool {
        let (kind, a, b);
        {
            let mut w = self.writer.lock();
            let gen = self.pin();
            let Some((grown, tombstone)) = edit(&mut w, &gen) else {
                return false;
            };
            let appended = grown.is_some();
            let delta = grown.map_or_else(|| Arc::clone(&gen.delta), Arc::new);
            let tombstones = match tombstone {
                Some(slot) => {
                    let mut t = (*gen.tombstones).clone();
                    t.insert(slot);
                    Arc::new(t)
                }
                None => Arc::clone(&gen.tombstones),
            };
            let (rows, tombs) = (delta.rows() as u64, tombstones.len() as u64);
            (kind, a, b) = match appended {
                true => (MarkerKind::DeltaAppend, rows, tombs),
                false => (MarkerKind::Tombstone, tombs, rows),
            };
            self.publish(Generation {
                epoch: gen.epoch + 1,
                base: Arc::clone(&gen.base),
                delta,
                tombstones,
            });
        }
        self.metrics
            .incr(&metric_name("gqr_mutations_total", &[("op", op)]));
        let trace = self.metrics.trace_begin("mutation", false);
        if trace.is_sampled() {
            trace.marker(SpanId::ROOT, kind, a, b);
            self.metrics.trace_finish(trace, false);
        }
        self.maybe_compact();
        true
    }

    fn insert(&self, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim, "vector dimensionality mismatch");
        let mut id = 0;
        self.mutate("insert", |w, gen| {
            id = w.next_id;
            w.next_id = id
                .checked_add(self.id_step)
                .expect("external id space exhausted");
            Some((Some(self.grown_delta(w, gen, vector, id)), None))
        });
        id
    }

    fn delete(&self, id: u32) -> bool {
        self.mutate("delete", |w, _| Some((None, Some(w.live.remove(&id)?))))
    }

    fn upsert(&self, id: u32, vector: &[f32]) -> bool {
        assert_eq!(vector.len(), self.dim, "vector dimensionality mismatch");
        let mut replaced = false;
        self.mutate("upsert", |w, gen| {
            assert_eq!(
                id % self.id_step,
                w.next_id % self.id_step,
                "id {id} does not belong to this store's id residue class"
            );
            let old_slot = w.live.remove(&id);
            replaced = old_slot.is_some();
            if id >= w.next_id {
                // Keep the allocator ahead of explicitly-chosen ids.
                w.next_id = id
                    .checked_add(self.id_step)
                    .expect("external id space exhausted");
            }
            Some((Some(self.grown_delta(w, gen, vector, id)), old_slot))
        });
        replaced
    }

    /// Compact when the masked/overlay state crossed the threshold and no
    /// compaction is already running.
    fn maybe_compact(&self) {
        let (delta_rows, tombs) = {
            let gen = self.current.read();
            (gen.delta.rows(), gen.tombstones.len())
        };
        if delta_rows + tombs < self.compaction_threshold {
            return;
        }
        if self.compacting.swap(true, Ordering::AcqRel) {
            return;
        }
        if self.background_compaction {
            if let Some(me) = self.myself.upgrade() {
                // Non-blocking: a full executor queue falls back to the
                // inline path rather than stalling the mutation.
                if Executor::global()
                    .try_submit(move || me.run_compaction())
                    .is_ok()
                {
                    return;
                }
            }
        }
        self.run_compaction();
    }

    /// Fold delta + tombstones into a fresh base segment now, regardless of
    /// the threshold. No-op when another compaction is in flight.
    fn compact_now(&self) {
        if self.compacting.swap(true, Ordering::AcqRel) {
            return;
        }
        self.run_compaction();
    }

    /// The compaction itself. The expensive rebuild runs against a pinned
    /// epoch `E` *without* holding the writer lock, so mutations keep
    /// landing; the writer lock is then taken only to replay rows appended
    /// after `E`, remap surviving tombstones, and swap the new generation
    /// in. The `compacting` flag (set by the caller) keeps this
    /// single-flight.
    fn run_compaction(&self) {
        // The guard clears the single-flight flag no matter how this
        // returns; a panicking rebuild previously left `compacting` stuck
        // true, silently disabling every future compaction.
        let mut guard = CompactionGuard {
            compacting: &self.compacting,
            metrics: &self.metrics,
            failed: true,
        };
        let started = Instant::now();
        let pinned = self.pin();
        let trace = self.metrics.trace_begin("compaction", true);
        if trace.is_sampled() {
            trace.marker(
                SpanId::ROOT,
                MarkerKind::CompactionBegin,
                pinned.delta.rows() as u64,
                pinned.tombstones.len() as u64,
            );
        }
        let base_rows = pinned.base.rows();
        let pinned_total = base_rows + pinned.delta.rows();
        let code_length = self.model.code_length();

        // Off-lock: fold every row live at epoch E into the new base, in
        // global-slot order. Slot order + cached codes make the rebuilt
        // table bit-identical to a fresh build over the same rows.
        let mut data = RowBuffer::with_capacity(pinned.n_live() * self.dim);
        let mut ids = Vec::with_capacity(pinned.n_live());
        let mut codes = Vec::with_capacity(pinned.n_live());
        // Old global slot → new base slot (u32::MAX = dead at E).
        let mut remap = vec![u32::MAX; pinned_total];
        for (g, slot) in remap.iter_mut().enumerate() {
            if pinned.tombstones.contains(&(g as u32)) {
                continue;
            }
            let (row, id, code) = pinned.row(g, self.dim);
            *slot = ids.len() as u32;
            data.extend_from_slice(row);
            ids.push(id);
            codes.push(code);
        }
        let table = HashTable::from_codes(code_length, &codes);
        let mut base = Segment {
            data,
            ids,
            codes,
            table,
            mih: None,
        };
        base.rebuild_mih(self.mih_blocks);
        let base = Arc::new(base);
        let new_base_rows = base.rows();

        let delta_rows_after;
        {
            let mut w = self.writer.lock();
            let cur = self.pin();
            // Replay delta rows appended after E that are still live.
            let mut delta = Segment::empty(code_length);
            for j in pinned.delta.rows()..cur.delta.rows() {
                let old_global = (base_rows + j) as u32;
                if cur.tombstones.contains(&old_global) {
                    continue;
                }
                delta.push(
                    cur.delta.row_data(j, self.dim),
                    cur.delta.ids[j],
                    cur.delta.codes[j],
                );
            }
            delta.rebuild_mih(self.mih_blocks);
            // Tombstones added after E against rows that were folded into
            // the new base follow the remap; everything else (dead at E,
            // or a replayed-and-skipped delta row) is resolved and drops.
            let mut tombstones = HashSet::default();
            for &g in cur.tombstones.iter() {
                if let Some(&m) = remap.get(g as usize) {
                    if m != u32::MAX {
                        tombstones.insert(m);
                    }
                }
            }
            // The slot space changed wholesale: rebuild the live map.
            w.live.clear();
            for (s, &id) in base.ids.iter().enumerate() {
                if !tombstones.contains(&(s as u32)) {
                    w.live.insert(id, s as u32);
                }
            }
            for (j, &id) in delta.ids.iter().enumerate() {
                w.live.insert(id, (new_base_rows + j) as u32);
            }
            delta_rows_after = delta.rows();
            self.publish(Generation {
                epoch: cur.epoch + 1,
                base,
                delta: Arc::new(delta),
                tombstones: Arc::new(tombstones),
            });
        }
        guard.failed = false;
        if trace.is_sampled() {
            trace.marker(
                SpanId::ROOT,
                MarkerKind::CompactionEnd,
                new_base_rows as u64,
                delta_rows_after as u64,
            );
        }
        self.metrics.trace_finish(trace, false);
        self.metrics.incr("gqr_compaction_total");
        self.metrics
            .record_duration("gqr_compaction_ns", started.elapsed());
    }

    /// See [`MutableIndex::run_pinned`].
    fn run_pinned(&self, gen: &Generation<C>, mut req: SearchRequest<'_>) -> SearchResponse {
        let env = req.open(&self.metrics, "live");
        let (query, params, budgets, model) = (req.query, req.params, req.budgets, &*self.model);
        let (dim, metric) = (self.dim, self.metric);
        assert_eq!(query.len(), dim, "query dimensionality mismatch");
        // Predicate → composed filter over **external** ids (the attribute
        // store outlives mutations; appended rows have no attributes and
        // match nothing). No brute arm on the mutable path — the survivor
        // bitmap acts as a pre-filter.
        let predicate = req.predicate;
        let attrs = self.attrs.as_ref();
        let (_, mut filter) = env.plan_filter(attrs, predicate.as_ref(), req.filter, 0);
        let start = Instant::now();
        // The one gate, over global slots: tombstone first, so a deleted
        // row never reaches the filter.
        let tombstones = &*gen.tombstones;
        let gated = !tombstones.is_empty() || filter.is_some();
        let mut user = filter.as_deref_mut();
        let mut gate = |slot: u32| {
            !tombstones.contains(&slot) && user.as_deref_mut().is_none_or(|f| f(gen.ext_id(slot)))
        };
        let gate: Option<&mut dyn FnMut(u32) -> bool> = gated.then_some(&mut gate);
        let metrics = &self.metrics;
        let (base, delta) = (&gen.base, &gen.delta);
        let base_rows = base.rows() as u32;
        let parts = &[
            Part::borrowed(&base.table, base.mih.as_ref(), 0, base.rows()),
            Part::borrowed(&delta.table, delta.mih.as_ref(), base_rows, delta.rows()),
        ];
        let buffers = &[(0, &base.data[..]), (base_rows, &delta.data[..])];
        let target = Target {
            model,
            code_length: model.code_length(),
            metric,
            recall: self.recall.as_ref(),
            rows: SegmentedRows {
                parts: buffers,
                dim,
            },
            n_rows: base.rows() + delta.rows(),
        };
        let mut ctx = ProbeCtx::new(&env);
        let (strategy, cap) = (params.strategy, params.max_buckets);
        let source = open_source(model, parts, gen.n_live(), strategy, cap, query, &mut ctx);
        let sink = target.sink(query, gate);
        let policy = target.policy(&params, start, metrics);
        let mut out = source.drive(policy, sink, budgets, &mut ctx);
        let labels = [("segment", "all"), ("strategy", env.strategy)];
        ctx.phases
            .flush_labeled(metrics, "gqr_live", &labels, start.elapsed());
        let checkpoint_ids = out.checkpoints.iter_mut().flat_map(|c| &mut c.top_ids);
        for slot in out.ids.iter_mut().chain(checkpoint_ids) {
            *slot = gen.ext_id(*slot);
        }
        if self.metrics.is_enabled() {
            self.metrics
                .record_duration("gqr_live_total_ns", start.elapsed());
            self.metrics.incr("gqr_live_queries_total");
        }
        out.trace_id = env.close();
        out
    }

    /// Persist the store as a snapshot: the static section writer stores
    /// the base segment as a one-shard index, and two live sections carry
    /// the overlay — [`SectionKind::LiveState`]
    /// (allocator, epoch, config, base ids, tombstones) and
    /// [`SectionKind::DeltaSegment`] (delta ids, codes, vectors). Taken
    /// under the writer lock, so the image is one consistent epoch.
    fn save_snapshot(&self, path: &Path) -> Result<u64, PersistError> {
        let w = self.writer.lock();
        let gen = self.pin();
        let base = &gen.base;

        let mut b = ByteWriter::new();
        b.put_u32(w.next_id);
        b.put_u32(self.id_step);
        b.put_u64(gen.epoch);
        b.put_usize(self.compaction_threshold);
        b.put_u8(u8::from(self.mih_blocks.is_some()));
        b.put_usize(self.mih_blocks.unwrap_or(0));
        b.put_u32_slice(&base.ids);
        let mut tombstones: Vec<u32> = gen.tombstones.iter().copied().collect();
        tombstones.sort_unstable();
        b.put_u32_slice(&tombstones);

        let mut d = ByteWriter::new();
        d.put_u32_slice(&gen.delta.ids);
        // Codes flatten to C::BLOCKS little-endian u64 blocks per row; for
        // u64 codes this is byte-identical to the v2 payload.
        let mut flat = Vec::with_capacity(gen.delta.codes.len() * C::BLOCKS);
        for code in &gen.delta.codes {
            for b in 0..C::BLOCKS {
                flat.push(code.block(b));
            }
        }
        d.put_u64_slice(&flat);
        d.put_f32_slice(&gen.delta.data);

        let parts = [Part::borrowed(
            &base.table,
            base.mih.as_ref(),
            0,
            base.rows(),
        )];
        let sections = IndexSections {
            model: &*self.model,
            metric: self.metric,
            data: &base.data,
            dim: self.dim,
            parts: &parts,
            recall: self.recall.as_ref(),
            attrs: self.attrs.as_ref(),
        };
        let overlay = vec![
            (SectionKind::LiveState, b.into_bytes()),
            (SectionKind::DeltaSegment, d.into_bytes()),
        ];
        sections.write(path, overlay)
    }
}

/// Scope guard for the compaction single-flight flag: releases it on every
/// exit path (including unwinds) and counts non-success exits under
/// `gqr_compaction_failures_total`. Callers flip `failed` off right before
/// the happy return.
struct CompactionGuard<'a> {
    compacting: &'a AtomicBool,
    metrics: &'a MetricsRegistry,
    failed: bool,
}

impl Drop for CompactionGuard<'_> {
    fn drop(&mut self) {
        if self.failed {
            self.metrics.incr("gqr_compaction_failures_total");
        }
        self.compacting.store(false, Ordering::Release);
    }
}

/// Decoded [`SectionKind::LiveState`] payload.
struct LiveState {
    next_id: u32,
    id_step: u32,
    epoch: u64,
    compaction_threshold: usize,
    mih_blocks: Option<usize>,
    base_ids: Vec<u32>,
    tombstones: Vec<u32>,
}

fn decode_live_state(bytes: &[u8]) -> Result<LiveState, WireError> {
    let mut r = ByteReader::new(bytes);
    let next_id = r.get_u32()?;
    let id_step = r.get_u32()?;
    if id_step == 0 {
        return Err(WireError::Malformed("id step must be positive"));
    }
    let epoch = r.get_u64()?;
    let compaction_threshold = r.get_usize()?;
    if compaction_threshold == 0 {
        return Err(WireError::Malformed(
            "compaction threshold must be positive",
        ));
    }
    let has_mih = r.get_u8()?;
    let blocks = r.get_usize()?;
    let mih_blocks = match has_mih {
        0 => None,
        1 if blocks > 0 => Some(blocks),
        1 => return Err(WireError::Malformed("zero MIH blocks in live state")),
        _ => return Err(WireError::Malformed("MIH flag out of range")),
    };
    let base_ids = r.get_u32_vec()?;
    let tombstones = r.get_u32_vec()?;
    r.expect_end()?;
    Ok(LiveState {
        next_id,
        id_step,
        epoch,
        compaction_threshold,
        mih_blocks,
        base_ids,
        tombstones,
    })
}

/// Decode a [`SectionKind::DeltaSegment`] payload into a segment of
/// `code_length`-bit codes; the caller rebuilds its MIH side index.
fn decode_delta<C: CodeWord>(bytes: &[u8], code_length: usize) -> Result<Segment<C>, WireError> {
    let mut r = ByteReader::new(bytes);
    let ids = r.get_u32_vec()?;
    let flat = r.get_u64_vec()?;
    let data = r.get_f32_rows()?;
    if flat.len() != ids.len() * C::BLOCKS {
        return Err(WireError::Malformed("delta ids and codes disagree"));
    }
    let mut codes = Vec::with_capacity(ids.len());
    for chunk in flat.chunks_exact(C::BLOCKS) {
        for (i, &b) in chunk.iter().enumerate() {
            let width_here = C::BITS.saturating_sub(i * 64).min(64);
            if width_here < 64 && b >> width_here != 0 {
                return Err(WireError::Malformed("delta code exceeds the code width"));
            }
        }
        codes.push(C::from_blocks(chunk));
    }
    r.expect_end()?;
    Ok(Segment {
        table: HashTable::from_codes(code_length, &codes),
        data,
        ids,
        codes,
        mih: None,
    })
}

/// Configures and builds a [`MutableIndex`] (mirror of
/// [`SearchParamsBuilder`](crate::engine::SearchParamsBuilder) on the
/// construction side).
pub struct MutableIndexBuilder<M: HashModel + ?Sized, C: CodeWord = u64> {
    model: Arc<M>,
    metric: Metric,
    metrics: MetricsRegistry,
    mih_blocks: Option<usize>,
    compaction_threshold: usize,
    background_compaction: bool,
    recall: Option<RecallModel>,
    attrs: Option<AttributeStore>,
    code: PhantomData<C>,
}

impl<M: HashModel + ?Sized + 'static, C: CodeWord> MutableIndexBuilder<M, C> {
    /// Exact-evaluation metric (default squared Euclidean).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Metrics registry for mutation counters, size gauges, compaction
    /// spans, and query spans.
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Maintain MIH block tables (required for
    /// [`ProbeStrategy::MultiIndexHashing`](crate::engine::ProbeStrategy::MultiIndexHashing));
    /// the delta's block tables are rebuilt per publish, the base's per
    /// compaction.
    pub fn mih_blocks(mut self, blocks: usize) -> Self {
        assert!(blocks > 0, "MIH needs at least one block");
        self.mih_blocks = Some(blocks);
        self
    }

    /// Compact once `delta rows + tombstones` reaches `n` (default
    /// [`DEFAULT_COMPACTION_THRESHOLD`]).
    pub fn compaction_threshold(mut self, n: usize) -> Self {
        assert!(n > 0, "compaction threshold must be positive");
        self.compaction_threshold = n;
        self
    }

    /// Run threshold-triggered compactions on the global [`Executor`]
    /// instead of inline on the mutating thread. Queries and further
    /// mutations proceed while the rebuild runs; the swap still happens
    /// under the writer lock.
    pub fn background_compaction(mut self, on: bool) -> Self {
        self.background_compaction = on;
        self
    }

    /// Attach a calibrated [`RecallModel`] (owned): every query consults it
    /// when a request sets a
    /// [`recall_target`](crate::engine::SearchParamsBuilder::recall_target),
    /// and [`MutableIndex::save_snapshot`] persists it.
    pub fn recall_model(mut self, model: RecallModel) -> Self {
        self.recall = Some(model);
        self
    }

    /// Attach an attribute store keyed by **external** ids (owned):
    /// requests carrying a structured
    /// [`Predicate`](crate::attrs::Predicate) are planned against it. Rows
    /// inserted after build have no attributes and match no predicate.
    pub fn attrs(mut self, attrs: AttributeStore) -> Self {
        self.attrs = Some(attrs);
        self
    }

    /// Build over `data` (row-major, `dim` columns). Initial rows get
    /// external ids `0..n`.
    pub fn build(self, data: &[f32], dim: usize) -> MutableIndex<M, C> {
        assert_eq!(
            self.model.dim(),
            dim,
            "model and data dimensionality differ"
        );
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "data must be n×dim"
        );
        let n = data.len() / dim;
        assert!(n < u32::MAX as usize, "id space is u32");
        let ids: Vec<u32> = (0..n as u32).collect();
        assert!(
            self.model.code_length() <= C::BITS,
            "code length {} exceeds the {}-bit code word",
            self.model.code_length(),
            C::BITS
        );
        let codes: Vec<C> = crate::table::encode_rows(&*self.model, data, dim);
        let table = HashTable::from_codes(self.model.code_length(), &codes);
        let mut base = Segment {
            data: RowBuffer::from_slice(data),
            ids,
            codes,
            table,
            mih: None,
        };
        base.rebuild_mih(self.mih_blocks);
        let gen = Generation {
            epoch: 0,
            delta: Arc::new(Segment::empty(self.model.code_length())),
            base: Arc::new(base),
            tombstones: Arc::default(),
        };
        let live = (0..n as u32).map(|id| (id, id)).collect();
        let writer = WriterState {
            next_id: n as u32,
            live,
        };
        self.into_index(dim, 1, gen, writer)
    }

    /// The one store constructor: the configured store over `dim`-column
    /// rows, publishing `gen`, with `writer`'s allocator and live map.
    fn into_index(
        self,
        dim: usize,
        id_step: u32,
        gen: Generation<C>,
        writer: WriterState,
    ) -> MutableIndex<M, C> {
        let store = Arc::new_cyclic(|myself| VersionedStore {
            model: self.model,
            dim,
            metric: self.metric,
            mih_blocks: self.mih_blocks,
            compaction_threshold: self.compaction_threshold,
            background_compaction: self.background_compaction,
            id_step,
            current: RwLock::new(Arc::new(gen)),
            writer: Mutex::new(writer),
            compacting: AtomicBool::new(false),
            myself: myself.clone(),
            metrics: self.metrics,
            recall: self.recall,
            attrs: self.attrs,
        });
        MutableIndex { store }
    }
}

/// A mutable k-NN index: an epoch-versioned store of generations plus the
/// query front door. Cheap to clone (an `Arc` handle); obtain writers with
/// [`MutableIndex::writer`].
///
/// ```
/// use gqr_core::engine::SearchParams;
/// use gqr_core::live::MutableIndex;
/// use gqr_core::request::SearchRequest;
/// use gqr_l2h::pcah::Pcah;
/// use std::sync::Arc;
///
/// let mut data = Vec::new();
/// for i in 0..200u32 {
///     data.push((i % 20) as f32 + 0.01 * (i as f32).sin());
///     data.push((i / 20) as f32);
/// }
/// let model = Pcah::train(&data, 2, 2).unwrap();
/// let index: MutableIndex<_> = MutableIndex::build(Arc::new(model), &data, 2);
/// let writer = index.writer();
/// let id = writer.insert(&[3.0, 4.0]);
/// assert!(writer.delete(5));
///
/// let params = SearchParams::for_k(5).candidates(1_000).build().unwrap();
/// let res = index.run(SearchRequest::new(&[3.0, 4.0]).params(params));
/// assert_eq!(res.ids[0], id, "the fresh insert is its own 1-NN");
/// assert!(res.ids.iter().all(|&got| got != 5), "deleted id is masked");
/// ```
pub struct MutableIndex<M: HashModel + ?Sized = dyn HashModel, C: CodeWord = u64> {
    store: Arc<VersionedStore<M, C>>,
}

impl<M: HashModel + ?Sized + 'static, C: CodeWord> Clone for MutableIndex<M, C> {
    fn clone(&self) -> Self {
        MutableIndex {
            store: Arc::clone(&self.store),
        }
    }
}

impl<M: HashModel + ?Sized + 'static, C: CodeWord> MutableIndex<M, C> {
    /// Start a builder around the hashing model.
    pub fn builder(model: Arc<M>) -> MutableIndexBuilder<M, C> {
        MutableIndexBuilder {
            model,
            metric: Metric::SquaredEuclidean,
            metrics: MetricsRegistry::disabled(),
            mih_blocks: None,
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            background_compaction: false,
            recall: None,
            attrs: None,
            code: PhantomData,
        }
    }

    /// Build with defaults over `data` (row-major, `dim` columns).
    pub fn build(model: Arc<M>, data: &[f32], dim: usize) -> MutableIndex<M, C> {
        Self::builder(model).build(data, dim)
    }

    /// A writer handle routing mutations into the store. Writers serialize
    /// on an internal mutex; any number of handles may coexist.
    pub fn writer(&self) -> IndexWriter<M, C> {
        IndexWriter {
            store: Arc::clone(&self.store),
        }
    }

    /// Pin the current generation (one `Arc` clone under a brief read
    /// lock). Queries against the pinned generation see exactly its epoch
    /// regardless of concurrent mutations.
    pub fn pin(&self) -> Arc<Generation<C>> {
        self.store.pin()
    }

    /// Execute one request against the current generation. See
    /// [`MutableIndex::run_pinned`] for the delta/tombstone semantics.
    pub fn run(&self, req: SearchRequest<'_>) -> SearchResponse {
        self.run_pinned(&self.store.pin(), req)
    }

    /// The attribute store backing structured predicates, if one was
    /// attached at build time (keyed by external ids).
    pub fn attrs(&self) -> Option<&AttributeStore> {
        self.store.attrs.as_ref()
    }

    /// Execute one request against an explicitly pinned generation. HR, GHR,
    /// QR and GQR probe base and delta as **one** table: one prober, one
    /// global candidate budget, one top-k, so the answer is that of a fresh
    /// rebuild over the live rows. A candidate passes one gate — the
    /// tombstone test, then the request's filter and predicate on its
    /// external id — before any distance is computed, and a rejected row
    /// spends no budget. MIH looks each substring bucket up in both
    /// segments' side indexes at once, so it too is one search. Neighbor
    /// ids, checkpoint ids included, are external ids.
    pub fn run_pinned(&self, gen: &Generation<C>, req: SearchRequest<'_>) -> SearchResponse {
        self.store.run_pinned(gen, req)
    }

    /// Live rows in the current generation.
    pub fn n_items(&self) -> usize {
        self.store.pin().n_live()
    }

    /// Current epoch (0 after build, +1 per mutation or compaction).
    pub fn epoch(&self) -> u64 {
        self.store.pin().epoch
    }

    /// Fold delta + tombstones into a fresh base segment now. After this
    /// (absent concurrent mutations) queries are bit-identical to a fresh
    /// rebuild over the live rows. No-op if a compaction is in flight.
    pub fn compact(&self) {
        self.store.compact_now();
    }

    /// The attached metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.store.metrics
    }

    /// The exact-evaluation metric.
    pub fn metric(&self) -> Metric {
        self.store.metric
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.store.dim
    }

    /// MIH substring block count, if the index keeps MIH side tables.
    pub fn mih_blocks(&self) -> Option<usize> {
        self.store.mih_blocks
    }

    /// The stored vector of live external id `id` (`None` if `id` was
    /// never allocated or has been deleted).
    pub fn vector(&self, id: u32) -> Option<Vec<f32>> {
        // The live map and the published generation only change together
        // under the writer mutex, so slot lookups against the pinned
        // generation are consistent while we hold it.
        let w = self.store.writer.lock();
        let &slot = w.live.get(&id)?;
        let gen = self.store.pin();
        let (row, _, _) = gen.row(slot as usize, self.store.dim);
        Some(row.to_vec())
    }

    /// Persist base + delta + tombstones as one crash-safe snapshot (see
    /// [`crate::persist`]; live snapshots add the [`SectionKind::LiveState`]
    /// and [`SectionKind::DeltaSegment`] sections, each CRC-covered).
    /// Reload with [`MutableIndex::from_snapshot`].
    pub fn save_snapshot(&self, path: &Path) -> Result<u64, PersistError> {
        self.store.save_snapshot(path)
    }

    /// The attached recall calibration model, if any.
    pub fn recall_model(&self) -> Option<&RecallModel> {
        self.store.recall.as_ref()
    }
}

impl<M: HashModel + ?Sized + 'static, C: CodeWord> std::fmt::Debug for MutableIndex<M, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let gen = self.store.pin();
        f.debug_struct("MutableIndex")
            .field("epoch", &gen.epoch)
            .field("n_live", &gen.n_live())
            .field("base_rows", &gen.base.rows())
            .field("delta_rows", &gen.delta.rows())
            .field("tombstones", &gen.tombstones.len())
            .finish()
    }
}

impl<C: CodeWord> MutableIndex<dyn HashModel, C> {
    /// Reload a snapshot written by [`MutableIndex::save_snapshot`] — or
    /// any plain one-shard index snapshot, which loads with an empty delta,
    /// identity ids, and a fresh allocator. Sharded snapshots are rejected
    /// with [`PersistError::WrongShardCount`]. Metrics are disabled; attach
    /// a registry through [`MutableIndex::from_snapshot_file`].
    pub fn from_snapshot(path: &Path) -> Result<MutableIndex<dyn HashModel, C>, PersistError> {
        let file = SnapshotFile::read(path)?;
        Self::from_snapshot_file(&file, MetricsRegistry::disabled())
    }

    /// [`MutableIndex::from_snapshot`] over an already-read (and therefore
    /// already checksum-verified) [`SnapshotFile`], observed by `metrics`
    /// (as [`MutableIndexBuilder::metrics`] would attach it). The base is
    /// the static one-shard layout, checked by the same validator as
    /// [`crate::persist::assemble_index`]; the overlay sections add the
    /// delta, the tombstones and the allocator.
    pub fn from_snapshot_file(
        file: &SnapshotFile,
        metrics: MetricsRegistry,
    ) -> Result<MutableIndex<dyn HashModel, C>, PersistError> {
        let LoadedIndex {
            model,
            data,
            dim,
            metric,
            mut shards,
            recall,
            attrs,
        } = validate_index::<C>(file)?;
        if shards.len() != 1 {
            return Err(PersistError::WrongShardCount {
                found: shards.len(),
                expected: 1,
            });
        }
        let LoadedShard {
            table, mih, rows, ..
        } = shards.pop().expect("length checked");
        if table.n_items() != rows || table.max_id().map_or(0, |m| m as usize + 1) != rows {
            return Err(PersistError::Inconsistent {
                detail: "base table is not slot-dense over the manifest rows",
            });
        }

        let live_state = match file.sections_of(SectionKind::LiveState).next() {
            Some(bytes) => decode_live_state(bytes).map_err(corrupt(SectionKind::LiveState))?,
            None => LiveState {
                next_id: rows as u32,
                id_step: 1,
                epoch: 0,
                compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
                mih_blocks: mih.as_ref().map(MihIndex::n_blocks),
                base_ids: (0..rows as u32).collect(),
                tombstones: Vec::new(),
            },
        };
        let code_length = model.code_length();
        let mut delta = match file.sections_of(SectionKind::DeltaSegment).next() {
            Some(bytes) => {
                decode_delta(bytes, code_length).map_err(corrupt(SectionKind::DeltaSegment))?
            }
            None => Segment::empty(code_length),
        };
        if live_state.base_ids.len() != rows {
            return Err(PersistError::Inconsistent {
                detail: "live state holds one id per base row",
            });
        }
        if delta.data.len() != delta.rows() * dim {
            return Err(PersistError::Inconsistent {
                detail: "delta vectors are not rows×dim",
            });
        }
        if mih.is_some() != live_state.mih_blocks.is_some() {
            return Err(PersistError::Inconsistent {
                detail: "live state MIH config disagrees with the base MIH section",
            });
        }
        let total_slots = rows + delta.rows();
        let mut tombstones = HashSet::default();
        for &slot in &live_state.tombstones {
            if slot as usize >= total_slots || !tombstones.insert(slot) {
                return Err(PersistError::Inconsistent {
                    detail: "tombstone names an out-of-range or duplicate slot",
                });
            }
        }

        let base = Segment {
            codes: table.dense_codes(),
            data,
            ids: live_state.base_ids,
            table,
            mih,
        };
        delta.rebuild_mih(live_state.mih_blocks);

        let mut live: HashMap<u32, u32> = HashMap::new();
        let mut max_live_id = None::<u32>;
        let slot_ids = base.ids.iter().chain(&delta.ids);
        for (g, &id) in (0..total_slots as u32).zip(slot_ids) {
            if tombstones.contains(&g) {
                continue;
            }
            if live.insert(id, g).is_some() {
                return Err(PersistError::Inconsistent {
                    detail: "duplicate live external id",
                });
            }
            max_live_id = Some(max_live_id.map_or(id, |m| m.max(id)));
        }
        if max_live_id.is_some_and(|m| m >= live_state.next_id) {
            return Err(PersistError::Inconsistent {
                detail: "live id at or beyond the allocator's next id",
            });
        }

        let builder = MutableIndexBuilder {
            metric,
            metrics,
            mih_blocks: live_state.mih_blocks,
            compaction_threshold: live_state.compaction_threshold,
            recall,
            attrs,
            ..MutableIndex::builder(Arc::from(model))
        };
        let gen = Generation {
            epoch: live_state.epoch,
            base: Arc::new(base),
            delta: Arc::new(delta),
            tombstones: Arc::new(tombstones),
        };
        let writer = WriterState {
            next_id: live_state.next_id,
            live,
        };
        Ok(builder.into_index(dim, live_state.id_step, gen, writer))
    }
}

/// Mutation handle for a [`MutableIndex`]. All methods take `&self`;
/// concurrent writers serialize on the store's writer mutex, and every
/// mutation publishes one new epoch.
pub struct IndexWriter<M: HashModel + ?Sized = dyn HashModel, C: CodeWord = u64> {
    store: Arc<VersionedStore<M, C>>,
}

impl<M: HashModel + ?Sized + 'static, C: CodeWord> Clone for IndexWriter<M, C> {
    fn clone(&self) -> Self {
        IndexWriter {
            store: Arc::clone(&self.store),
        }
    }
}

impl<M: HashModel + ?Sized + 'static, C: CodeWord> IndexWriter<M, C> {
    /// Insert one vector; returns its freshly allocated external id. The
    /// row is hashed through the model into the delta segment and is
    /// visible to every query that pins a later epoch.
    pub fn insert(&self, vector: &[f32]) -> u32 {
        self.store.insert(vector)
    }

    /// Delete by external id. Returns whether the id was live; the row is
    /// masked by a tombstone immediately and physically dropped at the
    /// next compaction.
    pub fn delete(&self, id: u32) -> bool {
        self.store.delete(id)
    }

    /// Insert-or-replace under an explicit external id (which must belong
    /// to this store's id residue class). Returns whether an existing live
    /// row was replaced.
    pub fn upsert(&self, id: u32, vector: &[f32]) -> bool {
        self.store.upsert(id, vector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ProbeStrategy, SearchParams};
    use gqr_l2h::pcah::Pcah;

    fn grid(n: u32) -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..n {
            data.push((i % 20) as f32 + 0.001 * ((i * 7) % 13) as f32);
            data.push((i / 20) as f32);
        }
        data
    }

    fn fixture(n: u32) -> MutableIndex<Pcah> {
        let data = grid(n);
        let model = Pcah::train(&data, 2, 2).unwrap();
        MutableIndex::build(Arc::new(model), &data, 2)
    }

    fn exhaustive(k: usize) -> SearchParams {
        SearchParams {
            k,
            n_candidates: usize::MAX,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        }
    }

    #[test]
    fn insert_is_immediately_searchable() {
        let index = fixture(100);
        assert_eq!(index.n_items(), 100);
        let id = index.writer().insert(&[100.5, 100.5]);
        assert_eq!(id, 100);
        assert_eq!(index.n_items(), 101);
        assert_eq!(index.epoch(), 1);
        let res = index.run(SearchRequest::new(&[100.5, 100.5]).params(exhaustive(1)));
        assert_eq!(res.nearest(), Some((id, 0.0)));
    }

    #[test]
    fn delete_masks_rows_at_evaluate_time() {
        let index = fixture(50);
        let writer = index.writer();
        assert!(writer.delete(7));
        assert!(!writer.delete(7), "already deleted");
        assert!(!writer.delete(999), "never existed");
        assert_eq!(index.n_items(), 49);
        let res = index.run(SearchRequest::new(&[7.0, 0.0]).params(exhaustive(49)));
        assert_eq!(res.len(), 49);
        assert!(res.ids.iter().all(|&id| id != 7));
    }

    #[test]
    fn upsert_replaces_and_inserts() {
        let index = fixture(20);
        let writer = index.writer();
        assert!(writer.upsert(3, &[500.0, 500.0]), "replaced a live row");
        assert_eq!(index.n_items(), 20);
        let res = index.run(SearchRequest::new(&[500.0, 500.0]).params(exhaustive(1)));
        assert_eq!(res.nearest(), Some((3, 0.0)));
        // New id beyond the allocator: inserted, allocator advances past it.
        assert!(!writer.upsert(64, &[600.0, 600.0]), "fresh id");
        assert_eq!(index.n_items(), 21);
        assert_eq!(writer.insert(&[1.0, 1.0]), 65);
    }

    #[test]
    fn pinned_generation_is_immune_to_later_mutations() {
        let index = fixture(30);
        let gen = index.pin();
        let writer = index.writer();
        writer.delete(0);
        writer.insert(&[900.0, 900.0]);
        assert_eq!(gen.epoch(), 0);
        assert_eq!(gen.n_live(), 30, "pinned view unchanged");
        let res = index.run_pinned(&gen, SearchRequest::new(&[0.0, 0.0]).params(exhaustive(30)));
        assert_eq!(res.len(), 30);
        assert!(res.ids.contains(&0));
        assert!(res.ids.iter().all(|&id| id != 30));
    }

    #[test]
    fn all_five_strategies_agree_during_churn() {
        let data = grid(200);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let index: MutableIndex<_> = MutableIndex::builder(Arc::new(model))
            .mih_blocks(2)
            .build(&data, 2);
        let writer = index.writer();
        for i in 0..40 {
            writer.insert(&[(i % 7) as f32 + 0.25, (i % 5) as f32 + 0.25]);
        }
        for id in (0..60).step_by(3) {
            writer.delete(id);
        }
        let q = [4.1f32, 3.2];
        let reference = index.run(SearchRequest::new(&q).params(exhaustive(10)));
        for strategy in [
            ProbeStrategy::HammingRanking,
            ProbeStrategy::GenerateHammingRanking,
            ProbeStrategy::QdRanking,
            ProbeStrategy::MultiIndexHashing { blocks: 2 },
        ] {
            let params = SearchParams {
                strategy,
                ..exhaustive(10)
            };
            let res = index.run(SearchRequest::new(&q).params(params));
            assert_eq!(
                res.ranked(),
                reference.ranked(),
                "strategy {} disagrees under churn",
                strategy.name()
            );
        }
    }

    #[test]
    fn compaction_folds_delta_and_tombstones() {
        let data = grid(100);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let metrics = MetricsRegistry::enabled();
        let index: MutableIndex<_> = MutableIndex::builder(Arc::new(model))
            .compaction_threshold(16)
            .metrics(metrics.clone())
            .build(&data, 2);
        let writer = index.writer();
        for i in 0..10 {
            writer.insert(&[i as f32 * 0.1, 50.0]);
        }
        for id in 0..6 {
            writer.delete(id);
        }
        // 10 delta + 6 tombstones = 16 ≥ threshold → compacted.
        let gen = index.pin();
        assert_eq!(gen.delta_rows(), 0, "delta drained");
        assert_eq!(gen.n_tombstones(), 0, "tombstones folded");
        assert_eq!(gen.base_rows(), 104);
        assert_eq!(index.n_items(), 104);
        assert!(metrics.counter_value("gqr_compaction_total").unwrap() >= 1);
        assert!(metrics.histogram("gqr_compaction_ns").is_some());
        assert_eq!(
            metrics.counter_value("gqr_mutations_total{op=\"insert\"}"),
            Some(10)
        );
        assert_eq!(
            metrics.counter_value("gqr_mutations_total{op=\"delete\"}"),
            Some(6)
        );
        // Everything still searchable and ids stable.
        let res = index.run(SearchRequest::new(&[0.5, 50.0]).params(exhaustive(10)));
        assert!(res.ids.iter().all(|id| (100..110).contains(id)));
    }

    #[test]
    fn explicit_compact_preserves_results_exactly() {
        let index = fixture(80);
        let writer = index.writer();
        for i in 0..20 {
            writer.insert(&[(i % 4) as f32 + 10.0, (i % 6) as f32]);
        }
        for id in (5..45).step_by(4) {
            writer.delete(id);
        }
        let q = [11.0f32, 2.0];
        let before = index.run(SearchRequest::new(&q).params(exhaustive(15)));
        index.compact();
        let gen = index.pin();
        assert_eq!(gen.delta_rows() + gen.n_tombstones(), 0);
        let after = index.run(SearchRequest::new(&q).params(exhaustive(15)));
        assert_eq!(before.ranked(), after.ranked());
    }

    #[test]
    fn live_ids_track_the_live_set() {
        let index = fixture(25);
        let writer = index.writer();
        writer.delete(3);
        writer.delete(24);
        let a = writer.insert(&[1.0, 1.0]);
        let mut expect: Vec<u32> = (0..25).filter(|&i| i != 3 && i != 24).chain([a]).collect();
        expect.sort_unstable();
        let mut got = index.pin().live_ids();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn filter_composes_with_tombstones() {
        let index = fixture(60);
        index.writer().delete(10);
        let res = index.run(
            SearchRequest::new(&[5.0, 1.0])
                .params(exhaustive(30))
                .filter(|id| id % 2 == 0),
        );
        assert!(!res.is_empty());
        assert!(res.ids.iter().all(|&id| id % 2 == 0 && id != 10));
    }

    #[test]
    fn checkpoints_equal_the_engines() {
        let data = grid(300);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let mut engine = crate::engine::QueryEngine::new(&model, &table, &data, 2);
        engine.enable_mih(2);
        let index: MutableIndex<_> = MutableIndex::builder(Arc::new(model.clone()))
            .mih_blocks(2)
            .build(&data, 2);
        let budgets = [10usize, 40, 120, 1_000];
        for strategy in [
            ProbeStrategy::GenerateQdRanking,
            ProbeStrategy::MultiIndexHashing { blocks: 2 },
        ] {
            let params = SearchParams {
                k: 5,
                n_candidates: 150,
                strategy,
                ..Default::default()
            };
            let req = || {
                SearchRequest::new(&[4.3, 7.7])
                    .params(params)
                    .checkpoints(&budgets)
            };
            let (want, got) = (engine.run(req()), index.run(req()));
            assert_eq!(got.checkpoints.len(), budgets.len());
            for (g, w) in got.checkpoints.iter().zip(&want.checkpoints) {
                let at = format!("{} budget {}", strategy.name(), w.budget);
                assert_eq!(g.budget, w.budget, "{at}");
                assert_eq!(g.items_evaluated, w.items_evaluated, "{at}");
                assert_eq!(g.buckets_probed, w.buckets_probed, "{at}");
                let sorted = |ids: &[u32]| {
                    let mut ids = ids.to_vec();
                    ids.sort_unstable();
                    ids
                };
                assert_eq!(sorted(&g.top_ids), sorted(&w.top_ids), "{at}");
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_live_state() {
        let dir = std::env::temp_dir().join(format!("gqr-live-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.gqr");

        let data = grid(70);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let index: MutableIndex<_> = MutableIndex::builder(Arc::new(model))
            .mih_blocks(2)
            .build(&data, 2);
        let writer = index.writer();
        for i in 0..9 {
            writer.insert(&[30.0 + i as f32, 30.0]);
        }
        for id in [2u32, 40, 71] {
            writer.delete(id);
        }
        index.save_snapshot(&path).unwrap();

        let reloaded: MutableIndex = MutableIndex::from_snapshot(&path).unwrap();
        assert_eq!(reloaded.n_items(), index.n_items());
        assert_eq!(reloaded.epoch(), index.epoch());
        let q = [33.0f32, 30.0];
        let params = SearchParams {
            strategy: ProbeStrategy::MultiIndexHashing { blocks: 2 },
            ..exhaustive(12)
        };
        let a = index.run(SearchRequest::new(&q).params(params));
        let b = reloaded.run(SearchRequest::new(&q).params(params));
        assert_eq!(a.ranked(), b.ranked(), "bit-identical across reload");
        // The allocator continues where it left off.
        assert_eq!(reloaded.writer().insert(&[0.0, 0.0]), 79);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plain_snapshot_loads_as_mutable() {
        let dir = std::env::temp_dir().join(format!("gqr-live-plain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.gqr");

        let data = grid(40);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        crate::persist::save_index(
            &path,
            &model,
            &table,
            &data,
            2,
            None,
            Metric::SquaredEuclidean,
            None,
            None,
        )
        .unwrap();

        let index: MutableIndex = MutableIndex::from_snapshot(&path).unwrap();
        assert_eq!(index.n_items(), 40);
        assert_eq!(index.epoch(), 0);
        let id = index.writer().insert(&[5.5, 5.5]);
        assert_eq!(id, 40, "fresh allocator starts after the rows");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compaction_lands_on_the_executor() {
        let data = grid(50);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let metrics = MetricsRegistry::enabled();
        let index: MutableIndex<_> = MutableIndex::builder(Arc::new(model))
            .compaction_threshold(8)
            .background_compaction(true)
            .metrics(metrics.clone())
            .build(&data, 2);
        let writer = index.writer();
        for i in 0..64 {
            writer.insert(&[i as f32, 0.5]);
        }
        // The background job races this assertion; wait briefly for it.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while metrics.counter_value("gqr_compaction_total").is_none() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(metrics.counter_value("gqr_compaction_total").unwrap() >= 1);
        assert_eq!(index.n_items(), 114);
        let res = index.run(SearchRequest::new(&[10.0, 0.5]).params(exhaustive(5)));
        assert!(!res.is_empty());
    }

    #[test]
    fn compaction_guard_releases_flag_and_counts_failures_on_panic() {
        let compacting = AtomicBool::new(true);
        let metrics = MetricsRegistry::enabled();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = CompactionGuard {
                compacting: &compacting,
                metrics: &metrics,
                failed: true,
            };
            panic!("compaction blew up");
        }));
        assert!(unwound.is_err());
        assert!(
            !compacting.load(Ordering::Acquire),
            "single-flight flag must clear on unwind"
        );
        assert_eq!(
            metrics.counter_value("gqr_compaction_failures_total"),
            Some(1)
        );

        // Happy path: the caller flips `failed` off right before returning,
        // so the drop releases the flag without counting a failure.
        compacting.store(true, Ordering::Release);
        let mut guard = CompactionGuard {
            compacting: &compacting,
            metrics: &metrics,
            failed: true,
        };
        guard.failed = false;
        drop(guard);
        assert!(!compacting.load(Ordering::Acquire));
        assert_eq!(
            metrics.counter_value("gqr_compaction_failures_total"),
            Some(1)
        );
    }

    /// `seg`'s rows are placed as a row buffer places them — line aligned,
    /// huge-page aligned once its allocation spans a huge page — and equal
    /// `want` bit for bit.
    fn assert_placed<C: CodeWord>(seg: &Segment<C>, want: &[f32], what: &str) {
        use gqr_linalg::row_buffer::{HUGE_PAGE, LINE_BYTES};
        let addr = seg.data.as_ptr() as usize;
        assert_eq!(addr % LINE_BYTES, 0, "{what}: rows not line aligned");
        if seg.data.capacity() * 4 >= HUGE_PAGE {
            assert_eq!(addr % HUGE_PAGE, 0, "{what}: rows not huge-page aligned");
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&seg.data), bits(want), "{what}: rows differ");
    }

    /// `n × dim` rows with ±0.0 and large magnitudes mixed in.
    fn wide_rows(n: usize, dim: usize, salt: usize) -> Vec<f32> {
        (0..n * dim)
            .map(|i| match (i + salt) % 89 {
                0 => -0.0,
                1 => -1e30,
                r => ((i * 7919 + salt) % 1000) as f32 * 0.01 - 5.0 + r as f32,
            })
            .collect()
    }

    #[test]
    fn segment_rows_are_placed_after_build_compaction_and_reload() {
        use gqr_l2h::lsh::Lsh;
        use gqr_linalg::row_buffer::HUGE_PAGE;
        let dir = std::env::temp_dir().join(format!("gqr-live-rows-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for dim in [17usize, 96] {
            // Past a huge page, so the base is huge-page aligned.
            let n = HUGE_PAGE / (4 * dim) + 5;
            let data = wide_rows(n, dim, dim);
            let model = Lsh::train(&data[..64 * dim], dim, 8, 3).unwrap();
            let index: MutableIndex<Lsh> = MutableIndex::builder(Arc::new(model))
                .compaction_threshold(usize::MAX)
                .build(&data, dim);
            let at = |step: &str| format!("dim {dim}, {step}");
            let gen = index.pin();
            assert_placed(&gen.base, &data, &at("build base"));
            assert_placed(&gen.delta, &[], &at("build delta"));

            let extra = wide_rows(3, dim, 5);
            let writer = index.writer();
            for id in 0..3 {
                assert!(writer.delete(id));
            }
            for row in extra.chunks_exact(dim) {
                writer.insert(row);
            }
            index.compact();
            let folded: Vec<f32> = data[3 * dim..].iter().chain(&extra).copied().collect();
            let gen = index.pin();
            assert_eq!(gen.delta_rows(), 0);
            assert_placed(&gen.base, &folded, &at("compacted base"));

            writer.insert(&extra[..dim]);
            let path = dir.join(format!("rows-{dim}.gqr"));
            index.save_snapshot(&path).unwrap();
            let reloaded: MutableIndex = MutableIndex::from_snapshot(&path).unwrap();
            let gen = reloaded.pin();
            assert_placed(&gen.base, &folded, &at("reloaded base"));
            assert_placed(&gen.delta, &extra[..dim], &at("reloaded delta"));
        }
        std::fs::remove_dir_all(&dir).unwrap();

        // No rows at all: an empty base, still placed.
        let model = Pcah::train(&grid(40), 2, 2).unwrap();
        let empty: MutableIndex<Pcah> = MutableIndex::build(Arc::new(model), &[], 2);
        let gen = empty.pin();
        assert_placed(&gen.base, &[], "empty base");
        assert_placed(&gen.delta, &[], "empty delta");
    }

    #[test]
    fn a_delta_grows_across_a_huge_page() {
        use gqr_l2h::lsh::Lsh;
        use gqr_linalg::row_buffer::HUGE_PAGE;
        let dim = 960;
        let model = Lsh::train(&wide_rows(64, dim, 1), dim, 8, 3).unwrap();
        let index: MutableIndex<Lsh> = MutableIndex::builder(Arc::new(model))
            .compaction_threshold(usize::MAX)
            .build(&wide_rows(4, dim, 2), dim);
        // One row more than a huge page holds.
        let n = HUGE_PAGE / (4 * dim) + 1;
        let rows = wide_rows(n, dim, 3);
        let writer = index.writer();
        for (i, row) in rows.chunks_exact(dim).enumerate() {
            writer.insert(row);
            let gen = index.pin();
            if i % 64 == 0 || i + 1 == n {
                let inserted = &rows[..(i + 1) * dim];
                assert_placed(&gen.delta, inserted, &format!("delta of {} rows", i + 1));
            }
        }
        let gen = index.pin();
        assert!(
            gen.delta.data.len() * 4 > HUGE_PAGE,
            "the delta spans a huge page"
        );
        assert_eq!(gen.delta.data.as_ptr() as usize % HUGE_PAGE, 0);
    }
}
