//! Sharded serving index: one dataset, S hash tables, exact global top-k.
//!
//! A [`ShardedIndex`] partitions the item rows into `S` contiguous shards
//! and builds one [`HashTable`] (and optionally one MIH side index) per
//! shard. The bucket order of HR/GHR/QR/GQR depends on the query alone, so
//! one prober serves every shard: a query is **one** search whose probe
//! unit is the concatenation of each shard's bucket for the code, shifted
//! to global ids — exactly the bucket of one table over all the rows. One
//! candidate budget, one stop policy, one top-k, no merge: the answer, its
//! [`ProbeStats`](crate::stats::ProbeStats), stop reason and recall
//! prediction are **bit-identical** to the unsharded engine's at every
//! budget (see `tests/sharded_equivalence.rs`). A predicate is planned
//! once, against that global budget.
//!
//! MIH keeps one side index per shard, so an MIH query searches every
//! shard with the whole budget and merges the per-shard top-k — serially
//! ([`ShardedIndex::run`]) or as one job per shard on a persistent
//! [`Executor`] ([`ShardedIndex::run_on`]). Its per-shard work is
//! observable as `gqr_shard_*{shard="i",strategy="MIH"}` and the merge as
//! `gqr_sharded_merge_ns`; the one search of every other strategy flushes
//! its phase spans once as `gqr_shard_*{shard="all",strategy}`.

use crate::attrs::AttributeStore;
use crate::engine::{ProbeStrategy, QueryEngine, SearchParams, SearchResponse};
use crate::executor::Executor;
use crate::metrics::MetricsRegistry;
use crate::persist::{LoadedIndex, PersistError, SnapshotWriter};
use crate::probe::mih::MihIndex;
use crate::probe_loop::{
    drive, Evaluator, FlatRows, ProbeCtx, SegmentRef, SegmentedTables, Target,
};
use crate::recall::RecallModel;
use crate::request::{Envelope, SearchRequest};
use crate::table::{encode_rows, HashTable};
use gqr_l2h::HashModel;
use gqr_linalg::vecops::Metric;
use std::ops::Range;
use std::time::Instant;

/// One shard: a contiguous range of the index's rows with its own table.
struct Shard {
    table: HashTable,
    /// Global ids of this shard's rows; local id `l` is global id
    /// `rows.start + l`.
    rows: Range<usize>,
    /// Prebuilt MIH side index, shared by every per-query engine so the
    /// substring tables are built once per shard, not once per search.
    mih: Option<MihIndex>,
}

impl Shard {
    /// Global id of this shard's local id 0.
    fn offset(&self) -> u32 {
        self.rows.start as u32
    }
}

/// A dataset partitioned across `S` shard-local hash tables, searched as
/// one table (MIH: by fanning out and merging per-shard top-k exactly).
///
/// ```
/// use gqr_core::engine::SearchParams;
/// use gqr_core::shard::ShardedIndex;
/// use gqr_l2h::pcah::Pcah;
///
/// let mut data = Vec::new();
/// for i in 0..300u32 {
///     data.push((i % 20) as f32 + 0.01 * (i as f32).sin());
///     data.push((i / 20) as f32);
/// }
/// let model = Pcah::train(&data, 2, 2).unwrap();
/// let index = ShardedIndex::build(&model, &data, 2, 3);
/// let params = SearchParams::for_k(5).candidates(100).build().unwrap();
/// let result = index.search(&[3.0, 4.0], &params);
/// assert_eq!(result.len(), 5);
/// ```
pub struct ShardedIndex<'a, M: HashModel + ?Sized> {
    model: &'a M,
    dim: usize,
    metric: Metric,
    /// Every shard's rows, row-major, `dim` columns: shards are contiguous
    /// ranges of this one buffer.
    data: &'a [f32],
    shards: Vec<Shard>,
    metrics: MetricsRegistry,
    recall: Option<&'a RecallModel>,
    attrs: Option<&'a AttributeStore>,
}

/// Why a [`ShardedIndexBuilder`] refused to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardBuildError {
    /// `shards(0)` — a sharded index needs at least one shard.
    ZeroShards,
    /// The model's dimensionality differs from the builder's `dim`.
    DimMismatch {
        /// What the model was trained for.
        model: usize,
        /// What the caller passed.
        data: usize,
    },
    /// `data.len()` is not a multiple of `dim`.
    RaggedData,
}

impl std::fmt::Display for ShardBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardBuildError::ZeroShards => write!(f, "need at least one shard"),
            ShardBuildError::DimMismatch { model, data } => write!(
                f,
                "model dimensionality {model} does not match data dimensionality {data}"
            ),
            ShardBuildError::RaggedData => write!(f, "data length is not a multiple of dim"),
        }
    }
}

impl std::error::Error for ShardBuildError {}

/// Configures and builds a [`ShardedIndex`] — the construction-side mirror
/// of [`SearchParams::for_k`](crate::engine::SearchParams::for_k): name
/// every knob, validate before building, no mutate-after-build dance.
///
/// ```
/// use gqr_core::shard::ShardedIndex;
/// use gqr_l2h::pcah::Pcah;
///
/// let mut data = Vec::new();
/// for i in 0..300u32 {
///     data.push((i % 20) as f32);
///     data.push((i / 20) as f32);
/// }
/// let model = Pcah::train(&data, 2, 2).unwrap();
/// let index = gqr_core::shard::ShardedIndexBuilder::new()
///     .shards(3)
///     .mih_blocks(2)
///     .build(&model, &data, 2)
///     .unwrap();
/// assert_eq!(index.n_shards(), 3);
/// ```
pub struct ShardedIndexBuilder {
    n_shards: usize,
    mih_blocks: Option<usize>,
    metric: Metric,
    metrics: MetricsRegistry,
}

impl ShardedIndexBuilder {
    /// A builder with the defaults: one shard, no MIH, squared Euclidean,
    /// metrics disabled.
    pub fn new() -> ShardedIndexBuilder {
        ShardedIndexBuilder::default()
    }

    /// Number of shards (validated at [`build`](ShardedIndexBuilder::build);
    /// default 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.n_shards = n;
        self
    }

    /// Prebuild each shard's MIH side index with this many substring blocks
    /// (required before [`ProbeStrategy::MultiIndexHashing`]).
    pub fn mih_blocks(mut self, blocks: usize) -> Self {
        assert!(blocks > 0, "MIH needs at least one block");
        self.mih_blocks = Some(blocks);
        self
    }

    /// Exact-evaluation metric (default squared Euclidean).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Attach a metrics registry (see [`ShardedIndex::with_metrics`]).
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Validate the configuration and build the index over `data`
    /// (row-major, `dim` columns).
    pub fn build<'a, M: HashModel + ?Sized>(
        self,
        model: &'a M,
        data: &'a [f32],
        dim: usize,
    ) -> Result<ShardedIndex<'a, M>, ShardBuildError> {
        if self.n_shards == 0 {
            return Err(ShardBuildError::ZeroShards);
        }
        if model.dim() != dim {
            return Err(ShardBuildError::DimMismatch {
                model: model.dim(),
                data: dim,
            });
        }
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return Err(ShardBuildError::RaggedData);
        }
        let mut index = ShardedIndex::build(model, data, dim, self.n_shards)
            .with_metric(self.metric)
            .with_metrics(self.metrics);
        if let Some(blocks) = self.mih_blocks {
            index.enable_mih(blocks);
        }
        Ok(index)
    }
}

impl Default for ShardedIndexBuilder {
    fn default() -> Self {
        ShardedIndexBuilder {
            n_shards: 1,
            mih_blocks: None,
            metric: Metric::SquaredEuclidean,
            metrics: MetricsRegistry::disabled(),
        }
    }
}

impl<'a, M: HashModel + ?Sized> ShardedIndex<'a, M> {
    /// Partition `data` (row-major, `dim` columns) into `n_shards`
    /// contiguous shards and build each shard's hash table. Every row is
    /// encoded once by [`encode_rows`]; each shard buckets its slice of the
    /// codes (in parallel when `n_shards > 1`). Shard sizes differ by at most
    /// one row.
    pub fn build(model: &'a M, data: &'a [f32], dim: usize, n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        assert_eq!(model.dim(), dim, "model and data dimensionality differ");
        assert!(data.len().is_multiple_of(dim), "data must be n×dim");
        let n = data.len() / dim;
        assert!(
            n <= u32::MAX as usize,
            "id space is u32; dataset has {n} rows"
        );

        // Contiguous partition: shard i gets base (+1 for the first n % S).
        let base = n / n_shards;
        let rem = n % n_shards;
        let mut ranges = Vec::with_capacity(n_shards);
        let mut row = 0usize;
        for i in 0..n_shards {
            let len = base + usize::from(i < rem);
            ranges.push(row..row + len);
            row += len;
        }
        let codes: Vec<u64> = encode_rows(model, data, dim);
        let shards = gqr_linalg::scoped_map(ranges, |rows| Shard {
            table: HashTable::from_codes(model.code_length(), &codes[rows.clone()]),
            rows,
            mih: None,
        });
        ShardedIndex {
            model,
            dim,
            metric: Metric::SquaredEuclidean,
            data,
            shards,
            metrics: MetricsRegistry::disabled(),
            recall: None,
            attrs: None,
        }
    }

    /// Persist the whole sharded index — model, every shard's table and
    /// prebuilt MIH, and the vectors — as one crash-safe snapshot at
    /// `path` (see [`crate::persist`]). Returns the bytes written. Reload
    /// with [`crate::persist::load_index`] +
    /// [`ShardedIndex::from_snapshot`].
    pub fn save_snapshot(&self, path: &std::path::Path) -> Result<u64, PersistError> {
        let mut w = SnapshotWriter::new();
        w.add_model(self.model)?;
        let manifest: Vec<(usize, bool)> = self
            .shards
            .iter()
            .map(|s| (s.rows.len(), s.mih.is_some()))
            .collect();
        w.add_manifest(self.metric, &manifest);
        w.add_vectors(self.data, self.dim);
        for shard in &self.shards {
            w.add_table(&shard.table);
        }
        for shard in &self.shards {
            if let Some(mih) = &shard.mih {
                w.add_mih(mih);
            }
        }
        if let Some(model) = self.recall {
            w.add_recall_model(model);
        }
        if let Some(attrs) = self.attrs {
            w.add_attrs(attrs);
        }
        w.write(path)
    }

    /// Attach a metrics registry (builder style): every query records
    /// `gqr_sharded_{total_ns,queries_total}`; the one search of HR/GHR/QR/
    /// GQR flushes its phase spans as `gqr_shard_*{shard="all",strategy="…"}`,
    /// while MIH flushes them per shard (`shard="0"`, …) and records its
    /// merge as `gqr_sharded_merge_ns`.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Switch the exact-evaluation metric (builder style).
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Attach a calibrated [`RecallModel`] (builder style), consulted when a
    /// request sets
    /// [`SearchParams::recall_target`](crate::engine::SearchParamsBuilder::recall_target).
    /// The one search of HR/GHR/QR/GQR walks the trajectory of the unsharded
    /// engine the model was calibrated on, so its `predicted_recall` is that
    /// engine's. Only MIH, which searches each shard on its own, reports the
    /// shard-row-weighted average of the per-shard predictions.
    pub fn with_recall_model(mut self, model: &'a RecallModel) -> Self {
        self.recall = Some(model);
        self
    }

    /// The attached recall calibration model, if any.
    pub fn recall_model(&self) -> Option<&'a RecallModel> {
        self.recall
    }

    /// Attach an attribute store keyed by **global** item ids (builder
    /// style): requests carrying a structured
    /// [`Predicate`](crate::attrs::Predicate) are planned once, against the
    /// request's global candidate budget, exactly as the unsharded engine
    /// plans them.
    pub fn with_attrs(mut self, attrs: &'a AttributeStore) -> Self {
        self.attrs = Some(attrs);
        self
    }

    /// The attached attribute store, if any.
    pub fn attrs(&self) -> Option<&'a AttributeStore> {
        self.attrs
    }

    /// Build each shard's multi-index-hashing side index (required before
    /// [`ProbeStrategy::MultiIndexHashing`]).
    /// Built once per shard and then lent to every per-query engine.
    pub fn enable_mih(&mut self, blocks: usize) {
        for shard in &mut self.shards {
            let codes = shard.table.dense_codes();
            shard.mih = Some(MihIndex::build(shard.table.code_length(), &codes, blocks));
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Items per shard, in shard order (sizes differ by at most one).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.table.n_items()).collect()
    }

    /// Total indexed items across shards.
    pub fn n_items(&self) -> usize {
        self.shards.iter().map(|s| s.table.n_items()).sum()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The attached metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The vectors of `shard`'s rows.
    fn rows_of(&self, shard: &Shard) -> &'a [f32] {
        &self.data[shard.rows.start * self.dim..shard.rows.end * self.dim]
    }

    /// Every shard as one segment of a table over all the rows.
    fn segments(&self) -> Vec<SegmentRef<'_, u64>> {
        self.shards
            .iter()
            .map(|s| SegmentRef::new(&s.table, self.rows_of(s), s.offset()))
            .collect()
    }

    /// A short-lived MIH engine over shard `i`. Engine construction is a
    /// few asserts; the expensive per-shard state (table, MIH) is borrowed.
    fn shard_engine(&self, i: usize) -> QueryEngine<'_, M> {
        let shard = &self.shards[i];
        let rows = self.rows_of(shard);
        let mut engine = QueryEngine::new(self.model, &shard.table, rows, self.dim)
            .with_metric(self.metric)
            .with_metrics(self.metrics.clone())
            .with_span_scope("gqr_shard", vec![("shard".to_string(), i.to_string())]);
        if let Some(mih) = &shard.mih {
            engine = engine.with_mih(mih);
        }
        if let Some(model) = self.recall {
            engine = engine.with_recall_model(model);
        }
        engine
    }

    /// Execute one request on the calling thread. HR/GHR/QR/GQR run as one
    /// search over every shard, bit-identical to the unsharded engine on
    /// the same data at every budget; a predicate is planned once against
    /// the global budget, and a survivor set that fits is evaluated outright
    /// whatever the strategy. MIH searches the shards one after another and
    /// merges their top-k.
    ///
    /// Requests with [checkpoints](SearchRequest::checkpoints) are rejected:
    /// per-shard snapshots cannot be merged into a global running top-k
    /// without the distances the snapshot discards. A request
    /// [deadline](SearchParams::deadline) is folded into the soft time limit
    /// and a late finish bumps `gqr_request_deadline_missed_total`.
    pub fn run(&self, mut req: SearchRequest<'_>) -> SearchResponse {
        let env = req.open_merged(&self.metrics, "sharded");
        let (query, params) = (req.query, req.params);
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let start = Instant::now();
        let mut ctx = ProbeCtx::new(&env);
        let target = Target {
            model: self.model,
            code_length: self.model.code_length(),
            metric: self.metric,
            recall: self.recall,
            rows: FlatRows {
                data: self.data,
                dim: self.dim,
            },
            n_rows: self.data.len() / self.dim,
        };
        let mut fanned_out = false;
        let out = target.run(req, self.attrs, start, &mut ctx, |sink, ctx| {
            match params.strategy {
                ProbeStrategy::MultiIndexHashing { .. } => {
                    fanned_out = true;
                    self.mih_serial(query, &params, sink, ctx.env)
                }
                strategy => {
                    let (segments, model, n) = (self.segments(), self.model, self.n_items());
                    let mut source =
                        SegmentedTables::new(model, &segments, n, strategy, query, ctx);
                    let policy = target.policy(&params, start, &self.metrics);
                    drive(&mut source, policy, sink, &[], ctx)
                }
            }
        });
        if !fanned_out {
            let labels = [("shard", "all"), ("strategy", env.strategy)];
            let phases = &ctx.phases;
            phases.flush_labeled(&self.metrics, "gqr_shard", &labels, start.elapsed());
        }
        self.finish(start, out, env)
    }

    /// Execute one request, running MIH's per-shard searches as one job
    /// each on `exec` and blocking until all complete. HR/GHR/QR/GQR are one
    /// search at the global budget — as fast as the slowest of S parallel
    /// per-shard searches would be, at 1/S of their work — so they run
    /// on the calling thread exactly as [`ShardedIndex::run`] does, and the
    /// two entry points agree at every budget.
    ///
    /// Filtered MIH requests (closure or predicate) also take the serial
    /// path: a `FnMut` filter cannot be shared across concurrently-searching
    /// shards.
    pub fn run_on(&self, exec: &Executor, mut req: SearchRequest<'_>) -> SearchResponse {
        let mih = matches!(req.params.strategy, ProbeStrategy::MultiIndexHashing { .. });
        if !mih || req.has_filter() || req.has_predicate() {
            return self.run(req);
        }
        let env = req.open_merged(&self.metrics, "sharded");
        let (query, params) = (req.query, req.params);
        let start = Instant::now();
        let answers = env.fan_out_on(exec, self.shards.len(), |i, lane, span| {
            let shard_req = SearchRequest::new(query).params(params);
            self.shard_engine(i)
                .run(shard_req.with_trace_parent(lane, span))
        });
        let out = self.merge(params.k, answers, &env);
        self.finish(start, out, env)
    }

    /// k-NN search across all shards, serially (thin wrapper over
    /// [`ShardedIndex::run`]).
    pub fn search(&self, query: &[f32], params: &SearchParams) -> SearchResponse {
        self.run(SearchRequest::new(query).params(*params))
    }

    /// MIH on the calling thread: search each shard with the whole budget
    /// under `sink`'s gate, then merge.
    fn mih_serial(
        &self,
        query: &[f32],
        params: &SearchParams,
        sink: Evaluator<'_, '_, FlatRows<'_>>,
        env: &Envelope<'_>,
    ) -> SearchResponse {
        let Evaluator { mut filter, .. } = sink;
        let answers = env.fan_out(self.shards.len(), |i, lane, span| {
            let offset = self.shards[i].offset();
            let mut shard_req = SearchRequest::new(query)
                .params(*params)
                .with_trace_parent(lane, span);
            if let Some(f) = filter.as_deref_mut() {
                // Shard engines see local ids; the gate speaks global ids.
                shard_req = shard_req.filter(move |local: u32| f(local + offset));
            }
            self.shard_engine(i).run(shard_req)
        });
        self.merge(params.k, answers, env)
    }

    /// Merge per-shard MIH answers into the global top-`k`.
    fn merge(&self, k: usize, answers: Vec<SearchResponse>, env: &Envelope<'_>) -> SearchResponse {
        let merge_start = Instant::now();
        let merge_span = env.trace.begin_at(env.root, "merge", merge_start);
        let parts = self.shards.iter().zip(answers);
        let parts = parts.map(|(shard, res)| (res, shard.offset(), shard.table.n_items()));
        let out = SearchResponse::merged(k, parts);
        env.trace.end(merge_span);
        self.metrics
            .record_duration("gqr_sharded_merge_ns", merge_start.elapsed());
        out
    }

    /// Flush the sharded-level metrics and close the request envelope.
    fn finish(&self, start: Instant, mut out: SearchResponse, env: Envelope) -> SearchResponse {
        if self.metrics.is_enabled() {
            self.metrics
                .record_duration("gqr_sharded_total_ns", start.elapsed());
            self.metrics.incr("gqr_sharded_queries_total");
        }
        out.trace_id = env.close();
        out
    }
}

impl<'a> ShardedIndex<'a, dyn HashModel + 'a> {
    /// Rebuild a sharded index borrowing a [`LoadedIndex`]: the model and
    /// vectors are borrowed, and each shard's table and prebuilt MIH are
    /// cloned into the owning `Shard`s, so no hashing or MIH construction
    /// runs. Works for any shard count (a one-shard snapshot just yields a
    /// one-shard index).
    pub fn from_snapshot(snap: &'a LoadedIndex) -> Self {
        let shards = snap
            .shards()
            .iter()
            .map(|s| Shard {
                table: s.table.clone(),
                rows: s.offset as usize..s.offset as usize + s.rows,
                mih: s.mih.clone(),
            })
            .collect();
        ShardedIndex {
            model: snap.model(),
            dim: snap.dim(),
            metric: snap.metric(),
            data: snap.data(),
            shards,
            metrics: MetricsRegistry::disabled(),
            recall: snap.recall_model(),
            attrs: snap.attrs(),
        }
    }
}

impl<M: HashModel + ?Sized> std::fmt::Debug for ShardedIndex<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("n_shards", &self.n_shards())
            .field("n_items", &self.n_items())
            .field("dim", &self.dim)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqr_l2h::pcah::Pcah;

    fn grid(n: u32) -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..n {
            data.push((i % 20) as f32 + 0.001 * ((i * 7) % 13) as f32);
            data.push((i / 20) as f32);
        }
        data
    }

    #[test]
    fn partition_is_contiguous_and_covers_everything() {
        let data = grid(401);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let index = ShardedIndex::build(&model, &data, 2, 3);
        assert_eq!(index.n_shards(), 3);
        assert_eq!(index.n_items(), 401);
        let sizes = index.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 401);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "balanced partition: {sizes:?}");
    }

    #[test]
    fn filter_sees_global_ids() {
        let data = grid(300);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let index = ShardedIndex::build(&model, &data, 2, 3);
        let params = SearchParams {
            k: 10,
            n_candidates: usize::MAX,
            ..Default::default()
        };
        let res = index.run(
            SearchRequest::new(&[5.0, 5.0])
                .params(params)
                .filter(|id| id >= 250),
        );
        assert!(!res.is_empty());
        assert!(
            res.ids.iter().all(|&id| id >= 250),
            "only the last shard's tail matches the filter: {:?}",
            res.ids
        );
    }

    #[test]
    #[should_panic(expected = "checkpoints are not supported")]
    fn checkpoints_are_rejected() {
        let data = grid(100);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let index = ShardedIndex::build(&model, &data, 2, 2);
        let budgets = [10usize];
        let _ = index.run(SearchRequest::new(&[0.0, 0.0]).checkpoints(&budgets));
    }

    #[test]
    fn sharded_metrics_flow_into_the_registry() {
        let data = grid(200);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let metrics = MetricsRegistry::enabled();
        let mut index = ShardedIndex::build(&model, &data, 2, 2).with_metrics(metrics.clone());
        index.enable_mih(2);
        let params = SearchParams {
            k: 5,
            n_candidates: usize::MAX,
            ..Default::default()
        };
        // A table strategy is one search: its spans flush once, for all
        // shards, and nothing is merged.
        let _ = index.search(&[3.0, 3.0], &params);
        assert_eq!(metrics.counter_value("gqr_sharded_queries_total"), Some(1));
        let merged =
            |m: &MetricsRegistry| m.histogram_names().contains(&"gqr_sharded_merge_ns".into());
        assert!(metrics.histogram("gqr_sharded_total_ns").is_some());
        assert!(!merged(&metrics));
        assert_eq!(
            metrics.counter_value("gqr_shard_queries_total{shard=\"all\",strategy=\"GQR\"}"),
            Some(1)
        );
        let evaluate = "gqr_shard_phase_ns{phase=\"evaluate\",shard=\"all\",strategy=\"GQR\"}";
        assert!(metrics.histogram(evaluate).is_some());
        assert_eq!(
            metrics.counter_value("gqr_shard_queries_total{shard=\"0\",strategy=\"GQR\"}"),
            None
        );

        // MIH searches every shard and merges.
        let mih = SearchParams {
            strategy: ProbeStrategy::MultiIndexHashing { blocks: 2 },
            ..params
        };
        let _ = index.search(&[3.0, 3.0], &mih);
        assert_eq!(metrics.counter_value("gqr_sharded_queries_total"), Some(2));
        assert!(merged(&metrics));
        for shard in ["0", "1"] {
            let name = format!("gqr_shard_queries_total{{shard=\"{shard}\",strategy=\"MIH\"}}");
            assert_eq!(metrics.counter_value(&name), Some(1), "{name}");
        }
        assert_eq!(
            metrics.counter_value("gqr_shard_queries_total{shard=\"all\",strategy=\"MIH\"}"),
            None
        );
    }
}
