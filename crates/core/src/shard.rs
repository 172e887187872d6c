//! Sharded serving index: one dataset, S hash tables, exact global top-k.
//!
//! A [`ShardedIndex`] partitions the item rows into `S` contiguous shards
//! and builds one [`HashTable`] (and optionally one MIH side index) per
//! shard. The probe order of every strategy depends on the query alone, so
//! a query is **one** search whose probe unit is the concatenation of each
//! shard's bucket — for MIH, each shard's substring bucket — shifted to
//! global ids: exactly the bucket of one index over all the rows. One
//! candidate budget, one stop policy, one top-k, no merge: the answer, its
//! [`ProbeStats`](crate::stats::ProbeStats), stop reason, recall prediction
//! and checkpoints are **bit-identical** to the unsharded engine's at every
//! budget (see `tests/sharded_equivalence.rs`). A predicate is planned
//! once, against that global budget. The search flushes its phase spans
//! once as `gqr_shard_*{shard="all",strategy}`.

use crate::attrs::AttributeStore;
use crate::engine::{ProbeStrategy, SearchParams, SearchResponse};
use crate::metrics::MetricsRegistry;
use crate::persist::{LoadedIndex, PersistError, SnapshotWriter};
use crate::probe::mih::MihIndex;
use crate::probe_loop::{
    drive, FlatRows, MihSource, ProbeCtx, SegmentRef, SegmentedTables, Target,
};
use crate::recall::RecallModel;
use crate::request::SearchRequest;
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
    /// Prebuilt MIH side index over this shard's local ids.
    mih: Option<MihIndex>,
}

impl Shard {
    /// Global id of this shard's local id 0.
    fn offset(&self) -> u32 {
        self.rows.start as u32
    }
}

/// A dataset partitioned across `S` shard-local hash tables, searched as
/// one table.
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
    /// `gqr_sharded_{total_ns,queries_total}` and flushes the phase spans of
    /// its one search as `gqr_shard_*{shard="all",strategy="…"}`.
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
    /// The one search walks the trajectory of the unsharded engine the model
    /// was calibrated on, so its `predicted_recall` is that engine's.
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

    /// Execute one request on the calling thread as one search over every
    /// shard, bit-identical to the unsharded engine on the same data at
    /// every budget: checkpoints included, and a predicate planned once
    /// against the global budget (a survivor set that fits is evaluated
    /// outright whatever the strategy). A request
    /// [deadline](SearchParams::deadline) is folded into the soft time limit
    /// and a late finish bumps `gqr_request_deadline_missed_total`.
    pub fn run(&self, mut req: SearchRequest<'_>) -> SearchResponse {
        let env = req.open(&self.metrics, "sharded");
        let (query, params, budgets) = (req.query, req.params, req.budgets);
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
        let mut out = target.run(req, self.attrs, start, &mut ctx, |sink, ctx| {
            let policy = target.policy(&params, start, &self.metrics);
            match params.strategy {
                ProbeStrategy::MultiIndexHashing { .. } => {
                    let parts = self.shards.iter().map(|s| {
                        let mih = s.mih.as_ref();
                        let mih = mih.expect("call enable_mih() before searching with MIH");
                        (mih, s.offset())
                    });
                    let parts = parts.collect();
                    let cap = params.max_buckets;
                    let mut source = MihSource::new(self.model, parts, cap, query, ctx);
                    drive(&mut source, policy, sink, budgets, ctx)
                }
                strategy => {
                    let (segments, model, n) = (self.segments(), self.model, self.n_items());
                    let mut source =
                        SegmentedTables::new(model, &segments, n, strategy, query, ctx);
                    drive(&mut source, policy, sink, budgets, ctx)
                }
            }
        });
        let labels = [("shard", "all"), ("strategy", env.strategy)];
        let phases = &ctx.phases;
        phases.flush_labeled(&self.metrics, "gqr_shard", &labels, start.elapsed());
        if self.metrics.is_enabled() {
            self.metrics
                .record_duration("gqr_sharded_total_ns", start.elapsed());
            self.metrics.incr("gqr_sharded_queries_total");
        }
        out.trace_id = env.close();
        out
    }

    /// k-NN search across all shards (thin wrapper over
    /// [`ShardedIndex::run`]).
    pub fn search(&self, query: &[f32], params: &SearchParams) -> SearchResponse {
        self.run(SearchRequest::new(query).params(*params))
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
    use crate::engine::QueryEngine;
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
    fn checkpoints_equal_the_engines() {
        let data = grid(300);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let mut engine = QueryEngine::new(&model, &table, &data, 2);
        engine.enable_mih(2);
        let mut index = ShardedIndex::build(&model, &data, 2, 3);
        index.enable_mih(2);
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
        let mih = SearchParams {
            strategy: ProbeStrategy::MultiIndexHashing { blocks: 2 },
            ..params
        };
        // Every strategy is one search: its spans flush once, for all shards.
        for (n, params) in [(1, params), (2, mih)] {
            let strategy = params.strategy.name();
            let _ = index.search(&[3.0, 3.0], &params);
            assert_eq!(metrics.counter_value("gqr_sharded_queries_total"), Some(n));
            assert!(metrics.histogram("gqr_sharded_total_ns").is_some());
            let all = format!("gqr_shard_queries_total{{shard=\"all\",strategy=\"{strategy}\"}}");
            assert_eq!(metrics.counter_value(&all), Some(1), "{all}");
            let evaluate = format!(
                "gqr_shard_phase_ns{{phase=\"evaluate\",shard=\"all\",strategy=\"{strategy}\"}}"
            );
            assert!(metrics.histogram(&evaluate).is_some(), "{evaluate}");
            let one = format!("gqr_shard_queries_total{{shard=\"0\",strategy=\"{strategy}\"}}");
            assert_eq!(metrics.counter_value(&one), None, "{one}");
        }
    }
}
