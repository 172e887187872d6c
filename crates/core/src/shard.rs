//! Sharded serving index: one dataset, S hash tables, exact global top-k.
//!
//! A sharded index is a [`QueryEngine`] of `S` parts: the item rows are
//! partitioned into `S` contiguous ranges, each with its own [`HashTable`]
//! (and optionally its own MIH side index), and a query is **one** search
//! whose probe unit is the concatenation of each part's bucket, shifted to
//! global ids — exactly the bucket of one index over all the rows. The
//! engine merges the parts' tables into that one table once, when it is
//! built or loaded ([`HashTable::union`](crate::table::HashTable::union)),
//! and the bucket strategies probe it; MIH searches the parts' side
//! indexes as one. One candidate budget, one stop policy, one top-k, no
//! merge: the answer, its [`ProbeStats`](crate::stats::ProbeStats), stop
//! reason, recall prediction and checkpoints are **bit-identical** to the
//! unsharded engine's at every budget (see `tests/sharded_equivalence.rs`).
//! A predicate is planned once, against that global budget. The search flushes its phase spans
//! once as `gqr_shard_*{shard="all",strategy}`.
//!
//! [`HashTable`]: crate::table::HashTable

use crate::engine::QueryEngine;
use crate::metrics::MetricsRegistry;
use gqr_l2h::HashModel;
use gqr_linalg::vecops::Metric;

/// A dataset partitioned across `S` part-local hash tables, searched as one
/// table: an engine of `S` parts at 64-bit codes.
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
pub type ShardedIndex<'a, M> = QueryEngine<'a, M, u64>;

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
    /// (required before
    /// [`ProbeStrategy::MultiIndexHashing`](crate::engine::ProbeStrategy::MultiIndexHashing)).
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

    /// Attach a metrics registry (see [`QueryEngine::with_metrics`]).
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
        let mut index = QueryEngine::build(model, data, dim, self.n_shards)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ProbeStrategy, SearchParams};
    use crate::request::SearchRequest;
    use crate::table::HashTable;
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
