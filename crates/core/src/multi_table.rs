//! Multiple hash tables with merged probing and duplicate suppression
//! (paper §6.3.5, Fig 12).
//!
//! Each table has its own model (e.g. ITQ trained with different rotation
//! seeds, or LSH with fresh hyperplanes). At query time every table gets its
//! own prober; the search repeatedly probes the table whose next bucket has
//! the smallest cost indicator (QD or Hamming radius), so the global probe
//! order respects the per-table orders. Items already evaluated through
//! another table are skipped — the de-duplication cost that makes
//! multi-table setups trade memory for recall.

use crate::attrs::AttributeStore;
use crate::engine::{ProbeStrategy, SearchParams, SearchResponse};
use crate::metrics::MetricsRegistry;
use crate::probe_loop::{drive, Evaluator, FlatRows, MergedTables, Part, ProbeCtx, StopPolicy};
use crate::request::SearchRequest;
use crate::table::HashTable;
use gqr_l2h::HashModel;
use gqr_linalg::vecops::Metric;
use std::borrow::Cow;
use std::time::Instant;

/// An index of `T` hash tables over the same dataset.
pub struct MultiTableIndex<'a> {
    models: Vec<&'a dyn HashModel>,
    /// One part per model, each over every row.
    tables: Vec<Part<'a, u64>>,
    data: &'a [f32],
    dim: usize,
    metrics: MetricsRegistry,
    attrs: Option<&'a AttributeStore>,
}

impl<'a> MultiTableIndex<'a> {
    /// Build one table per model over the same `data`.
    pub fn build(
        models: Vec<&'a dyn HashModel>,
        data: &'a [f32],
        dim: usize,
    ) -> MultiTableIndex<'a> {
        assert!(!models.is_empty(), "need at least one table");
        let n = data.len() / dim;
        let tables = models
            .iter()
            .map(|m| Part {
                table: Cow::Owned(HashTable::build(*m, data, dim)),
                mih: None,
                first_id: 0,
                rows: n,
            })
            .collect();
        MultiTableIndex {
            models,
            tables,
            data,
            dim,
            metrics: MetricsRegistry::disabled(),
            attrs: None,
        }
    }

    /// Attach a metrics registry (builder style). Searches then record phase
    /// spans and totals under the `gqr_multi_table_*` metric family; the
    /// `probe_generate` phase covers the cross-table merge (picking the
    /// table whose next bucket has the smallest cost indicator).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// The attached metrics registry (disabled unless one was attached).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Attach an attribute store (builder style): requests carrying a
    /// structured [`Predicate`](crate::attrs::Predicate) are planned
    /// against it and composed into the merged probing loop's filter.
    pub fn with_attrs(mut self, attrs: &'a AttributeStore) -> Self {
        self.attrs = Some(attrs);
        self
    }

    /// The attached attribute store, if any.
    pub fn attrs(&self) -> Option<&'a AttributeStore> {
        self.attrs
    }

    /// Number of tables.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed items (rows shared by every table).
    pub fn n_items(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Total approximate table memory (the memory cost Fig 12 trades
    /// against query time).
    pub fn approx_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.table.approx_bytes()).sum()
    }

    /// k-NN search across all tables (thin wrapper over
    /// [`MultiTableIndex::run`]). Supports the four bucket strategies; MIH
    /// is single-table only.
    pub fn search(&self, query: &[f32], params: &SearchParams) -> SearchResponse {
        self.run(SearchRequest::new(query).params(*params))
    }

    /// Execute one [`SearchRequest`] across all tables — the same front
    /// door as [`QueryEngine::run`](crate::engine::QueryEngine::run), with
    /// the same checkpoint, filter and deadline semantics (a request
    /// deadline tightens the soft per-search time limit; a late finish
    /// bumps `gqr_request_deadline_missed_total`). Items rejected by a
    /// filter are still marked visited, so other tables do not re-collect
    /// them. Evaluation is squared Euclidean; the Theorem-2 early stop and
    /// recall targets are single-table only and ignored here.
    pub fn run(&self, mut req: SearchRequest<'_>) -> SearchResponse {
        let env = req.open(&self.metrics, "multi_table");
        let (query, params) = (req.query, req.params);
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        assert!(
            !matches!(params.strategy, ProbeStrategy::MultiIndexHashing { .. }),
            "MIH is not supported across multiple tables"
        );
        let strat = params.strategy.name();
        let predicate = req.predicate;
        let (_, mut filter) = env.plan_filter(self.attrs, predicate.as_ref(), req.filter, 0);
        let start = Instant::now();
        let mut ctx = ProbeCtx::new(&env);
        let mut source = MergedTables::new(
            &self.models,
            &self.tables,
            params.strategy,
            self.n_items(),
            query,
            &mut ctx,
        );
        let sink = Evaluator {
            query,
            rows: FlatRows {
                data: self.data,
                dim: self.dim,
            },
            metric: Metric::SquaredEuclidean,
            filter: filter.as_deref_mut(),
        };
        let policy = StopPolicy::new(&params, start);
        let mut out = drive(&mut source, policy, sink, req.budgets, &mut ctx);
        ctx.phases
            .flush(&self.metrics, "gqr_multi_table", strat, start.elapsed());
        out.trace_id = env.close();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqr_l2h::lsh::Lsh;
    use gqr_linalg::vecops::sq_dist_f32;

    fn grid() -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..400u32 {
            data.push((i % 20) as f32);
            data.push((i / 20) as f32 + 0.001 * ((i * 3) % 7) as f32);
        }
        data
    }

    fn models(data: &[f32], n: usize) -> Vec<Lsh> {
        (0..n)
            .map(|s| Lsh::train(data, 2, 6, s as u64 + 1).unwrap())
            .collect()
    }

    #[test]
    fn exhaustive_multi_table_is_exact() {
        let data = grid();
        let ms = models(&data, 3);
        let refs: Vec<&dyn HashModel> = ms.iter().map(|m| m as &dyn HashModel).collect();
        let idx = MultiTableIndex::build(refs, &data, 2);
        assert_eq!(idx.n_tables(), 3);
        let q = [9.5f32, 9.5];
        let params = SearchParams {
            k: 4,
            n_candidates: usize::MAX,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        };
        let res = idx.search(&q, &params);
        // Brute force.
        let mut d: Vec<(f32, u32)> = data
            .chunks_exact(2)
            .enumerate()
            .map(|(i, row)| (sq_dist_f32(&q, row), i as u32))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<u32> = d.iter().take(4).map(|&(_, i)| i).collect();
        assert_eq!(res.ids, expect);
        assert_eq!(res.stats.items_evaluated, 400, "each item evaluated once");
        assert!(
            res.stats.duplicates_skipped >= 400,
            "tables overlap heavily when drained"
        );
    }

    #[test]
    fn more_tables_do_not_reduce_candidate_quality() {
        // With a small budget, 3 tables must reach at least the recall of 1
        // table on average (they see a superset of nearby buckets). Sanity
        // check on a single query: the 1-NN must be found by the 3-table
        // index if the 1-table index finds it.
        let data = grid();
        let ms = models(&data, 3);
        let q = [5.2f32, 5.1];
        let params = SearchParams {
            k: 1,
            n_candidates: 60,
            strategy: ProbeStrategy::GenerateHammingRanking,
            early_stop: false,
            ..Default::default()
        };
        let single = MultiTableIndex::build(vec![&ms[0] as &dyn HashModel], &data, 2);
        let triple =
            MultiTableIndex::build(ms.iter().map(|m| m as &dyn HashModel).collect(), &data, 2);
        let s1 = single.search(&q, &params);
        let s3 = triple.search(&q, &params);
        assert!(
            s3.distances[0] <= s1.distances[0],
            "3 tables at least as close"
        );
    }

    #[test]
    fn budget_respected_and_duplicates_counted() {
        let data = grid();
        let ms = models(&data, 2);
        let idx =
            MultiTableIndex::build(ms.iter().map(|m| m as &dyn HashModel).collect(), &data, 2);
        let params = SearchParams {
            k: 3,
            n_candidates: 50,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        };
        let res = idx.search(&[1.0, 1.0], &params);
        assert!(res.stats.items_evaluated >= 50);
        assert!(res.stats.items_evaluated <= 400);
        assert_eq!(
            res.stats.items_collected,
            res.stats.items_evaluated + res.stats.duplicates_skipped
        );
    }

    #[test]
    fn memory_grows_with_tables() {
        let data = grid();
        let ms = models(&data, 3);
        let one = MultiTableIndex::build(vec![&ms[0] as &dyn HashModel], &data, 2);
        let three =
            MultiTableIndex::build(ms.iter().map(|m| m as &dyn HashModel).collect(), &data, 2);
        assert!(three.approx_bytes() > 2 * one.approx_bytes());
    }

    #[test]
    fn run_supports_filters_and_stop_criteria() {
        let data = grid();
        let ms = models(&data, 2);
        let idx =
            MultiTableIndex::build(ms.iter().map(|m| m as &dyn HashModel).collect(), &data, 2);
        let params = SearchParams {
            k: 5,
            n_candidates: usize::MAX,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        };
        let res = idx.run(
            SearchRequest::new(&[7.0, 7.0])
                .params(params)
                .filter(|id| id % 2 == 0),
        );
        assert_eq!(res.len(), 5);
        assert!(res.ids.iter().all(|&id| id % 2 == 0));

        let capped = idx.run(SearchRequest::new(&[7.0, 7.0]).params(SearchParams {
            max_buckets: Some(3),
            ..params
        }));
        assert!(capped.stats.buckets_probed <= 3, "bucket cap respected");
    }

    #[test]
    #[should_panic(expected = "not supported across multiple tables")]
    fn mih_rejected() {
        let data = grid();
        let ms = models(&data, 2);
        let idx =
            MultiTableIndex::build(ms.iter().map(|m| m as &dyn HashModel).collect(), &data, 2);
        let params = SearchParams {
            strategy: ProbeStrategy::MultiIndexHashing { blocks: 2 },
            ..Default::default()
        };
        let _ = idx.search(&[0.0, 0.0], &params);
    }
}
