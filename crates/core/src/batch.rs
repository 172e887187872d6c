//! Batch query execution: the paper times 1000-query batches; services run
//! query streams. Parallelism is over queries (shared immutable index).
//!
//! Since the serving-layer redesign this module is a thin wrapper: the
//! parallel path runs on a persistent [`Executor`] (the process-wide
//! [`Executor::global`] by default, or one the caller brings via
//! [`QueryEngine::search_batch_on`]) instead of spawning fresh threads per
//! call.

use crate::engine::{QueryEngine, SearchParams, SearchResponse};
use crate::executor::Executor;
use crate::metrics::metric_name;
use crate::request::SearchRequest;
use crate::table::HashTable;
use gqr_l2h::HashModel;
use std::time::Instant;

impl<M: HashModel + ?Sized> QueryEngine<'_, M> {
    /// Run one search per query in parallel over `threads` chunks (`0` = all
    /// cores), on the process-wide [`Executor::global`]. Results keep query
    /// order. Falls back to the serial path for tiny batches where hand-off
    /// overhead dominates.
    ///
    /// With a metrics registry attached, every worker records its per-query
    /// phase spans into the shared registry (histogram recording is
    /// lock-free), and the batch as a whole records
    /// `gqr_batch_wall_ns`/`gqr_batch_queries_total`. With tracing enabled
    /// on the registry, each query in the batch makes its own sampling
    /// decision (the 1-in-N counter is shared process-wide), so a sampled
    /// batch query produces the same standalone span tree as a sampled
    /// [`QueryEngine::run`] — there is no batch-level parent span.
    pub fn search_batch(
        &self,
        queries: &[Vec<f32>],
        params: &SearchParams,
        threads: usize,
    ) -> Vec<SearchResponse> {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        if threads <= 1 || queries.len() < 8 {
            let wall = Instant::now();
            let results = queries.iter().map(|q| self.search(q, params)).collect();
            self.flush_batch_metrics(params, queries.len(), wall);
            return results;
        }
        self.batch_on_chunked(Executor::global(), queries, params, threads)
    }

    /// Run one search per query on `exec`'s persistent workers, blocking
    /// until the whole batch is done. Results keep query order. This is the
    /// serving-path entry point: bring the executor whose queue, deadline,
    /// and metrics configuration the service owns.
    pub fn search_batch_on(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        params: &SearchParams,
    ) -> Vec<SearchResponse> {
        // Over-chunk relative to the worker count so an unlucky slow chunk
        // doesn't serialize the tail of the batch.
        let jobs = (exec.workers() * 4).max(1);
        self.batch_on_chunked(exec, queries, params, jobs)
    }

    fn batch_on_chunked(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        params: &SearchParams,
        jobs: usize,
    ) -> Vec<SearchResponse> {
        let wall = Instant::now();
        let mut results: Vec<Option<SearchResponse>> = vec![None; queries.len()];
        if !queries.is_empty() {
            let chunk = queries.len().div_ceil(jobs.min(queries.len()));
            exec.run_scoped(queries.chunks(chunk).zip(results.chunks_mut(chunk)).map(
                |(qs, out)| {
                    Box::new(move || {
                        for (q, slot) in qs.iter().zip(out.iter_mut()) {
                            *slot = Some(self.run(SearchRequest::new(q).params(*params)));
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                },
            ));
        }
        self.flush_batch_metrics(params, queries.len(), wall);
        results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    fn flush_batch_metrics(&self, params: &SearchParams, n_queries: usize, wall: Instant) {
        if self.metrics().is_enabled() {
            let strat = params.strategy.name();
            self.metrics().add(
                &metric_name("gqr_batch_queries_total", &[("strategy", strat)]),
                n_queries as u64,
            );
            self.metrics().record_duration(
                &metric_name("gqr_batch_wall_ns", &[("strategy", strat)]),
                wall.elapsed(),
            );
        }
    }
}

/// Convenience: aggregate recall of a result batch against ground truth.
pub fn batch_recall(results: &[SearchResponse], truth: &[Vec<u32>]) -> f64 {
    assert_eq!(results.len(), truth.len());
    if results.is_empty() {
        return 1.0;
    }
    let mut acc = 0.0;
    for (res, t) in results.iter().zip(truth) {
        if t.is_empty() {
            acc += 1.0;
            continue;
        }
        // Hash the truth row once; probing it per neighbor keeps the whole
        // aggregation linear instead of |neighbors|×|truth| per query.
        let truth_set: std::collections::HashSet<u32> = t.iter().copied().collect();
        let found = res.ids.iter().filter(|id| truth_set.contains(id)).count();
        acc += found as f64 / t.len() as f64;
    }
    acc / results.len() as f64
}

/// Build one [`HashTable`] per model in parallel (index-construction path
/// for multi-table deployments).
pub fn build_tables_parallel(
    models: &[&dyn HashModel],
    data: &[f32],
    dim: usize,
    threads: usize,
) -> Vec<HashTable> {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    if threads <= 1 || models.len() == 1 {
        return models
            .iter()
            .map(|m| HashTable::build(*m, data, dim))
            .collect();
    }
    let mut tables: Vec<Option<HashTable>> = (0..models.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (model, slot) in models.iter().zip(tables.iter_mut()) {
            scope.spawn(move || {
                *slot = Some(HashTable::build(*model, data, dim));
            });
        }
    });
    tables
        .into_iter()
        .map(|t| t.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ProbeStrategy;
    use gqr_l2h::pcah::Pcah;

    fn grid() -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..300u32 {
            data.push((i % 20) as f32);
            data.push((i / 20) as f32 + ((i % 3) as f32) * 0.01);
        }
        data
    }

    #[test]
    fn parallel_matches_serial() {
        let data = grid();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let queries: Vec<Vec<f32>> = (0..30)
            .map(|i| vec![(i % 19) as f32 + 0.3, (i / 2) as f32])
            .collect();
        let params = SearchParams {
            k: 5,
            n_candidates: 60,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        };
        let serial = engine.search_batch(&queries, &params, 1);
        let parallel = engine.search_batch(&queries, &params, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.ranked(), b.ranked());
        }
    }

    #[test]
    fn explicit_executor_matches_serial() {
        let data = grid();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let queries: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 19) as f32 + 0.1, (i % 13) as f32])
            .collect();
        let params = SearchParams {
            k: 3,
            n_candidates: 50,
            ..Default::default()
        };
        let exec = Executor::builder().workers(3).build();
        let serial = engine.search_batch(&queries, &params, 1);
        let pooled = engine.search_batch_on(&exec, &queries, &params);
        assert_eq!(serial.len(), pooled.len());
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.ranked(), b.ranked());
        }
    }

    #[test]
    fn batch_recall_aggregates() {
        let data = grid();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let queries: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![5.0, 5.0]];
        let truth = vec![vec![0u32], vec![105u32]];
        let params = SearchParams {
            k: 1,
            n_candidates: usize::MAX,
            ..Default::default()
        };
        let results = engine.search_batch(&queries, &params, 2);
        let r = batch_recall(&results, &truth);
        assert!(r > 0.49, "at least one exact hit expected, got {r}");
    }

    #[test]
    fn parallel_table_builds_match() {
        let data = grid();
        let m1 = Pcah::train(&data, 2, 2).unwrap();
        let m2 = Pcah::train(&data, 2, 1).unwrap();
        let models: Vec<&dyn gqr_l2h::HashModel> = vec![&m1, &m2];
        let serial = build_tables_parallel(&models, &data, 2, 1);
        let parallel = build_tables_parallel(&models, &data, 2, 2);
        assert_eq!(serial.len(), 2);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.n_buckets(), b.n_buckets());
            assert_eq!(a.n_items(), b.n_items());
        }
    }

    #[test]
    fn empty_batch() {
        let data = grid();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let out = engine.search_batch(&[], &SearchParams::default(), 4);
        assert!(out.is_empty());
        assert_eq!(batch_recall(&[], &[]), 1.0);
        let exec = Executor::builder().workers(1).build();
        assert!(engine
            .search_batch_on(&exec, &[], &SearchParams::default())
            .is_empty());
    }
}
