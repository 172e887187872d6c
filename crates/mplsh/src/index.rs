//! The Multi-Probe LSH index: `L` E2LSH tables with query-directed probing.

use crate::probing::{PerturbationSequence, QueryProjection};
use gqr_linalg::kernels::ScoreBlock;
use gqr_linalg::qr::gaussian;
use gqr_linalg::vecops::{sq_dist_f32, Metric};
use gqr_linalg::Matrix;
use gqr_metrics::{MetricsRegistry, Phase, PhaseSpans, SpanId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;

/// Construction parameters.
#[derive(Clone, Debug)]
pub struct MpLshParams {
    /// Number of hash tables `L`.
    pub tables: usize,
    /// E2LSH functions per table `M` (≤ 32).
    pub hashes_per_table: usize,
    /// Bucket width `W` of the quantizer `⌊(a·x + b)/W⌋`. Scale to the
    /// data's typical distances; [`MpLshIndex::suggest_width`] estimates one.
    pub bucket_width: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MpLshParams {
    fn default() -> Self {
        MpLshParams {
            tables: 4,
            hashes_per_table: 8,
            bucket_width: 1.0,
            seed: 0,
        }
    }
}

/// One E2LSH table.
#[derive(Clone, Debug)]
struct Table {
    /// Projection matrix (`M×d`), iid standard normal rows.
    a: Matrix,
    /// Offsets `b_i ~ U[0, W)`.
    b: Vec<f64>,
    /// Integer-key buckets.
    buckets: HashMap<Vec<i32>, Vec<u32>>,
}

impl Table {
    fn project(&self, x: &[f32], w: f64) -> QueryProjection {
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let mut f = self.a.matvec(&xf);
        for (fi, bi) in f.iter_mut().zip(&self.b) {
            *fi += bi;
        }
        QueryProjection::new(&f, w)
    }
}

/// A built Multi-Probe LSH index.
#[derive(Clone, Debug)]
pub struct MpLshIndex {
    dim: usize,
    w: f64,
    tables: Vec<Table>,
    n_items: usize,
}

/// Search statistics (the de-duplication and invalid-set overhead GQR's
/// design avoids).
#[derive(Clone, Copy, Debug, Default)]
pub struct MpLshStats {
    /// Bucket lookups across tables.
    pub buckets_probed: usize,
    /// Lookups that found no bucket.
    pub empty_buckets: usize,
    /// Unique items evaluated.
    pub items_evaluated: usize,
    /// Candidates skipped as duplicates across tables.
    pub duplicates_skipped: usize,
    /// Invalid perturbation sets generated and discarded.
    pub invalid_sets: usize,
}

impl MpLshIndex {
    /// Build the index over row-major data.
    pub fn build(data: &[f32], dim: usize, params: &MpLshParams) -> MpLshIndex {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "data must be n×dim"
        );
        assert!(params.tables >= 1, "need at least one table");
        assert!(
            (1..=32).contains(&params.hashes_per_table),
            "1..=32 hash functions per table"
        );
        assert!(params.bucket_width > 0.0, "bucket width must be positive");
        let n = data.len() / dim;
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0x6d70_6c73);
        let mut tables = Vec::with_capacity(params.tables);
        for _ in 0..params.tables {
            let mut a = Matrix::zeros(params.hashes_per_table, dim);
            for r in 0..params.hashes_per_table {
                for c in 0..dim {
                    a[(r, c)] = gaussian(&mut rng);
                }
            }
            let b: Vec<f64> = (0..params.hashes_per_table)
                .map(|_| rng.gen::<f64>() * params.bucket_width)
                .collect();
            let mut table = Table {
                a,
                b,
                buckets: HashMap::new(),
            };
            for (i, row) in data.chunks_exact(dim).enumerate() {
                let key = table.project(row, params.bucket_width).codes;
                table.buckets.entry(key).or_default().push(i as u32);
            }
            tables.push(table);
        }
        MpLshIndex {
            dim,
            w: params.bucket_width,
            tables,
            n_items: n,
        }
    }

    /// Estimate a bucket width from the data: the mean distance between a
    /// sample of consecutive rows, divided by 2 (a common E2LSH heuristic
    /// starting point).
    pub fn suggest_width(data: &[f32], dim: usize) -> f64 {
        let n = data.len() / dim;
        if n < 2 {
            return 1.0;
        }
        let samples = n.min(500);
        let mut acc = 0.0f64;
        for i in 0..samples - 1 {
            let a = &data[i * dim..(i + 1) * dim];
            let b = &data[(i + 1) * dim..(i + 2) * dim];
            acc += (sq_dist_f32(a, b) as f64).sqrt();
        }
        (acc / (samples - 1) as f64 / 2.0).max(1e-6)
    }

    /// Number of tables.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Indexed item count.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Total occupied buckets across tables.
    pub fn n_buckets(&self) -> usize {
        self.tables.iter().map(|t| t.buckets.len()).sum()
    }

    /// Serialize the index (projections, offsets, buckets) for a binary
    /// snapshot (see `gqr-core::persist`). Buckets are written sorted by
    /// key so the byte stream is deterministic; per-bucket id order is
    /// preserved, so a reloaded index returns bit-identical results.
    pub fn wire_write(&self, w: &mut gqr_linalg::wire::ByteWriter) {
        w.put_usize(self.dim);
        w.put_f64(self.w);
        w.put_usize(self.n_items);
        w.put_usize(self.tables.len());
        for t in &self.tables {
            w.put_matrix(&t.a);
            w.put_f64_slice(&t.b);
            let mut keys: Vec<&Vec<i32>> = t.buckets.keys().collect();
            keys.sort_unstable();
            w.put_usize(keys.len());
            for key in keys {
                w.put_i32_slice(key);
                w.put_u32_slice(&t.buckets[key]);
            }
        }
    }

    /// Decode an index written by [`MpLshIndex::wire_write`].
    pub fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<MpLshIndex, gqr_linalg::wire::WireError> {
        use gqr_linalg::wire::WireError;
        let dim = r.get_usize()?;
        let w = r.get_f64()?;
        let n_items = r.get_usize()?;
        let n_tables = r.get_usize()?;
        if dim == 0 || n_tables == 0 {
            return Err(WireError::Malformed("MPLSH shape out of range"));
        }
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let a = r.get_matrix()?;
            let b = r.get_f64_vec()?;
            if a.cols() != dim || a.rows() != b.len() || a.rows() == 0 {
                return Err(WireError::Malformed("MPLSH table shape mismatch"));
            }
            let n_buckets = r.get_usize()?;
            let mut buckets = HashMap::with_capacity(n_buckets);
            for _ in 0..n_buckets {
                let key = r.get_i32_vec()?;
                if key.len() != a.rows() {
                    return Err(WireError::Malformed("MPLSH bucket key length mismatch"));
                }
                let ids = r.get_u32_vec()?;
                if buckets.insert(key, ids).is_some() {
                    return Err(WireError::Malformed("MPLSH duplicate bucket key"));
                }
            }
            tables.push(Table { a, b, buckets });
        }
        Ok(MpLshIndex {
            dim,
            w,
            tables,
            n_items,
        })
    }

    /// k-NN search: probe up to `probes_per_table` buckets per table in
    /// perturbation-score order (merged across tables by score), evaluate
    /// unique candidates exactly, return the top `k`.
    pub fn search(
        &self,
        query: &[f32],
        data: &[f32],
        k: usize,
        n_candidates: usize,
        probes_per_table: usize,
    ) -> (Vec<(u32, f32)>, MpLshStats) {
        self.search_metered(
            query,
            data,
            k,
            n_candidates,
            probes_per_table,
            &MetricsRegistry::disabled(),
        )
    }

    /// [`MpLshIndex::search`] with query-path observability: with an enabled
    /// registry, phase spans (`hash_query` = per-table projections,
    /// `probe_generate` = perturbation-sequence expansion and cross-table
    /// merge, `bucket_lookup`, `evaluate`, `rerank`) and per-query totals
    /// are recorded under the `gqr_mplsh_*` metric family with
    /// `strategy="MPLSH"`. When the registry has tracing enabled
    /// ([`MetricsRegistry::enable_tracing`]), sampled queries additionally
    /// capture a span tree named `mplsh` with a per-probe trajectory (the
    /// perturbation score standing in for QD).
    pub fn search_metered(
        &self,
        query: &[f32],
        data: &[f32],
        k: usize,
        n_candidates: usize,
        probes_per_table: usize,
        metrics: &MetricsRegistry,
    ) -> (Vec<(u32, f32)>, MpLshStats) {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let start = Instant::now();
        let trace = metrics.trace_begin("mplsh", false);
        let troot = SpanId::ROOT;
        let mut spans = PhaseSpans::new(metrics);
        let mut stats = MpLshStats::default();
        let t0 = spans.begin();
        let ts = trace.begin_opt(troot, Phase::HashQuery.as_str(), t0);
        let projections: Vec<QueryProjection> = self
            .tables
            .iter()
            .map(|t| t.project(query, self.w))
            .collect();
        spans.end(Phase::HashQuery, t0);
        trace.end(ts);
        let t0 = spans.begin();
        let ts = trace.begin_opt(troot, Phase::ProbeGenerate.as_str(), t0);
        let mut sequences: Vec<PerturbationSequence<'_>> =
            projections.iter().map(PerturbationSequence::new).collect();
        // Pending next emission per table: (score, key).
        let mut pending: Vec<Option<(Vec<i32>, f64)>> =
            sequences.iter_mut().map(|s| s.next_bucket()).collect();
        spans.end(Phase::ProbeGenerate, t0);
        trace.end(ts);
        let mut probes_left: Vec<usize> = vec![probes_per_table; self.tables.len()];

        let mut visited = vec![false; self.n_items];
        let mut best: Vec<(u32, f32)> = Vec::new();
        let mut scratch = ScoreBlock::new(self.dim);

        while stats.items_evaluated < n_candidates {
            // Table with the lowest pending score.
            let tg = spans.begin();
            let mut pick: Option<(usize, f64)> = None;
            for (t, p) in pending.iter().enumerate() {
                if probes_left[t] == 0 {
                    continue;
                }
                if let Some((_, s)) = p {
                    if pick.is_none_or(|(_, bs)| *s < bs) {
                        pick = Some((t, *s));
                    }
                }
            }
            let picked = pick.map(|(t, _)| {
                let (key, _) = pending[t].take().expect("picked pending entry");
                probes_left[t] -= 1;
                pending[t] = if probes_left[t] > 0 {
                    sequences[t].next_bucket()
                } else {
                    None
                };
                (t, key)
            });
            spans.end(Phase::ProbeGenerate, tg);
            let Some((t, key)) = picked else { break };

            let step_qd = pick.map_or(-1.0, |(_, s)| s);
            let bucket_rank = stats.buckets_probed as u32;
            stats.buckets_probed += 1;
            let tl = spans.begin();
            let ts = trace.begin_opt(troot, Phase::BucketLookup.as_str(), tl);
            let bucket = self.tables[t].buckets.get(&key);
            spans.end(Phase::BucketLookup, tl);
            trace.end(ts);
            let Some(items) = bucket else {
                stats.empty_buckets += 1;
                if trace.is_sampled() {
                    trace.qd_step(troot, bucket_rank, step_qd, 0, 0);
                }
                continue;
            };
            let evaluated_before = stats.items_evaluated;
            let te = spans.begin();
            let ts = trace.begin_opt(troot, Phase::Evaluate.as_str(), te);
            for &id in items {
                let seen = &mut visited[id as usize];
                if *seen {
                    stats.duplicates_skipped += 1;
                    continue;
                }
                *seen = true;
                if scratch.is_full() {
                    stats.items_evaluated +=
                        scratch.flush(query, Metric::SquaredEuclidean, |id, d| best.push((id, d)));
                }
                let row = &data[id as usize * self.dim..(id as usize + 1) * self.dim];
                scratch.push(id, row);
            }
            stats.items_evaluated +=
                scratch.flush(query, Metric::SquaredEuclidean, |id, d| best.push((id, d)));
            spans.end(Phase::Evaluate, te);
            trace.end(ts);
            if trace.is_sampled() {
                let kept = (stats.items_evaluated - evaluated_before) as u32;
                trace.qd_step(troot, bucket_rank, step_qd, items.len() as u32, kept);
            }
        }
        stats.invalid_sets = sequences.iter().map(|s| s.invalid_generated).sum();
        let tr = spans.begin();
        let ts = trace.begin_opt(troot, Phase::Rerank.as_str(), tr);
        best.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        best.truncate(k);
        spans.end(Phase::Rerank, tr);
        trace.end(ts);
        spans.flush(metrics, "gqr_mplsh", "MPLSH", start.elapsed());
        metrics.trace_finish(trace, false);
        (best, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqr_dataset::{brute_force_knn, DatasetSpec, Scale};

    fn fixture() -> (gqr_dataset::Dataset, MpLshIndex) {
        let ds = DatasetSpec::cifar60k().scale(Scale::Smoke).generate(91);
        let w = 1.5 * MpLshIndex::suggest_width(ds.as_slice(), ds.dim());
        let idx = MpLshIndex::build(
            ds.as_slice(),
            ds.dim(),
            &MpLshParams {
                tables: 6,
                hashes_per_table: 6,
                bucket_width: w,
                seed: 3,
            },
        );
        (ds, idx)
    }

    #[test]
    fn finds_most_true_neighbors_with_moderate_probing() {
        let (ds, idx) = fixture();
        let queries = ds.sample_queries(20, 5);
        let truth = brute_force_knn(&ds, &queries, 10, 2);
        let mut found = 0usize;
        for (q, t) in queries.iter().zip(&truth) {
            let (res, _) = idx.search(q, ds.as_slice(), 10, 600, 128);
            found += res.iter().filter(|(id, _)| t.contains(id)).count();
        }
        let recall = found as f64 / (10 * queries.len()) as f64;
        assert!(recall > 0.5, "multi-probe recall too low: {recall}");
    }

    #[test]
    fn more_probes_do_not_hurt_recall() {
        let (ds, idx) = fixture();
        let queries = ds.sample_queries(10, 6);
        let truth = brute_force_knn(&ds, &queries, 5, 2);
        let recall_at = |probes: usize| {
            let mut found = 0usize;
            for (q, t) in queries.iter().zip(&truth) {
                let (res, _) = idx.search(q, ds.as_slice(), 5, usize::MAX, probes);
                found += res.iter().filter(|(id, _)| t.contains(id)).count();
            }
            found as f64 / (5 * queries.len()) as f64
        };
        let few = recall_at(2);
        let many = recall_at(128);
        assert!(
            many >= few,
            "recall with 128 probes ({many}) < with 2 ({few})"
        );
    }

    #[test]
    fn cannot_guarantee_full_enumeration() {
        // The paper's §7 point: perturbations only reach ±1 per function, so
        // some items stay unreachable no matter how many probes — unlike GQR.
        let (ds, idx) = fixture();
        let q = ds.sample_queries(1, 7).remove(0);
        let (_, stats) = idx.search(&q, ds.as_slice(), 5, usize::MAX, usize::MAX);
        assert!(
            stats.items_evaluated < ds.n(),
            "multi-probe should not reach every item ({}/{})",
            stats.items_evaluated,
            ds.n()
        );
    }

    #[test]
    fn stats_are_consistent() {
        let (ds, idx) = fixture();
        let q = ds.sample_queries(1, 8).remove(0);
        let (_, stats) = idx.search(&q, ds.as_slice(), 5, 500, 32);
        assert!(stats.buckets_probed <= 32 * idx.n_tables());
        assert!(stats.items_evaluated <= ds.n());
        assert!(stats.empty_buckets <= stats.buckets_probed);
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = DatasetSpec::audio50k().scale(Scale::Smoke).generate(13);
        let params = MpLshParams {
            tables: 2,
            hashes_per_table: 6,
            bucket_width: 2.0,
            seed: 9,
        };
        let a = MpLshIndex::build(ds.as_slice(), ds.dim(), &params);
        let b = MpLshIndex::build(ds.as_slice(), ds.dim(), &params);
        let q = ds.sample_queries(1, 1).remove(0);
        let (ra, _) = a.search(&q, ds.as_slice(), 5, 200, 16);
        let (rb, _) = b.search(&q, ds.as_slice(), 5, 200, 16);
        assert_eq!(ra, rb);
    }

    #[test]
    fn metered_search_matches_plain_and_records_spans() {
        let (ds, idx) = fixture();
        let q = ds.sample_queries(1, 5).remove(0);
        let m = MetricsRegistry::enabled();
        let (metered, _) = idx.search_metered(&q, ds.as_slice(), 5, 200, 16, &m);
        let (plain, _) = idx.search(&q, ds.as_slice(), 5, 200, 16);
        assert_eq!(metered, plain, "metering must not change results");
        assert_eq!(
            m.counter_value("gqr_mplsh_queries_total{strategy=\"MPLSH\"}"),
            Some(1)
        );
        let total = m
            .histogram("gqr_mplsh_total_ns{strategy=\"MPLSH\"}")
            .unwrap();
        assert_eq!(total.count(), 1);
    }

    #[test]
    fn suggest_width_positive_and_scales() {
        let ds = DatasetSpec::audio50k().scale(Scale::Smoke).generate(14);
        let w = MpLshIndex::suggest_width(ds.as_slice(), ds.dim());
        assert!(w > 0.0);
        let doubled: Vec<f32> = ds.as_slice().iter().map(|&x| 2.0 * x).collect();
        let w2 = MpLshIndex::suggest_width(&doubled, ds.dim());
        assert!((w2 / w - 2.0).abs() < 1e-3, "width scales with the data");
    }
}
