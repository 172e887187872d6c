//! Range (radius) search with the QD early-stop guarantee.
//!
//! §4.1 of the paper: *"QD can also be used as a criterion for early stop.
//! If we are only interested in finding items within a certain distance to
//! the query, retrieval and evaluation can stop when all buckets with a QD
//! smaller than the corresponding threshold are probed."* For a linear model
//! with spectral norm `σ_max`, Theorem 2 gives `‖o − q‖ ≥ QD/(σ_max·√m)`,
//! so once the prober's next QD exceeds `radius·σ_max·√m` no unseen bucket
//! can contain an in-range item — the result is *provably complete*.

use crate::code::CodeWord;
use crate::engine::{ProbeStrategy, QueryEngine};
use crate::metrics::MetricsRegistry;
use crate::probe_loop::{BucketSource, ProbeCtx, SegmentedTables};
use crate::request::SearchRequest;
use crate::stats::ProbeStats;
use gqr_l2h::HashModel;
use gqr_linalg::vecops::sq_dist_f32;

/// Result of a range search.
#[derive(Clone, Debug)]
pub struct RangeResult {
    /// `(item id, squared distance)` for every item within the radius,
    /// ascending by distance.
    pub matches: Vec<(u32, f32)>,
    /// Probe instrumentation.
    pub stats: ProbeStats,
    /// Whether the Theorem-2 bound certified completeness (linear models
    /// only). When `false` the search exhausted the code space instead —
    /// same answer, no early exit.
    pub certified: bool,
}

impl<M: HashModel + ?Sized, C: CodeWord> QueryEngine<'_, M, C> {
    /// All items within Euclidean distance `radius` of `query`, over every
    /// part of the engine.
    ///
    /// Probes buckets in ascending QD (GQR) and stops at the Theorem-2
    /// cut-off when the model exposes a spectral norm; otherwise falls back
    /// to scanning every bucket (still exact, just not early-terminated).
    pub fn search_within(&self, query: &[f32], radius: f32) -> RangeResult {
        assert!(radius >= 0.0, "radius must be non-negative");
        assert_eq!(query.len(), self.dim(), "query dimensionality mismatch");
        // QD threshold: QD > radius·σ_max·√m ⇒ bucket provably out of range.
        let qd_cutoff = self
            .model()
            .spectral_norm()
            .map(|sigma| radius as f64 * sigma * (self.code_length() as f64).sqrt());
        // Range searches are neither timed nor traced.
        let metrics = MetricsRegistry::disabled();
        let env = SearchRequest::new(query).open(&metrics, "range");
        let mut ctx = ProbeCtx::new(&env);
        let (model, parts, n) = (self.model(), self.tables(), self.n_items());
        let strategy = ProbeStrategy::GenerateQdRanking;
        let mut source = SegmentedTables::new(model, parts, n, strategy, query, &mut ctx);

        let r2 = radius * radius;
        let mut matches = Vec::new();
        let mut stats = ProbeStats::default();
        let mut certified = false;
        let (data, dim) = (self.data(), self.dim());
        loop {
            if let (Some(cutoff), Some(next_qd)) = (qd_cutoff, source.peek_cost()) {
                if next_qd > cutoff {
                    certified = true;
                    break;
                }
            }
            let Some(unit) = source.next(&mut ctx, &mut stats) else {
                break;
            };
            for &id in unit.items {
                let row = &data[id as usize * dim..(id as usize + 1) * dim];
                let d = sq_dist_f32(query, row);
                if d <= r2 {
                    matches.push((id, d));
                }
            }
            stats.items_evaluated += unit.items.len();
        }
        matches.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        RangeResult {
            matches,
            stats,
            certified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedIndex;
    use crate::table::HashTable;
    use gqr_l2h::lsh::Lsh;
    use gqr_l2h::sh::SpectralHashing;

    fn grid() -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..400u32 {
            data.push((i % 20) as f32);
            data.push((i / 20) as f32);
        }
        data
    }

    fn brute_range(data: &[f32], q: &[f32], radius: f32) -> Vec<u32> {
        data.chunks_exact(2)
            .enumerate()
            .filter(|(_, row)| sq_dist_f32(q, row) <= radius * radius)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn range_search_is_exact_and_certified_for_linear_models() {
        let data = grid();
        let model = Lsh::train(&data, 2, 6, 3).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let engine = QueryEngine::new(&model, &table, &data, 2);
        for (q, radius) in [
            ([7.2f32, 7.9], 1.5f32),
            ([0.0, 0.0], 3.0),
            ([19.0, 19.0], 2.2),
        ] {
            let res = engine.search_within(&q, radius);
            let mut got: Vec<u32> = res.matches.iter().map(|&(id, _)| id).collect();
            got.sort_unstable();
            let mut expect = brute_range(&data, &q, radius);
            expect.sort_unstable();
            assert_eq!(got, expect, "radius {radius} around {q:?}");
            assert!(res.certified, "linear model must certify completeness");
            assert!(
                res.stats.buckets_probed < (1 << 6),
                "early stop must prune the code space ({} probed)",
                res.stats.buckets_probed
            );
            // Matches sorted ascending.
            assert!(res.matches.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn zero_radius_finds_exact_duplicates_only() {
        let mut data = grid();
        data.extend_from_slice(&[7.0, 7.0]); // duplicate of grid point (7,7)
        let model = Lsh::train(&data, 2, 6, 3).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let res = engine.search_within(&[7.0, 7.0], 0.0);
        let ids: Vec<u32> = res.matches.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), 2, "the grid point and its planted duplicate");
    }

    #[test]
    fn nonlinear_model_falls_back_to_exhaustive_but_stays_exact() {
        let data = grid();
        let model = SpectralHashing::train(&data, 2, 6).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let res = engine.search_within(&[10.0, 10.0], 2.0);
        let mut got: Vec<u32> = res.matches.iter().map(|&(id, _)| id).collect();
        got.sort_unstable();
        let mut expect = brute_range(&data, &[10.0, 10.0], 2.0);
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(!res.certified, "no spectral norm ⇒ no certificate");
    }

    #[test]
    fn empty_result_for_far_query() {
        let data = grid();
        let model = Lsh::train(&data, 2, 6, 3).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let res = engine.search_within(&[100.0, 100.0], 1.0);
        assert!(res.matches.is_empty());
    }

    #[test]
    fn range_search_covers_every_part() {
        let data = grid();
        let model = Lsh::train(&data, 2, 6, 3).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let sharded = ShardedIndex::build(&model, &data, 2, 3);
        for (q, radius) in [
            ([7.2f32, 7.9], 1.5f32),
            ([0.0, 0.0], 3.0),
            ([19.0, 19.0], 2.2),
        ] {
            let (want, got) = (
                engine.search_within(&q, radius),
                sharded.search_within(&q, radius),
            );
            assert_eq!(got.matches, want.matches, "radius {radius} around {q:?}");
            assert_eq!(
                got.certified, want.certified,
                "radius {radius} around {q:?}"
            );
            assert_eq!(got.stats, want.stats, "radius {radius} around {q:?}");
        }
    }
}
