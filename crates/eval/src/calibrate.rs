//! Convenience wrapper marrying the exact-k-NN [`oracle`](crate::oracle)
//! to `gqr-core`'s recall [`Calibrator`].
//!
//! `gqr-core` cannot depend on this crate (it would cycle), so its
//! [`Calibrator`] takes ground truth as caller input. This module closes
//! the loop for the common case: hand it an engine, the indexed data, and
//! a query sample, and it computes the exact neighbours with `f64`
//! accumulation and replays every requested strategy through the
//! calibrator.

use gqr_core::code::CodeWord;
use gqr_core::engine::{ProbeStrategy, QueryEngine};
use gqr_core::recall::{Calibrator, RecallModel};
use gqr_l2h::HashModel;

use crate::oracle::exact_knn_rows;

/// Calibrate a recall model for `engine` over `strategies`, computing
/// exact ground truth with the brute-force oracle.
///
/// `data` must be the engine's indexed rows (row-major, `dim` columns) and
/// `queries` a held-in calibration sample in the same layout. Strategies
/// listed more than once are replayed once per occurrence (harmless —
/// later replays just add observations). MIH entries require the engine to
/// have a side index ([`QueryEngine::enable_mih`]).
///
/// ```
/// use gqr_core::engine::{ProbeStrategy, QueryEngine};
/// use gqr_core::table::HashTable;
/// use gqr_eval::calibrate::calibrate_with_oracle;
/// use gqr_l2h::lsh::Lsh;
///
/// let mut data = Vec::new();
/// for i in 0..400u32 {
///     data.push((i % 20) as f32 + 0.01 * (i as f32).sin());
///     data.push((i / 20) as f32 + 0.01 * (i as f32).cos());
/// }
/// let model = Lsh::train(&data, 2, 6, 7).unwrap();
/// let table = HashTable::<u64>::build(&model, &data, 2);
/// let engine = QueryEngine::new(&model, &table, &data, 2);
/// let queries: Vec<f32> = data[..80].to_vec();
/// let recall = calibrate_with_oracle(
///     &engine,
///     &data,
///     2,
///     &queries,
///     10,
///     &[ProbeStrategy::GenerateQdRanking],
/// );
/// assert!(recall.covers(ProbeStrategy::GenerateQdRanking));
/// ```
pub fn calibrate_with_oracle<M: HashModel + ?Sized, C: CodeWord>(
    engine: &QueryEngine<'_, M, C>,
    data: &[f32],
    dim: usize,
    queries: &[f32],
    k: usize,
    strategies: &[ProbeStrategy],
) -> RecallModel {
    let ground_truth = exact_knn_rows(data, dim, queries, k);
    let mut calibrator = Calibrator::new(k);
    for &strategy in strategies {
        calibrator.observe(engine, strategy, queries, &ground_truth);
    }
    calibrator.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqr_core::table::HashTable;
    use gqr_l2h::lsh::Lsh;

    fn jittered_grid(n: u32) -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..n {
            data.push((i % 20) as f32 + 0.01 * (i as f32).sin());
            data.push((i / 20) as f32 + 0.01 * (i as f32).cos());
        }
        data
    }

    #[test]
    fn oracle_calibration_covers_requested_strategies() {
        let data = jittered_grid(400);
        let model = Lsh::train(&data, 2, 6, 11).unwrap();
        let table = HashTable::build(&model, &data, 2);
        let engine: QueryEngine<'_, _, u64> = QueryEngine::new(&model, &table, &data, 2);
        let queries: Vec<f32> = data[..60].to_vec();
        let recall = calibrate_with_oracle(
            &engine,
            &data,
            2,
            &queries,
            5,
            &[
                ProbeStrategy::QdRanking,
                ProbeStrategy::GenerateQdRanking,
                ProbeStrategy::HammingRanking,
            ],
        );
        assert!(recall.covers(ProbeStrategy::QdRanking));
        assert!(recall.covers(ProbeStrategy::GenerateQdRanking));
        assert!(recall.covers(ProbeStrategy::HammingRanking));
        assert!(!recall.covers(ProbeStrategy::GenerateHammingRanking));
        assert_eq!(recall.k(), 5);
    }
}
