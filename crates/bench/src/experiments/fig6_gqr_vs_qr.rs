//! Figure 6: GQR versus QR — the slow-start cost of ranking all buckets.
//!
//! Both probe identical bucket sequences; QR pays an `O(B)` QD pass over
//! every occupied bucket per query before the first bucket (then orders
//! only the buckets it reaches), so GQR wins at every operating point and
//! the gap widens with dataset (bucket-count) size.

use crate::cli::Config;
use crate::experiments::strategies_over_datasets;
use crate::models::ModelKind;
use gqr_core::engine::ProbeStrategy;
use gqr_dataset::DatasetSpec;
use std::io;

/// Regenerate Fig 6 (ITQ, four main datasets).
pub fn run(cfg: &Config) -> io::Result<()> {
    strategies_over_datasets(
        cfg,
        &DatasetSpec::table1(),
        ModelKind::Itq,
        &[ProbeStrategy::GenerateQdRanking, ProbeStrategy::QdRanking],
        "fig6_gqr_vs_qr",
    )
}
