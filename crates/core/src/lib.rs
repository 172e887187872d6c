//! Quantization-distance querying for learning to hash.
//!
//! This crate implements the primary contribution of *Li et al., "A General
//! and Efficient Querying Method for Learning to Hash" (SIGMOD 2018)* plus
//! every querying baseline it is evaluated against:
//!
//! * **Quantization distance (QD)** — Definition 1:
//!   `dist(q, b) = Σᵢ (cᵢ(q) ⊕ bᵢ)·|pᵢ(q)|`, a fine-grained, continuous
//!   similarity indicator that lower-bounds (scaled) the true distance
//!   between the query and any item in bucket `b` (Theorem 2). See
//!   [`code::quantization_distance`].
//! * **QD ranking (QR)** — Algorithm 1: compute the QD of every occupied
//!   bucket and probe in ascending QD ([`probe::QdRanking`]).
//! * **Generate-to-probe QD ranking (GQR)** — Algorithms 2–4: a min-heap
//!   over *sorted flipping vectors*, expanded by the `Append`/`Swap`
//!   generation-tree operations, yields buckets in exactly ascending QD
//!   without sorting anything upfront ([`probe::GenerateQdRanking`]).
//! * **Hamming ranking (HR)** and **hash lookup / generate-to-probe Hamming
//!   ranking (GHR)** — the incumbent querying methods
//!   ([`probe::HammingRanking`], [`probe::GenerateHammingRanking`]).
//! * **Multi-index hashing (MIH)** — the appendix baseline
//!   ([`probe::mih::MihIndex`]).
//!
//! [`engine::QueryEngine`] ties a trained [`gqr_l2h::HashModel`], a
//! [`table::HashTable`] and a probing strategy into a k-NN search with
//! per-checkpoint instrumentation; [`multi_table::MultiTableIndex`] extends
//! it to several hash tables with duplicate suppression.
//!
//! # Quickstart
//!
//! ```
//! use gqr_core::engine::{QueryEngine, SearchParams, ProbeStrategy};
//! use gqr_core::table::HashTable;
//! use gqr_l2h::pcah::Pcah;
//!
//! // 200 points on a noisy 2-D grid.
//! let mut data = Vec::new();
//! for i in 0..200u32 {
//!     data.push((i % 20) as f32 + 0.01 * (i as f32).sin());
//!     data.push((i / 20) as f32);
//! }
//! let model = Pcah::train(&data, 2, 2).unwrap();
//! let table: HashTable = HashTable::build(&model, &data, 2);
//! let engine = QueryEngine::new(&model, &table, &data, 2);
//!
//! let params = SearchParams { k: 5, n_candidates: 50, ..Default::default() };
//! let result = engine.search(&[3.0, 4.0], &params);
//! assert_eq!(result.len(), 5);
//! ```

#![warn(missing_docs)]
pub mod attrs;
pub mod code;
pub mod dispatch;
pub mod engine;
pub mod executor;
pub mod index;
pub mod live;
pub use gqr_metrics as metrics;
pub mod multi_table;
pub mod persist;
pub mod probe;
pub mod probe_loop;
pub mod range;
pub mod recall;
pub mod request;
pub mod response;
pub mod shard;
pub mod stats;
pub mod table;
pub mod topk;

pub use attrs::{
    AttrError, AttrValue, AttributeStore, AttributeStoreBuilder, Bitmap, Bloom, ColumnKind,
    FilterPlan, PlanChoice, Predicate, PredicateError,
};
pub use code::{hamming, quantization_distance};
pub use engine::{
    ClientId, ParamError, ProbeStrategy, QueryEngine, SearchParams, SearchParamsBuilder,
};
pub use executor::{Executor, ExecutorBuilder, JobError, SubmitError, Ticket};
pub use gqr_metrics::{MetricsRegistry, MetricsSnapshot, Phase, PhaseSpans};
pub use index::Index;
pub use live::{Generation, IndexWriter, MutableIndex, MutableIndexBuilder};
pub use persist::{
    load_index, load_index_metered, save_index, LoadedIndex, PersistError, SectionKind,
    SnapshotFile, SnapshotWriter, FORMAT_VERSION,
};
pub use probe::{GenerateHammingRanking, GenerateQdRanking, HammingRanking, Prober, QdRanking};
pub use probe_loop::StopReason;
pub use recall::{Calibrator, RecallController, RecallModel, RecallTarget};
pub use request::SearchRequest;
pub use response::{Checkpoint, SearchResponse};
pub use shard::{ShardBuildError, ShardedIndex, ShardedIndexBuilder};
pub use stats::ProbeStats;
pub use table::HashTable;
