//! # gqr — quantization-distance querying for learning to hash
//!
//! Umbrella crate for the reproduction of *Li et al., "A General and
//! Efficient Querying Method for Learning to Hash" (SIGMOD 2018)*. It
//! re-exports the workspace crates so applications can depend on one name:
//!
//! * [`core`] ([`gqr_core`]) — quantization distance, the QR/GQR probers,
//!   Hamming-ranking baselines, MIH, the query engine, multi-table search,
//!   the epoch-versioned mutable index (`gqr_core::live`: inserts, deletes,
//!   tombstones, background compaction), and the query-path metrics layer
//!   (`gqr_core::metrics`: phase spans, latency histograms, JSON/Prometheus
//!   export).
//! * [`l2h`] ([`gqr_l2h`]) — hash-function learners: LSH, PCAH, ITQ,
//!   spectral hashing, K-means hashing.
//! * [`dataset`] ([`gqr_dataset`]) — synthetic benchmark stand-ins,
//!   `fvecs` IO, parallel ground truth.
//! * [`vq`] ([`gqr_vq`]) — the OPQ + inverted-multi-index comparator.
//! * [`eval`] ([`gqr_eval`]) — recall/precision metrics and curve runners.
//! * [`linalg`] ([`gqr_linalg`]) — the small dense linear algebra layer.
//! * [`mplsh`] ([`gqr_mplsh`]) — Multi-Probe LSH, the querying method §5
//!   contrasts GQR against.
//! * [`serve`] ([`gqr_serve`]) — the HTTP/1.1 + JSON front door: `gqr
//!   serve` exposes any snapshot at `POST /search` with admission control,
//!   per-client quotas, and graceful drain; `gqr loadgen` drives it.
//!
//! ## Five-minute tour
//!
//! ```
//! use gqr::prelude::*;
//!
//! // 1. Data: a synthetic image-descriptor-like dataset.
//! let ds = DatasetSpec::cifar60k().scale(Scale::Smoke).generate(7);
//!
//! // 2. Learn hash functions (ITQ) at the paper's code length.
//! let m = 10;
//! let model = Itq::train(ds.as_slice(), ds.dim(), m).unwrap();
//!
//! // 3. Index every item by its binary code.
//! let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
//!
//! // 4. Query with generate-to-probe QD ranking.
//! let engine = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());
//! let params = SearchParams::for_k(10)
//!     .candidates(200)
//!     .strategy(ProbeStrategy::GenerateQdRanking)
//!     .build()
//!     .unwrap();
//! let query = ds.row(0).to_vec();
//! let result = engine.run(SearchRequest::new(&query).params(params));
//! assert_eq!(result.len(), 10);
//! assert_eq!(result.ids[0], 0, "the item itself is its own 1-NN");
//! ```

#![warn(missing_docs)]
pub use gqr_core as core;
pub mod persist;
pub use gqr_dataset as dataset;
pub use gqr_eval as eval;
pub use gqr_l2h as l2h;
pub use gqr_linalg as linalg;
pub use gqr_mplsh as mplsh;
pub use gqr_serve as serve;
pub use gqr_vq as vq;

/// The names most applications need.
pub mod prelude {
    pub use gqr_core::attrs::{
        AttrError, AttrValue, AttributeStore, AttributeStoreBuilder, FilterPlan, PlanChoice,
        Predicate, PredicateError,
    };
    pub use gqr_core::engine::{
        ClientId, ParamError, ProbeStrategy, QueryEngine, SearchParams, SearchParamsBuilder,
    };
    pub use gqr_core::executor::{Executor, ExecutorBuilder, JobError, SubmitError, Ticket};
    pub use gqr_core::index::Index;
    pub use gqr_core::live::{Generation, IndexWriter, MutableIndex, MutableIndexBuilder};
    pub use gqr_core::metrics::{
        to_chrome_trace, MetricsRegistry, MetricsSnapshot, Trace, TraceConfig, TraceStore, Tracing,
    };
    pub use gqr_core::multi_table::MultiTableIndex;
    pub use gqr_core::persist::{load_index, save_index, LoadedIndex, PersistError};
    pub use gqr_core::recall::{Calibrator, RecallController, RecallModel, RecallTarget};
    pub use gqr_core::request::SearchRequest;
    pub use gqr_core::response::{Checkpoint, SearchResponse};
    pub use gqr_core::shard::{ShardBuildError, ShardedIndex, ShardedIndexBuilder};
    pub use gqr_core::table::HashTable;
    pub use gqr_core::{hamming, quantization_distance};
    pub use gqr_dataset::{brute_force_knn, Dataset, DatasetSpec, Scale};
    pub use gqr_l2h::isoh::IsoHash;
    pub use gqr_l2h::itq::Itq;
    pub use gqr_l2h::kmh::KmeansHashing;
    pub use gqr_l2h::lsh::Lsh;
    pub use gqr_l2h::pcah::Pcah;
    pub use gqr_l2h::sh::SpectralHashing;
    pub use gqr_l2h::ssh::Ssh;
    pub use gqr_l2h::{HashModel, QueryEncoding};
    pub use gqr_linalg::vecops::Metric;
    pub use gqr_serve::loadgen::{LoadReport, LoadgenConfig};
    pub use gqr_serve::quota::QuotaConfig;
    pub use gqr_serve::server::{DrainReport, Server, ServerConfig};
}
