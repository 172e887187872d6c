//! The query engine: prober + hash table + exact re-rank = k-NN search.
//!
//! Implements the querying stage of the paper's §2.2: *retrieval* asks a
//! [`Prober`](crate::probe::Prober) for bucket codes and gathers their
//! items, *evaluation* computes exact distances and maintains the running
//! top-k (re-ranking is incremental, which also enables the checkpointed
//! instrumentation behind every recall–time curve in the evaluation).

use crate::attrs::AttributeStore;
use crate::code::CodeWord;
use crate::metrics::{metric_name, MetricsRegistry};
use crate::persist::{IndexSections, LoadedIndex};
use crate::probe::mih::MihIndex;
use crate::probe_loop::{open_source, FlatRows, Part, PartSource, ProbeCtx, Target};
use crate::recall::{RecallModel, RecallTarget};
use crate::request::SearchRequest;
pub use crate::response::{Checkpoint, SearchResponse};
use crate::table::{encode_rows, HashTable};
use gqr_l2h::HashModel;
use gqr_linalg::kernels::kernel_name;
use gqr_linalg::vecops::Metric;
use std::borrow::Cow;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Which querying method to use (paper §3–§5 and appendix).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeStrategy {
    /// Hamming ranking: rank all occupied buckets by Hamming distance (HR).
    HammingRanking,
    /// Hash lookup / generate-to-probe Hamming ranking (GHR).
    GenerateHammingRanking,
    /// QD ranking: rank all occupied buckets by quantization distance (QR).
    QdRanking,
    /// Generate-to-probe QD ranking (GQR) — the paper's contribution.
    GenerateQdRanking,
    /// Multi-index hashing with this many substring blocks (appendix).
    MultiIndexHashing {
        /// Number of substring hash tables.
        blocks: usize,
    },
}

impl ProbeStrategy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ProbeStrategy::HammingRanking => "HR",
            ProbeStrategy::GenerateHammingRanking => "GHR",
            ProbeStrategy::QdRanking => "QR",
            ProbeStrategy::GenerateQdRanking => "GQR",
            ProbeStrategy::MultiIndexHashing { .. } => "MIH",
        }
    }
}

/// Search-time parameters (Algorithm 1/2 inputs).
///
/// §4.2 of the paper: the candidate count is the default stopping criterion,
/// "but other stopping criteria can also be used, such as probing a certain
/// number of buckets, after a period of time or early stop" — all four are
/// supported and compose (whichever fires first stops the search).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchParams {
    /// Number of nearest neighbors to return.
    pub k: usize,
    /// Candidate budget `N`: stop probing once this many items have been
    /// evaluated (the last bucket is always finished).
    pub n_candidates: usize,
    /// Querying method.
    pub strategy: ProbeStrategy,
    /// Stop early when the Theorem-2 lower bound `(µ·QD)²` of the next
    /// bucket exceeds the current k-th best squared distance. Requires a QD
    /// strategy and a linear model (`spectral_norm()` available); ignored
    /// otherwise.
    pub early_stop: bool,
    /// Stop after probing this many buckets (occupied or not), if set.
    pub max_buckets: Option<usize>,
    /// Stop once this much wall time has elapsed, if set (checked between
    /// buckets — a bucket in flight is finished, so treat this as a soft
    /// deadline of one bucket's granularity).
    pub time_limit: Option<Duration>,
    /// Absolute deadline for the request. Execution surfaces fold it into
    /// the soft `time_limit` (tighter of the two wins) and count a deadline
    /// miss when they finish late; the executor drops queued work whose
    /// deadline already passed. Unlike `time_limit` (per-search, relative),
    /// the deadline is end-to-end: queue wait spends it too.
    pub deadline: Option<Instant>,
    /// Caller identity for per-client accounting (quota buckets, shed
    /// attribution in the serving layer). Purely observational inside the
    /// engine — it never changes what a search returns.
    pub client_id: Option<ClientId>,
    /// Recall SLA: stop probing once the attached [`RecallModel`] predicts
    /// recall@k has cleared `target + margin` (see [`crate::recall`]).
    /// Replaces the hand-tuned candidate budget — the builder rejects the
    /// combination of an explicit budget and a target, and lifts
    /// `n_candidates` to unbounded when a target is set. On an engine with
    /// no calibration model attached (or a strategy the model does not
    /// cover) the target is ignored and `gqr_recall_uncalibrated_total` is
    /// bumped, so the other stop conditions still bound the search.
    pub recall_target: Option<RecallTarget>,
}

/// A compact caller identity carried on [`SearchParams::client_id`].
///
/// Opaque 64-bit token; build one from a wire-level client name with
/// [`ClientId::from_name`] (stable FNV-1a hash, so the same header value
/// maps to the same id across processes) or wrap a known numeric id with
/// [`ClientId::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClientId(u64);

impl ClientId {
    /// Wrap a known numeric client id.
    pub const fn new(id: u64) -> ClientId {
        ClientId(id)
    }

    /// Derive a stable id from a client name (FNV-1a over the bytes).
    pub fn from_name(name: &str) -> ClientId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        ClientId(h)
    }

    /// The raw 64-bit value.
    pub const fn get(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            k: 10,
            n_candidates: 1_000,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            max_buckets: None,
            time_limit: None,
            deadline: None,
            client_id: None,
            recall_target: None,
        }
    }
}

impl SearchParams {
    /// Default bucket cap applied at the serving boundaries (HTTP wire,
    /// CLI) when the caller does not set `max_buckets` explicitly. The
    /// generate-to-probe strategies enumerate a 2^m bucket space; at wide
    /// code lengths an unreachable candidate budget would otherwise spin
    /// effectively forever. A million generated buckets finishes in well
    /// under a second and is far past the point where extra probing stops
    /// improving recall. Library callers constructing [`SearchParams`]
    /// directly are unaffected.
    pub const DEFAULT_BUCKET_CAP: usize = 1_000_000;

    /// Start a validating builder for a `k`-NN search. The candidate budget
    /// defaults to `max(1000, k)` so a bare `for_k(n).build()` is always
    /// valid; override it with [`SearchParamsBuilder::candidates`].
    pub fn for_k(k: usize) -> SearchParamsBuilder {
        SearchParamsBuilder {
            params: SearchParams {
                k,
                n_candidates: 1_000.max(k),
                ..SearchParams::default()
            },
            explicit_candidates: false,
        }
    }

    /// Check the cross-field invariants the engine relies on: `k > 0`, a
    /// candidate budget of at least `k`, and a positive MIH block count.
    /// [`SearchParamsBuilder::build`] calls this; call it yourself when
    /// constructing `SearchParams` literals from untrusted input.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.k == 0 {
            return Err(ParamError::ZeroK);
        }
        if self.n_candidates < self.k {
            return Err(ParamError::CandidateBudgetBelowK {
                k: self.k,
                n_candidates: self.n_candidates,
            });
        }
        if matches!(
            self.strategy,
            ProbeStrategy::MultiIndexHashing { blocks: 0 }
        ) {
            return Err(ParamError::ZeroMihBlocks);
        }
        if self.recall_target.is_some_and(|t| !t.is_valid()) {
            return Err(ParamError::InvalidRecallTarget);
        }
        Ok(())
    }
}

/// Why a [`SearchParamsBuilder`] refused to produce [`SearchParams`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// `k == 0`: there is no empty-top-k search.
    ZeroK,
    /// `n_candidates < k`: the budget can never fill the result set.
    CandidateBudgetBelowK {
        /// Requested result size.
        k: usize,
        /// Requested candidate budget.
        n_candidates: usize,
    },
    /// `MultiIndexHashing { blocks: 0 }`: MIH needs at least one substring.
    ZeroMihBlocks,
    /// The recall target or margin is non-finite or out of range (target
    /// must be in `(0, 1]`, margin ≥ 0).
    InvalidRecallTarget,
    /// A recall target and an explicit candidate budget were both set: the
    /// SLA replaces the budget, so the combination is ambiguous. Pick one.
    RecallTargetWithBudget,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::ZeroK => write!(f, "k must be positive"),
            ParamError::CandidateBudgetBelowK { k, n_candidates } => write!(
                f,
                "candidate budget {n_candidates} cannot fill a top-{k} result set"
            ),
            ParamError::ZeroMihBlocks => write!(f, "MIH needs at least one substring block"),
            ParamError::InvalidRecallTarget => {
                write!(f, "recall target must be in (0, 1] with a margin >= 0")
            }
            ParamError::RecallTargetWithBudget => write!(
                f,
                "a recall target replaces the candidate budget; set one or the other"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// Builder for [`SearchParams`] that rejects invalid combinations at
/// [`SearchParamsBuilder::build`] instead of letting the engine silently
/// misbehave (`k == 0` panics deep in `TopK`, `n_candidates < k` returns a
/// starved result set, MIH with zero blocks panics in index construction).
///
/// ```
/// use gqr_core::engine::{ProbeStrategy, SearchParams};
///
/// let params = SearchParams::for_k(10)
///     .candidates(1_000)
///     .strategy(ProbeStrategy::GenerateQdRanking)
///     .build()
///     .unwrap();
/// assert_eq!(params.k, 10);
/// assert!(SearchParams::for_k(0).build().is_err());
/// assert!(SearchParams::for_k(10).candidates(5).build().is_err());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SearchParamsBuilder {
    params: SearchParams,
    /// Whether the caller set `n_candidates` themselves (as opposed to the
    /// `for_k` default) — a recall target is mutually exclusive with an
    /// explicit budget, not with the default the caller never chose.
    explicit_candidates: bool,
}

impl SearchParamsBuilder {
    /// Candidate budget `N` (stop probing after this many evaluated items).
    /// Mutually exclusive with [`SearchParamsBuilder::recall_target`].
    pub fn candidates(mut self, n: usize) -> Self {
        self.params.n_candidates = n;
        self.explicit_candidates = true;
        self
    }

    /// Recall SLA: probe until the engine's calibration model predicts
    /// recall@k ≥ `target` (with the default confidence margin; adjust with
    /// [`SearchParamsBuilder::recall_margin`]). Replaces the candidate
    /// budget — [`SearchParamsBuilder::build`] rejects combining this with
    /// an explicit [`SearchParamsBuilder::candidates`], lifts the budget to
    /// unbounded, and caps probing at
    /// [`SearchParams::DEFAULT_BUCKET_CAP`] buckets unless the caller set
    /// their own [`SearchParamsBuilder::max_buckets`].
    pub fn recall_target(mut self, target: f32) -> Self {
        let margin = self
            .params
            .recall_target
            .map_or(RecallTarget::DEFAULT_MARGIN, |t| t.margin);
        self.params.recall_target = Some(RecallTarget { target, margin });
        self
    }

    /// Confidence margin for the recall SLA (see [`RecallTarget::margin`]);
    /// order-independent with [`SearchParamsBuilder::recall_target`].
    pub fn recall_margin(mut self, margin: f32) -> Self {
        let target = self.params.recall_target.map_or(0.0, |t| t.target);
        self.params.recall_target = Some(RecallTarget { target, margin });
        self
    }

    /// Querying method.
    pub fn strategy(mut self, strategy: ProbeStrategy) -> Self {
        self.params.strategy = strategy;
        self
    }

    /// Toggle the Theorem-2 early stop.
    pub fn early_stop(mut self, on: bool) -> Self {
        self.params.early_stop = on;
        self
    }

    /// Stop after probing this many buckets.
    pub fn max_buckets(mut self, n: usize) -> Self {
        self.params.max_buckets = Some(n);
        self
    }

    /// Soft wall-clock limit for the search.
    pub fn time_limit(mut self, d: Duration) -> Self {
        self.params.time_limit = Some(d);
        self
    }

    /// Absolute end-to-end deadline for the request (see
    /// [`SearchParams::deadline`]).
    pub fn deadline(mut self, at: Instant) -> Self {
        self.params.deadline = Some(at);
        self
    }

    /// Caller identity for per-client accounting (see
    /// [`SearchParams::client_id`]).
    pub fn client_id(mut self, id: ClientId) -> Self {
        self.params.client_id = Some(id);
        self
    }

    /// Validate and produce the parameters.
    pub fn build(mut self) -> Result<SearchParams, ParamError> {
        if self.params.recall_target.is_some() {
            if self.explicit_candidates {
                return Err(ParamError::RecallTargetWithBudget);
            }
            // The SLA is the stopping criterion: lift the default budget out
            // of the way and keep the bucket cap as the safety backstop.
            self.params.n_candidates = usize::MAX;
            if self.params.max_buckets.is_none() {
                self.params.max_buckets = Some(SearchParams::DEFAULT_BUCKET_CAP);
            }
        }
        self.params.validate()?;
        Ok(self.params)
    }
}

/// A querying engine: `S ≥ 1` row-disjoint parts, each a hash table over a
/// contiguous range of one row buffer, searched as one table.
///
/// [`QueryEngine::new`] gives one part over a borrowed table;
/// [`QueryEngine::build`] partitions the rows into `S` owned parts (a
/// sharded index, see [`crate::shard`]); [`QueryEngine::from_snapshot`]
/// borrows one part per stored shard. An engine of `S > 1` parts merges
/// their tables once, at construction, into one table over the global ids
/// ([`HashTable::union`]), and every bucket strategy probes that table: a
/// bucket is each part's bucket shifted to global ids, in part order. MIH
/// searches the parts' own side indexes as one (each part's substring
/// bucket, shifted). The answer, its
/// [`ProbeStats`](crate::stats::ProbeStats), stop reason, recall prediction
/// and checkpoints are therefore bit-identical whatever the part count (see
/// `tests/sharded_equivalence.rs`).
///
/// Generic over the code width `C` (default `u64`): the width is fixed when
/// the tables are built, and everything downstream — probers, MIH, bucket
/// lookups — is monomorphized over it. Narrow call sites are unchanged.
pub struct QueryEngine<'a, M: HashModel + ?Sized, C: CodeWord = u64> {
    model: &'a M,
    /// In ascending first id, the first at 0; never empty.
    parts: Vec<Part<'a, C>>,
    /// With more than one part, the one table over all their rows that the
    /// bucket strategies probe.
    union: Option<Part<'a, C>>,
    /// Every part's rows, row-major, `dim` columns.
    data: &'a [f32],
    dim: usize,
    metric: Metric,
    recall: Option<&'a RecallModel>,
    attrs: Option<&'a AttributeStore>,
    metrics: MetricsRegistry,
}

impl<'a, M: HashModel + ?Sized, C: CodeWord> QueryEngine<'a, M, C> {
    /// Engine over `table` built from `model`, with `data` (row-major,
    /// `dim` columns) available for exact re-ranking.
    pub fn new(model: &'a M, table: &'a HashTable<C>, data: &'a [f32], dim: usize) -> Self {
        assert_eq!(model.dim(), dim, "model and data dimensionality differ");
        assert!(
            model.code_length() <= C::BITS,
            "{}-bit codes do not fit the {}-bit code word",
            model.code_length(),
            C::BITS
        );
        assert!(data.len().is_multiple_of(dim), "data must be n×dim");
        // A table built with `insert` may hold fewer items than the data
        // buffer has rows; every indexed id must stay addressable.
        if let Some(max_id) = table.max_id() {
            assert!(
                (max_id as usize) < data.len() / dim,
                "table references id {max_id} beyond the data buffer"
            );
        }
        let part = Part::borrowed(table, None, 0, data.len() / dim);
        QueryEngine::from_parts(model, vec![part], data, dim)
    }

    /// Partition `data` (row-major, `dim` columns) into `n_parts`
    /// contiguous parts and build each part's hash table. Every row is
    /// encoded once by [`encode_rows`]; each part buckets its slice of the
    /// codes (in parallel when `n_parts > 1`). Part sizes differ by at most
    /// one row.
    pub fn build(model: &'a M, data: &'a [f32], dim: usize, n_parts: usize) -> Self {
        assert!(n_parts > 0, "need at least one shard");
        assert_eq!(model.dim(), dim, "model and data dimensionality differ");
        assert!(data.len().is_multiple_of(dim), "data must be n×dim");
        let n = data.len() / dim;
        assert!(
            n <= u32::MAX as usize,
            "id space is u32; dataset has {n} rows"
        );
        // Contiguous partition: part i gets base (+1 for the first n % S).
        let (base, rem) = (n / n_parts, n % n_parts);
        let start = |i: usize| i * base + i.min(rem);
        let ranges = (0..n_parts).map(|i| start(i)..start(i + 1)).collect();
        let (codes, m): (Vec<C>, _) = (encode_rows(model, data, dim), model.code_length());
        let parts = gqr_linalg::scoped_map(ranges, |rows: Range<usize>| Part {
            table: Cow::Owned(HashTable::from_codes(m, &codes[rows.clone()])),
            mih: None,
            first_id: rows.start as u32,
            rows: rows.len(),
        });
        QueryEngine::from_parts(model, parts, data, dim)
    }

    fn from_parts(model: &'a M, parts: Vec<Part<'a, C>>, data: &'a [f32], dim: usize) -> Self {
        let union = (parts.len() > 1).then(|| {
            let tables: Vec<_> = parts.iter().map(|p| (&*p.table, p.first_id)).collect();
            let table = HashTable::union(&tables);
            let rows = table.n_items();
            Part {
                table: Cow::Owned(table),
                mih: None,
                first_id: 0,
                rows,
            }
        });
        QueryEngine {
            model,
            parts,
            union,
            data,
            dim,
            metric: Metric::SquaredEuclidean,
            recall: None,
            attrs: None,
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Attach a metrics registry (builder style). With an enabled registry
    /// every search records per-phase spans (`hash_query`, `probe_generate`,
    /// `bucket_lookup`, `evaluate`, `rerank`) and per-query totals: under
    /// the `gqr_query_*` family, labelled by strategy, on a one-part engine;
    /// as `gqr_shard_*{shard="all",strategy}` plus
    /// `gqr_sharded_{total_ns,queries_total}` on a sharded one. The default
    /// (disabled) registry keeps the query path allocation-free and reads no
    /// clocks beyond the pre-existing wall timer.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.set_metrics(metrics);
        self
    }

    /// Replace the metrics registry in place (for engines that are already
    /// built, e.g. after [`QueryEngine::enable_mih`]).
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
        // Info metric: which distance kernel the dispatcher selected for
        // this process (constant 1; the label carries the information).
        self.metrics.set(
            &metric_name("gqr_kernel_dispatch", &[("kernel", kernel_name())]),
            1,
        );
    }

    /// The attached metrics registry (disabled unless one was attached).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Switch the exact-evaluation metric (builder style). The probing order
    /// is unchanged — QD over the model's projections — which is exactly the
    /// paper's "other similarity metrics can be adapted" point; pair an
    /// angular metric with an angle-preserving model (e.g. sign random
    /// projections) for sensible probe quality. Note the Theorem-2 early
    /// stop is Euclidean-only and is ignored under other metrics.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// The exact-evaluation metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Build every part's multi-index-hashing side index (required before
    /// using [`ProbeStrategy::MultiIndexHashing`]). Codes are recovered from
    /// the tables, not re-encoded.
    pub fn enable_mih(&mut self, blocks: usize) {
        for part in &mut self.parts {
            let codes = part.table.dense_codes();
            let mih = MihIndex::build(part.table.code_length(), &codes, blocks);
            part.mih = Some(Cow::Owned(mih));
        }
    }

    /// Attach a prebuilt MIH side index by reference (builder style). The
    /// index must have been built over this table's codes.
    ///
    /// # Panics
    ///
    /// Panics on an engine of more than one part (each part needs its own
    /// side index: use [`QueryEngine::enable_mih`]), and when the index's
    /// code length differs from the table's.
    pub fn with_mih(mut self, mih: &'a MihIndex<C>) -> Self {
        let part = self.one_part("with_mih");
        assert_eq!(
            mih.code_length(),
            part.table.code_length(),
            "MIH index and table code length differ"
        );
        self.parts[0].mih = Some(Cow::Borrowed(mih));
        self
    }

    /// Attach a calibration model (builder style): searches carrying a
    /// [`SearchParams::recall_target`] consult it to stop probing once the
    /// predicted recall clears the target. Build one offline with
    /// [`crate::recall::Calibrator`] or load it from a snapshot section.
    /// The search of every part count walks the trajectory of the one-part
    /// engine, so one model serves them all.
    pub fn with_recall_model(mut self, model: &'a RecallModel) -> Self {
        self.recall = Some(model);
        self
    }

    /// Replace the calibration model in place (for engines already built).
    pub fn set_recall_model(&mut self, model: &'a RecallModel) {
        self.recall = Some(model);
    }

    /// The attached calibration model, if any.
    pub fn recall_model(&self) -> Option<&'a RecallModel> {
        self.recall
    }

    /// Attach an attribute store (builder style): requests carrying a
    /// structured [`Predicate`](crate::attrs::Predicate) are planned once,
    /// against the request's candidate budget — the engine picks
    /// pre-filtering, post-filtering, or brute force over the survivor set
    /// by estimated selectivity. The store's item ids must be this engine's
    /// (global) row ids.
    pub fn with_attrs(mut self, attrs: &'a AttributeStore) -> Self {
        self.set_attrs(attrs);
        self
    }

    /// Replace the attribute store in place (for engines already built).
    pub fn set_attrs(&mut self, attrs: &'a AttributeStore) {
        assert!(
            attrs.n_items() <= self.data.len() / self.dim,
            "attribute store describes {} items but the data buffer holds {} rows",
            attrs.n_items(),
            self.data.len() / self.dim
        );
        self.attrs = Some(attrs);
    }

    /// The attached attribute store, if any.
    pub fn attrs(&self) -> Option<&'a AttributeStore> {
        self.attrs
    }

    /// The hash table of a one-part engine.
    ///
    /// # Panics
    ///
    /// Panics on an engine of more than one part: each part has its own
    /// table (see [`QueryEngine::n_shards`] and
    /// [`QueryEngine::shard_sizes`]).
    pub fn table(&self) -> &HashTable<C> {
        &self.one_part("table()").table
    }

    /// The only part, for the accessors that have no multi-part meaning.
    fn one_part(&self, what: &str) -> &Part<'a, C> {
        assert!(
            self.parts.len() == 1,
            "{what} needs a one-part engine; this one has {} parts, each with its own \
             table: use the parts (n_shards(), shard_sizes(), enable_mih())",
            self.parts.len()
        );
        &self.parts[0]
    }

    /// What the bucket strategies probe: one part whose table holds every
    /// row.
    pub(crate) fn tables(&self) -> &[Part<'a, C>] {
        self.union
            .as_ref()
            .map_or(&self.parts, std::slice::from_ref)
    }

    /// Open the source `strategy` probes (see [`open_source`]): MIH over
    /// the parts' side indexes, bounded by `mih_cap` lookups; any other
    /// strategy over the one table of [`QueryEngine::tables`].
    pub(crate) fn open_source<'s>(
        &'s self,
        strategy: ProbeStrategy,
        mih_cap: Option<usize>,
        query: &[f32],
        ctx: &mut ProbeCtx<'_>,
    ) -> PartSource<'s, C> {
        let (model, n) = (self.model, self.n_items());
        let parts = match strategy {
            ProbeStrategy::MultiIndexHashing { .. } => &self.parts,
            _ => self.tables(),
        };
        open_source(model, parts, n, strategy, mih_cap, query, ctx)
    }

    /// Number of parts (shards).
    pub fn n_shards(&self) -> usize {
        self.parts.len()
    }

    /// Items per part, in part order (sizes differ by at most one when the
    /// engine was partitioned by [`QueryEngine::build`]).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.table.n_items()).collect()
    }

    /// Total indexed items across parts: the most a search can evaluate.
    pub fn n_items(&self) -> usize {
        self.parts.iter().map(|p| p.table.n_items()).sum()
    }

    /// Code length of the tables, in bits.
    pub(crate) fn code_length(&self) -> usize {
        self.parts[0].table.code_length()
    }

    /// The hashing model.
    pub fn model(&self) -> &M {
        self.model
    }

    /// The row-major item vectors.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Item dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The single front door: execute one [`SearchRequest`] — query,
    /// parameters, and any combination of checkpoints, a filter, and a
    /// deadline — as one search over every part. [`QueryEngine::search`] is
    /// a thin convenience wrapper over this; the
    /// [`Index`](crate::index::Index) trait exposes this method across
    /// every index shape.
    ///
    /// A predicate is planned once against the request's candidate budget:
    /// a survivor set that fits is evaluated outright whatever the
    /// strategy. A request [`deadline`](SearchParams::deadline) is folded
    /// into the params' soft [`time_limit`](SearchParams::time_limit)
    /// (whichever is tighter wins); a request whose deadline already passed
    /// returns an empty result immediately. When the engine finishes past
    /// the deadline the `gqr_request_deadline_missed_total` counter is
    /// bumped.
    pub fn run(&self, mut req: SearchRequest<'_>) -> SearchResponse {
        let strat = req.params.strategy.name();
        let sharded = self.parts.len() > 1;
        let env = req.open(&self.metrics, if sharded { "sharded" } else { strat });
        let (query, params, budgets) = (req.query, req.params, req.budgets);
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        debug_assert!(
            budgets.windows(2).all(|w| w[0] <= w[1]),
            "budgets must ascend"
        );
        let start = Instant::now();
        let mut ctx = ProbeCtx::new(&env);
        let target = Target {
            model: self.model,
            code_length: self.code_length(),
            metric: self.metric,
            recall: self.recall,
            rows: FlatRows {
                data: self.data,
                dim: self.dim,
            },
            n_rows: self.data.len() / self.dim,
        };
        let mut result = target.run(req, self.attrs, start, &mut ctx, |sink, ctx| {
            let policy = target.policy(&params, start, &self.metrics);
            let source = self.open_source(params.strategy, params.max_buckets, query, ctx);
            source.drive(policy, sink, budgets, ctx)
        });
        let (phases, elapsed) = (&ctx.phases, start.elapsed());
        if sharded {
            let labels = [("shard", "all"), ("strategy", strat)];
            phases.flush_labeled(&self.metrics, "gqr_shard", &labels, elapsed);
            if self.metrics.is_enabled() {
                self.metrics
                    .record_duration("gqr_sharded_total_ns", elapsed);
                self.metrics.incr("gqr_sharded_queries_total");
            }
        } else {
            phases.flush(&self.metrics, "gqr_query", strat, elapsed);
        }
        result.trace_id = env.close();
        result
    }

    /// k-NN search with the given parameters.
    pub fn search(&self, query: &[f32], params: &SearchParams) -> SearchResponse {
        self.run(SearchRequest::new(query).params(*params))
    }

    /// Persist everything this engine serves from — model, every part's
    /// table and MIH side index, vectors, recall model and attribute store
    /// — as one crash-safe snapshot of one shard per part at `path` (see
    /// [`crate::persist`]). Returns the bytes written. Reload with
    /// [`crate::persist::load_index`] + [`QueryEngine::from_snapshot`].
    pub fn save_snapshot(
        &self,
        path: &std::path::Path,
    ) -> Result<u64, crate::persist::PersistError> {
        let sections = IndexSections {
            model: self.model,
            metric: self.metric,
            data: self.data,
            dim: self.dim,
            parts: &self.parts,
            recall: self.recall,
            attrs: self.attrs,
        };
        sections.write(path, Vec::new())
    }
}

impl<'a, C: CodeWord> QueryEngine<'a, dyn HashModel + 'a, C> {
    /// Engine borrowing a [`LoadedIndex`]: the model, vectors, recall model
    /// and attribute store, and one part per stored shard over that shard's
    /// table and prebuilt MIH. Nothing is copied, hashed or rebuilt.
    pub fn from_snapshot(snap: &'a LoadedIndex<C>) -> Self {
        let shards = snap.shards().iter();
        let parts = shards.map(|s| Part::borrowed(&s.table, s.mih.as_ref(), s.offset, s.rows));
        let (model, data, dim) = (snap.model(), snap.data(), snap.dim());
        let mut engine = QueryEngine::from_parts(model, parts.collect(), data, dim);
        engine.metric = snap.metric();
        engine.recall = snap.recall_model();
        engine.attrs = snap.attrs();
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqr_l2h::pcah::Pcah;
    use gqr_linalg::vecops::sq_dist_f32;

    /// 400 points on a 20×20 grid with mild jitter; exact k-NN is easy to
    /// verify by brute force.
    fn grid() -> (Vec<f32>, usize) {
        let mut data = Vec::new();
        for i in 0..400u32 {
            data.push((i % 20) as f32 + 0.001 * ((i * 7) % 13) as f32);
            data.push((i / 20) as f32);
        }
        (data, 2)
    }

    fn brute_force(data: &[f32], dim: usize, q: &[f32], k: usize) -> Vec<u32> {
        let mut d: Vec<(f32, u32)> = data
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (sq_dist_f32(q, row), i as u32))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.into_iter().take(k).map(|(_, i)| i).collect()
    }

    fn engine_fixture() -> (Vec<f32>, Pcah, HashTable) {
        let (data, dim) = grid();
        let model = Pcah::train(&data, dim, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, dim);
        (data, model, table)
    }

    #[test]
    fn exhaustive_probing_returns_exact_knn_for_all_strategies() {
        let (data, model, table) = engine_fixture();
        let mut engine = QueryEngine::new(&model, &table, &data, 2);
        engine.enable_mih(2);
        let q = [7.3f32, 11.2];
        let expect = brute_force(&data, 2, &q, 5);
        for strategy in [
            ProbeStrategy::HammingRanking,
            ProbeStrategy::GenerateHammingRanking,
            ProbeStrategy::QdRanking,
            ProbeStrategy::GenerateQdRanking,
            ProbeStrategy::MultiIndexHashing { blocks: 2 },
        ] {
            let params = SearchParams {
                k: 5,
                n_candidates: usize::MAX,
                strategy,
                early_stop: false,
                ..Default::default()
            };
            let res = engine.search(&q, &params);
            assert_eq!(
                res.ids,
                expect,
                "strategy {} must find exact kNN when probing everything",
                strategy.name()
            );
            assert_eq!(res.stats.items_evaluated, 400, "{}", strategy.name());
        }
    }

    #[test]
    fn a_nan_row_never_displaces_a_finite_one() {
        let (mut data, model, _) = engine_fixture();
        data[0] = f32::NAN;
        let table: HashTable = HashTable::build(&model, &data, 2);
        let mut engine = QueryEngine::new(&model, &table, &data, 2);
        engine.enable_mih(2);
        let q = [0.2f32, 0.1];
        for strategy in [
            ProbeStrategy::GenerateQdRanking,
            ProbeStrategy::MultiIndexHashing { blocks: 2 },
        ] {
            let params = SearchParams {
                k: 5,
                n_candidates: usize::MAX,
                strategy,
                ..Default::default()
            };
            let res = engine.search(&q, &params);
            let finite: Vec<u32> = brute_force(&data[2..], 2, &q, 5)
                .iter()
                .map(|i| i + 1)
                .collect();
            assert_eq!(res.ids, finite, "{}", strategy.name());
            assert!(res.distances.iter().all(|d| d.is_finite()));
        }
    }

    #[test]
    fn gqr_and_qr_probe_identical_bucket_sequences() {
        // Same order ⇒ same stats and same neighbors for any budget.
        let (data, model, table) = engine_fixture();
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let q = [3.9f32, 2.1];
        for budget in [10usize, 50, 200] {
            let pq = SearchParams {
                k: 5,
                n_candidates: budget,
                strategy: ProbeStrategy::QdRanking,
                early_stop: false,
                ..Default::default()
            };
            let pg = SearchParams {
                strategy: ProbeStrategy::GenerateQdRanking,
                ..pq
            };
            let a = engine.search(&q, &pq);
            let b = engine.search(&q, &pg);
            assert_eq!(a.ranked(), b.ranked(), "budget {budget}");
            assert_eq!(a.stats.items_evaluated, b.stats.items_evaluated);
        }
    }

    #[test]
    fn hr_probes_only_occupied_buckets_ghr_generates_all() {
        let (data, model, table) = engine_fixture();
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let q = [0.0f32, 0.0];
        let params = SearchParams {
            k: 3,
            n_candidates: usize::MAX,
            strategy: ProbeStrategy::HammingRanking,
            early_stop: false,
            ..Default::default()
        };
        let hr = engine.search(&q, &params);
        assert_eq!(hr.stats.empty_buckets, 0, "HR only visits occupied buckets");
        let ghr = engine.search(
            &q,
            &SearchParams {
                strategy: ProbeStrategy::GenerateHammingRanking,
                ..params
            },
        );
        assert_eq!(
            ghr.stats.buckets_probed, 4,
            "GHR enumerates the full 2^m space"
        );
        assert_eq!(
            ghr.stats.buckets_probed - ghr.stats.empty_buckets,
            hr.stats.buckets_probed
        );
    }

    #[test]
    fn budget_limits_evaluation() {
        let (data, model, table) = engine_fixture();
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let params = SearchParams {
            k: 3,
            n_candidates: 30,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        };
        let res = engine.search(&[5.0, 5.0], &params);
        assert!(res.stats.items_evaluated >= 30, "budget reached");
        // The engine finishes the bucket it is in, so allow one bucket of
        // overshoot but not more than the whole table.
        assert!(res.stats.items_evaluated < 400);
    }

    #[test]
    fn checkpoints_record_monotone_progress() {
        let (data, model, table) = engine_fixture();
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let params = SearchParams {
            k: 5,
            n_candidates: usize::MAX,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        };
        let budgets = [10usize, 50, 100, 400];
        let cps = engine
            .run(
                SearchRequest::new(&[10.0, 10.0])
                    .params(params)
                    .checkpoints(&budgets),
            )
            .checkpoints;
        assert_eq!(cps.len(), budgets.len());
        for (cp, &b) in cps.iter().zip(&budgets) {
            assert_eq!(cp.budget, b);
            assert!(cp.items_evaluated >= b.min(400));
            assert_eq!(cp.top_ids.len(), 5);
        }
        assert!(cps.windows(2).all(|w| w[0].elapsed <= w[1].elapsed));
        assert!(cps
            .windows(2)
            .all(|w| w[0].items_evaluated <= w[1].items_evaluated));
    }

    #[test]
    fn early_stop_preserves_exactness_with_full_budget() {
        // The Theorem-2 bound is conservative: stopping early must never
        // change the returned neighbors when the budget is unlimited.
        let (data, model, table) = engine_fixture();
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let q = [12.2f32, 4.7];
        let base = SearchParams {
            k: 5,
            n_candidates: usize::MAX,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        };
        let with_stop = SearchParams {
            early_stop: true,
            ..base
        };
        let a = engine.search(&q, &base);
        let b = engine.search(&q, &with_stop);
        assert_eq!(a.ranked(), b.ranked());
        assert!(
            b.stats.buckets_probed <= a.stats.buckets_probed,
            "early stop may only reduce probing"
        );
    }

    #[test]
    #[should_panic(expected = "enable_mih")]
    fn mih_without_enable_panics() {
        let (data, model, table) = engine_fixture();
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let params = SearchParams {
            strategy: ProbeStrategy::MultiIndexHashing { blocks: 2 },
            ..Default::default()
        };
        let _ = engine.search(&[0.0, 0.0], &params);
    }

    #[test]
    fn params_builder_accepts_valid_combinations() {
        let p = SearchParams::for_k(7)
            .candidates(300)
            .strategy(ProbeStrategy::QdRanking)
            .early_stop(true)
            .max_buckets(40)
            .time_limit(Duration::from_millis(5))
            .build()
            .unwrap();
        assert_eq!(p.k, 7);
        assert_eq!(p.n_candidates, 300);
        assert_eq!(p.strategy, ProbeStrategy::QdRanking);
        assert!(p.early_stop);
        assert_eq!(p.max_buckets, Some(40));
        assert_eq!(p.time_limit, Some(Duration::from_millis(5)));
    }

    #[test]
    fn params_builder_defaults_budget_to_at_least_k() {
        let p = SearchParams::for_k(5_000).build().unwrap();
        assert_eq!(p.n_candidates, 5_000, "budget lifted to cover k");
        let p = SearchParams::for_k(3).build().unwrap();
        assert_eq!(p.n_candidates, 1_000, "default budget kept when k is small");
    }

    #[test]
    fn params_builder_rejects_invalid_combinations() {
        assert_eq!(SearchParams::for_k(0).build(), Err(ParamError::ZeroK));
        assert_eq!(
            SearchParams::for_k(10).candidates(5).build(),
            Err(ParamError::CandidateBudgetBelowK {
                k: 10,
                n_candidates: 5
            })
        );
        assert_eq!(
            SearchParams::for_k(10)
                .strategy(ProbeStrategy::MultiIndexHashing { blocks: 0 })
                .build(),
            Err(ParamError::ZeroMihBlocks)
        );
        // The errors render as readable messages.
        assert!(ParamError::ZeroK.to_string().contains("positive"));
        assert!(ParamError::CandidateBudgetBelowK {
            k: 10,
            n_candidates: 5
        }
        .to_string()
        .contains("top-10"));
    }

    #[test]
    fn validate_checks_literal_params_too() {
        let bad = SearchParams {
            k: 0,
            ..Default::default()
        };
        assert_eq!(bad.validate(), Err(ParamError::ZeroK));
        assert!(SearchParams::default().validate().is_ok());
    }

    #[test]
    fn run_is_the_front_door_for_every_request_shape() {
        let (data, model, table) = engine_fixture();
        let engine = QueryEngine::new(&model, &table, &data, 2);
        let q = [7.3f32, 11.2];
        let params = SearchParams {
            k: 5,
            n_candidates: 100,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        };
        let via_run = engine.run(SearchRequest::new(&q).params(params));
        let via_search = engine.search(&q, &params);
        assert_eq!(via_run.ranked(), via_search.ranked());
        assert!(via_run.checkpoints.is_empty());

        let budgets = [10usize, 50];
        let traced = engine.run(SearchRequest::new(&q).params(params).checkpoints(&budgets));
        assert_eq!(traced.checkpoints.len(), 2);
        assert_eq!(traced.ranked(), via_run.ranked());

        let filtered = engine.run(
            SearchRequest::new(&q)
                .params(params)
                .filter(|id: u32| id.is_multiple_of(2)),
        );
        assert!(filtered.ids.iter().all(|id| id % 2 == 0));
        assert!(!filtered.is_empty());
    }

    #[test]
    fn client_id_is_stable_and_printable() {
        let a = ClientId::from_name("tenant-a");
        assert_eq!(a, ClientId::from_name("tenant-a"));
        assert_ne!(a, ClientId::from_name("tenant-b"));
        assert_eq!(ClientId::new(7).get(), 7);
        assert_eq!(format!("{}", ClientId::new(0xAB)), "00000000000000ab");
        let p = SearchParams::for_k(3)
            .client_id(a)
            .deadline(Instant::now() + Duration::from_secs(1))
            .build()
            .unwrap();
        assert_eq!(p.client_id, Some(a));
        assert!(p.deadline.is_some());
    }

    #[test]
    fn expired_deadline_returns_immediately_and_counts_a_miss() {
        let (data, model, table) = engine_fixture();
        let metrics = MetricsRegistry::enabled();
        let engine = QueryEngine::new(&model, &table, &data, 2).with_metrics(metrics.clone());
        let params = SearchParams {
            k: 5,
            n_candidates: usize::MAX,
            strategy: ProbeStrategy::GenerateQdRanking,
            early_stop: false,
            ..Default::default()
        };
        let past = Instant::now() - Duration::from_millis(10);
        let res = engine.run(
            SearchRequest::new(&[5.0, 5.0])
                .params(params)
                .deadline(past),
        );
        assert!(res.is_empty(), "no time to probe anything");
        assert_eq!(
            metrics.counter_value("gqr_request_deadline_missed_total{strategy=\"GQR\"}"),
            Some(1)
        );
    }

    #[test]
    fn a_loaded_engine_borrows_every_shard() {
        let (data, model, _) = engine_fixture();
        let mut engine = QueryEngine::<_, u64>::build(&model, &data, 2, 2);
        engine.enable_mih(2);
        let dir = std::env::temp_dir().join(format!("gqr-engine-parts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two.gqr");
        engine.save_snapshot(&path).unwrap();
        let loaded: LoadedIndex = crate::persist::load_index(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let reloaded = QueryEngine::from_snapshot(&loaded);
        assert_eq!(reloaded.n_shards(), 2);
        for (part, shard) in reloaded.parts.iter().zip(loaded.shards()) {
            assert!(std::ptr::eq(&*part.table, &shard.table));
            let (mih, stored) = (part.mih.as_deref(), shard.mih.as_ref());
            assert!(std::ptr::eq(mih.unwrap(), stored.unwrap()));
        }
    }

    #[test]
    #[should_panic(expected = "use the parts")]
    fn table_of_a_multi_part_engine_panics() {
        let (data, model, _) = engine_fixture();
        let engine = QueryEngine::<_, u64>::build(&model, &data, 2, 2);
        let _ = engine.table();
    }

    #[test]
    #[should_panic(expected = "use the parts")]
    fn with_mih_on_a_multi_part_engine_panics() {
        let (data, model, table) = engine_fixture();
        let mih = MihIndex::build(table.code_length(), &table.dense_codes(), 2);
        let _ = QueryEngine::build(&model, &data, 2, 2).with_mih(&mih);
    }

    #[test]
    fn n_items_sums_the_parts() {
        let (data, model, table) = engine_fixture();
        let engine = QueryEngine::new(&model, &table, &data, 2);
        assert_eq!(crate::index::Index::n_items(&engine), 400);
        for n_parts in [1, 3, 7] {
            let engine = QueryEngine::<_, u64>::build(&model, &data, 2, n_parts);
            let sizes = engine.shard_sizes();
            assert_eq!(sizes.len(), n_parts);
            assert_eq!(sizes.iter().sum::<usize>(), engine.n_items());
            assert_eq!(crate::index::Index::n_items(&engine), 400);
        }
        // Exhaustion stops at the sum: every row evaluated, nothing more.
        let params = SearchParams {
            k: 5,
            n_candidates: usize::MAX,
            ..Default::default()
        };
        let res = QueryEngine::<_, u64>::build(&model, &data, 2, 3).search(&[3.0, 4.0], &params);
        assert_eq!(res.stop_reason, crate::probe_loop::StopReason::Exhausted);
        assert_eq!(res.stats.items_evaluated, 400);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(ProbeStrategy::HammingRanking.name(), "HR");
        assert_eq!(ProbeStrategy::GenerateHammingRanking.name(), "GHR");
        assert_eq!(ProbeStrategy::QdRanking.name(), "QR");
        assert_eq!(ProbeStrategy::GenerateQdRanking.name(), "GQR");
        assert_eq!(ProbeStrategy::MultiIndexHashing { blocks: 2 }.name(), "MIH");
    }
}
