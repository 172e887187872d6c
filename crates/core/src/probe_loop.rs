//! The one query loop (paper Algorithms 1 and 3): take the next probe unit
//! in ascending cost, evaluate it, stop when a criterion of §4.2 fires.
//!
//! GQR, QR, HR, GHR, MIH, the planner's brute arm, multi-table search and
//! segmented (sharded and live) search differ only in *where the next unit
//! comes from* — a `BucketSource` — and *where a candidate's vector lies* —
//! a `Rows`.
//! *When to stop* is a `StopPolicy`, asked once before and once after
//! every unit, and *why it stopped* is the [`StopReason`] every response
//! carries. `drive` owns everything in between: filter → in-place score →
//! [`TopK`], checkpoints, phase spans, the per-step trace trajectory and the
//! stop markers.

use crate::attrs::AttributeStore;
use crate::code::{typed_encoding, CodeWord};
use crate::engine::{ProbeStrategy, SearchParams};
use crate::metrics::{metric_name, MarkerKind, MetricsRegistry, Phase, PhaseSpans, SpanId};
use crate::probe::mih::{MihIndex, MihSearcher};
use crate::probe::AnyProber;
use crate::recall::{RecallController, RecallModel};
use crate::request::{Envelope, SearchRequest};
use crate::response::{Checkpoint, SearchResponse};
use crate::stats::ProbeStats;
use crate::table::HashTable;
use crate::topk::TopK;
use gqr_l2h::HashModel;
use gqr_linalg::kernels::{prefetch_row, sq_dist_bounded, sq_dist_rows4, TILE_ROWS};
use gqr_linalg::vecops::Metric;
use std::borrow::Cow;
use std::time::Instant;

/// Why a search stopped probing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StopReason {
    /// The source ran dry: every bucket (or every indexed item) was seen.
    #[default]
    Exhausted,
    /// The Theorem-2 bound proved no unseen bucket can improve the top-k.
    EarlyStop,
    /// The calibrated recall prediction cleared the request's target.
    RecallTarget,
    /// The candidate budget `n_candidates` was spent.
    Budget,
    /// `max_buckets` probe units were spent.
    BucketCap,
    /// The time limit (or the request deadline folded into it) passed.
    Deadline,
}

impl StopReason {
    /// Snake-case label (`reason="…"` in `gqr_stop_total`).
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Exhausted => "exhausted",
            StopReason::EarlyStop => "early_stop",
            StopReason::RecallTarget => "recall_target",
            StopReason::Budget => "budget",
            StopReason::BucketCap => "bucket_cap",
            StopReason::Deadline => "deadline",
        }
    }
}

/// Per-query instrumentation shared by the sources and the loop: the
/// request's envelope plus the phase-time accumulator.
pub(crate) struct ProbeCtx<'a> {
    pub env: &'a Envelope<'a>,
    pub phases: PhaseSpans,
}

impl<'a> ProbeCtx<'a> {
    pub fn new(env: &'a Envelope<'a>) -> Self {
        let phases = PhaseSpans::new(env.metrics);
        ProbeCtx { env, phases }
    }

    /// Run `f` as one segment of `phase`: one clock read feeds both the
    /// phase accumulator and the trace span.
    #[inline]
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t = self.phases.begin();
        let span = self.env.trace.begin_opt(SpanId::ROOT, phase.as_str(), t);
        let out = f();
        self.phases.end(phase, t);
        self.env.trace.end(span);
        out
    }
}

/// One probe unit: the items of one bucket, one MIH distance level, or one
/// tile of planner survivors.
pub(crate) struct Unit<'s> {
    pub items: &'s [u32],
    /// Probe-unit rank reported to the trace and the recall controller.
    pub rank: u64,
    /// Cost indicator of the unit — the per-step difficulty signal both the
    /// trace and the recall controller consume: QD or Hamming distance,
    /// `-1.0` when the source has none.
    pub cost: f64,
}

/// "Next probe unit in ascending cost" for one query.
pub(crate) trait BucketSource {
    /// Whether a unit is a probe step — a bucket or a lookup level, with a
    /// place in the trace trajectory and in the skipped-bucket count. The
    /// brute arm's survivor tiles are not.
    const PROBES: bool = true;

    /// Cost of the unit `next` would return, when the source can tell
    /// without producing it.
    fn peek_cost(&mut self) -> Option<f64> {
        None
    }

    /// Produce the next unit, counting it into `stats` (probe units, empty
    /// ones, items collected, duplicates dropped); `None` when done.
    fn next(&mut self, ctx: &mut ProbeCtx<'_>, stats: &mut ProbeStats) -> Option<Unit<'_>>;

    /// Number of distinct items the source can ever yield, when it yields
    /// each at most once: evaluating that many exhausts it.
    fn universe(&self) -> Option<usize> {
        None
    }

    /// `None` when the policy enforces `max_buckets` between units;
    /// `Some(hit)` when the source enforces it inside `next`, `hit` telling
    /// whether the cap (rather than exhaustion) ended it.
    fn capped(&self) -> Option<bool> {
        None
    }
}

/// Encode `query` with `model` and open the prober `strategy` names over
/// the union of `tables` (see [`AnyProber::for_strategy`]).
fn open_prober<'t, M: HashModel + ?Sized, C: CodeWord>(
    model: &M,
    tables: impl IntoIterator<Item = &'t HashTable<C>>,
    strategy: ProbeStrategy,
    query: &[f32],
    ctx: &mut ProbeCtx<'_>,
) -> AnyProber<'t, C> {
    let qe = ctx.time(Phase::HashQuery, || {
        typed_encoding::<C>(model.encode_query_wide(query))
    });
    ctx.time(Phase::ProbeGenerate, || {
        AnyProber::for_strategy(strategy, tables, &qe)
    })
}

/// Take the next bucket code off `prober` as one probe unit, counted into
/// `stats`: `(code, rank, cost)`.
#[inline]
fn next_code<C: CodeWord>(
    prober: &mut AnyProber<'_, C>,
    ctx: &mut ProbeCtx<'_>,
    stats: &mut ProbeStats,
) -> Option<(C, u64, f64)> {
    // The cost is captured *before* `next_bucket` consumes the bucket.
    let (cost, code) = ctx.time(Phase::ProbeGenerate, || {
        (prober.peek_cost().unwrap_or(-1.0), prober.next_bucket())
    });
    let code = code?;
    let rank = stats.buckets_probed as u64;
    stats.buckets_probed += 1;
    Some((code, rank, cost))
}

/// Multi-index hashing: one unit per full-distance level of the radius
/// sweep; the probe unit counted is one substring-bucket lookup.
pub(crate) struct MihSource<'i, C: CodeWord> {
    searcher: MihSearcher<'i, C>,
    batch: Vec<u32>,
}

impl<'i, C: CodeWord> MihSource<'i, C> {
    /// Search row-disjoint `parts` — each side index with the global id of
    /// its local id 0, in ascending first id — as one index (see
    /// [`MihSearcher::over`]): one lookup sequence, whatever the layout.
    pub fn new<M: HashModel + ?Sized>(
        model: &M,
        parts: Vec<(&'i MihIndex<C>, u32)>,
        max_buckets: Option<usize>,
        query: &[f32],
        ctx: &mut ProbeCtx<'_>,
    ) -> Self {
        let code = ctx.time(Phase::HashQuery, || {
            C::from_blocks(model.encode_wide(query).blocks())
        });
        let mut searcher = ctx.time(Phase::ProbeGenerate, || MihSearcher::over(parts, code));
        // `max_buckets` bounds substring-bucket lookups, occupied or not,
        // like the bucket sources. The cap lives inside the searcher because
        // one radius expansion enumerates C(bits, r) masks per block (up to
        // 64-bit substrings) — a between-unit check could overshoot by an
        // entire radius shell. Items found before the cap fires are still
        // evaluated, like buckets already generated.
        searcher.set_lookup_cap(max_buckets.unwrap_or(usize::MAX));
        let batch = Vec::new();
        MihSource { searcher, batch }
    }
}

impl<C: CodeWord> BucketSource for MihSource<'_, C> {
    fn next(&mut self, ctx: &mut ProbeCtx<'_>, stats: &mut ProbeStats) -> Option<Unit<'_>> {
        self.batch.clear();
        let (searcher, batch) = (&mut self.searcher, &mut self.batch);
        let level = ctx.time(Phase::BucketLookup, || searcher.next_batch(batch));
        stats.buckets_probed = searcher.lookups();
        stats.empty_buckets = searcher.empty_lookups();
        stats.duplicates_skipped = searcher.duplicates();
        stats.items_collected += batch.len();
        // The Hamming level of the batch is the MIH analogue of the bucket
        // sources' step cost.
        let (rank, cost) = (searcher.lookups() as u64, level? as f64);
        let items = &self.batch;
        Some(Unit { items, rank, cost })
    }

    fn capped(&self) -> Option<bool> {
        Some(self.searcher.hit_lookup_cap())
    }
}

/// The planner's brute-force arm: the exact survivor set is smaller than
/// the candidate budget, so probing buckets would only re-derive a
/// superset — hand the survivors out directly, [`TILE_ROWS`] per unit (so
/// the time limit and checkpoints are checked once per tile). No hashing,
/// no probe generation, zero buckets probed.
pub(crate) struct SurvivorSource<I: Iterator<Item = u32>> {
    pub survivors: I,
    pub tile: Vec<u32>,
}

impl<I: Iterator<Item = u32>> BucketSource for SurvivorSource<I> {
    const PROBES: bool = false;

    fn next(&mut self, _ctx: &mut ProbeCtx<'_>, stats: &mut ProbeStats) -> Option<Unit<'_>> {
        self.tile.clear();
        self.tile.extend(self.survivors.by_ref().take(TILE_ROWS));
        if self.tile.is_empty() {
            return None;
        }
        stats.items_collected += self.tile.len();
        let (items, rank, cost) = (&self.tile[..], 0, -1.0);
        Some(Unit { items, rank, cost })
    }
}

/// Several tables over the same rows, merged by cost: each step probes the
/// table whose next bucket has the smallest cost indicator, so the global
/// order respects every per-table order. Items another table already
/// produced are dropped (and counted) before they reach the filter.
pub(crate) struct MergedTables<'t> {
    sources: Vec<SegmentedTables<'t, u64>>,
    visited: Vec<bool>,
    fresh: Vec<u32>,
}

impl<'t> MergedTables<'t> {
    /// `tables[t]` is a one-part table over every row, built with
    /// `models[t]`.
    pub fn new(
        models: &[&dyn HashModel],
        tables: &'t [Part<'t, u64>],
        strategy: ProbeStrategy,
        n_items: usize,
        query: &[f32],
        ctx: &mut ProbeCtx<'_>,
    ) -> Self {
        let sources = models
            .iter()
            .zip(tables)
            .map(|(model, table)| {
                let table = std::slice::from_ref(table);
                SegmentedTables::new(*model, table, n_items, strategy, query, ctx)
            })
            .collect();
        let (visited, fresh) = (vec![false; n_items], Vec::new());
        MergedTables {
            sources,
            visited,
            fresh,
        }
    }

    /// The table whose next bucket is cheapest, and that cost.
    fn cheapest(&mut self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (t, source) in self.sources.iter_mut().enumerate() {
            if let Some(c) = source.peek_cost() {
                if best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((t, c));
                }
            }
        }
        best
    }
}

impl BucketSource for MergedTables<'_> {
    fn peek_cost(&mut self) -> Option<f64> {
        self.cheapest().map(|(_, cost)| cost)
    }

    fn next(&mut self, ctx: &mut ProbeCtx<'_>, stats: &mut ProbeStats) -> Option<Unit<'_>> {
        let (t, _) = ctx.time(Phase::ProbeGenerate, || self.cheapest())?;
        let unit = self.sources[t].next(ctx, stats)?;
        self.fresh.clear();
        for &id in unit.items {
            let seen = &mut self.visited[id as usize];
            if *seen {
                stats.duplicates_skipped += 1;
            } else {
                // Marked before the filter runs: a rejected item is not
                // re-collected through another table.
                *seen = true;
                self.fresh.push(id);
            }
        }
        let items = &self.fresh;
        Some(Unit { items, ..unit })
    }
}

/// One row-disjoint part of an index: a hash table over the local ids
/// `0..rows`, its MIH side index when one is attached, and the global id of
/// local id 0. An index lists its parts in ascending `first_id`, the first
/// at 0: a plain engine has one, a sharded one S, a live one its base and
/// delta.
pub(crate) struct Part<'a, C: CodeWord> {
    pub table: Cow<'a, HashTable<C>>,
    pub mih: Option<Cow<'a, MihIndex<C>>>,
    pub first_id: u32,
    pub rows: usize,
}

impl<'a, C: CodeWord> Part<'a, C> {
    /// A part borrowing its table and side index.
    pub fn borrowed(
        table: &'a HashTable<C>,
        mih: Option<&'a MihIndex<C>>,
        first_id: u32,
        rows: usize,
    ) -> Self {
        Part {
            table: Cow::Borrowed(table),
            mih: mih.map(Cow::Borrowed),
            first_id,
            rows,
        }
    }
}

/// Row-disjoint tables of **one** hash model probed once — the dual of
/// [`MergedTables`]. A static engine passes one table (its sharded union,
/// see [`HashTable::union`]), whose buckets are units as they lie; a live
/// index passes its base and delta. The bucket order is a function of the
/// query alone, so one prober serves every part (QR and HR rank the merge
/// of their sorted codes), and a unit is the concatenation of each part's
/// bucket for the code, as global ids in part order: exactly the bucket of
/// one table built over all the rows.
pub(crate) struct SegmentedTables<'t, C: CodeWord> {
    prober: AnyProber<'t, C>,
    parts: &'t [Part<'t, C>],
    universe: usize,
    /// The unit, when it is not one part's bucket as it lies.
    joined: Vec<u32>,
}

impl<'t, C: CodeWord> SegmentedTables<'t, C> {
    /// `universe` is how many of the parts' rows a search can evaluate at
    /// most — a live index passes its live-row count, so a search that has
    /// seen every live row stops like one over a fresh rebuild.
    pub fn new<M: HashModel + ?Sized>(
        model: &M,
        parts: &'t [Part<'t, C>],
        universe: usize,
        strategy: ProbeStrategy,
        query: &[f32],
        ctx: &mut ProbeCtx<'_>,
    ) -> Self {
        let tables = parts.iter().map(|p| &*p.table);
        let prober = open_prober(model, tables, strategy, query, ctx);
        SegmentedTables {
            prober,
            parts,
            universe,
            joined: Vec::new(),
        }
    }
}

impl<C: CodeWord> BucketSource for SegmentedTables<'_, C> {
    fn peek_cost(&mut self) -> Option<f64> {
        self.prober.peek_cost()
    }

    #[inline]
    fn next(&mut self, ctx: &mut ProbeCtx<'_>, stats: &mut ProbeStats) -> Option<Unit<'_>> {
        let (code, rank, cost) = next_code(&mut self.prober, ctx, stats)?;
        let (parts, joined) = (self.parts, &mut self.joined);
        let items = ctx.time(Phase::BucketLookup, move || {
            // The one part starts at 0: its local ids are global ids.
            if let [part] = parts {
                return part.table.bucket(code);
            }
            let mut buckets = parts
                .iter()
                .map(|p| (p.table.bucket(code), p.first_id))
                .filter(|(bucket, _)| !bucket.is_empty());
            match (buckets.next(), buckets.next()) {
                (None, _) => &[][..],
                // Local ids of the part at 0 are global ids already.
                (Some((bucket, 0)), None) => bucket,
                (Some(first), second) => {
                    joined.clear();
                    for (bucket, first_id) in [first].into_iter().chain(second).chain(buckets) {
                        joined.extend(bucket.iter().map(|&local| first_id + local));
                    }
                    &joined[..]
                }
            }
        });
        stats.empty_buckets += usize::from(items.is_empty());
        stats.items_collected += items.len();
        Some(Unit { items, rank, cost })
    }

    fn universe(&self) -> Option<usize> {
        Some(self.universe)
    }
}

/// What a search of row-disjoint parts probes: MIH's lookup levels over
/// the parts' side indexes, or one bucket ranking over their tables.
pub(crate) enum PartSource<'t, C: CodeWord> {
    Mih(MihSource<'t, C>),
    Tables(SegmentedTables<'t, C>),
}

/// Open the source `strategy` probes over `parts` as one index: MIH over
/// the side indexes of the parts that hold rows, bounded inside the
/// searcher by `mih_cap` lookups; any other strategy over their tables,
/// `universe` rows at most (see [`SegmentedTables::new`]).
///
/// # Panics
///
/// Panics on MIH when a part that holds rows has no side index.
pub(crate) fn open_source<'t, M: HashModel + ?Sized, C: CodeWord>(
    model: &M,
    parts: &'t [Part<'t, C>],
    universe: usize,
    strategy: ProbeStrategy,
    mih_cap: Option<usize>,
    query: &[f32],
    ctx: &mut ProbeCtx<'_>,
) -> PartSource<'t, C> {
    if let ProbeStrategy::MultiIndexHashing { .. } = strategy {
        let mihs = parts.iter().filter(|p| p.rows > 0).map(|p| {
            let mih = p.mih.as_deref();
            let mih = mih.expect("call enable_mih() (or build with mih_blocks()) before MIH");
            (mih, p.first_id)
        });
        let mihs = mihs.collect();
        return PartSource::Mih(MihSource::new(model, mihs, mih_cap, query, ctx));
    }
    let source = SegmentedTables::new(model, parts, universe, strategy, query, ctx);
    PartSource::Tables(source)
}

impl<C: CodeWord> PartSource<'_, C> {
    /// [`drive`] the source: one loop per variant, so the bucket path's
    /// loop carries none of MIH's code.
    pub fn drive<R: Rows>(
        self,
        policy: StopPolicy<'_>,
        sink: Evaluator<'_, '_, R>,
        budgets: &[usize],
        ctx: &mut ProbeCtx<'_>,
    ) -> SearchResponse {
        match self {
            PartSource::Mih(mut s) => drive(&mut s, policy, sink, budgets, ctx),
            PartSource::Tables(mut s) => drive(&mut s, policy, sink, budgets, ctx),
        }
    }
}

/// The stopping criteria of §4.2, built once per query. Whichever fires
/// first ends the search.
pub(crate) struct StopPolicy<'m> {
    params: SearchParams,
    start: Instant,
    /// Early-stop constant µ = 1/(σ_max(H)·√m) of Theorem 2, when the
    /// search may use it.
    mu: Option<f64>,
    /// The recall-target stop, when the request set one and the attached
    /// model covers the strategy.
    controller: Option<RecallController<'m>>,
}

impl<'m> StopPolicy<'m> {
    /// The budget, bucket-cap and time-limit criteria of `params`, timed
    /// from `start`; no early stop, no recall target.
    pub fn new(params: &SearchParams, start: Instant) -> Self {
        StopPolicy {
            params: *params,
            start,
            mu: None,
            controller: None,
        }
    }

    /// The criteria decidable before the next unit is pulled, given the
    /// counters so far and the current k-th best distance.
    #[inline]
    pub fn before<S: BucketSource>(
        &self,
        stats: &ProbeStats,
        kth_dist: Option<f32>,
        source: &mut S,
    ) -> Option<StopReason> {
        let evaluated = stats.items_evaluated;
        if evaluated >= self.params.n_candidates {
            return Some(StopReason::Budget);
        }
        if source.universe().is_some_and(|n| evaluated >= n) {
            return Some(StopReason::Exhausted);
        }
        let cap = self.params.max_buckets;
        let cap = cap.filter(|_| source.capped().is_none());
        if cap.is_some_and(|cap| stats.buckets_probed >= cap) {
            return Some(StopReason::BucketCap);
        }
        // A unit in flight is finished, so this is a soft deadline of one
        // unit's granularity.
        let limit = self.params.time_limit;
        if limit.is_some_and(|tl| self.start.elapsed() >= tl) {
            return Some(StopReason::Deadline);
        }
        if let (Some(mu), Some(dk)) = (self.mu, kth_dist) {
            let bound = mu * source.peek_cost()?;
            // No remaining bucket can improve the top-k.
            return ((bound * bound) as f32 >= dk).then_some(StopReason::EarlyStop);
        }
        None
    }

    /// The criterion that needs the unit just evaluated: feed the recall
    /// controller the step the tracer sees.
    #[inline]
    pub fn after(&mut self, rank: u64, cost: f64, evaluated: usize) -> Option<StopReason> {
        let stop = self.controller.as_mut()?.observe(rank, cost, evaluated);
        stop.then_some(StopReason::RecallTarget)
    }
}

/// Early-stop constant µ = 1/(σ_max(H)·√m) of Theorem 2 for a search of
/// `model`'s `code_length`-bit table, when `params` ask for the early stop
/// and it applies (QD strategy, Euclidean evaluation, linear model).
fn early_stop_mu<M: HashModel + ?Sized>(
    model: &M,
    code_length: usize,
    metric: Metric,
    params: &SearchParams,
) -> Option<f64> {
    let qd_strategy = matches!(
        params.strategy,
        ProbeStrategy::QdRanking | ProbeStrategy::GenerateQdRanking
    );
    if !(params.early_stop && qd_strategy && metric == Metric::SquaredEuclidean) {
        return None;
    }
    let norm = model.spectral_norm()?;
    Some(1.0 / (norm * (code_length as f64).sqrt()))
}

/// Per-query recall controller for `params`, when a target is set and the
/// attached `recall` model covers the strategy. A target without usable
/// calibration degrades to the budget stops (counted per strategy under
/// `gqr_recall_uncalibrated_total`) rather than failing the query.
fn recall_controller<'m>(
    recall: Option<&'m RecallModel>,
    metrics: &MetricsRegistry,
    params: &SearchParams,
) -> Option<RecallController<'m>> {
    let target = params.recall_target?;
    let controller = recall.and_then(|m| m.controller(params.strategy, target, params.k));
    if controller.is_none() {
        let labels = [("strategy", params.strategy.name())];
        metrics.incr(&metric_name("gqr_recall_uncalibrated_total", &labels));
    }
    controller
}

/// Where a candidate's vector lies, by the id its unit names it with. A
/// view (`Copy`): the evaluator keeps it in a local across its loop.
pub(crate) trait Rows: Copy {
    fn row(&self, id: u32) -> &[f32];
}

/// One row-major buffer, `dim` columns: the static indexes' rows.
#[derive(Clone, Copy)]
pub(crate) struct FlatRows<'a> {
    pub data: &'a [f32],
    pub dim: usize,
}

impl Rows for FlatRows<'_> {
    #[inline]
    fn row(&self, id: u32) -> &[f32] {
        &self.data[id as usize * self.dim..(id as usize + 1) * self.dim]
    }
}

/// The rows of an index whose parts keep their vectors apart (a live
/// index's base and delta): global id `g` lies in the last part that starts
/// at or before it.
#[derive(Clone, Copy)]
pub(crate) struct SegmentedRows<'t> {
    /// Each part's first global id and row-major vectors, in ascending
    /// first id, the first at 0.
    pub parts: &'t [(u32, &'t [f32])],
    pub dim: usize,
}

impl Rows for SegmentedRows<'_> {
    #[inline]
    fn row(&self, id: u32) -> &[f32] {
        let starts_before = |p: &&(u32, &[f32])| p.0 <= id;
        let part = self.parts.iter().rev().find(starts_before);
        let &(first_id, data) = part.expect("the first part starts at id 0");
        let local = (id - first_id) as usize;
        &data[local * self.dim..(local + 1) * self.dim]
    }
}

/// How many candidates ahead of the one being scored the evaluator
/// prefetches its row: far enough that a cold row arrives before it is
/// read, near enough that it is still in L1 then.
const PREFETCH_AHEAD: usize = 8;

/// Items a filtered unit is gated in at a time, on the stack, before the
/// block's survivors are scored.
const FILTER_BLOCK: usize = 256;

/// Where a unit's items go: filter, score each survivor in place — where
/// its row lies, in unit order — and push it into the top-k at once, so the
/// k-th distance tightens as the unit goes.
///
/// A filter sees a unit first, [`FILTER_BLOCK`] items at a time and each
/// item once, in unit order; only the block's survivors are then
/// prefetched and scored, so a rejected row is never read. Under squared
/// Euclidean distance survivors are scored four at a time through the
/// register-blocked [`sq_dist_rows4`]; a tail of fewer than four takes the
/// row kernel bounded by a full top-k's k-th distance
/// ([`sq_dist_bounded`]), which stops summing a row whose partial sum
/// already exceeds it. Either way the answer is bit for bit that of
/// scoring every row in full, one at a time: each kernel returns the row
/// kernel's bits, and an abandoned row would have lost to the k-th in
/// [`TopK::push`] anyway, ties by id included; it still counts as
/// evaluated. Angular distance takes the plain row kernel. The first
/// [`PREFETCH_AHEAD`] survivors are prefetched as scoring opens, and every
/// later one that many survivors before it is scored. Nothing is allocated
/// per request.
pub(crate) struct Evaluator<'a, 'f, R: Rows> {
    pub query: &'a [f32],
    pub rows: R,
    pub metric: Metric,
    /// `true` keeps the item. Rejected items are skipped before any
    /// distance is computed and do not count toward the candidate budget.
    pub filter: Option<&'a mut (dyn FnMut(u32) -> bool + 'f)>,
}

impl<R: Rows> Evaluator<'_, '_, R> {
    /// Score the surviving `items` into `topk`; returns how many were
    /// evaluated.
    fn evaluate(&mut self, items: &[u32], topk: &mut TopK) -> usize {
        let (query, metric, rows) = (self.query, self.metric, self.rows);
        let Some(keep) = self.filter.as_deref_mut() else {
            return score(query, metric, rows, items, topk);
        };
        let mut survivors = [0u32; FILTER_BLOCK];
        let mut evaluated = 0;
        for block in items.chunks(FILTER_BLOCK) {
            let mut kept = 0;
            for &id in block {
                survivors[kept] = id;
                kept += usize::from(keep(id));
            }
            evaluated += score(query, metric, rows, &survivors[..kept], topk);
        }
        evaluated
    }
}

/// Score every item of `ids` against `query` into `topk`, in order; returns
/// `ids.len()`. See [`Evaluator`].
#[inline]
fn score<R: Rows>(query: &[f32], metric: Metric, rows: R, ids: &[u32], topk: &mut TopK) -> usize {
    for &id in ids.iter().take(PREFETCH_AHEAD) {
        prefetch_row(rows.row(id));
    }
    let prefetch_from = |at: usize, n: usize| {
        for &ahead in ids.iter().skip(at + PREFETCH_AHEAD).take(n) {
            prefetch_row(rows.row(ahead));
        }
    };
    let (quads, tail) = match metric {
        Metric::SquaredEuclidean => ids.as_chunks::<4>(),
        Metric::Angular => (&[][..], ids),
    };
    for (i, quad) in quads.iter().enumerate() {
        prefetch_from(4 * i, 4);
        let dists = sq_dist_rows4(query, quad.map(|id| rows.row(id)));
        for (&id, dist) in quad.iter().zip(dists) {
            topk.push(dist, id);
        }
    }
    let blocked = ids.len() - tail.len();
    for (i, &id) in tail.iter().enumerate() {
        prefetch_from(blocked + i, 1);
        let row = rows.row(id);
        let dist = match (metric, topk.kth_dist()) {
            (Metric::SquaredEuclidean, Some(kth)) => sq_dist_bounded(query, row, kth),
            _ => metric.eval(query, row),
        };
        topk.push(dist, id);
    }
    ids.len()
}

/// What a query consults besides its bucket source, whatever the index
/// layout: the hash model its tables were built with, where a candidate's
/// row lies, and the calibration a recall target stops against. The engine
/// and the live store each describe themselves as one.
pub(crate) struct Target<'a, M: HashModel + ?Sized, R: Rows> {
    pub model: &'a M,
    pub code_length: usize,
    pub metric: Metric,
    pub recall: Option<&'a RecallModel>,
    pub rows: R,
    /// Ids `0..n_rows` are addressable through `rows`.
    pub n_rows: usize,
}

impl<'a, M: HashModel + ?Sized, R: Rows> Target<'a, M, R> {
    /// The stop policy of a search that probes this target's buckets:
    /// [`StopPolicy::new`] plus the Theorem-2 early stop and the recall
    /// target, `metrics` counting a target the recall model cannot serve.
    pub fn policy(
        &self,
        params: &SearchParams,
        start: Instant,
        metrics: &MetricsRegistry,
    ) -> StopPolicy<'a> {
        let (model, m, metric) = (self.model, self.code_length, self.metric);
        StopPolicy {
            mu: early_stop_mu(model, m, metric, params),
            controller: recall_controller(self.recall, metrics, params),
            ..StopPolicy::new(params, start)
        }
    }

    /// The evaluator that scores this target's rows against `query`.
    pub fn sink<'s, 'f>(
        &self,
        query: &'s [f32],
        filter: Option<&'s mut (dyn FnMut(u32) -> bool + 'f)>,
    ) -> Evaluator<'s, 'f, R> {
        let (rows, metric) = (self.rows, self.metric);
        Evaluator {
            query,
            rows,
            metric,
            filter,
        }
    }

    /// Run `req`, opened as `ctx.env` at `start`. Its predicate is planned
    /// once against `attrs` and the request's own candidate budget: an exact
    /// survivor set that fits is evaluated outright — no hashing, no
    /// probing — and anything else becomes the sink's gate, which `probe`
    /// drives from the strategy's source.
    pub fn run(
        &self,
        req: SearchRequest<'_>,
        attrs: Option<&AttributeStore>,
        start: Instant,
        ctx: &mut ProbeCtx<'_>,
        probe: impl FnOnce(Evaluator<'_, '_, R>, &mut ProbeCtx<'_>) -> SearchResponse,
    ) -> SearchResponse {
        let (query, params, budgets) = (req.query, req.params, req.budgets);
        // Under a recall target the budget is unbounded; a survivor set of a
        // few probes' worth of rows is still cheaper swept than probed for.
        let brute_budget = match params.n_candidates {
            usize::MAX => 4096usize.max(16 * params.k),
            n => n,
        };
        let predicate = req.predicate;
        let (brute, mut filter) =
            ctx.env
                .plan_filter(attrs, predicate.as_ref(), req.filter, brute_budget);
        let sink = self.sink(query, filter.as_deref_mut());
        let Some(survivors) = brute else {
            return probe(sink, ctx);
        };
        // Survivors ascend; ids beyond the rows are not addressable and end
        // the sweep.
        let n_rows = self.n_rows;
        let ids = survivors.iter().take_while(|&id| (id as usize) < n_rows);
        let tile = Vec::with_capacity(TILE_ROWS);
        let mut source = SurvivorSource {
            survivors: ids,
            tile,
        };
        let policy = StopPolicy::new(&params, start);
        let mut result = drive(&mut source, policy, sink, budgets, ctx);
        // The survivor set is exact — recall over the filtered universe is
        // 1.0 by construction once it is fully evaluated. If a stop cut the
        // sweep short, report the evaluated fraction instead.
        result.predicted_recall = params.recall_target.map(|_| match result.stop_reason {
            StopReason::Exhausted => 1.0,
            _ => result.stats.items_evaluated as f32 / survivors.len().max(1) as f32,
        });
        result
    }
}

/// Run one query: pull units from `source` until `policy` (or the source)
/// says stop, evaluating each into the running top-k and snapshotting it
/// at every checkpoint budget in `budgets` (ascending).
pub(crate) fn drive<S: BucketSource, R: Rows>(
    source: &mut S,
    mut policy: StopPolicy<'_>,
    mut sink: Evaluator<'_, '_, R>,
    budgets: &[usize],
    ctx: &mut ProbeCtx<'_>,
) -> SearchResponse {
    let (env, start) = (ctx.env, policy.start);
    let mut topk = TopK::new(policy.params.k);
    let mut stats = ProbeStats::default();
    let mut checkpoints = Vec::with_capacity(budgets.len());
    let mut next_budget = budgets.iter().copied().peekable();
    // Non-empty units where the filter rejected every item — the pre-filter
    // arm's payoff: no distance computed for the unit.
    let mut units_skipped: u64 = 0;
    let snapshot = |budget, stats: &ProbeStats, topk: &TopK| Checkpoint {
        budget,
        items_evaluated: stats.items_evaluated,
        buckets_probed: stats.buckets_probed,
        elapsed: start.elapsed(),
        top_ids: topk.ids_unordered().collect(),
    };

    let reason = loop {
        if let Some(reason) = policy.before(&stats, topk.kth_dist(), source) {
            break reason;
        }
        let collected = stats.items_collected;
        let Some(unit) = source.next(ctx, &mut stats) else {
            break match source.capped() {
                Some(true) => StopReason::BucketCap,
                _ => StopReason::Exhausted,
            };
        };
        let (rank, cost, offered) = (unit.rank, unit.cost, unit.items.len());
        let mut kept = 0;
        if offered > 0 {
            kept = ctx.time(Phase::Evaluate, || sink.evaluate(unit.items, &mut topk));
            stats.items_evaluated += kept;
        }
        if S::PROBES {
            units_skipped += u64::from(sink.filter.is_some() && offered > 0 && kept == 0);
            let in_unit = (stats.items_collected - collected) as u32;
            env.trace
                .qd_step(SpanId::ROOT, rank as u32, cost, in_unit, kept as u32);
        }
        // Checkpoints are cut after units that offered items; an empty
        // one leaves a due budget (only ever a budget of 0) to the next.
        while let Some(b) = next_budget.next_if(|&b| offered > 0 && stats.items_evaluated >= b) {
            let reached = stats.items_evaluated as u64;
            env.trace
                .marker(SpanId::ROOT, MarkerKind::Checkpoint, b as u64, reached);
            checkpoints.push(snapshot(b, &stats, &topk));
        }
        if let Some(reason) = policy.after(rank, cost, stats.items_evaluated) {
            break reason;
        }
    };

    let probed = stats.buckets_probed as u64;
    let predicted = policy.controller.as_ref().map(|c| c.predicted());
    match reason {
        StopReason::EarlyStop => env
            .trace
            .marker(SpanId::ROOT, MarkerKind::EarlyStop, probed, 0),
        StopReason::RecallTarget => {
            // Markers are integer-payload: the prediction in thousandths.
            let milli = (predicted.unwrap_or(0.0) as f64 * 1000.0) as u64;
            env.trace
                .marker(SpanId::ROOT, MarkerKind::RecallStop, probed, milli);
        }
        _ => {}
    }
    if env.metrics.is_enabled() {
        let labels = [("reason", reason.as_str()), ("strategy", env.strategy)];
        env.metrics.incr(&metric_name("gqr_stop_total", &labels));
    }
    // Budgets the source couldn't fill.
    checkpoints.extend(next_budget.map(|b| snapshot(b, &stats, &topk)));
    let neighbors = ctx.time(Phase::Rerank, || topk.into_sorted());
    if units_skipped > 0 {
        env.metrics
            .add("gqr_filter_buckets_skipped_total", units_skipped);
        env.trace
            .marker(SpanId::ROOT, MarkerKind::FilterSkip, units_skipped, 0);
    }
    #[cfg(debug_assertions)]
    stats.checked_invariants();
    let mut response = SearchResponse::from_ranked(neighbors, stats);
    response.checkpoints = checkpoints;
    response.stop_reason = reason;
    response.predicted_recall = predicted;
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SearchRequest;
    use gqr_l2h::lsh::Lsh;

    const STRATEGIES: [ProbeStrategy; 4] = [
        ProbeStrategy::HammingRanking,
        ProbeStrategy::GenerateHammingRanking,
        ProbeStrategy::QdRanking,
        ProbeStrategy::GenerateQdRanking,
    ];

    fn grid(n: u32) -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..n {
            data.push((i % 20) as f32 + 0.001 * ((i * 7) % 13) as f32);
            data.push((i / 20) as f32);
        }
        data
    }

    /// Every unit `source` yields, as `(items, rank, cost)`, and what it
    /// counted on the way.
    fn drain<S: BucketSource>(
        source: &mut S,
        ctx: &mut ProbeCtx<'_>,
    ) -> (Vec<(Vec<u32>, u64, f64)>, ProbeStats) {
        let mut stats = ProbeStats::default();
        let mut units = Vec::new();
        while let Some(unit) = source.next(ctx, &mut stats) {
            units.push((unit.items.to_vec(), unit.rank, unit.cost));
        }
        (units, stats)
    }

    /// Rows `..split` and `split..` of `data` as two parts must probe like
    /// one part over all of `data`: same units (for HR/QR that is the same
    /// code sequence — their buckets are non-empty and disjoint), same
    /// counters, same rows.
    fn assert_segments_probe_like_one_table(data: &[f32], split: usize) {
        let model = Lsh::train(&grid(300), 2, 7, 3).unwrap();
        let (head, tail) = data.split_at(split * 2);
        let whole: HashTable = HashTable::build(&model, data, 2);
        let base: HashTable = HashTable::build(&model, head, 2);
        let delta: HashTable = HashTable::build(&model, tail, 2);
        let n = whole.n_items();
        let one = [Part::borrowed(&whole, None, 0, n)];
        let parts = [
            Part::borrowed(&base, None, 0, split),
            Part::borrowed(&delta, None, split as u32, n - split),
        ];
        let buffers = [(0, head), (split as u32, tail)];
        let rows = SegmentedRows {
            parts: &buffers,
            dim: 2,
        };
        for (id, row) in data.chunks_exact(2).enumerate() {
            assert_eq!(rows.row(id as u32), row, "split {split}, id {id}");
        }

        let metrics = MetricsRegistry::disabled();
        let q = [7.3f32, 4.1];
        for strategy in STRATEGIES {
            let mut req = SearchRequest::new(&q);
            let env = req.open(&metrics, "test");
            let mut ctx = ProbeCtx::new(&env);
            let mut one = SegmentedTables::new(&model, &one, n, strategy, &q, &mut ctx);
            let mut many = SegmentedTables::new(&model, &parts, n, strategy, &q, &mut ctx);
            assert_eq!(many.peek_cost(), one.peek_cost());
            let at = format!("split {split}, {}", strategy.name());
            assert_eq!(
                drain(&mut many, &mut ctx),
                drain(&mut one, &mut ctx),
                "{at}"
            );
        }
    }

    #[test]
    fn segments_probe_like_one_table_over_all_rows() {
        let data = grid(300);
        // The fixture must cover every way a bucket can be split.
        let model = Lsh::train(&data, 2, 7, 3).unwrap();
        let (head, tail) = data.split_at(200 * 2);
        let base: HashTable = HashTable::build(&model, head, 2);
        let delta: HashTable = HashTable::build(&model, tail, 2);
        assert!(
            delta.codes().any(|c| !base.contains(c)),
            "delta-only bucket"
        );
        assert!(delta.codes().any(|c| base.contains(c)), "shared bucket");
        assert!(base.codes().any(|c| !delta.contains(c)), "base-only bucket");
        assert_segments_probe_like_one_table(&data, 200);
    }

    #[test]
    fn an_empty_segment_changes_nothing() {
        let data = grid(120);
        assert_segments_probe_like_one_table(&data, 0);
        assert_segments_probe_like_one_table(&data, 120);
        assert_segments_probe_like_one_table(&[], 0);
    }
}
