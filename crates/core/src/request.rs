//! The unified search-request type: one front door for every query shape.
//!
//! Before this module the engine grew one entry point per feature —
//! plain, traced, and filtered searches each took a different parameter
//! list. A [`SearchRequest`] bundles the query with [`SearchParams`] and
//! the optional extras (recall checkpoints, an attribute filter) so every
//! execution surface —
//! [`QueryEngine::run`](crate::engine::QueryEngine::run) (sharded or not),
//! [`MultiTableIndex::run`](crate::multi_table::MultiTableIndex::run), and
//! [`MutableIndex::run`](crate::live::MutableIndex::run) — accepts the same
//! type, and the [`Index`](crate::index::Index) trait abstracts over them.
//! This request/[`SearchResponse`](crate::response::SearchResponse) pair is
//! the *only* query entry point; the legacy per-feature wrappers are gone.
//!
//! ```
//! use gqr_core::engine::{QueryEngine, SearchParams};
//! use gqr_core::request::SearchRequest;
//! use gqr_core::table::HashTable;
//! use gqr_l2h::pcah::Pcah;
//!
//! let mut data = Vec::new();
//! for i in 0..200u32 {
//!     data.push((i % 20) as f32 + 0.01 * (i as f32).sin());
//!     data.push((i / 20) as f32);
//! }
//! let model = Pcah::train(&data, 2, 2).unwrap();
//! let table: HashTable = HashTable::build(&model, &data, 2);
//! let engine = QueryEngine::new(&model, &table, &data, 2);
//!
//! let params = SearchParams::for_k(5).candidates(50).build().unwrap();
//! let req = SearchRequest::new(&[3.0, 4.0])
//!     .params(params)
//!     .filter(|id| id % 2 == 0);
//! let result = engine.run(req);
//! assert!(result.ids.iter().all(|&id| id % 2 == 0));
//! ```

use crate::attrs::{AttributeStore, Bitmap, FilterPlan, Predicate};
use crate::engine::SearchParams;
use gqr_metrics::{metric_name, MarkerKind, MetricsRegistry, SpanId, TraceContext};
use std::time::Instant;

/// The id filter a request may carry: `true` keeps the item.
pub type SearchFilter<'a> = Box<dyn FnMut(u32) -> bool + 'a>;

/// One fully-described search: query vector, parameters, and the optional
/// extras that used to require dedicated engine methods.
///
/// Built fluently: `SearchRequest::new(&q).params(p).deadline(t)`. The
/// borrow parameter ties the request to the query slice, the checkpoint
/// budgets, and anything the filter captures.
pub struct SearchRequest<'a> {
    pub(crate) query: &'a [f32],
    pub(crate) params: SearchParams,
    pub(crate) budgets: &'a [usize],
    pub(crate) filter: Option<SearchFilter<'a>>,
    /// The structured predicate (owned — it crossed the wire).
    pub(crate) predicate: Option<Predicate>,
    /// The request's explicit trace opt-in.
    trace: bool,
}

impl<'a> SearchRequest<'a> {
    /// A request for `query` with [`SearchParams::default`].
    pub fn new(query: &'a [f32]) -> SearchRequest<'a> {
        SearchRequest {
            query,
            params: SearchParams::default(),
            budgets: &[],
            filter: None,
            predicate: None,
            trace: false,
        }
    }

    /// Set the search parameters.
    pub fn params(mut self, params: SearchParams) -> Self {
        self.params = params;
        self
    }

    /// Snapshot the running top-k at each of these candidate budgets
    /// (ascending). The snapshots come back in
    /// [`SearchResponse::checkpoints`](crate::response::SearchResponse::checkpoints).
    pub fn checkpoints(mut self, budgets: &'a [usize]) -> Self {
        self.budgets = budgets;
        self
    }

    /// Restrict the search to items the predicate accepts (attribute
    /// filtering). Rejected items are skipped before the distance
    /// computation and do not consume candidate budget. Every strategy
    /// supports filtering, MIH included; the mutable index relies on this
    /// to mask tombstoned rows at evaluate time.
    pub fn filter(mut self, filter: impl FnMut(u32) -> bool + 'a) -> Self {
        self.filter = Some(Box::new(filter));
        self
    }

    /// Restrict the search with a structured [`Predicate`] over the index's
    /// attribute store. Unlike the closure [`SearchRequest::filter`] (which
    /// is always evaluated per item), a predicate is *planned*: the engine
    /// estimates its selectivity from the store's posting lists and picks
    /// pre-filtering, post-filtering, or brute force over the survivor set.
    /// Requires the execution surface to hold an
    /// [`AttributeStore`]; validate with
    /// [`AttributeStore::validate`](crate::attrs::AttributeStore::validate)
    /// first. A closure filter may be set alongside — both must accept.
    pub fn predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Absolute deadline for the request — convenience for setting
    /// [`SearchParams::deadline`] after the fact. Execution surfaces fold
    /// it into the soft per-search time limit (tighter of the two wins) and
    /// count a deadline miss when they finish late; the executor drops
    /// queued work whose deadline already passed.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.params.deadline = Some(at);
        self
    }

    /// Force this request to be traced, bypassing the registry's 1-in-N
    /// sampler. No-op unless the serving surface's metrics registry has
    /// tracing enabled
    /// ([`MetricsRegistry::enable_tracing`](gqr_metrics::MetricsRegistry::enable_tracing));
    /// the completed trace lands in the registry's
    /// [`TraceStore`](gqr_metrics::TraceStore).
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Whether the request explicitly opted into tracing.
    pub fn trace_requested(&self) -> bool {
        self.trace
    }

    /// The query vector.
    pub fn query(&self) -> &'a [f32] {
        self.query
    }

    /// The search parameters.
    pub fn search_params(&self) -> &SearchParams {
        &self.params
    }

    /// The checkpoint budgets (empty unless requested).
    pub fn checkpoint_budgets(&self) -> &'a [usize] {
        self.budgets
    }

    /// Whether the request carries a filter.
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Whether the request carries a structured predicate.
    pub fn has_predicate(&self) -> bool {
        self.predicate.is_some()
    }

    /// The structured predicate, if any.
    pub fn predicate_ref(&self) -> Option<&Predicate> {
        self.predicate.as_ref()
    }

    /// The absolute deadline, if any (stored on the params).
    pub fn deadline_at(&self) -> Option<Instant> {
        self.params.deadline
    }

    /// Open the envelope every execution surface wraps a request in: fold
    /// the deadline into `params.time_limit` (whichever is tighter wins)
    /// and begin the trace as `surface` (sampled 1-in-N, forced for
    /// explicit `.trace()` opt-ins and for requests already past their
    /// deadline), sealed by [`Envelope::close`].
    pub(crate) fn open<'m>(
        &mut self,
        metrics: &'m MetricsRegistry,
        surface: &'static str,
    ) -> Envelope<'m> {
        let deadline = self.params.deadline;
        let admitted_late = deadline.is_some_and(|d| Instant::now() > d);
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            let limit = self.params.time_limit;
            self.params.time_limit = Some(limit.map_or(remaining, |tl| tl.min(remaining)));
        }
        Envelope {
            metrics,
            strategy: self.params.strategy.name(),
            trace: metrics.trace_begin(surface, self.trace || admitted_late),
            deadline,
        }
    }
}

/// The open trace and deadline of one request on one execution surface.
pub(crate) struct Envelope<'m> {
    pub metrics: &'m MetricsRegistry,
    /// The request's strategy name: the `strategy` label of its counters.
    pub strategy: &'static str,
    /// The trace this surface emits into, under its root span.
    pub trace: TraceContext,
    deadline: Option<Instant>,
}

impl Envelope<'_> {
    /// Count a late finish under
    /// `gqr_request_deadline_missed_total{strategy}` (with a `DeadlineMiss`
    /// marker carrying the overrun in nanoseconds), seal the trace, and
    /// return the trace id for the response.
    pub(crate) fn close(self) -> Option<u64> {
        let now = Instant::now();
        let missed = self.deadline.filter(|&d| now > d);
        if let Some(d) = missed {
            let labels = [("strategy", self.strategy)];
            let name = metric_name("gqr_request_deadline_missed_total", &labels);
            self.metrics.incr(&name);
            let over_ns = u64::try_from((now - d).as_nanos()).unwrap_or(u64::MAX);
            self.trace
                .marker(SpanId::ROOT, MarkerKind::DeadlineMiss, over_ns, 0);
        }
        let trace_id = self.trace.id();
        self.metrics.trace_finish(self.trace, missed.is_some());
        trace_id
    }

    /// Plan the request's predicate (if any) against `store`, record the
    /// decision under its three observables — `gqr_filter_plans_total{plan}`,
    /// `gqr_filter_selectivity_ppm` and a `FilterPlan` trace marker — and
    /// fold it with the caller's closure filter into one gate: both must
    /// accept. The store's posting lists give an exact survivor set (and
    /// exact selectivity) when every leaf is indexed, an estimate
    /// otherwise; an exact set gates with a bitmap test per candidate,
    /// anything else evaluates the predicate per candidate.
    ///
    /// `brute_budget` is what a brute-force arm may spend. When the exact
    /// survivor set fits, it is returned beside the caller's filter instead
    /// of being folded in. Surfaces with no brute arm (the live and
    /// multi-table indexes) pass 0 and always get a gate.
    pub(crate) fn plan_filter<'a>(
        &self,
        store: Option<&'a AttributeStore>,
        predicate: Option<&'a Predicate>,
        mut user: Option<SearchFilter<'a>>,
        brute_budget: usize,
    ) -> (Option<Bitmap>, Option<SearchFilter<'a>>) {
        let Some(pred) = predicate else {
            return (None, user);
        };
        let store = store.expect(
            "request carries a predicate but the index has no attribute store \
             (attach one at build time, and validate() the predicate first)",
        );
        let choice = store.plan(pred, brute_budget);
        let labels = [("plan", choice.plan.name())];
        self.metrics
            .incr(&metric_name("gqr_filter_plans_total", &labels));
        let ppm = (choice.selectivity * 1e6) as u64;
        self.metrics.record("gqr_filter_selectivity_ppm", ppm);
        self.trace
            .marker(SpanId::ROOT, MarkerKind::FilterPlan, choice.plan.tag(), ppm);
        let survivors = match choice.plan {
            FilterPlan::BruteForce { survivors } if brute_budget > 0 => {
                return (Some(survivors), user);
            }
            FilterPlan::BruteForce { survivors } | FilterPlan::PreFilter { survivors } => {
                Some(survivors)
            }
            FilterPlan::PostFilter => None,
        };
        let mut user = move |id| user.as_deref_mut().is_none_or(|f| f(id));
        let gate: SearchFilter<'a> = match survivors {
            Some(survivors) => Box::new(move |id| survivors.contains(id) && user(id)),
            None => Box::new(move |id| store.matches(pred, id) && user(id)),
        };
        (None, Some(gate))
    }
}

impl std::fmt::Debug for SearchRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchRequest")
            .field("dim", &self.query.len())
            .field("params", &self.params)
            .field("checkpoints", &self.budgets.len())
            .field("filtered", &self.filter.is_some())
            .field("predicate", &self.predicate)
            .field("deadline", &self.params.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn builder_records_every_field() {
        let q = [1.0f32, 2.0];
        let budgets = [10usize, 20];
        let at = Instant::now() + Duration::from_secs(1);
        let req = SearchRequest::new(&q)
            .params(SearchParams::for_k(3).candidates(30).build().unwrap())
            .checkpoints(&budgets)
            .filter(|id| id > 0)
            .deadline(at)
            .trace();
        assert_eq!(req.query(), &q);
        assert_eq!(req.search_params().k, 3);
        assert_eq!(req.checkpoint_budgets(), &budgets);
        assert!(req.has_filter());
        assert!(req.trace_requested());
        assert_eq!(req.deadline_at(), Some(at));
        let dbg = format!("{req:?}");
        assert!(dbg.contains("filtered: true"), "{dbg}");
    }

    #[test]
    fn defaults_are_plain() {
        let q = [0.0f32];
        let req = SearchRequest::new(&q);
        assert!(!req.has_filter());
        assert!(!req.trace_requested());
        assert!(req.checkpoint_budgets().is_empty());
        assert_eq!(req.deadline_at(), None);
        assert_eq!(req.search_params().k, SearchParams::default().k);
    }
}
