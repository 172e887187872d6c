//! The first-class search response: what every [`Index`](crate::index::Index)
//! returns and what the serving wire layer serializes.
//!
//! Earlier revisions returned an ad-hoc `Vec<(u32, f32)>`-plus-stats struct
//! that the CLI, batch layer, and examples each unpacked differently.
//! [`SearchResponse`] replaces it with a columnar shape — `ids[i]` pairs
//! with `distances[i]` — which is both what JSON clients want on the wire
//! and what recall evaluation wants in memory (id sets without touching
//! distances). The per-query [`ProbeStats`], any requested mid-search
//! [`Checkpoint`]s, and the trace id (when the query was sampled) ride
//! along so a serving front end can return observability handles to the
//! caller.

use crate::probe_loop::StopReason;
use crate::stats::ProbeStats;
use std::time::Duration;

/// Result of one search: the ranked neighbors in columnar form plus the
/// per-query instrumentation.
///
/// Invariant: `ids.len() == distances.len() ≤ k`, jointly ascending by
/// distance. Use [`neighbors`](SearchResponse::neighbors) to iterate pairs
/// or [`ranked`](SearchResponse::ranked) to materialize them.
#[derive(Clone, Debug, Default)]
pub struct SearchResponse {
    /// Neighbor item ids, ascending by distance.
    pub ids: Vec<u32>,
    /// Squared (or metric-specific) distances, parallel to `ids`.
    pub distances: Vec<f32>,
    /// Probe instrumentation for this query.
    pub stats: ProbeStats,
    /// Mid-search snapshots, one per budget the request asked for via
    /// [`SearchRequest::checkpoints`](crate::request::SearchRequest::checkpoints);
    /// empty otherwise.
    pub checkpoints: Vec<Checkpoint>,
    /// Trace id when this query was sampled (or opted in) by an enabled
    /// tracing registry; `None` otherwise. Clients can quote it back to
    /// correlate with `trace-dump` output.
    pub trace_id: Option<u64>,
    /// Recall@k the calibration model predicted for this result, when the
    /// search ran under a [`recall_target`](crate::engine::SearchParams::recall_target)
    /// and the engine had a calibrated [`RecallModel`](crate::recall::RecallModel)
    /// covering the strategy; `None` otherwise. Compare against measured
    /// recall to audit the SLA (`gqr-bench`'s recall bench does exactly
    /// that).
    pub predicted_recall: Option<f32>,
    /// Which stopping criterion ended the search.
    pub stop_reason: StopReason,
}

impl SearchResponse {
    /// Build a response from ranked `(id, distance)` pairs (ascending by
    /// distance, as produced by the top-k heap) and the probe stats.
    pub fn from_ranked(neighbors: Vec<(u32, f32)>, stats: ProbeStats) -> SearchResponse {
        let mut ids = Vec::with_capacity(neighbors.len());
        let mut distances = Vec::with_capacity(neighbors.len());
        for (id, d) in neighbors {
            ids.push(id);
            distances.push(d);
        }
        SearchResponse {
            ids,
            distances,
            stats,
            checkpoints: Vec::new(),
            trace_id: None,
            predicted_recall: None,
            stop_reason: StopReason::default(),
        }
    }

    /// Number of neighbors returned (≤ the requested k).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no neighbor was found.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterate `(id, distance)` pairs, ascending by distance.
    pub fn neighbors(&self) -> impl ExactSizeIterator<Item = (u32, f32)> + '_ {
        self.ids.iter().copied().zip(self.distances.iter().copied())
    }

    /// Materialize the ranked `(id, distance)` pairs.
    pub fn ranked(&self) -> Vec<(u32, f32)> {
        self.neighbors().collect()
    }

    /// The closest neighbor, if any.
    pub fn nearest(&self) -> Option<(u32, f32)> {
        self.neighbors().next()
    }
}

/// State of the running top-k recorded mid-search (drives recall–time and
/// recall–items curves without re-running the search per budget).
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Candidate budget this checkpoint corresponds to.
    pub budget: usize,
    /// Items actually evaluated when the checkpoint fired (≥ budget unless
    /// the table ran out).
    pub items_evaluated: usize,
    /// Buckets probed so far.
    pub buckets_probed: usize,
    /// Wall-clock time since the search started (includes the prober's
    /// upfront pass over every occupied bucket, so HR/QR's slow start is
    /// visible here).
    pub elapsed: Duration,
    /// Unordered ids of the current top-k.
    pub top_ids: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ranked_splits_columns_in_order() {
        let res =
            SearchResponse::from_ranked(vec![(7, 0.5), (2, 1.25), (9, 4.0)], ProbeStats::default());
        assert_eq!(res.ids, vec![7, 2, 9]);
        assert_eq!(res.distances, vec![0.5, 1.25, 4.0]);
        assert_eq!(res.len(), 3);
        assert!(!res.is_empty());
        assert_eq!(res.nearest(), Some((7, 0.5)));
        assert_eq!(res.ranked(), vec![(7, 0.5), (2, 1.25), (9, 4.0)]);
        assert_eq!(res.trace_id, None);
        assert!(res.checkpoints.is_empty());
    }

    #[test]
    fn empty_response_is_well_formed() {
        let res = SearchResponse::default();
        assert!(res.is_empty());
        assert_eq!(res.len(), 0);
        assert_eq!(res.nearest(), None);
        assert_eq!(res.neighbors().len(), 0);
    }
}
