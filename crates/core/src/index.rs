//! The unified front door: one [`Index`] trait over every index shape.
//!
//! Three index types answer k-NN requests in this crate — the
//! [`QueryEngine`] (one table, or the S row-disjoint parts of a
//! [`ShardedIndex`](crate::shard::ShardedIndex)), the multi-table
//! [`MultiTableIndex`], and the epoch-versioned [`MutableIndex`] — and each
//! grew its own ad-hoc search surface over time. [`Index`] is the common
//! denominator: build a [`SearchRequest`], call [`run`](Index::run), get a
//! [`SearchResponse`].
//! Code written against `&dyn Index` (services, benchmarks, evaluation
//! harnesses) works unchanged across all of them; this request/response
//! pair is the only query entry point (the legacy per-feature wrappers
//! are gone).

use crate::attrs::AttributeStore;
use crate::code::CodeWord;
use crate::engine::{QueryEngine, SearchResponse};
use crate::live::MutableIndex;
use crate::metrics::MetricsRegistry;
use crate::multi_table::MultiTableIndex;
use crate::request::SearchRequest;
use gqr_l2h::HashModel;

/// A k-NN index that answers [`SearchRequest`]s.
///
/// Implementations differ in layout (one table, shards, multiple tables,
/// mutable generations) but share the request/response contract: neighbor
/// ids ascend by distance, filters decide candidate eligibility before any
/// distance is computed, and a deadline tightens the soft time limit.
/// Capabilities beyond that contract (pinned-generation queries) stay on
/// the concrete types.
pub trait Index {
    /// Execute one search request.
    fn run(&self, req: SearchRequest<'_>) -> SearchResponse;

    /// Number of items the index currently answers for.
    fn n_items(&self) -> usize;

    /// Dimensionality of the query vectors the index answers. Serving
    /// surfaces reject a query of any other length before submitting it:
    /// [`run`](Index::run) treats a mismatch as a caller bug and panics.
    fn dim(&self) -> usize;

    /// The metrics registry observing this index.
    fn metrics(&self) -> &MetricsRegistry;

    /// The attribute store backing structured predicates, if one is
    /// attached. Serving surfaces use this to validate a request's
    /// [`Predicate`](crate::attrs::Predicate) against the schema before
    /// submitting it; `None` means predicate-carrying requests cannot be
    /// answered.
    fn attrs(&self) -> Option<&AttributeStore> {
        None
    }
}

/// Every shape answers the trait with its inherent methods of the same
/// names.
macro_rules! forward_index {
    ($([$($generics:tt)*] $ty:ty;)*) => {$(
        impl<$($generics)*> Index for $ty {
            fn run(&self, req: SearchRequest<'_>) -> SearchResponse {
                <$ty>::run(self, req)
            }
            fn n_items(&self) -> usize {
                <$ty>::n_items(self)
            }
            fn dim(&self) -> usize {
                <$ty>::dim(self)
            }
            fn metrics(&self) -> &MetricsRegistry {
                <$ty>::metrics(self)
            }
            fn attrs(&self) -> Option<&AttributeStore> {
                <$ty>::attrs(self)
            }
        }
    )*};
}

forward_index! {
    [M: HashModel + ?Sized, C: CodeWord] QueryEngine<'_, M, C>;
    [] MultiTableIndex<'_>;
    [M: HashModel + ?Sized + 'static, C: CodeWord] MutableIndex<M, C>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchParams;
    use crate::shard::ShardedIndex;
    use crate::table::HashTable;
    use gqr_l2h::pcah::Pcah;
    use std::sync::Arc;

    fn grid(n: u32) -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..n {
            data.push((i % 10) as f32 + 0.01 * (i as f32).sin());
            data.push((i / 10) as f32);
        }
        data
    }

    fn run_dyn(index: &dyn Index, q: &[f32], k: usize) -> SearchResponse {
        let params = SearchParams {
            k,
            n_candidates: usize::MAX,
            early_stop: false,
            ..Default::default()
        };
        let res = index.run(SearchRequest::new(q).params(params));
        assert_eq!(res.len(), k);
        assert_eq!(index.dim(), q.len());
        res
    }

    fn query_dyn(index: &dyn Index, q: &[f32], k: usize) -> Vec<u32> {
        run_dyn(index, q, k).ids
    }

    #[test]
    fn every_index_shape_answers_through_the_trait() {
        let data = grid(100);
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        let q = [4.2f32, 3.1];

        let engine = QueryEngine::new(&model, &table, &data, 2);
        let single = run_dyn(&engine, &q, 5);
        let expect = single.ids.clone();
        assert_eq!(Index::n_items(&engine), 100);

        let sharded = ShardedIndex::build(&model, &data, 2, 3);
        assert_eq!(query_dyn(&sharded, &q, 5), expect);
        assert_eq!(Index::n_items(&sharded), 100);

        let mutable: MutableIndex<_> = MutableIndex::build(Arc::new(model.clone()), &data, 2);
        assert_eq!(query_dyn(&mutable, &q, 5), expect);
        assert_eq!(Index::n_items(&mutable), 100);

        let models: Vec<&dyn gqr_l2h::HashModel> = vec![&model];
        let multi = MultiTableIndex::build(models, &data, 2);
        // One table merged with nothing is the plain engine: same loop,
        // same probe order, so the whole response agrees, not just the ids.
        let merged = run_dyn(&multi, &q, 5);
        assert_eq!(merged.ranked(), single.ranked());
        assert_eq!(merged.stats, single.stats);
        assert_eq!(merged.stop_reason, single.stop_reason);
        assert_eq!(Index::n_items(&multi), 100);
    }
}
