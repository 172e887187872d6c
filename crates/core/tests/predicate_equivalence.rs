//! Structured-predicate equivalence: whatever arm the planner picks
//! (brute-force over the survivor bitmap, bitmap pre-filter, or row-level
//! post-filter), the response must be bit-identical to the closure
//! post-filter escape hatch running `store.matches` per row — same ids,
//! same distances, same order — across every probe strategy and code
//! width. The closure arm is the trivially-correct oracle, so this pins
//! the zero-false-negative contract end to end.

use gqr_core::attrs::{AttrValue, AttributeStore, FilterPlan, Predicate, POSTINGS_MAX_DISTINCT};
use gqr_core::code::CodeWord;
use gqr_core::engine::{ProbeStrategy, QueryEngine, SearchParams};
use gqr_core::metrics::MetricsRegistry;
use gqr_core::request::SearchRequest;
use gqr_core::shard::ShardedIndex;
use gqr_core::table::HashTable;
use gqr_l2h::lsh::Lsh;

const N: usize = 2000;
const DIM: usize = 2;

fn fixture_data() -> Vec<f32> {
    let mut data = Vec::new();
    for i in 0..N as u32 {
        data.push((i % 40) as f32);
        data.push((i / 40) as f32 + 0.001 * (i % 11) as f32);
    }
    data
}

/// Four columns that exercise every index shape: a 2-symbol tag, a
/// low-cardinality int (per-value postings), a high-cardinality int
/// (bloom + min/max only), and a skewed tag whose majority value pushes
/// selectivity past the pre-filter cutoff.
fn fixture_attrs() -> AttributeStore {
    let parity: Vec<&str> = (0..N)
        .map(|i| if i % 2 == 0 { "even" } else { "odd" })
        .collect();
    let bucket: Vec<i64> = (0..N).map(|i| (i % 10) as i64).collect();
    let uid: Vec<i64> = (0..N).map(|i| i as i64 * 7 - 3).collect();
    let heavy: Vec<&str> = (0..N)
        .map(|i| match i % 10 {
            0..=6 => "a",
            7 | 8 => "b",
            _ => "c",
        })
        .collect();
    assert!(
        uid.len() > POSTINGS_MAX_DISTINCT,
        "uid must overflow the postings limit to exercise the bloom path"
    );
    AttributeStore::builder(N)
        .tag_column("parity", parity)
        .unwrap()
        .int_column("bucket", bucket)
        .unwrap()
        .int_column("uid", uid)
        .unwrap()
        .tag_column("heavy", heavy)
        .unwrap()
        .build()
}

/// The predicates under test, with the planner arm each must land on at a
/// 300-candidate budget (None = skip the arm assertion, the plan depends
/// on the budget variant).
fn fixture_predicates() -> Vec<(&'static str, Predicate, Option<&'static str>)> {
    vec![
        (
            "eq-low-card-int (brute arm)",
            Predicate::eq("bucket", AttrValue::Int(3)),
            Some("brute"),
        ),
        (
            "eq-tag-half (pre arm)",
            Predicate::eq("parity", AttrValue::Str("even".into())),
            Some("pre"),
        ),
        (
            "eq-tag-majority (post arm, exact selectivity)",
            Predicate::eq("heavy", AttrValue::Str("a".into())),
            Some("post"),
        ),
        (
            "range-high-card-int (post arm, estimated selectivity)",
            Predicate::range("uid", Some(700), Some(9000)).unwrap(),
            Some("post"),
        ),
        (
            "nested and/or/not",
            Predicate::and(vec![
                Predicate::eq("parity", AttrValue::Str("even".into())),
                Predicate::or(vec![
                    Predicate::is_in("bucket", vec![AttrValue::Int(1), AttrValue::Int(4)]).unwrap(),
                    Predicate::negate(Predicate::eq("heavy", AttrValue::Str("a".into()))),
                ])
                .unwrap(),
            ])
            .unwrap(),
            None,
        ),
        (
            "empty survivor set",
            Predicate::eq("bucket", AttrValue::Int(99)),
            Some("brute"),
        ),
    ]
}

fn strategies() -> Vec<ProbeStrategy> {
    vec![
        ProbeStrategy::GenerateQdRanking,
        ProbeStrategy::GenerateHammingRanking,
        ProbeStrategy::HammingRanking,
        ProbeStrategy::QdRanking,
        ProbeStrategy::MultiIndexHashing { blocks: 3 },
    ]
}

/// Run the full strategy × predicate × budget matrix at one code width.
fn check_equivalence_at_width<C: CodeWord>() {
    let data = fixture_data();
    let model = Lsh::train(&data, DIM, 9, 5).unwrap();
    let table: HashTable<C> = HashTable::build(&model, &data, DIM);
    let attrs = fixture_attrs();
    let mut engine = QueryEngine::new(&model, &table, &data, DIM);
    engine.enable_mih(3);
    let engine = engine.with_attrs(&attrs);
    let queries = [[20.0f32, 25.0], [13.0, 29.0], [0.5, 0.5]];

    for strat in strategies() {
        // usize::MAX exhausts every bucket, so even the brute-force arm
        // (which ignores probing entirely) must agree with the oracle;
        // 300 keeps both runs budgeted and pins the pre/post arms.
        for n_candidates in [usize::MAX, 300] {
            let params = SearchParams {
                k: 10,
                n_candidates,
                strategy: strat,
                early_stop: false,
                ..Default::default()
            };
            for (label, pred, _) in fixture_predicates() {
                attrs.validate(&pred).unwrap();
                // Budgeted probe runs and exhaustive brute runs walk rows
                // in different orders, so agreement is only guaranteed
                // when both runs see the whole survivor set.
                let survivors = attrs
                    .exact_bitmap(&pred)
                    .map(|bm| bm.len() as usize)
                    .unwrap_or(usize::MAX);
                if n_candidates < usize::MAX && survivors <= n_candidates {
                    continue;
                }
                for q in &queries {
                    let via_pred =
                        engine.run(SearchRequest::new(q).params(params).predicate(pred.clone()));
                    let via_closure = engine.run(
                        SearchRequest::new(q)
                            .params(params)
                            .filter(|id| attrs.matches(&pred, id)),
                    );
                    assert_eq!(
                        via_pred.ranked(),
                        via_closure.ranked(),
                        "{label}: predicate arm diverged from the closure oracle \
                         ({} bits, {}, budget {n_candidates})",
                        C::BITS,
                        strat.name(),
                    );
                    // Zero false negatives, re-checked row by row.
                    assert!(
                        via_pred.ids.iter().all(|&id| attrs.matches(&pred, id)),
                        "{label}: a non-matching id leaked through"
                    );
                }
            }
        }
    }
}

#[test]
fn predicate_arms_match_closure_oracle_32bit() {
    check_equivalence_at_width::<u32>();
}

#[test]
fn predicate_arms_match_closure_oracle_64bit() {
    check_equivalence_at_width::<u64>();
}

#[test]
fn predicate_arms_match_closure_oracle_128bit() {
    check_equivalence_at_width::<u128>();
}

/// The fixture predicates land on the planner arms the matrix above
/// assumes (documented in `fixture_predicates`).
#[test]
fn planner_picks_the_documented_arms() {
    let attrs = fixture_attrs();
    for (label, pred, expect) in fixture_predicates() {
        let Some(expect) = expect else { continue };
        let choice = attrs.plan(&pred, 300);
        let got = match choice.plan {
            FilterPlan::BruteForce { .. } => "brute",
            FilterPlan::PreFilter { .. } => "pre",
            FilterPlan::PostFilter => "post",
        };
        assert_eq!(got, expect, "{label}: unexpected planner arm");
        assert!(
            (0.0..=1.0).contains(&choice.selectivity),
            "{label}: selectivity out of range: {}",
            choice.selectivity
        );
    }
}

/// A sharded index plans a predicate once, against the global candidate
/// budget, exactly as the engine holding the same store does — so at a
/// finite budget every planner arm (the brute sweep included) answers like
/// that engine, down to the probe counters and the stop reason.
#[test]
fn sharded_index_plans_like_the_engine() {
    let data = fixture_data();
    let model = Lsh::train(&data, DIM, 9, 5).unwrap();
    let table: HashTable = HashTable::build(&model, &data, DIM);
    let attrs = fixture_attrs();
    let mut engine = QueryEngine::new(&model, &table, &data, DIM);
    engine.enable_mih(3);
    let engine = engine.with_attrs(&attrs);
    let metrics = MetricsRegistry::enabled();
    let mut index = ShardedIndex::build(&model, &data, DIM, 3)
        .with_attrs(&attrs)
        .with_metrics(metrics.clone());
    index.enable_mih(3);
    let queries = [[20.0f32, 25.0], [13.0, 29.0], [0.5, 0.5]];

    for strat in strategies() {
        let params = SearchParams {
            k: 10,
            n_candidates: 300,
            strategy: strat,
            early_stop: false,
            ..Default::default()
        };
        for (label, pred, arm) in fixture_predicates() {
            // MIH searches shard by shard once it probes; only the brute
            // sweep, which never probes, is one search for it too.
            let mih = matches!(strat, ProbeStrategy::MultiIndexHashing { .. });
            if mih && arm != Some("brute") {
                continue;
            }
            for q in &queries {
                let req = || SearchRequest::new(q).params(params).predicate(pred.clone());
                let want = engine.run(req());
                let got = index.run(req());
                let at = format!("{label} ({}, budget 300)", strat.name());
                assert_eq!(got.ranked(), want.ranked(), "{at}");
                assert_eq!(got.stats, want.stats, "{at}");
                assert_eq!(got.stop_reason, want.stop_reason, "{at}");
            }
        }
    }
    for plan in ["brute", "pre", "post"] {
        let name = format!("gqr_filter_plans_total{{plan=\"{plan}\"}}");
        assert!(
            metrics.counter_value(&name).is_some_and(|n| n > 0),
            "the sharded index never planned {plan}"
        );
    }
}

/// A predicate combined with a closure applies BOTH gates, whatever arm
/// the planner picks.
#[test]
fn predicate_and_closure_compose() {
    let data = fixture_data();
    let model = Lsh::train(&data, DIM, 9, 5).unwrap();
    let table: HashTable = HashTable::build(&model, &data, DIM);
    let attrs = fixture_attrs();
    let engine = QueryEngine::new(&model, &table, &data, DIM).with_attrs(&attrs);
    let params = SearchParams {
        k: 10,
        n_candidates: usize::MAX,
        strategy: ProbeStrategy::GenerateQdRanking,
        ..Default::default()
    };
    let pred = Predicate::eq("parity", AttrValue::Str("even".into()));
    let res = engine.run(
        SearchRequest::new(&[20.0, 25.0])
            .params(params)
            .predicate(pred.clone())
            .filter(|id| id % 3 == 0),
    );
    assert!(!res.is_empty());
    assert!(res.ids.iter().all(|&id| id % 2 == 0 && id % 3 == 0));
}

mod zero_false_negatives {
    use super::*;
    use gqr_core::attrs::Bloom;
    use proptest::prelude::*;

    /// A store over arbitrary low-cardinality columns; every exact bitmap
    /// the planner could use must agree row-for-row with `matches`.
    fn arb_store_and_pred() -> impl Strategy<Value = (AttributeStore, Predicate)> {
        let cols = (
            prop::collection::vec(0i64..20, 30..300),
            prop::collection::vec(0usize..4usize, 30..300),
        );
        (cols, 0i64..25, 0usize..5usize, 0u8..2).prop_map(
            |((ints, tag_picks), probe_int, probe_tag, negate)| {
                let negate = negate == 1;
                let n = ints.len().min(tag_picks.len());
                let tags = ["red", "green", "blue", "gray", "teal"];
                let tag_vals: Vec<&str> = tag_picks[..n].iter().map(|&i| tags[i]).collect();
                let store = AttributeStore::builder(n)
                    .int_column("x", ints[..n].to_vec())
                    .unwrap()
                    .tag_column("t", tag_vals)
                    .unwrap()
                    .build();
                let leaf = if probe_int % 2 == 0 {
                    Predicate::eq("x", AttrValue::Int(probe_int))
                } else {
                    Predicate::and(vec![
                        Predicate::range("x", Some(probe_int - 7), Some(probe_int + 4)).unwrap(),
                        Predicate::eq("t", AttrValue::Str(tags[probe_tag].into())),
                    ])
                    .unwrap()
                };
                let pred = if negate {
                    Predicate::negate(leaf)
                } else {
                    leaf
                };
                (store, pred)
            },
        )
    }

    proptest! {
        /// The survivor bitmap is ground truth: zero false negatives AND
        /// zero false positives against per-row evaluation.
        #[test]
        fn exact_bitmap_agrees_with_row_eval((store, pred) in arb_store_and_pred()) {
            prop_assume!(store.validate(&pred).is_ok());
            if let Some(bm) = store.exact_bitmap(&pred) {
                for id in 0..store.n_items() as u32 {
                    prop_assert_eq!(
                        bm.contains(id),
                        store.matches(&pred, id),
                        "row {} disagrees with the survivor bitmap", id
                    );
                }
            }
            let s = store.selectivity(&pred);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        /// High-cardinality columns route Eq through the bloom filter; a
        /// definite miss may prune, a hit must never drop a matching row.
        #[test]
        fn bloom_backed_eq_never_drops_a_match(
            base in -1_000_000i64..1_000_000,
            step in 1i64..50,
            probe_idx in 0usize..1500,
        ) {
            let n = POSTINGS_MAX_DISTINCT + 200;
            let vals: Vec<i64> = (0..n as i64).map(|i| base + i * step).collect();
            let store = AttributeStore::builder(n)
                .int_column("uid", vals.clone())
                .unwrap()
                .build();
            let probe = vals[probe_idx % n];
            let pred = Predicate::eq("uid", AttrValue::Int(probe));
            // The bloom can only prove absence; the probe value is
            // present, so an exact answer here would be a false negative.
            // (`None` falls back to a row scan: trivially exact.)
            if let Some(bm) = store.exact_bitmap(&pred) {
                for id in 0..n as u32 {
                    prop_assert_eq!(bm.contains(id), store.matches(&pred, id));
                }
            }
            prop_assert!(store.matches(&pred, (probe_idx % n) as u32));
        }

        /// The raw bloom primitive: everything inserted is contained.
        #[test]
        fn bloom_primitive_has_no_false_negatives(
            keys in prop::collection::vec(-1_000_000_000i64..1_000_000_000, 1..400),
        ) {
            let mut bloom = Bloom::with_capacity(keys.len());
            for &k in &keys {
                bloom.insert(Bloom::hash_int(k));
            }
            for &k in &keys {
                prop_assert!(bloom.contains(Bloom::hash_int(k)));
            }
        }
    }
}
