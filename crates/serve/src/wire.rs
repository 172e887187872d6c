//! The versioned wire schema: JSON in, JSON out.
//!
//! Request body for `POST /search`:
//!
//! ```json
//! {
//!   "query": [0.1, 0.2, 0.3],
//!   "k": 10,
//!   "candidates": 200,
//!   "strategy": "GQR",
//!   "mih_blocks": 2,
//!   "early_stop": false,
//!   "timeout_ms": 50,
//!   "filter": {"op": "and", "args": [
//!     {"op": "eq", "column": "color", "value": "red"},
//!     {"op": "range", "column": "price", "min": 10, "max": 99}
//!   ]}
//! }
//! ```
//!
//! Only `query` and `k` are required. `strategy` is one of the report names
//! `HR`, `GHR`, `QR`, `GQR`, `MIH` (default `GQR`); `MIH` reads
//! `mih_blocks` (default 2). `timeout_ms` becomes an absolute deadline the
//! moment the request is admitted, so queue wait spends it too.
//! `max_buckets` bounds bucket probes and defaults to
//! [`SearchParams::DEFAULT_BUCKET_CAP`]: the generate-to-probe strategies
//! enumerate a 2^m bucket space, so with wide code words an unreachable
//! candidate budget would otherwise pin a handler until its deadline on
//! every such request. Pass a larger value explicitly to probe deeper.
//! `recall_target` (a number in `(0, 1]`, optional `recall_margin` ≥ 0)
//! switches the engine to adaptive termination against the served index's
//! calibrated recall model; it is mutually exclusive with `candidates`.
//!
//! `filter` is a structured predicate over the index's attribute columns,
//! a tree of `{"op": ...}` objects: `eq` (`column`, `value`), `in`
//! (`column`, `values`, non-empty), `range` (`column`, inclusive `min`
//! and/or `max`, integers only), `and` / `or` (`args`, non-empty), and
//! `not` (`arg`). Values are JSON integers for `int` columns and strings
//! for `tag` columns. The decode is fail-closed — unknown ops, unknown
//! keys inside a filter node, wrong value types, and empty clauses are all
//! 400s — and the server additionally validates column names and types
//! against the served index's schema before running anything.
//!
//! Response body:
//!
//! ```json
//! {
//!   "ids": [5, 9],
//!   "distances": [0.0, 1.4],
//!   "stats": {"buckets_probed": 3, "empty_buckets": 0,
//!             "items_collected": 40, "items_evaluated": 40,
//!             "duplicates_skipped": 0},
//!   "predicted_recall": null,
//!   "trace_id": null
//! }
//! ```
//!
//! `predicted_recall` is the controller's recall estimate at termination
//! (non-null only when the request set `recall_target` and the index
//! carries a calibration model covering the strategy).
//!
//! Errors use one envelope everywhere: `{"error":{"code":C,"message":M}}`
//! with `C` mirroring the HTTP status. Unknown request fields are rejected
//! (fail-closed: a typo'd `candidtes` must not silently run an unbounded
//! scan).

use crate::json::{parse, Json};
use gqr_core::engine::{ParamError, ProbeStrategy, SearchParams};
use gqr_core::{AttrValue, Predicate, SearchResponse};
use std::time::Duration;

/// Decoded `POST /search` body, ready to become a [`SearchParams`].
#[derive(Clone, Debug, PartialEq)]
pub struct WireRequest {
    /// The query vector.
    pub query: Vec<f32>,
    /// Number of neighbors requested.
    pub k: usize,
    /// Candidate budget `N` (defaults to the engine default).
    pub candidates: Option<usize>,
    /// Bucket-probe bound (defaults to
    /// [`SearchParams::DEFAULT_BUCKET_CAP`]).
    pub max_buckets: Option<usize>,
    /// Probing strategy.
    pub strategy: ProbeStrategy,
    /// Early-stop toggle.
    pub early_stop: Option<bool>,
    /// Per-request end-to-end budget, if the client set one.
    pub timeout: Option<Duration>,
    /// Adaptive-termination recall target (mutually exclusive with
    /// `candidates`).
    pub recall_target: Option<f32>,
    /// Confidence margin stacked on `recall_target`.
    pub recall_margin: Option<f32>,
    /// Structured attribute predicate, when the client sent a `filter`.
    pub filter: Option<Predicate>,
}

/// Why a request body was rejected (always maps to HTTP 400).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable cause, safe to echo to the client.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

fn bad(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

/// JSON integer in the i64 range (exact; rejects fractions and values
/// beyond 2^53 where `f64` loses integer precision).
fn as_i64(value: &Json) -> Option<i64> {
    match value {
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
        _ => None,
    }
}

/// Decode one predicate leaf value: JSON integers become
/// [`AttrValue::Int`], strings become [`AttrValue::Str`].
fn decode_attr_value(value: &Json, ctx: &str) -> Result<AttrValue, WireError> {
    if let Some(n) = as_i64(value) {
        return Ok(AttrValue::Int(n));
    }
    if let Some(s) = value.as_str() {
        return Ok(AttrValue::Str(s.to_string()));
    }
    Err(bad(format!("{ctx} must be an integer or a string")))
}

/// Decode a `filter` JSON node into a [`Predicate`], fail-closed: every
/// node needs an `"op"`, carries exactly the keys its op defines, and the
/// decoded tree re-runs the structural checks (non-empty clauses, bounded
/// nesting). Schema validation against a concrete store happens later,
/// server-side.
pub fn decode_predicate(value: &Json) -> Result<Predicate, WireError> {
    let pred = decode_predicate_node(value)?;
    pred.check_shape().map_err(|e| bad(e.to_string()))?;
    Ok(pred)
}

fn decode_predicate_node(value: &Json) -> Result<Predicate, WireError> {
    let members = match value {
        Json::Obj(members) => members,
        _ => return Err(bad("\"filter\" nodes must be JSON objects")),
    };
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("\"filter\" nodes need a string \"op\""))?;
    let allowed: &[&str] = match op {
        "eq" => &["op", "column", "value"],
        "in" => &["op", "column", "values"],
        "range" => &["op", "column", "min", "max"],
        "and" | "or" => &["op", "args"],
        "not" => &["op", "arg"],
        other => {
            return Err(bad(format!(
                "unknown filter op \"{other}\" (expected eq, in, range, and, or, or not)"
            )))
        }
    };
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(bad(format!("unknown key \"{key}\" in \"{op}\" filter")));
        }
    }
    let column = || {
        value
            .get("column")
            .and_then(Json::as_str)
            .filter(|c| !c.is_empty())
            .map(str::to_string)
            .ok_or_else(|| {
                bad(format!(
                    "\"{op}\" filter needs a non-empty string \"column\""
                ))
            })
    };
    match op {
        "eq" => {
            let v = value
                .get("value")
                .ok_or_else(|| bad("\"eq\" filter needs a \"value\""))?;
            Ok(Predicate::Eq {
                column: column()?,
                value: decode_attr_value(v, "\"eq\" \"value\"")?,
            })
        }
        "in" => {
            let items = value
                .get("values")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("\"in\" filter needs an array \"values\""))?;
            let values = items
                .iter()
                .map(|v| decode_attr_value(v, "\"in\" values"))
                .collect::<Result<Vec<_>, _>>()?;
            Predicate::is_in(column()?, values).map_err(|e| bad(e.to_string()))
        }
        "range" => {
            let bound = |key: &str| -> Result<Option<i64>, WireError> {
                match value.get(key) {
                    None | Some(Json::Null) => Ok(None),
                    Some(v) => as_i64(v)
                        .map(Some)
                        .ok_or_else(|| bad(format!("\"range\" \"{key}\" must be an integer"))),
                }
            };
            let (min, max) = (bound("min")?, bound("max")?);
            Predicate::range(column()?, min, max).map_err(|e| bad(e.to_string()))
        }
        "and" | "or" => {
            let items = value
                .get("args")
                .and_then(Json::as_array)
                .ok_or_else(|| bad(format!("\"{op}\" filter needs an array \"args\"")))?;
            let args = items
                .iter()
                .map(decode_predicate_node)
                .collect::<Result<Vec<_>, _>>()?;
            if op == "and" {
                Predicate::and(args).map_err(|e| bad(e.to_string()))
            } else {
                Predicate::or(args).map_err(|e| bad(e.to_string()))
            }
        }
        "not" => {
            let arg = value
                .get("arg")
                .ok_or_else(|| bad("\"not\" filter needs an \"arg\""))?;
            Ok(Predicate::negate(decode_predicate_node(arg)?))
        }
        _ => unreachable!("op already matched against the allowed set"),
    }
}

/// Encode a [`Predicate`] back into the wire JSON shape
/// ([`decode_predicate`]'s inverse). The CLI uses this to build request
/// bodies from parsed `--filter` expressions.
pub fn encode_predicate(pred: &Predicate) -> Json {
    let value_json = |v: &AttrValue| match v {
        AttrValue::Int(n) => Json::Num(*n as f64),
        AttrValue::Str(s) => Json::Str(s.clone()),
    };
    match pred {
        Predicate::Eq { column, value } => Json::Obj(vec![
            ("op".into(), Json::Str("eq".into())),
            ("column".into(), Json::Str(column.clone())),
            ("value".into(), value_json(value)),
        ]),
        Predicate::In { column, values } => Json::Obj(vec![
            ("op".into(), Json::Str("in".into())),
            ("column".into(), Json::Str(column.clone())),
            (
                "values".into(),
                Json::Arr(values.iter().map(value_json).collect()),
            ),
        ]),
        Predicate::Range { column, min, max } => {
            let mut members = vec![
                ("op".into(), Json::Str("range".into())),
                ("column".into(), Json::Str(column.clone())),
            ];
            if let Some(lo) = min {
                members.push(("min".into(), Json::Num(*lo as f64)));
            }
            if let Some(hi) = max {
                members.push(("max".into(), Json::Num(*hi as f64)));
            }
            Json::Obj(members)
        }
        Predicate::And(args) | Predicate::Or(args) => {
            let op = if matches!(pred, Predicate::And(_)) {
                "and"
            } else {
                "or"
            };
            Json::Obj(vec![
                ("op".into(), Json::Str(op.into())),
                (
                    "args".into(),
                    Json::Arr(args.iter().map(encode_predicate).collect()),
                ),
            ])
        }
        Predicate::Not(arg) => Json::Obj(vec![
            ("op".into(), Json::Str("not".into())),
            ("arg".into(), encode_predicate(arg)),
        ]),
    }
}

/// Decode and validate a `POST /search` body.
pub fn decode_search(body: &[u8]) -> Result<WireRequest, WireError> {
    let doc = parse(body).map_err(|e| bad(e.to_string()))?;
    let members = match &doc {
        Json::Obj(members) => members,
        _ => return Err(bad("request body must be a JSON object")),
    };
    let mut query = None;
    let mut k = None;
    let mut candidates = None;
    let mut max_buckets = None;
    let mut strategy_name: Option<String> = None;
    let mut mih_blocks = None;
    let mut early_stop = None;
    let mut timeout = None;
    let mut recall_target = None;
    let mut recall_margin = None;
    let mut filter = None;
    for (key, value) in members {
        match key.as_str() {
            "query" => {
                let items = value
                    .as_array()
                    .ok_or_else(|| bad("\"query\" must be an array of numbers"))?;
                let mut q = Vec::with_capacity(items.len());
                for item in items {
                    let n = item
                        .as_f64()
                        .ok_or_else(|| bad("\"query\" must be an array of numbers"))?
                        as f32;
                    // The parser admits only finite doubles, but one past
                    // f32::MAX still narrows to an infinity.
                    if !n.is_finite() {
                        return Err(bad("\"query\" values must fit in an f32"));
                    }
                    q.push(n);
                }
                if q.is_empty() {
                    return Err(bad("\"query\" must not be empty"));
                }
                query = Some(q);
            }
            "k" => {
                let n = value
                    .as_u64()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("\"k\" must be a positive integer"))?;
                k = Some(n as usize);
            }
            "candidates" => {
                let n = value
                    .as_u64()
                    .ok_or_else(|| bad("\"candidates\" must be a non-negative integer"))?;
                candidates = Some(n as usize);
            }
            "max_buckets" => {
                let n = value
                    .as_u64()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("\"max_buckets\" must be a positive integer"))?;
                max_buckets = Some(n as usize);
            }
            "strategy" => {
                let s = value
                    .as_str()
                    .ok_or_else(|| bad("\"strategy\" must be a string"))?;
                strategy_name = Some(s.to_string());
            }
            "mih_blocks" => {
                let n = value
                    .as_u64()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("\"mih_blocks\" must be a positive integer"))?;
                mih_blocks = Some(n as usize);
            }
            "early_stop" => {
                let b = value
                    .as_bool()
                    .ok_or_else(|| bad("\"early_stop\" must be a boolean"))?;
                early_stop = Some(b);
            }
            "timeout_ms" => {
                let n = value
                    .as_u64()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("\"timeout_ms\" must be a positive integer"))?;
                timeout = Some(Duration::from_millis(n));
            }
            "recall_target" => {
                let t = value
                    .as_f64()
                    .filter(|t| t.is_finite() && *t > 0.0 && *t <= 1.0)
                    .ok_or_else(|| bad("\"recall_target\" must be a number in (0, 1]"))?;
                recall_target = Some(t as f32);
            }
            "recall_margin" => {
                let m = value
                    .as_f64()
                    .filter(|m| m.is_finite() && *m >= 0.0)
                    .ok_or_else(|| bad("\"recall_margin\" must be a non-negative number"))?;
                recall_margin = Some(m as f32);
            }
            "filter" => {
                filter = Some(decode_predicate(value)?);
            }
            other => return Err(bad(format!("unknown field \"{other}\""))),
        }
    }
    let query = query.ok_or_else(|| bad("missing required field \"query\""))?;
    let k = k.ok_or_else(|| bad("missing required field \"k\""))?;
    let strategy = match strategy_name.as_deref() {
        None | Some("GQR") => ProbeStrategy::GenerateQdRanking,
        Some("QR") => ProbeStrategy::QdRanking,
        Some("HR") => ProbeStrategy::HammingRanking,
        Some("GHR") => ProbeStrategy::GenerateHammingRanking,
        Some("MIH") => ProbeStrategy::MultiIndexHashing {
            blocks: mih_blocks.unwrap_or(2),
        },
        Some(other) => {
            return Err(bad(format!(
                "unknown strategy \"{other}\" (expected HR, GHR, QR, GQR, or MIH)"
            )))
        }
    };
    if mih_blocks.is_some() && !matches!(strategy, ProbeStrategy::MultiIndexHashing { .. }) {
        return Err(bad(
            "\"mih_blocks\" is only valid with \"strategy\": \"MIH\"",
        ));
    }
    if recall_target.is_some() && candidates.is_some() {
        return Err(bad(
            "\"recall_target\" is mutually exclusive with \"candidates\"",
        ));
    }
    if recall_margin.is_some() && recall_target.is_none() {
        return Err(bad("\"recall_margin\" requires \"recall_target\""));
    }
    Ok(WireRequest {
        query,
        k,
        candidates,
        max_buckets,
        strategy,
        early_stop,
        timeout,
        recall_target,
        recall_margin,
        filter,
    })
}

impl WireRequest {
    /// Materialize engine parameters (deadline and client id are stamped by
    /// the server at admission time, not here).
    pub fn to_params(&self) -> Result<SearchParams, ParamError> {
        let mut b = SearchParams::for_k(self.k).strategy(self.strategy);
        if let Some(n) = self.candidates {
            b = b.candidates(n);
        }
        // Always bound bucket probes: over HTTP an unbounded generate
        // enumeration is a denial-of-service hazard at wide code widths.
        b = b.max_buckets(self.max_buckets.unwrap_or(SearchParams::DEFAULT_BUCKET_CAP));
        if let Some(es) = self.early_stop {
            b = b.early_stop(es);
        }
        if let Some(t) = self.recall_target {
            b = b.recall_target(t);
        }
        if let Some(m) = self.recall_margin {
            b = b.recall_margin(m);
        }
        b.build()
    }
}

/// Encode a [`SearchResponse`] as the wire JSON body.
pub fn encode_response(res: &SearchResponse) -> String {
    let ids = Json::Arr(res.ids.iter().map(|&id| Json::Num(id as f64)).collect());
    let distances = Json::Arr(res.distances.iter().map(|&d| Json::Num(d as f64)).collect());
    let stats = Json::Obj(vec![
        (
            "buckets_probed".into(),
            Json::Num(res.stats.buckets_probed as f64),
        ),
        (
            "empty_buckets".into(),
            Json::Num(res.stats.empty_buckets as f64),
        ),
        (
            "items_collected".into(),
            Json::Num(res.stats.items_collected as f64),
        ),
        (
            "items_evaluated".into(),
            Json::Num(res.stats.items_evaluated as f64),
        ),
        (
            "duplicates_skipped".into(),
            Json::Num(res.stats.duplicates_skipped as f64),
        ),
    ]);
    let predicted_recall = match res.predicted_recall {
        Some(p) => Json::Num(p as f64),
        None => Json::Null,
    };
    let trace_id = match res.trace_id {
        Some(id) => Json::Str(format!("{id:016x}")),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("ids".into(), ids),
        ("distances".into(), distances),
        ("stats".into(), stats),
        ("predicted_recall".into(), predicted_recall),
        ("trace_id".into(), trace_id),
    ])
    .to_string()
}

/// Encode the error envelope `{"error":{"code":...,"message":...}}`.
pub fn encode_error(code: u16, message: &str) -> String {
    Json::Obj(vec![(
        "error".into(),
        Json::Obj(vec![
            ("code".into(), Json::Num(code as f64)),
            ("message".into(), Json::Str(message.to_string())),
        ]),
    )])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqr_core::stats::ProbeStats;

    #[test]
    fn decodes_a_full_request() {
        let body = br#"{"query":[1,2.5,-3],"k":5,"candidates":100,"strategy":"MIH","mih_blocks":3,"early_stop":false,"timeout_ms":25}"#;
        let req = decode_search(body).unwrap();
        assert_eq!(req.query, vec![1.0, 2.5, -3.0]);
        assert_eq!(req.k, 5);
        assert_eq!(req.candidates, Some(100));
        assert_eq!(req.strategy, ProbeStrategy::MultiIndexHashing { blocks: 3 });
        assert_eq!(req.early_stop, Some(false));
        assert_eq!(req.timeout, Some(Duration::from_millis(25)));
        let params = req.to_params().unwrap();
        assert_eq!(params.k, 5);
        assert_eq!(params.n_candidates, 100);
    }

    #[test]
    fn query_values_at_the_f32_edge_decode() {
        let req = decode_search(br#"{"query":[3.4028234e38,-3.4028234e38,1e-50],"k":1}"#).unwrap();
        assert_eq!(req.query, vec![f32::MAX, f32::MIN, 0.0]);
    }

    #[test]
    fn minimal_request_defaults_to_gqr() {
        let req = decode_search(br#"{"query":[0.5],"k":1}"#).unwrap();
        assert_eq!(req.strategy, ProbeStrategy::GenerateQdRanking);
        assert_eq!(req.candidates, None);
        assert_eq!(req.timeout, None);
    }

    #[test]
    fn rejects_bad_requests() {
        for (body, needle) in [
            (&br#"{"k":3}"#[..], "query"),
            (br#"{"query":[1],"k":0}"#, "k"),
            (br#"{"query":[],"k":3}"#, "query"),
            (br#"{"query":[1],"k":3,"bogus":1}"#, "bogus"),
            (br#"{"query":[1],"k":3,"strategy":"ZZZ"}"#, "strategy"),
            (br#"{"query":[1],"k":3,"mih_blocks":2}"#, "mih_blocks"),
            (br#"{"query":["a"],"k":3}"#, "query"),
            (br#"{"query":[1e39,0.5],"k":1}"#, "f32"),
            (br#"{"query":[0.5,-1e39],"k":1}"#, "f32"),
            (br#"[1,2,3]"#, "object"),
            (br#"{"query":[1],"k":3"#, "JSON"),
            (br#"{"query":[1],"k":3,"recall_target":0}"#, "recall_target"),
            (
                br#"{"query":[1],"k":3,"recall_target":1.5}"#,
                "recall_target",
            ),
            (
                br#"{"query":[1],"k":3,"recall_target":0.9,"candidates":10}"#,
                "mutually exclusive",
            ),
            (
                br#"{"query":[1],"k":3,"recall_margin":0.1}"#,
                "recall_target",
            ),
            (
                br#"{"query":[1],"k":3,"recall_target":0.9,"recall_margin":-1}"#,
                "recall_margin",
            ),
        ] {
            let err = decode_search(body).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{}: expected {needle:?} in {:?}",
                String::from_utf8_lossy(body),
                err.message
            );
        }
    }

    #[test]
    fn decodes_a_nested_filter() {
        let body = br#"{"query":[1],"k":3,"filter":{"op":"and","args":[
            {"op":"eq","column":"color","value":"red"},
            {"op":"range","column":"price","min":10,"max":99},
            {"op":"not","arg":{"op":"in","column":"size","values":["s","m"]}}
        ]}}"#;
        let req = decode_search(body).unwrap();
        let pred = req.filter.expect("filter decoded");
        let Predicate::And(args) = &pred else {
            panic!("expected And, got {pred:?}");
        };
        assert_eq!(args.len(), 3);
        assert_eq!(
            args[0],
            Predicate::Eq {
                column: "color".into(),
                value: AttrValue::Str("red".into()),
            }
        );
        assert_eq!(
            args[1],
            Predicate::Range {
                column: "price".into(),
                min: Some(10),
                max: Some(99),
            }
        );
        assert!(matches!(&args[2], Predicate::Not(_)));
    }

    #[test]
    fn filter_encoding_round_trips() {
        let pred = Predicate::and(vec![
            Predicate::Eq {
                column: "color".into(),
                value: AttrValue::Str("red".into()),
            },
            Predicate::Or(vec![
                Predicate::Range {
                    column: "price".into(),
                    min: None,
                    max: Some(42),
                },
                Predicate::In {
                    column: "price".into(),
                    values: vec![AttrValue::Int(-7), AttrValue::Int(1000)],
                },
            ]),
            Predicate::negate(Predicate::Eq {
                column: "price".into(),
                value: AttrValue::Int(0),
            }),
        ])
        .unwrap();
        let encoded = encode_predicate(&pred);
        // Golden wire shape: op-discriminated objects all the way down.
        assert_eq!(
            encoded.to_string(),
            concat!(
                r#"{"op":"and","args":[{"op":"eq","column":"color","value":"red"},"#,
                r#"{"op":"or","args":[{"op":"range","column":"price","max":42},"#,
                r#"{"op":"in","column":"price","values":[-7,1000]}]},"#,
                r#"{"op":"not","arg":{"op":"eq","column":"price","value":0}}]}"#
            )
        );
        let back = decode_predicate(&encoded).unwrap();
        assert_eq!(back, pred);
    }

    #[test]
    fn rejects_bad_filters() {
        for (filter, needle) in [
            (r#"[1]"#, "object"),
            (r#"{"column":"c","value":1}"#, "op"),
            (r#"{"op":"between","column":"c"}"#, "unknown filter op"),
            (r#"{"op":"eq","column":"c","value":1,"bogus":2}"#, "bogus"),
            (r#"{"op":"eq","column":"","value":1}"#, "column"),
            (r#"{"op":"eq","column":"c"}"#, "value"),
            (r#"{"op":"eq","column":"c","value":1.5}"#, "integer"),
            (r#"{"op":"eq","column":"c","value":true}"#, "integer"),
            (r#"{"op":"in","column":"c","values":[]}"#, "at least one"),
            (r#"{"op":"range","column":"c"}"#, "at least one of"),
            (r#"{"op":"range","column":"c","min":5,"max":1}"#, "exceeds"),
            (r#"{"op":"range","column":"c","min":0.5}"#, "integer"),
            (r#"{"op":"and","args":[]}"#, "at least one"),
            (r#"{"op":"or","args":1}"#, "args"),
            (r#"{"op":"not"}"#, "arg"),
        ] {
            let body = format!(r#"{{"query":[1],"k":3,"filter":{filter}}}"#);
            let err = decode_search(body.as_bytes()).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{filter}: expected {needle:?} in {:?}",
                err.message
            );
        }
    }

    #[test]
    fn filter_nesting_depth_is_bounded() {
        let mut filter = r#"{"op":"eq","column":"c","value":1}"#.to_string();
        for _ in 0..Predicate::MAX_DEPTH {
            filter = format!(r#"{{"op":"not","arg":{filter}}}"#);
        }
        let body = format!(r#"{{"query":[1],"k":3,"filter":{filter}}}"#);
        let err = decode_search(body.as_bytes()).unwrap_err();
        assert!(
            err.message.contains("nesting"),
            "expected depth rejection, got {:?}",
            err.message
        );
    }

    #[test]
    fn golden_response_encoding() {
        let mut res = SearchResponse::from_ranked(
            vec![(5, 0.0), (9, 1.5)],
            ProbeStats {
                buckets_probed: 3,
                empty_buckets: 1,
                items_collected: 40,
                items_evaluated: 38,
                duplicates_skipped: 0,
            },
        );
        res.trace_id = Some(0xabc);
        let got = encode_response(&res);
        let want = concat!(
            r#"{"ids":[5,9],"distances":[0,1.5],"#,
            r#""stats":{"buckets_probed":3,"empty_buckets":1,"items_collected":40,"#,
            r#""items_evaluated":38,"duplicates_skipped":0},"#,
            r#""predicted_recall":null,"trace_id":"0000000000000abc"}"#
        );
        assert_eq!(got, want);
        // And the envelope round-trips through our own parser.
        let doc = crate::json::parse(got.as_bytes()).unwrap();
        assert_eq!(doc.get("ids").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn recall_target_maps_to_adaptive_params() {
        let req = decode_search(br#"{"query":[1],"k":3,"recall_target":0.9,"recall_margin":0.05}"#)
            .unwrap();
        assert_eq!(req.recall_target, Some(0.9));
        assert_eq!(req.recall_margin, Some(0.05));
        let params = req.to_params().unwrap();
        let t = params.recall_target.expect("recall target lifted");
        assert_eq!(t.target, 0.9);
        assert_eq!(t.margin, 0.05);
        assert_eq!(params.n_candidates, usize::MAX);
    }

    #[test]
    fn predicted_recall_encodes_as_number() {
        let mut res = SearchResponse::from_ranked(vec![(1, 0.5)], ProbeStats::default());
        res.predicted_recall = Some(0.75);
        let got = encode_response(&res);
        assert!(
            got.contains(r#""predicted_recall":0.75"#),
            "missing predicted_recall: {got}"
        );
    }

    #[test]
    fn golden_error_encoding() {
        assert_eq!(
            encode_error(429, "quota exhausted"),
            r#"{"error":{"code":429,"message":"quota exhausted"}}"#
        );
    }
}
