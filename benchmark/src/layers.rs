//! The layer pass: after the measured window, replay the same requests
//! step by step through each layer's public functions, every call wrapped in
//! a benchmark-side span, and read the per-layer budget off the spans.
//!
//! The replay is also an oracle: gathering the probed buckets and scoring
//! them by hand must give the engine's top-k bit for bit.

use crate::client::{Answer, Conn};
use crate::fixture::{mean_recall, Class, Fixture, Request, N_QUERIES};
use crate::live::{OpKind, WriteLog};
use crate::stats::percentile_of;
use crate::window::{class_p50_us, WindowResult};
use crate::workload::{Handles, Running};
use gqr::core::code::typed_encoding;
use gqr::core::probe::mih::MihIndex;
use gqr::core::topk::TopK;
use gqr::core::{GenerateQdRanking, HammingRanking, Prober, QdRanking};
use gqr::l2h::HashModel;
use gqr::linalg::kernels::ScoreBlock;
use gqr::linalg::vecops::Metric;
use gqr::prelude::*;
use gqr::serve::{http, wire};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests the layer pass sends and replays.
pub const TRACED: usize = 2000;

/// Every per-layer metric, in report order, with its unit. A layer the
/// workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.qps", "1/s"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.cpu_us_per_request", "us"),
    ("reference.qps", "1/s"),
    ("reference.latency_p50_ms", "ms"),
    ("reference.latency_p99_ms", "ms"),
    ("reference.cpu_us_per_request", "us"),
    ("serve.http_read_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("executor.handoff_us", "us"),
    ("l2h.encode_query_us", "us"),
    ("l2h.train_ms", "ms"),
    ("probe.generate_us", "us"),
    ("probe.reset_us", "us"),
    ("probe.ns_per_bucket", "ns"),
    ("probe.empty_bucket_share", "ratio"),
    ("mih.search_us", "us"),
    ("table.lookup_ns", "ns"),
    ("table.build_ms", "ms"),
    ("table.bytes_per_item", "B"),
    ("table.buckets", "count"),
    ("kernels.evaluate_us", "us"),
    ("kernels.ns_per_row", "ns"),
    ("engine.run_us", "us"),
    ("engine.self_us", "us"),
    ("engine.buckets_probed", "count"),
    ("engine.items_evaluated", "count"),
    ("engine.replay_mismatch", "count"),
    ("shard.overhead_us", "us"),
    ("attrs.plan_us", "us"),
    ("attrs.bitmap_us", "us"),
    ("attrs.selectivity", "ratio"),
    ("attrs.build_ms", "ms"),
    ("recall.calibrate_s", "s"),
    ("recall.buckets_at_target", "count"),
    ("recall.predicted_minus_achieved", "ratio"),
    ("live.run_us", "us"),
    ("live.read_overhead_x", "x"),
    ("live.pin_ns", "ns"),
    ("live.insert_us", "us"),
    ("live.delete_us", "us"),
    ("live.upsert_us", "us"),
    ("live.write_p50_us", "us"),
    ("live.write_p99_us", "us"),
    ("live.write_stall_max_ms", "ms"),
    ("live.compactions", "count"),
    ("live.compact_ms", "ms"),
    ("live.writer_lag_p99_us", "us"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.from_snapshot_ms", "ms"),
    ("persist.snapshot_bytes_per_item", "B"),
    ("metrics.enabled_overhead_pct", "%"),
    ("class.gqr-rt.p50_us", "us"),
    ("class.mih.p50_us", "us"),
    ("class.hr.p50_us", "us"),
    ("class.qr.p50_us", "us"),
    ("class.f33.p50_us", "us"),
    ("class.f01.p50_us", "us"),
    ("client.roundtrip_us", "us"),
    ("client.unattributed_us", "us"),
    ("client.unattributed_share", "ratio"),
    ("trace.span_overhead_ns", "ns"),
];

/// The per-layer values of one run, in `PER_LAYER` order.
pub struct LayerMetrics(Vec<f64>);

impl LayerMetrics {
    fn zeroed() -> LayerMetrics {
        LayerMetrics(vec![0.0; PER_LAYER.len()])
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0[slot] = value;
    }

    /// `(name, unit, value)` in report order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER
            .iter()
            .zip(&self.0)
            .map(|(&(name, unit), &value)| (name, unit, value))
    }
}

/// One benchmark-side span. `parent` is the index of the span that caused
/// it; spans of one request share `request`.
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans stay in memory and are written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(TRACED * 16),
        }
    }

    fn begin(&mut self, request: usize, name: &'static str, parent: Option<u32>) -> u32 {
        self.spans.push(Span {
            request: request as u32,
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        let id = self.spans.len() - 1;
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        id as u32
    }

    fn end(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Duration in ns of every span with this name, in request order.
    fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// p50 in microseconds over the spans with this name; 0 when none.
    fn p50_us(&self, name: &str) -> f64 {
        percentile_of(&mut self.durations(name), 0.50) as f64 / 1e3
    }

    /// One JSON object per line: `{request_id, name, parent, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"request_id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What the window and the checks after it hand to the layer pass.
pub struct WindowFacts<'a> {
    pub window: &'a WindowResult,
    /// `live-rw`: every executed write, and the index epoch when the writer
    /// stopped.
    pub writes: &'a [WriteLog],
    pub epoch_after_writes: u64,
}

/// The window's raw numbers — what the end-to-end ratios are made of — as
/// per-layer rows. Printed with every run, traced or not.
pub fn window_rows(w: &WindowResult) -> [(&'static str, f64); 8] {
    [
        ("client.qps", w.program.qps),
        ("client.latency_p50_ms", w.program.p50_ms),
        ("client.latency_p99_ms", w.program.p99_ms),
        ("client.cpu_us_per_request", w.cpu_us_per_request),
        ("reference.qps", w.reference.qps),
        ("reference.latency_p50_ms", w.reference.p50_ms),
        ("reference.latency_p99_ms", w.reference.p99_ms),
        (
            "reference.cpu_us_per_request",
            w.reference_cpu_us_per_request,
        ),
    ]
}

fn p50_us(values: &mut [u64]) -> f64 {
    percentile_of(values, 0.50) as f64 / 1e3
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// The in-process form of a request, decoded exactly as the server does.
fn decode(req: &Request) -> (wire::WireRequest, SearchParams) {
    let body = &req.http[req.http.len() - req.body_bytes..];
    let decoded = wire::decode_search(body).expect("the benchmark's own body decodes");
    let mut params = decoded
        .to_params()
        .expect("the benchmark's own params build");
    params.deadline = Some(Instant::now() + Duration::from_secs(10));
    params.client_id = Some(ClientId::new(0));
    (decoded, params)
}

fn search_request<'q>(decoded: &'q wire::WireRequest, params: SearchParams) -> SearchRequest<'q> {
    let req = SearchRequest::new(&decoded.query).params(params);
    match &decoded.filter {
        Some(pred) => req.predicate(pred.clone()),
        None => req,
    }
}

/// The layer pass. Returns the metrics, the spans, and `(attempted,
/// failed)` of the checks it made.
pub fn layer_pass(
    fx: &Fixture,
    requests: &[Request],
    running: &Running,
    facts: &WindowFacts<'_>,
) -> Result<(LayerMetrics, Tracer, u64, u64), String> {
    let mut m = LayerMetrics::zeroed();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let traced: Vec<&Request> = (0..TRACED).map(|j| &requests[j % N_QUERIES]).collect();
    for (name, value) in window_rows(facts.window) {
        m.set(name, value);
    }

    // --- 1. serial one-client HTTP round trips --------------------------
    let mut conn = Conn::connect(running.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut roundtrip_ns = Vec::with_capacity(TRACED);
    let mut response_bytes = Vec::with_capacity(TRACED);
    let mut answers: Vec<Option<Answer>> = Vec::with_capacity(TRACED);
    for req in &traced {
        attempted += 1;
        let t = Instant::now();
        let got = conn.round_trip(&req.http);
        roundtrip_ns.push(t.elapsed().as_nanos() as u64);
        let answer = match got {
            Ok((200, body, total)) => {
                response_bytes.push(total as f64);
                Answer::parse(body).filter(|a| a.well_formed(req.truth.len()))
            }
            _ => None,
        };
        failed += u64::from(answer.is_none());
        answers.push(answer);
    }
    drop(conn);
    let roundtrip_us = p50_us(&mut roundtrip_ns);
    m.set("client.roundtrip_us", roundtrip_us);
    m.set(
        "serve.request_bytes",
        mean(traced.iter().map(|r| r.http.len() as f64)),
    );
    m.set("serve.response_bytes", mean(response_bytes.iter().copied()));
    let answered = || {
        traced
            .iter()
            .zip(&answers)
            .filter_map(|(r, a)| Some((*r, a.as_ref()?)))
    };
    let probed: f64 = answered().map(|(_, a)| a.buckets_probed as f64).sum();
    let empty: f64 = answered().map(|(_, a)| a.empty_buckets as f64).sum();
    m.set("probe.empty_bucket_share", empty / probed.max(1.0));
    m.set(
        "engine.buckets_probed",
        mean(answered().map(|(_, a)| a.buckets_probed as f64)),
    );
    m.set(
        "engine.items_evaluated",
        mean(answered().map(|(_, a)| a.items_evaluated as f64)),
    );
    let rt: Vec<(&Request, &Answer)> = answered()
        .filter(|(r, _)| r.class == Class::GqrRt)
        .collect();
    if !rt.is_empty() {
        m.set(
            "recall.buckets_at_target",
            mean(rt.iter().map(|(_, a)| a.buckets_probed as f64)),
        );
        let predicted = mean(rt.iter().filter_map(|(_, a)| a.predicted_recall));
        let achieved = mean_recall(rt.iter().map(|(r, a)| (&a.ids[..], &r.truth[..])));
        m.set("recall.predicted_minus_achieved", predicted - achieved);
    }

    // --- 2. the reference engine: one unsharded table over the base rows --
    let (data, dim) = (fx.base.as_slice(), fx.dim());
    let built;
    let (model, table): (&dyn HashModel, &HashTable) = match running.handles {
        Handles::Static(engine) => (engine.model(), engine.table()),
        Handles::Live(_, model) => {
            built = HashTable::build(model, data, dim);
            (model, &built)
        }
        Handles::Sharded(loaded, _) => {
            built = HashTable::build(loaded.model(), data, dim);
            (loaded.model(), &built)
        }
    };
    let mih = MihIndex::build(table.code_length(), &table.dense_codes(), 2);
    let mut reference: QueryEngine<'_, dyn HashModel> =
        QueryEngine::new(model, table, data, dim).with_mih(&mih);
    if let Handles::Sharded(loaded, _) = running.handles {
        reference.set_attrs(
            loaded
                .attrs()
                .ok_or("the snapshot lost its attribute store")?,
        );
        reference.set_recall_model(
            loaded
                .recall_model()
                .ok_or("the snapshot lost its recall model")?,
        );
    }
    let served = running.handles.index();
    m.set(
        "table.bytes_per_item",
        table.approx_bytes() as f64 / table.n_items().max(1) as f64,
    );
    m.set("table.buckets", table.n_buckets() as f64);

    // --- 3. stepwise replay, every call in a span ------------------------
    // What a span costs: in all, and the part that falls inside its own
    // interval (one clock read), which is taken back out of `engine.self_us`.
    const EMPTY_SPANS: usize = 100_000;
    let mut probe = Tracer::new();
    probe.spans.reserve(EMPTY_SPANS);
    let t = Instant::now();
    for _ in 0..EMPTY_SPANS {
        let s = probe.begin(0, "empty", None);
        probe.end(s);
    }
    m.set(
        "trace.span_overhead_ns",
        t.elapsed().as_nanos() as f64 / EMPTY_SPANS as f64,
    );
    let inside_span_ns = probe.durations("empty").iter().sum::<u64>() / EMPTY_SPANS as u64;
    drop(probe);
    let exec = Executor::builder().workers(2).queue_capacity(128).build();
    let mut tr = Tracer::new();
    let mut block = ScoreBlock::new(dim);
    let mut codes: Vec<u64> = Vec::new();
    let mut sink: Vec<u8> = Vec::with_capacity(4096);
    let mut mismatches = 0u64;
    let mut self_ns: Vec<i64> = Vec::new();
    let mut rows_scored = 0u64;
    let mut buckets_generated = 0u64;
    let mut selectivity = Vec::new();
    // Whole runs first, each index in a pass of its own so neither evicts
    // the other's working set: the served index, then the reference engine.
    let mut served_ids: Vec<Vec<u32>> = Vec::with_capacity(TRACED);
    for (j, req) in traced.iter().enumerate() {
        let (decoded, params) = decode(req);
        let s = tr.begin(j, "index.run", None);
        let answer = served.run(search_request(&decoded, params));
        tr.end(s);
        served_ids.push(answer.ids);
    }
    let mut expected_all: Vec<SearchResponse> = Vec::with_capacity(TRACED);
    for (j, req) in traced.iter().enumerate() {
        let (decoded, params) = decode(req);
        let s = tr.begin(j, "engine.run", None);
        let expected = reference.run(search_request(&decoded, params));
        tr.end(s);
        // On a static index the wire answer, the served index and the
        // reference engine must all agree.
        if matches!(running.handles, Handles::Static(_)) {
            attempted += 1;
            let wire_ids = answers[j].as_ref().map(|a| &a.ids);
            if served_ids[j] != expected.ids || wire_ids != Some(&expected.ids) {
                failed += 1;
            }
        }
        expected_all.push(expected);
    }
    let engine_run_ns = tr.durations("engine.run");

    // The front door's own steps, around the answer the engine gave.
    for (j, req) in traced.iter().enumerate() {
        let root = tr.begin(j, "request", None);
        let s = tr.begin(j, "serve.http_read", Some(root));
        let parsed = http::read_request(&mut &req.http[..], 1 << 20);
        tr.end(s);
        let parsed = parsed.map_err(|e| format!("read_request: {e}"))?;
        let s = tr.begin(j, "serve.decode", Some(root));
        let redecoded = wire::decode_search(&parsed.body).map(|d| d.to_params());
        tr.end(s);
        if !matches!(redecoded, Ok(Ok(_))) {
            return Err("decode_search rejected the benchmark's own body".into());
        }
        let s = tr.begin(j, "executor.handoff", Some(root));
        let ticket = exec.try_submit_with_deadline(Instant::now() + Duration::from_secs(10), || ());
        let handed = ticket.map(|t| t.wait());
        tr.end(s);
        if !matches!(handed, Ok(Ok(()))) {
            return Err("the executor refused a no-op job".into());
        }
        let s = tr.begin(j, "serve.encode", Some(root));
        let body = wire::encode_response(&expected_all[j]);
        tr.end(s);
        sink.clear();
        let s = tr.begin(j, "serve.http_write", Some(root));
        let wrote = http::write_response(
            &mut sink,
            200,
            "application/json",
            &[],
            body.as_bytes(),
            false,
        );
        tr.end(s);
        wrote.map_err(|e| format!("write_response: {e}"))?;
        tr.end(root);
    }

    // The engine's steps, in a pass of their own like the whole runs above.
    let mut buckets: Vec<&[u32]> = Vec::new();
    for (j, req) in traced.iter().enumerate() {
        let (decoded, params) = decode(req);
        let (expected, engine_ns) = (&expected_all[j], engine_run_ns[j]);
        if let Some(pred) = &decoded.filter {
            let store = reference
                .attrs()
                .ok_or("filtered request without a store")?;
            let s = tr.begin(j, "attrs.plan", None);
            let choice = store.plan(pred, params.n_candidates);
            tr.end(s);
            let s = tr.begin(j, "attrs.bitmap", None);
            let bitmap = store.exact_bitmap(pred);
            tr.end(s);
            std::hint::black_box((choice, bitmap));
            selectivity.push(store.selectivity(pred));
        } else if req.class == Class::Mih {
            let s = tr.begin(j, "mih.search", None);
            let code = model.encode(&decoded.query);
            let mut searcher = mih.search(code);
            let mut batch = Vec::new();
            while batch.len() < params.n_candidates && searcher.next_batch(&mut batch).is_some() {}
            tr.end(s);
            std::hint::black_box(batch);
        } else {
            // The bucket-probing classes: encode → prober → bucket →
            // ScoreBlock → TopK, probing as many buckets as the engine did.
            attempted += 1;
            let n_buckets = expected.stats.buckets_probed;
            let replay = tr.begin(j, "engine.replay", None);
            let s = tr.begin(j, "l2h.encode_query", Some(replay));
            let qe = typed_encoding::<u64>(model.encode_query_wide(&decoded.query));
            tr.end(s);
            let (reset_name, generate_name) = match req.class {
                Class::Hr | Class::Qr => ("probe.reset.sorted", "probe.generate.sorted"),
                _ => ("probe.reset", "probe.generate"),
            };
            let s = tr.begin(j, reset_name, Some(replay));
            let mut prober: Box<dyn Prober + '_> = match req.class {
                Class::Hr => Box::new(HammingRanking::new(table)),
                Class::Qr => Box::new(QdRanking::new(table)),
                _ => Box::new(GenerateQdRanking::new(table.code_length())),
            };
            prober.reset(&qe);
            tr.end(s);
            codes.clear();
            let s = tr.begin(j, generate_name, Some(replay));
            while codes.len() < n_buckets {
                match prober.next_bucket() {
                    Some(code) => codes.push(code),
                    None => break,
                }
            }
            tr.end(s);
            buckets_generated += codes.len() as u64;
            buckets.clear();
            let s = tr.begin(j, "table.lookup", Some(replay));
            buckets.extend(codes.iter().map(|&code| table.bucket(code)));
            tr.end(s);
            let mut topk = TopK::new(params.k);
            let mut scored = 0usize;
            let s = tr.begin(j, "kernels.evaluate", Some(replay));
            for items in &buckets {
                for &id in *items {
                    if block.is_full() {
                        scored += block.flush(&decoded.query, Metric::SquaredEuclidean, |id, d| {
                            topk.push(d, id)
                        });
                    }
                    block.push(id, &data[id as usize * dim..(id as usize + 1) * dim]);
                }
                scored += block.flush(&decoded.query, Metric::SquaredEuclidean, |id, d| {
                    topk.push(d, id)
                });
            }
            tr.end(s);
            rows_scored += scored as u64;
            let s = tr.begin(j, "engine.topk", Some(replay));
            let ranked = topk.into_sorted();
            tr.end(s);
            tr.end(replay);
            if ranked != expected.ranked() || scored != expected.stats.items_evaluated {
                mismatches += 1;
                failed += 1;
            }
            let children: u64 = tr.spans[replay as usize + 1..]
                .iter()
                .filter(|c| c.parent == Some(replay) && c.name != "engine.topk")
                .map(|c| (c.end_ns - c.start_ns).saturating_sub(inside_span_ns))
                .sum();
            // Negative when the replay cost more than the run it models.
            self_ns.push(engine_ns as i64 - children as i64);
        }
    }
    exec.shutdown();

    m.set("serve.http_read_us", tr.p50_us("serve.http_read"));
    m.set("serve.decode_us", tr.p50_us("serve.decode"));
    m.set("serve.encode_us", tr.p50_us("serve.encode"));
    m.set("serve.http_write_us", tr.p50_us("serve.http_write"));
    m.set("executor.handoff_us", tr.p50_us("executor.handoff"));
    m.set("l2h.encode_query_us", tr.p50_us("l2h.encode_query"));
    m.set("probe.generate_us", tr.p50_us("probe.generate"));
    // Where the workload has probers that sort every occupied bucket first
    // (QR, HR), their reset is the slow start and is what is reported.
    let reset = if tr.durations("probe.reset.sorted").is_empty() {
        "probe.reset"
    } else {
        "probe.reset.sorted"
    };
    m.set("probe.reset_us", tr.p50_us(reset));
    let generate_ns: u64 = ["probe.generate", "probe.generate.sorted"]
        .iter()
        .flat_map(|n| tr.durations(n))
        .sum();
    m.set(
        "probe.ns_per_bucket",
        generate_ns as f64 / buckets_generated.max(1) as f64,
    );
    m.set("mih.search_us", tr.p50_us("mih.search"));
    let lookup_ns: u64 = tr.durations("table.lookup").iter().sum();
    m.set(
        "table.lookup_ns",
        lookup_ns as f64 / buckets_generated.max(1) as f64,
    );
    m.set("kernels.evaluate_us", tr.p50_us("kernels.evaluate"));
    let evaluate_ns: u64 = tr.durations("kernels.evaluate").iter().sum();
    m.set(
        "kernels.ns_per_row",
        evaluate_ns as f64 / rows_scored.max(1) as f64,
    );
    let engine_run_us = tr.p50_us("engine.run");
    let index_run_us = tr.p50_us("index.run");
    m.set("engine.run_us", engine_run_us);
    self_ns.sort_unstable();
    let self_p50 = self_ns.get(self_ns.len().saturating_sub(1) / 2).copied();
    m.set("engine.self_us", self_p50.unwrap_or(0) as f64 / 1e3);
    m.set("engine.replay_mismatch", mismatches as f64);
    m.set("attrs.plan_us", tr.p50_us("attrs.plan"));
    m.set("attrs.bitmap_us", tr.p50_us("attrs.bitmap"));
    m.set("attrs.selectivity", mean(selectivity.iter().copied()));

    // What one serial round trip spends outside the layers timed above:
    // sockets, thread wake-ups, and the client itself.
    let attributed = [
        "serve.http_read",
        "serve.decode",
        "executor.handoff",
        "serve.encode",
        "serve.http_write",
    ]
    .iter()
    .map(|n| tr.p50_us(n))
    .sum::<f64>()
        + index_run_us;
    m.set("client.unattributed_us", roundtrip_us - attributed);
    m.set(
        "client.unattributed_share",
        (roundtrip_us - attributed) / roundtrip_us,
    );

    // --- 4. what watching costs ------------------------------------------
    let watched: QueryEngine<'_, dyn HashModel> = QueryEngine::new(model, table, data, dim)
        .with_mih(&mih)
        .with_metrics(MetricsRegistry::enabled());
    // Requests the watched engine can run as they are: no filter (it has no
    // store) and no recall target (it has no model).
    let budgeted = |r: &Request| r.class.predicate().is_none() && r.class != Class::GqrRt;
    let mut watched_ns = Vec::with_capacity(TRACED);
    for req in traced.iter().filter(|r| budgeted(r)) {
        let (decoded, params) = decode(req);
        let t = Instant::now();
        std::hint::black_box(watched.run(search_request(&decoded, params)));
        watched_ns.push(t.elapsed().as_nanos() as u64);
    }
    let mut plain_ns: Vec<u64> = traced
        .iter()
        .zip(&engine_run_ns)
        .filter(|(r, _)| budgeted(r))
        .map(|(_, &ns)| ns)
        .collect();
    let (watched_us, plain_us) = (p50_us(&mut watched_ns), p50_us(&mut plain_ns));
    m.set(
        "metrics.enabled_overhead_pct",
        (watched_us - plain_us) / plain_us * 100.0,
    );
    // --- 5. set-up and per-workload layers -------------------------------
    let times = &running.times;
    m.set("l2h.train_ms", times.train_ms);
    m.set("table.build_ms", times.table_ms);
    m.set("attrs.build_ms", times.attrs_ms);
    m.set("recall.calibrate_s", times.calibrate_s);
    m.set("persist.save_ms", times.save_ms);
    m.set("persist.load_ms", times.load_ms);
    m.set("persist.from_snapshot_ms", times.from_snapshot_ms);
    m.set(
        "persist.snapshot_bytes_per_item",
        times.snapshot_bytes / fx.base.n() as f64,
    );
    match running.handles {
        Handles::Static(_) => {}
        Handles::Sharded(..) => {
            m.set("shard.overhead_us", index_run_us - engine_run_us);
            for class in Class::MIX {
                let name = format!("class.{}.p50_us", class.name());
                m.set(&name, class_p50_us(&facts.window.samples, class));
            }
        }
        Handles::Live(index, _) => {
            m.set("live.run_us", index_run_us);
            m.set("live.read_overhead_x", index_run_us / engine_run_us);
            live_layers(&mut m, index, facts);
        }
    }
    Ok((m, tr, attempted, failed))
}

/// The `live-rw` layers: the writer's log from the window, then `pin` and
/// `compact` on the index now that the writer has stopped.
fn live_layers(m: &mut LayerMetrics, index: &MutableIndex<Itq>, facts: &WindowFacts<'_>) {
    const PINS: u32 = 10_000;
    let t = Instant::now();
    for _ in 0..PINS {
        std::hint::black_box(index.pin());
    }
    m.set(
        "live.pin_ns",
        t.elapsed().as_nanos() as f64 / f64::from(PINS),
    );
    let latencies = |kind: Option<OpKind>| -> Vec<u64> {
        facts
            .writes
            .iter()
            .filter(|w| kind.is_none_or(|k| w.kind == k))
            .map(|w| w.latency.as_nanos() as u64)
            .collect()
    };
    for (name, kind) in [
        ("live.insert_us", OpKind::Insert),
        ("live.delete_us", OpKind::Delete),
        ("live.upsert_us", OpKind::Upsert),
    ] {
        m.set(name, p50_us(&mut latencies(Some(kind))));
    }
    let mut all = latencies(None);
    m.set("live.write_p50_us", p50_us(&mut all));
    m.set(
        "live.write_p99_us",
        percentile_of(&mut all, 0.99) as f64 / 1e3,
    );
    m.set(
        "live.write_stall_max_ms",
        all.last().copied().unwrap_or(0) as f64 / 1e6,
    );
    let mut lag: Vec<u64> = facts
        .writes
        .iter()
        .map(|w| w.lag.as_nanos() as u64)
        .collect();
    m.set(
        "live.writer_lag_p99_us",
        percentile_of(&mut lag, 0.99) as f64 / 1e3,
    );
    m.set(
        "live.compactions",
        (facts.epoch_after_writes - facts.writes.len() as u64) as f64,
    );
    // Last, because it changes the index: fold the pending delta.
    let t = Instant::now();
    index.compact();
    m.set("live.compact_ms", t.elapsed().as_secs_f64() * 1e3);
}
