//! End-to-end wire tests: a real server on an ephemeral port, raw TCP
//! clients, every rejection path, and graceful drain under in-flight load.

use gqr_core::attrs::AttributeStore;
use gqr_core::engine::QueryEngine;
use gqr_core::index::Index;
use gqr_core::metrics::MetricsRegistry;
use gqr_core::request::SearchRequest;
use gqr_core::response::SearchResponse;
use gqr_core::table::HashTable;
use gqr_l2h::pcah::Pcah;
use gqr_serve::quota::QuotaConfig;
use gqr_serve::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A leaked, process-lifetime engine over a noisy grid. Servers need
/// `'static` indexes; tests leak a fresh one each (they are small).
fn static_index(n: u32, metrics: MetricsRegistry) -> &'static (dyn Index + Sync) {
    let mut data = Vec::new();
    for i in 0..n {
        data.push((i % 50) as f32 + 0.01 * (i as f32).sin());
        data.push((i / 50) as f32);
    }
    let data: &'static [f32] = Vec::leak(data);
    let model: &'static Pcah = Box::leak(Box::new(Pcah::train(data, 2, 2).unwrap()));
    let table: &'static HashTable = Box::leak(Box::new(HashTable::build(model, data, 2)));
    let engine = QueryEngine::new(model, table, data, 2).with_metrics(metrics);
    Box::leak(Box::new(engine))
}

fn start(config: ServerConfig) -> Server {
    let index = static_index(2500, MetricsRegistry::enabled());
    Server::start(index, config).expect("bind")
}

/// One raw HTTP exchange: send bytes, read until EOF, split head/body.
fn exchange(addr: std::net::SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8_lossy(&response).to_string();
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, head.to_string(), body.to_string())
}

fn post_search(
    addr: std::net::SocketAddr,
    body: &str,
    client: Option<&str>,
) -> (u16, String, String) {
    let client_header = match client {
        Some(c) => format!("x-gqr-client: {c}\r\n"),
        None => String::new(),
    };
    let raw = format!(
        "POST /search HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{}connection: close\r\n\r\n{}",
        body.len(),
        client_header,
        body
    );
    exchange(addr, raw.as_bytes())
}

/// Like [`static_index`], but with an attribute store attached: `parity`
/// tags alternate even/odd, `idx` holds each row's id as an integer.
fn static_filtered_index(n: u32, metrics: MetricsRegistry) -> &'static (dyn Index + Sync) {
    let mut data = Vec::new();
    for i in 0..n {
        data.push((i % 50) as f32 + 0.01 * (i as f32).sin());
        data.push((i / 50) as f32);
    }
    let data: &'static [f32] = Vec::leak(data);
    let model: &'static Pcah = Box::leak(Box::new(Pcah::train(data, 2, 2).unwrap()));
    let table: &'static HashTable = Box::leak(Box::new(HashTable::build(model, data, 2)));
    let attrs = gqr_core::AttributeStore::builder(n as usize)
        .tag_column(
            "parity",
            (0..n)
                .map(|i| if i % 2 == 0 { "even" } else { "odd" })
                .collect(),
        )
        .unwrap()
        .int_column("idx", (0..n as i64).collect())
        .unwrap()
        .build();
    let attrs: &'static gqr_core::AttributeStore = Box::leak(Box::new(attrs));
    let engine = QueryEngine::new(model, table, data, 2)
        .with_metrics(metrics)
        .with_attrs(attrs);
    Box::leak(Box::new(engine))
}

#[test]
fn filtered_search_over_http_honors_the_predicate() {
    let index = static_filtered_index(2500, MetricsRegistry::enabled());
    let server = Server::start(index, ServerConfig::default()).expect("bind");
    let body = concat!(
        r#"{"query":[25.0,25.0],"k":10,"candidates":2000,"filter":"#,
        r#"{"op":"and","args":[{"op":"eq","column":"parity","value":"even"},"#,
        r#"{"op":"range","column":"idx","min":100,"max":2000}]}}"#
    );
    let (status, _, resp) = post_search(server.addr(), body, None);
    assert_eq!(status, 200, "{resp}");
    let doc = gqr_serve::json::parse(resp.as_bytes()).unwrap();
    let ids = doc.get("ids").unwrap().as_array().unwrap();
    assert_eq!(ids.len(), 10);
    for id in ids {
        let id = id.as_u64().unwrap();
        assert!(id % 2 == 0, "odd id {id} leaked through the filter");
        assert!((100..=2000).contains(&id), "id {id} outside the range");
    }
    // Schema violations are typed 400s, not query failures.
    let (status, _, resp) = post_search(
        server.addr(),
        r#"{"query":[1.0,1.0],"k":3,"filter":{"op":"eq","column":"nope","value":1}}"#,
        None,
    );
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("unknown column"), "{resp}");
    server.shutdown();
}

#[test]
fn filter_against_attributeless_index_is_a_400() {
    let server = start(ServerConfig::default());
    let (status, _, resp) = post_search(
        server.addr(),
        r#"{"query":[1.0,1.0],"k":3,"filter":{"op":"eq","column":"parity","value":"even"}}"#,
        None,
    );
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("no attribute store"), "{resp}");
    server.shutdown();
}

#[test]
fn search_round_trips_over_http() {
    let server = start(ServerConfig::default());
    let (status, _, body) = post_search(
        server.addr(),
        r#"{"query":[3.0,4.0],"k":5,"candidates":500}"#,
        None,
    );
    assert_eq!(status, 200, "{body}");
    let doc = gqr_serve::json::parse(body.as_bytes()).unwrap();
    assert_eq!(doc.get("ids").unwrap().as_array().unwrap().len(), 5);
    assert_eq!(doc.get("distances").unwrap().as_array().unwrap().len(), 5);
    assert!(doc.get("stats").unwrap().get("items_evaluated").is_some());
    let report = server.shutdown();
    assert_eq!(report.served, 1);
    assert_eq!(report.inflight_at_drain, 0);
}

#[test]
fn healthz_metrics_and_unknown_routes() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    let (status, _, body) = exchange(addr, b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    let (status, _, _) = post_search(addr, r#"{"query":[1.0,1.0],"k":3}"#, None);
    assert_eq!(status, 200);

    let (status, _, body) = exchange(addr, b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert!(
        body.contains("gqr_http_responses_total{status=\"200\"}"),
        "prometheus export missing serving counters:\n{body}"
    );

    let (status, _, _) = exchange(addr, b"GET /nope HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(status, 404);
    let (status, _, _) = exchange(addr, b"GET /search HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn malformed_http_is_rejected() {
    let server = start(ServerConfig::default());
    let (status, _, body) = exchange(server.addr(), b"NONSENSE\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"error\""));
    server.shutdown();
}

#[test]
fn truncated_body_is_rejected() {
    let server = start(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Declare 100 bytes, send 5, then half-close: the server must answer
    // 400 (or close) rather than hang.
    stream
        .write_all(b"POST /search HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"q\"")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    server.shutdown();
}

#[test]
fn oversized_payload_is_rejected_with_413() {
    let server = start(ServerConfig {
        max_body_bytes: 256,
        ..ServerConfig::default()
    });
    let big = format!(r#"{{"query":[{}],"k":1}}"#, "1.0,".repeat(200) + "1.0");
    assert!(big.len() > 256);
    let (status, _, body) = post_search(server.addr(), &big, None);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"code\":413"), "{body}");
    server.shutdown();
}

#[test]
fn invalid_json_gets_a_typed_400() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    for (bad, needle) in [
        ("{not json", "invalid JSON"),
        (r#"{"query":[1,2],"k":0}"#, "positive integer"),
        (r#"{"query":[1,2]}"#, "missing required field"),
        (r#"{"query":[1,2],"k":1,"whatever":1}"#, "unknown field"),
        (r#"{"query":[1,2,3],"k":1}"#, "has 3 dimensions"),
    ] {
        let (status, _, body) = post_search(addr, bad, None);
        assert_eq!(status, 400, "{bad} -> {body}");
        assert!(body.contains("\"error\""), "{body}");
        assert!(body.contains(needle), "expected {needle:?} in {body}");
    }
    // None of them reached a worker, let alone panicked one.
    let (_, _, metrics) = exchange(addr, b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(metrics.contains("gqr_http_responses_total{status=\"400\"} 5"));
    assert!(!metrics.contains("gqr_http_responses_total{status=\"500\"}"));
    server.shutdown();
}

#[test]
fn query_value_past_f32_is_a_400_and_the_server_serves_on() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    for body in [
        r#"{"query":[1e39,0.5],"k":1}"#,
        r#"{"query":[0.5,-1e39],"k":1}"#,
    ] {
        let (status, _, resp) = post_search(addr, body, None);
        assert_eq!(status, 400, "{body} -> {resp}");
        assert!(resp.contains("fit in an f32"), "{resp}");
    }
    let (status, _, resp) = post_search(addr, r#"{"query":[3.0,4.0],"k":5}"#, None);
    assert_eq!(status, 200, "{resp}");
    let doc = gqr_serve::json::parse(resp.as_bytes()).unwrap();
    assert_eq!(doc.get("ids").unwrap().as_array().unwrap().len(), 5);
    let report = server.shutdown();
    assert_eq!(report.served, 1, "the refused queries never ran");
}

#[test]
fn quota_exhaustion_returns_429_with_retry_after() {
    let server = start(ServerConfig {
        quota: Some(QuotaConfig::new(1.0, 2.0).unwrap()),
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let body = r#"{"query":[1.0,1.0],"k":1}"#;
    assert_eq!(post_search(addr, body, Some("alice")).0, 200);
    assert_eq!(post_search(addr, body, Some("alice")).0, 200);
    let (status, head, resp_body) = post_search(addr, body, Some("alice"));
    assert_eq!(status, 429, "{resp_body}");
    assert!(
        head.to_lowercase().contains("retry-after:"),
        "missing retry-after: {head}"
    );
    assert!(resp_body.contains("quota"), "{resp_body}");
    // Other clients are unaffected.
    assert_eq!(post_search(addr, body, Some("bob")).0, 200);
    let report = server.shutdown();
    assert_eq!(report.shed, 1);
}

#[test]
fn drain_completes_inflight_requests() {
    let server = start(ServerConfig {
        handlers: 4,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    // Exhaustive scans keep workers busy long enough for the drain to race
    // real in-flight work.
    let body = r#"{"query":[25.0,25.0],"k":50,"candidates":100000,"timeout_ms":10000}"#;
    let clients: Vec<_> = (0..6)
        .map(|_| std::thread::spawn(move || post_search(addr, body, None).0))
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    let report = server.shutdown();
    let mut completed = 0;
    for c in clients {
        let status = c.join().unwrap();
        // Every request that reached the server must get a real answer:
        // either it was admitted (200) or refused cleanly (503 at the
        // accept gate after drain began). Nothing may be dropped.
        assert!(status == 200 || status == 503, "got {status}");
        if status == 200 {
            completed += 1;
        }
    }
    assert_eq!(report.served, completed, "admitted requests lost in drain");
    assert!(
        completed >= 1,
        "nothing completed — drain raced everything out"
    );
}

#[test]
fn healthz_flips_to_draining() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    let (status, _, _) = exchange(addr, b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(status, 200);
    server.shutdown();
    // The listener is gone after shutdown; connecting must fail fast.
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn loadgen_drives_a_live_server() {
    use gqr_serve::loadgen::{self, LoadgenConfig};
    let server = start(ServerConfig::default());
    let cfg = LoadgenConfig {
        addr: server.addr().to_string(),
        qps: 200.0,
        duration: Duration::from_millis(500),
        warmup: Duration::from_millis(100),
        senders: 2,
        body: r#"{"query":[10.0,10.0],"k":5,"candidates":200}"#.to_string(),
        client: Some("loadgen".to_string()),
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&cfg);
    assert!(report.offered > 0);
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.completed, report.offered - report.shed, "{report:?}");
    assert!(report.completed > 0, "{report:?}");
    assert!(report.p99_us >= report.p50_us, "{report:?}");
    let drain = server.shutdown();
    assert!(drain.served >= report.completed);
}

/// The test engine behind a gate: every `run` counts itself, then blocks
/// until [`GatedIndex::release`], so a test can hold a run slot for as long
/// as it needs one held.
struct GatedIndex {
    inner: &'static (dyn Index + Sync),
    released: Mutex<bool>,
    opened: Condvar,
    runs: AtomicUsize,
}

impl GatedIndex {
    fn leak() -> &'static GatedIndex {
        Box::leak(Box::new(GatedIndex {
            inner: static_index(2500, MetricsRegistry::enabled()),
            released: Mutex::new(false),
            opened: Condvar::new(),
            runs: AtomicUsize::new(0),
        }))
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn runs(&self) -> usize {
        self.runs.load(Ordering::SeqCst)
    }
}

impl Index for GatedIndex {
    fn run(&self, req: SearchRequest<'_>) -> SearchResponse {
        self.runs.fetch_add(1, Ordering::SeqCst);
        let mut released = self.released.lock().unwrap();
        while !*released {
            released = self.opened.wait(released).unwrap();
        }
        drop(released);
        self.inner.run(req)
    }
    fn n_items(&self) -> usize {
        self.inner.n_items()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn metrics(&self) -> &MetricsRegistry {
        self.inner.metrics()
    }
    fn attrs(&self) -> Option<&AttributeStore> {
        self.inner.attrs()
    }
}

fn metrics_text(addr: std::net::SocketAddr) -> String {
    exchange(addr, b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n").2
}

/// Poll until `ready` holds, failing the test after ten seconds.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn full_run_gate_sheds_with_503_queue_full() {
    let index = GatedIndex::leak();
    let server = Server::start(
        index,
        ServerConfig {
            handlers: 3,
            workers: 1,
            queue_capacity: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let body = r#"{"query":[3.0,4.0],"k":5,"timeout_ms":10000}"#;
    let first = std::thread::spawn(move || post_search(addr, body, None));
    wait_until("the first search to hold the slot", || index.runs() == 1);

    let (status, head, resp) = post_search(addr, body, None);
    assert_eq!(status, 503, "{resp}");
    assert!(
        head.to_lowercase().contains("retry-after:"),
        "missing retry-after: {head}"
    );
    let metrics = metrics_text(addr);
    assert!(
        metrics.contains("gqr_http_shed_total{reason=\"queue_full\"} 1"),
        "{metrics}"
    );

    index.release();
    let (status, _, resp) = first.join().unwrap();
    assert_eq!(status, 200, "{resp}");
    assert_eq!(index.runs(), 1, "the shed search must never run");
    let report = server.shutdown();
    assert_eq!((report.served, report.shed), (1, 1));
}

#[test]
fn deadline_spent_waiting_for_a_slot_is_a_504_and_never_runs() {
    let index = GatedIndex::leak();
    let server = Server::start(
        index,
        ServerConfig {
            handlers: 3,
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let first = std::thread::spawn(move || {
        post_search(
            addr,
            r#"{"query":[3.0,4.0],"k":5,"timeout_ms":10000}"#,
            None,
        )
    });
    wait_until("the first search to hold the slot", || index.runs() == 1);

    let late = std::thread::spawn(move || {
        post_search(addr, r#"{"query":[3.0,4.0],"k":5,"timeout_ms":1}"#, None)
    });
    // Once the server has counted the second request its 1 ms budget has
    // started, and the only slot stays held until the release below.
    wait_until("the second search to arrive", || {
        metrics_text(addr).contains("gqr_http_requests_total{route=\"search\"} 2")
    });
    std::thread::sleep(Duration::from_millis(20));
    index.release();

    let (status, _, resp) = late.join().unwrap();
    assert_eq!(status, 504, "{resp}");
    assert_eq!(first.join().unwrap().0, 200);
    assert_eq!(index.runs(), 1, "the late search must never run");
    assert!(metrics_text(addr).contains("gqr_http_shed_total{reason=\"deadline\"} 1"));
    server.shutdown();
}

#[test]
fn panicking_search_is_a_500_and_releases_its_slot() {
    // No MIH side index is attached, so an MIH search panics mid-run.
    let server = start(ServerConfig {
        handlers: 2,
        workers: 1,
        queue_capacity: 0,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let (status, _, resp) =
        post_search(addr, r#"{"query":[3.0,4.0],"k":5,"strategy":"MIH"}"#, None);
    assert_eq!(status, 500, "{resp}");
    // With one slot and no wait line, a leaked slot would shed this as 503.
    let (status, _, resp) = post_search(addr, r#"{"query":[3.0,4.0],"k":5}"#, None);
    assert_eq!(status, 200, "{resp}");
    let report = server.shutdown();
    assert_eq!(report.inflight_at_drain, 0);
    assert_eq!(report.served, 1);
}

fn keep_alive_conn(addr: std::net::SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    BufReader::new(stream)
}

/// Send one `/search` on `conn` without waiting for the answer; `close`
/// asks the server to close the connection after answering.
fn send_search(conn: &mut BufReader<TcpStream>, body: &str, close: bool) {
    let raw = format!(
        "POST /search HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{}\r\n{}",
        body.len(),
        if close { "connection: close\r\n" } else { "" },
        body
    );
    conn.get_mut().write_all(raw.as_bytes()).unwrap();
}

/// Read exactly one response off `conn`: status and body.
fn read_response(conn: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    conn.read_line(&mut status_line).unwrap();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut length = 0;
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0; length];
    conn.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// Assert that `resp` is a 200 whose ids and distance bits equal what
/// `index.run` answers for the request `body` called directly.
fn assert_matches_engine(index: &dyn Index, body: &str, (status, resp): (u16, String)) {
    assert_eq!(status, 200, "{body} -> {resp}");
    let wire = gqr_serve::decode_search(body.as_bytes()).unwrap();
    let params = wire.to_params().unwrap();
    let want = index.run(SearchRequest::new(&wire.query).params(params));
    let doc = gqr_serve::json::parse(resp.as_bytes()).unwrap();
    let column = |name: &str| doc.get(name).unwrap().as_array().unwrap().to_vec();
    let ids: Vec<u32> = column("ids")
        .iter()
        .map(|v| v.as_u64().unwrap() as u32)
        .collect();
    let bits: Vec<u32> = column("distances")
        .iter()
        .map(|v| (v.as_f64().unwrap() as f32).to_bits())
        .collect();
    let want_bits: Vec<u32> = want.distances.iter().map(|d| d.to_bits()).collect();
    assert_eq!(ids, want.ids, "{body}");
    assert_eq!(bits, want_bits, "{body}");
}

#[test]
fn keep_alive_answers_match_the_engine_bit_for_bit() {
    keep_alive_clients_match_the_engine(ServerConfig::default());
}

/// With one run slot the two connections contend: searches park, and the
/// handler that frees the slot runs them and swaps connections with their
/// handlers, so every answer must still reach its own connection.
#[test]
fn keep_alive_answers_survive_parked_searches() {
    keep_alive_clients_match_the_engine(ServerConfig {
        handlers: 2,
        workers: 1,
        ..ServerConfig::default()
    });
}

/// 2 threads × 100 requests, each thread on one persistent connection.
fn keep_alive_clients_match_the_engine(config: ServerConfig) {
    let index = static_index(2500, MetricsRegistry::enabled());
    let server = Server::start(index, config).expect("bind");
    let addr = server.addr();
    let clients: Vec<_> = (0..2)
        .map(|t| {
            std::thread::spawn(move || {
                let mut conn = keep_alive_conn(addr);
                for i in 0..100 {
                    let x = (7 * i + 13 * t) % 50;
                    let body = format!(
                        r#"{{"query":[{x}.25,{}.5],"k":10,"candidates":200}}"#,
                        i % 50
                    );
                    send_search(&mut conn, &body, false);
                    assert_matches_engine(index, &body, read_response(&mut conn));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let report = server.shutdown();
    assert_eq!(report.served, 200);
    assert_eq!(report.inflight_at_drain, 0);
}

#[test]
fn parked_search_swaps_keep_alive_connections_cleanly() {
    let index = GatedIndex::leak();
    let server = Server::start(
        index,
        ServerConfig {
            handlers: 2,
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let (mut a, mut b) = (keep_alive_conn(addr), keep_alive_conn(addr));
    let body_a = r#"{"query":[3.0,4.0],"k":5,"timeout_ms":10000}"#;
    let body_b = r#"{"query":[40.0,20.0],"k":5,"timeout_ms":10000}"#;
    send_search(&mut a, body_a, true);
    wait_until("the first search to hold the slot", || index.runs() == 1);
    // B's search parks behind A's; A's handler runs it and answers on B's
    // connection, which it keeps serving, while B's handler writes A's
    // answer and closes A's connection as A asked.
    send_search(&mut b, body_b, false);
    std::thread::sleep(Duration::from_millis(20));
    index.release();
    assert_matches_engine(index.inner, body_a, read_response(&mut a));
    let mut rest = Vec::new();
    a.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "A's connection must close after its answer"
    );
    assert_matches_engine(index.inner, body_b, read_response(&mut b));
    let mut a = keep_alive_conn(addr);
    for _ in 0..3 {
        send_search(&mut a, body_b, false);
        send_search(&mut b, body_a, false);
        assert_matches_engine(index.inner, body_b, read_response(&mut a));
        assert_matches_engine(index.inner, body_a, read_response(&mut b));
    }
    assert_eq!(index.runs(), 8);
    // Idle keep-alive connections would hold the drain for a read timeout.
    drop((a, b));
    let report = server.shutdown();
    assert_eq!((report.served, report.inflight_at_drain), (8, 0));
}
