//! End-to-end serving bench: drives a real `gqr-serve` HTTP server with the
//! in-repo open-loop load generator, prints one line of measurements, and
//! exits non-zero when the admission-control gate fails.
//!
//! Four phases:
//!   1. **saturation estimate** — from one unloaded p50 and the worker
//!      count (`sat ≈ workers / service_time`), then a ramp through 0.5x
//!      and 1x the estimate;
//!   2. **paired rounds** — [`ROUNDS`] rounds, each an unloaded run (low
//!      QPS, the baseline p99) followed at once by a run at 2x the
//!      estimated saturation. Each round compares its own pair, so a
//!      machine that slows down for a while moves both sides of a ratio;
//!   3. **overload gate** — at 2x the server must shed (429/503) in every
//!      round, and the median round's ratio of admitted-query p99 to
//!      unloaded p99 must stay within 3x: load shedding, not queue
//!      collapse;
//!   4. **graceful drain** — shutdown under in-flight load must answer
//!      every request that reached the server (200 or a clean 503), losing
//!      zero admitted queries.
//!
//! Run with `cargo bench -p gqr-bench --bench http_serving`; set
//! `GQR_BENCH_SMOKE=1` to shrink the workload for CI smoke runs.

use gqr_core::engine::QueryEngine;
use gqr_core::index::Index;
use gqr_core::metrics::MetricsRegistry;
use gqr_core::table::HashTable;
use gqr_l2h::pcah::Pcah;
use gqr_serve::loadgen::{self, LoadgenConfig};
use gqr_serve::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn smoke() -> bool {
    std::env::var_os("GQR_BENCH_SMOKE").is_some()
}

/// Run slots are kept low and the wait line short on purpose: the bench
/// wants saturation to be *reachable* by the load generator so the 2x
/// overload step genuinely overloads, and a short wait line is what bounds
/// the latency of admitted queries under that overload.
const WORKERS: usize = 2;
const QUEUE: usize = 2;
const HANDLERS: usize = 32;
/// Plenty of senders keeps each one's arrival schedule sparse, so a slow
/// admitted request does not delay that sender's later arrivals and the
/// measured latency reflects server-side queueing, not client backlog.
const SENDERS: usize = 32;
/// Unloaded/overloaded pairs behind the overload gate (odd: the median is
/// one round's ratio).
const ROUNDS: usize = 5;

/// Deterministic blob of clustered points (xorshift64*), sized so one
/// exhaustive query costs enough that two workers saturate at a rate the
/// loadgen can comfortably double.
fn make_data(n: usize, dim: usize) -> Vec<f32> {
    let mut state = 0x1234_5678_9abc_def1u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32
    };
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        let center = (i % 32) as f32;
        for _ in 0..dim {
            data.push(center + next() * 4.0);
        }
    }
    data
}

/// A leaked, process-lifetime engine: `Server` borrows the index for
/// `'static`, and a bench process does not need to reclaim it.
fn static_index(n: usize, dim: usize, bits: usize) -> &'static (dyn Index + Sync) {
    let data: &'static [f32] = Vec::leak(make_data(n, dim));
    let model: &'static Pcah = Box::leak(Box::new(Pcah::train(data, dim, bits).unwrap()));
    let table: &'static HashTable = Box::leak(Box::new(HashTable::build(model, data, dim)));
    let engine = QueryEngine::new(model, table, data, dim).with_metrics(MetricsRegistry::enabled());
    Box::leak(Box::new(engine))
}

fn server_config() -> ServerConfig {
    ServerConfig {
        handlers: HANDLERS,
        workers: WORKERS,
        queue_capacity: QUEUE,
        // Generous deadline: this bench sheds at the queue, not the clock.
        default_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

/// An exhaustive-scan search body: `candidates = n` forces every query to
/// rank the whole base set, making service time dominate HTTP overhead.
fn search_body(n: usize, dim: usize) -> String {
    let q: Vec<String> = (0..dim)
        .map(|d| format!("{:.3}", 16.0 + d as f32 * 0.01))
        .collect();
    format!(r#"{{"query":[{}],"k":10,"candidates":{}}}"#, q.join(","), n)
}

/// One-shot raw HTTP POST (connection: close); 0 on transport failure.
fn one_shot(addr: std::net::SocketAddr, body: &str) -> u16 {
    let attempt = || -> std::io::Result<u16> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let raw = format!(
            "POST /search HTTP/1.1\r\nhost: b\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        stream.write_all(raw.as_bytes())?;
        let mut response = Vec::new();
        stream.read_to_end(&mut response)?;
        let text = String::from_utf8_lossy(&response);
        Ok(text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0))
    };
    attempt().unwrap_or(0)
}

fn main() {
    let (n, dim, bits) = if smoke() {
        (60_000, 16, 12)
    } else {
        (120_000, 24, 12)
    };
    let (unloaded_dur, step_dur, warmup) = if smoke() {
        (
            Duration::from_millis(600),
            Duration::from_millis(600),
            Duration::from_millis(200),
        )
    } else {
        (
            Duration::from_secs(2),
            Duration::from_secs(2),
            Duration::from_millis(300),
        )
    };
    let body = search_body(n, dim);

    // ---- phases 1-3: one server for the latency/overload measurements ----
    let index = static_index(n, dim, bits);
    let server = Server::start(index, server_config()).expect("bind");
    let base = LoadgenConfig {
        addr: server.addr().to_string(),
        duration: step_dur,
        warmup,
        senders: SENDERS,
        body: body.clone(),
        client: Some("bench".to_string()),
        ..LoadgenConfig::default()
    };

    // Low enough that even a heavyweight full-scale query leaves the two
    // workers mostly idle — this really is the unloaded baseline.
    let unloaded_cfg = LoadgenConfig {
        qps: if smoke() { 40.0 } else { 15.0 },
        duration: unloaded_dur,
        senders: 4,
        ..base.clone()
    };
    // Saturation from measured service time; the clamp keeps the overload
    // step within what an in-process loadgen can actually offer.
    let estimate = loadgen::run(&unloaded_cfg);
    let service_s = (estimate.p50_us.max(50) as f64) / 1e6;
    let sat_qps = (WORKERS as f64 / service_s).clamp(50.0, 4000.0);
    loadgen::sweep(&base, &[0.5 * sat_qps, 1.0 * sat_qps]);
    let overload_cfg = LoadgenConfig {
        qps: 2.0 * sat_qps,
        ..base.clone()
    };
    let mut rounds: Vec<_> = (0..ROUNDS)
        .map(|_| {
            let unloaded = loadgen::run(&unloaded_cfg);
            let overload = loadgen::run(&overload_cfg);
            let ratio = overload.p99_us as f64 / unloaded.p99_us.max(1) as f64;
            (ratio, unloaded, overload)
        })
        .collect();
    let every_round_sheds = rounds.iter().all(|(_, _, o)| o.shed > 0);
    let every_round_admits = rounds.iter().all(|(_, _, o)| o.completed > 0);
    let ratios: Vec<String> = rounds.iter().map(|(r, _, _)| format!("{r:.2}")).collect();
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (p99_ratio, unloaded, overload) = rounds.swap_remove(ROUNDS / 2);
    server.shutdown();

    // ---- phase 4: a fresh server for the drain-under-load check ----
    let drain_server = Server::start(static_index(n, dim, bits), server_config()).expect("bind");
    let drain_addr = drain_server.addr();
    let drain_body = body.clone();
    let n_drain = 8;
    let clients: Vec<_> = (0..n_drain)
        .map(|_| {
            let body = drain_body.clone();
            std::thread::spawn(move || one_shot(drain_addr, &body))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(15));
    let drain_report = drain_server.shutdown();
    let mut drain_completed = 0u64;
    let mut drain_refused = 0u64;
    let mut drain_lost = 0u64;
    for client in clients {
        match client.join().unwrap() {
            200 => drain_completed += 1,
            429 | 503 | 504 => drain_refused += 1,
            _ => drain_lost += 1,
        }
    }

    // ---- gates ----
    let gate_sheds = every_round_sheds;
    let gate_p99 = every_round_admits && p99_ratio <= 3.0;
    let gate_drain = drain_lost == 0 && drain_report.served == drain_completed;
    let gate_pass = gate_sheds && gate_p99 && gate_drain;

    println!(
        "http_serving: sat≈{:.0} qps | median of {ROUNDS} rounds: unloaded p99 {} us, 2x overload shed {}/{} p99 {} us ({:.2}x; rounds {}) | drain: {} done {} refused {} lost | gate_pass={}",
        sat_qps,
        unloaded.p99_us,
        overload.shed,
        overload.offered,
        overload.p99_us,
        p99_ratio,
        ratios.join(" "),
        drain_completed,
        drain_refused,
        drain_lost,
        gate_pass
    );
    assert!(
        gate_pass,
        "serving gate FAILED: sheds_every_round={gate_sheds} median_admitted_p99_within_3x={gate_p99} \
         drain_zero_lost={gate_drain}"
    );
}
