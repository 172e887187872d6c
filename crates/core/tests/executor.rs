//! Serving-layer integration: executor lifecycle under load, and the
//! contract that every executor/shard metric appears under its pinned name
//! in both the JSON and Prometheus exports.

use gqr_core::engine::{ProbeStrategy, SearchParams};
use gqr_core::executor::{Executor, JobError, SubmitError};
use gqr_core::metrics::MetricsRegistry;
use gqr_core::request::SearchRequest;
use gqr_core::shard::ShardedIndex;
use gqr_l2h::pcah::Pcah;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[test]
fn shutdown_drains_the_queue_before_joining() {
    let done = Arc::new(AtomicUsize::new(0));
    let exec = Executor::builder().workers(2).queue_capacity(128).build();
    for _ in 0..100 {
        let done = Arc::clone(&done);
        exec.submit(move || {
            std::thread::sleep(Duration::from_micros(100));
            done.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    }
    exec.shutdown();
    assert_eq!(done.load(Ordering::SeqCst), 100);
    assert!(matches!(exec.submit(|| ()), Err(SubmitError::ShutDown)));
}

#[test]
fn drop_is_a_graceful_shutdown() {
    let done = Arc::new(AtomicUsize::new(0));
    {
        let exec = Executor::builder().workers(1).queue_capacity(64).build();
        for _ in 0..50 {
            let done = Arc::clone(&done);
            exec.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
    }
    assert_eq!(done.load(Ordering::SeqCst), 50, "drop drained the queue");
}

#[test]
fn stale_deadlines_are_skipped_not_run() {
    let metrics = MetricsRegistry::enabled();
    let exec = Executor::builder()
        .workers(1)
        .metrics(metrics.clone())
        .build();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let blocker = exec.submit(move || gate_rx.recv().unwrap()).unwrap();
    let doomed = exec
        .submit_with_deadline(Instant::now() + Duration::from_millis(1), || 42)
        .unwrap();
    let healthy = exec
        .submit_with_deadline(Instant::now() + Duration::from_secs(60), || 43)
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    gate_tx.send(()).unwrap();
    blocker.wait().unwrap();
    assert!(matches!(doomed.wait(), Err(JobError::DeadlineMissed)));
    assert_eq!(healthy.wait().unwrap(), 43);
    assert_eq!(
        metrics.counter_value("gqr_executor_deadline_missed_total"),
        Some(1)
    );
}

/// The acceptance contract: every serving metric shows up in both export
/// formats under exactly these names.
#[test]
fn executor_and_shard_metrics_export_under_pinned_names() {
    let metrics = MetricsRegistry::enabled();
    let exec = Executor::builder()
        .workers(2)
        .queue_capacity(1)
        .metrics(metrics.clone())
        .build();

    // Exercise the executor: completed jobs, a rejection, a deadline miss.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let blocker = exec.submit(move || gate_rx.recv().unwrap()).unwrap();
    let stale = exec.submit_with_deadline(Instant::now() - Duration::from_millis(1), || ());
    while exec.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let filler = exec.submit(|| std::thread::sleep(Duration::from_millis(5)));
    let _rejected = loop {
        // Race the second worker: keep refilling until a try_submit bounces.
        match exec.try_submit(|| ()) {
            Err(e) => break e,
            Ok(t) => {
                let _ = t;
            }
        }
    };
    gate_tx.send(()).unwrap();
    blocker.wait().unwrap();
    let _ = stale.map(|t| t.wait());
    let _ = filler.map(|t| t.wait());

    // Exercise the sharded path on the same registry.
    let mut data = Vec::new();
    for i in 0..200u32 {
        data.push((i % 20) as f32 + 0.01 * (i as f32).sin());
        data.push((i / 20) as f32);
    }
    let model = Pcah::train(&data, 2, 2).unwrap();
    let mut index = ShardedIndex::build(&model, &data, 2, 2).with_metrics(metrics.clone());
    index.enable_mih(2);
    let params = SearchParams {
        k: 5,
        n_candidates: usize::MAX,
        ..Default::default()
    };
    // Every strategy is one search over every shard.
    let _ = index.run(SearchRequest::new(&[3.0, 4.0]).params(params));
    let mih = SearchParams {
        strategy: ProbeStrategy::MultiIndexHashing { blocks: 2 },
        ..params
    };
    let _ = index.run(SearchRequest::new(&[3.0, 4.0]).params(mih));

    let snap = metrics.snapshot();
    let json = snap.to_json();
    let prom = snap.to_prometheus();

    // Executor metrics.
    for name in [
        "gqr_executor_queue_depth",
        "gqr_executor_queue_wait_ns",
        "gqr_executor_jobs_submitted_total",
        "gqr_executor_jobs_completed_total",
        "gqr_executor_jobs_rejected_total",
        "gqr_executor_deadline_missed_total",
    ] {
        assert!(json.contains(name), "JSON export is missing {name}");
        assert!(prom.contains(name), "Prometheus export is missing {name}");
    }

    // Shard spans and sharded-query metrics.
    for name in [
        "gqr_shard_total_ns",
        "gqr_shard_queries_total",
        "gqr_sharded_total_ns",
        "gqr_sharded_queries_total",
    ] {
        assert!(json.contains(name), "JSON export is missing {name}");
        assert!(prom.contains(name), "Prometheus export is missing {name}");
    }
    // Shard spans carry both labels; the exhaustive searches above evaluate
    // items, so the evaluate phase must have fired — once for all shards
    // under either strategy.
    for strategy in ["GQR", "MIH"] {
        let name = format!(
            "gqr_shard_phase_ns{{phase=\"evaluate\",shard=\"all\",strategy=\"{strategy}\"}}"
        );
        assert!(
            metrics.histogram(&name).is_some(),
            "{name} missing: {:?}",
            metrics.histogram_names()
        );
    }
    // Prometheus exposition carries the shard label through, and no
    // per-shard series is left.
    assert!(prom.contains("shard=\"all\""), "{prom}");
    assert!(!prom.contains("shard=\"0\""), "{prom}");
}
