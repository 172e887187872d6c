//! gqr's front-door benchmark.
//!
//! `gqr-benchmark --workload NAME --seed N --seconds S --trace 0|1` is one
//! run: it starts `gqr_serve::Server` in-process on `127.0.0.1:0`, drives
//! `POST /search` over real sockets from its own closed-loop client, checks
//! every answer and prints one JSON line. Without `--workload` it runs all
//! four workloads, each in its own child process, with the layer pass, and
//! prints the combined document (`--repeat N`, `--check`). See README.md.

mod client;
mod fixture;
mod layers;
mod live;
mod reference;
mod report;
mod stats;
mod window;
mod workload;

use fixture::{mean_recall, AttrColumns, Fixture, K, N_QUERIES};
use gqr::eval::timer::peak_rss_mb;
use gqr::prelude::{brute_force_knn, Scale};
use layers::{LayerMetrics, WindowFacts};
use reference::ReferenceServer;
use report::{Env, RunReport};
use std::path::{Path, PathBuf};
use window::Schedule;
use workload::{Handles, Workload};

/// The window the contract's driver asks for (`run_seconds`).
const DEFAULT_SECONDS: u64 = 20;
/// Set-ups per untraced run; `setup_s` is their median. A traced run sets up
/// once: its per-layer set-up times come from that one.
const SETUPS: usize = 3;
/// Where the trace, the snapshot and the reports go, relative to the root
/// of the checkout (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

/// Every end-to-end metric, in report order, with its unit. The four
/// `*_vs_ref` metrics are the program's value divided by the reference
/// server's from the same slices (see `reference`); the raw values are the
/// `client.*` and `reference.*` per-layer metrics.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps_vs_ref", "x"),
    ("latency_p50_vs_ref", "x"),
    ("latency_p99_vs_ref", "x"),
    ("cpu_per_request_vs_ref", "x"),
    ("recall_at_10", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Recall floors at `Scale::Default`; a run below its floor is incorrect.
/// `gqr-budget` must hold the ROADMAP's operating point; the other three sit
/// at least 0.03 below the lowest value seen over seeds 1–10 and 42
/// (README.md, "Floors").
fn recall_floor(workload: Workload) -> f64 {
    match workload {
        Workload::GqrBudget => 0.90,
        Workload::HttpLight => 0.20,
        Workload::LiveRw => 0.95,
        Workload::MixSharded => 0.92,
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    report: Option<PathBuf>,
    repeat: usize,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Default,
        report: None,
        repeat: 1,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let known = Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?;
                args.workload = Some(known);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--repeat" => args.repeat = number()?.max(1) as usize,
            "--scale" => {
                args.scale = Scale::parse(&value).ok_or(format!("unknown scale {value:?}"))?
            }
            "--report" => args.report = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let outcome = parse_args().and_then(|args| match args.workload {
        Some(workload) => single_run(workload, &args),
        None => report::run_all(args.seed, args.seconds, args.repeat, args.check),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("gqr-benchmark: {why}");
            std::process::exit(2);
        }
    }
}

/// One workload, one process: set-up, window, checks, (layer pass), more
/// set-ups. `Ok(correct)`.
fn single_run(workload: Workload, args: &Args) -> Result<bool, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = workload.clients(nproc);

    let fx = Fixture::generate(args.scale, args.seed);
    let attrs =
        (workload == Workload::MixSharded).then(|| AttrColumns::generate(fx.base.n(), args.seed));
    let requests = workload.requests(&fx, attrs.as_ref(), clients);
    let set_up = || {
        workload::setup(
            workload,
            &fx,
            attrs.as_ref(),
            clients,
            &requests[0],
            out_dir,
        )
    };

    let running = set_up()?;
    let mut setup_s = vec![running.times.total_s];
    let addr = running.server.addr();
    let (mut attempted, mut failed) = (1u64, 0u64);

    // The window; on live-rw the writer runs beside the reader.
    let live = match running.handles {
        Handles::Live(index, _) => Some(index),
        _ => None,
    };
    let schedule = Schedule::for_seconds(args.seconds);
    let ops = match live {
        Some(_) => {
            let span = (schedule.warmup + schedule.window).as_secs_f64();
            live::plan_ops(&fx, (span * live::WRITE_RATE as f64) as usize)
        }
        None => Vec::new(),
    };
    let reference = ReferenceServer::start(fx.base.as_slice(), fx.dim())
        .map_err(|e| format!("reference server: {e}"))?;
    let (win, writes) = window::run_window(
        addr,
        reference.addr(),
        &requests,
        clients,
        schedule,
        live.is_none(),
        |epoch| match live {
            Some(index) => live::run_writer(&index.writer(), &ops, epoch),
            None => Vec::new(),
        },
    )?;
    reference.shutdown();
    attempted += win.attempted;
    failed += win.failed;
    let peak_rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let epoch_after_writes = live.map_or(0, |index| index.epoch());

    // live-rw: the stale-read rule, and truth over the mirror of the final
    // live set for the recall pass below.
    let mut truth: Vec<Vec<u32>> = requests.iter().map(|r| r.truth.clone()).collect();
    if live.is_some() {
        failed += live::stale_reads(&win.reads, &writes);
        let (rows, ids) = live::final_live_set(&fx, &ops, &writes);
        truth = brute_force_knn(&rows, &fx.queries, K, 0)
            .into_iter()
            .map(|local| local.into_iter().map(|i| ids[i as usize]).collect())
            .collect();
    }

    // Recall: each of the 1000 distinct requests once, after the window
    // (answers are deterministic; on live-rw the writer has stopped).
    let mut conn = client::Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut answers: Vec<Vec<u32>> = Vec::with_capacity(N_QUERIES);
    for req in &requests {
        attempted += 1;
        let answer = conn.search(&req.http, req.truth.len());
        failed += u64::from(answer.is_none());
        answers.push(answer.map(|a| a.ids).unwrap_or_default());
    }
    drop(conn);
    let recall = mean_recall(answers.iter().zip(&truth).map(|(a, t)| (&a[..], &t[..])));

    let mut per_layer: Option<LayerMetrics> = None;
    if args.trace {
        let facts = WindowFacts {
            window: &win,
            writes: &writes,
            epoch_after_writes,
        };
        let (metrics, tracer, tried, wrong) = layers::layer_pass(&fx, &requests, &running, &facts)?;
        attempted += tried;
        failed += wrong;
        let path = out_dir.join(format!("trace-{}.jsonl", workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        per_layer = Some(metrics);
    }
    running.server.shutdown();

    // The remaining set-ups, each torn down at its first 200.
    while !args.trace && setup_s.len() < SETUPS {
        let again = set_up()?;
        again.server.shutdown();
        setup_s.push(again.times.total_s);
        attempted += 1;
    }

    let floor_ok = args.scale != Scale::Default || recall >= recall_floor(workload);
    if !floor_ok {
        eprintln!(
            "recall_at_10 {recall:.4} is below the floor {} on {}",
            recall_floor(workload),
            workload.name()
        );
    }
    let correct = failed == 0 && floor_ok;

    let end_to_end = vec![
        stats::median(&setup_s),
        win.ratio.qps,
        win.ratio.p50_ms,
        win.ratio.p99_ms,
        win.cpu_us_per_request / win.reference_cpu_us_per_request,
        recall,
        peak_rss,
    ];
    let run = RunReport {
        workload: workload.name(),
        seed: args.seed,
        scale: args.scale,
        clients,
        correct,
        attempted,
        failed,
        end_to_end,
        setup_runs_s: setup_s,
        slices: win.slices.clone(),
        raw: layers::window_rows(&win),
        schedule,
        per_layer,
    };
    run.print_lines();
    if let Some(path) = &args.report {
        let doc = run.document(&Env::capture());
        std::fs::write(path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The contract's result line: the last line of standard output.
    println!("{}", run.result_line(args.trace));
    Ok(correct)
}
