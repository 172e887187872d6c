//! The measured window: closed-loop clients over real sockets, alternating
//! between the program and the reference server (see `reference`), cut into
//! slices whose medians are the reported values.
//!
//! Nothing in the program is switched on for this: tracing is the
//! benchmark's own and runs afterwards, so the window is trace-free by
//! construction.

use crate::client::Conn;
use crate::fixture::{Class, Request, K, N_QUERIES};
use crate::stats::{median, percentile, percentile_of};
use gqr::eval::timer::process_cpu_seconds;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The window is cut into this many slices; each reported value is the
/// median over slices of the slice's own value.
pub const SLICES: usize = 5;
/// A slice's p99 needs ten samples beyond it.
pub const MIN_SLICE_SAMPLES: usize = 1000;
/// A slice is this many periods. Every period the clients spend 70 %
/// calling the program and the rest calling the reference, so both see the
/// same moments of the host.
pub const PERIODS_PER_SLICE: u32 = 4;

/// The timing of one run, fixed by `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub window: Duration,
    pub slice: Duration,
    pub period: Duration,
    /// The part of each period spent on the program.
    pub program_share: Duration,
    /// Untimed lead-in: whole periods, at least a second.
    pub warmup: Duration,
}

impl Schedule {
    pub fn for_seconds(seconds: u64) -> Schedule {
        let window = Duration::from_secs(seconds);
        let slice = window / SLICES as u32;
        let period = slice / PERIODS_PER_SLICE;
        let lead_in = (1.0 / period.as_secs_f64()).ceil().max(1.0) as u32;
        Schedule {
            window,
            slice,
            period,
            program_share: period * 7 / 10,
            warmup: period * lead_in,
        }
    }

    fn in_program_phase(&self, since_epoch: Duration) -> bool {
        since_epoch.as_nanos() % self.period.as_nanos() < self.program_share.as_nanos()
    }
}

/// One completed round trip of the window.
pub struct Sample {
    /// Completion time since the window opened.
    pub done: Duration,
    pub latency: Duration,
    /// `None` for a round trip to the reference server.
    pub class: Option<Class>,
}

/// What one client saw, warm-up included in the counts.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// `(time sent, ids answered)` of every read, kept only when answers may
    /// change (`live-rw`), for the stale-read rule.
    pub reads: Vec<(Instant, [u32; K])>,
}

struct Targets {
    program: SocketAddr,
    reference: SocketAddr,
}

/// Run one closed-loop client from `epoch` until `end`: request `i` to the
/// program carries query `(client + i·clients) mod 1000`. With
/// `must_repeat` a query's answer must equal its earlier answers (static
/// indexes are deterministic); without it every read is logged for the
/// stale-read check.
fn client_loop(
    targets: &Targets,
    requests: &[Request],
    (client, clients): (usize, usize),
    (schedule, epoch): (Schedule, Instant),
    must_repeat: bool,
) -> ClientLog {
    let start = epoch + schedule.warmup;
    let end = start + schedule.window;
    let mut log = ClientLog::default();
    let mut program = Conn::connect(targets.program).ok();
    let mut reference = Conn::connect(targets.reference).ok();
    let mut first_answer: Vec<Option<Vec<u32>>> = vec![None; N_QUERIES];
    let mut i = 0usize;
    loop {
        let sent = Instant::now();
        if sent >= end {
            return log;
        }
        log.attempted += 1;
        let req = &requests[(client + i * clients) % N_QUERIES];
        let class = if schedule.in_program_phase(sent - epoch) {
            i += 1;
            let answer = program
                .as_mut()
                .and_then(|c| c.search(&req.http, req.truth.len()));
            let Some(answer) = answer else {
                log.failed += 1;
                // The connection's framing can no longer be trusted.
                program = Conn::connect(targets.program).ok();
                continue;
            };
            if must_repeat {
                match &first_answer[req.query] {
                    Some(ids) if *ids != answer.ids => log.failed += 1,
                    Some(_) => {}
                    None => first_answer[req.query] = Some(answer.ids),
                }
            } else if let Ok(ids) = <[u32; K]>::try_from(answer.ids.as_slice()) {
                log.reads.push((sent, ids));
            }
            Some(req.class)
        } else {
            // Same bytes on the wire; the reference ignores their content.
            let ok = reference
                .as_mut()
                .is_some_and(|c| matches!(c.round_trip(&req.http), Ok((200, _, _))));
            if !ok {
                log.failed += 1;
                reference = Conn::connect(targets.reference).ok();
                continue;
            }
            None
        };
        let latency = sent.elapsed();
        if sent >= start {
            log.samples.push(Sample {
                done: (sent + latency).duration_since(start),
                latency,
                class,
            });
        }
    }
}

/// One side (program or reference) of one slice, or the median over slices.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rates {
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl Rates {
    fn of(latencies: &mut [u64], busy: Duration) -> Rates {
        latencies.sort_unstable();
        Rates {
            qps: latencies.len() as f64 / busy.as_secs_f64(),
            p50_ms: percentile(latencies, 0.50) as f64 / 1e6,
            p99_ms: percentile(latencies, 0.99) as f64 / 1e6,
        }
    }

    fn median_of(slices: &[Rates]) -> Rates {
        let column = |f: fn(&Rates) -> f64| median(&slices.iter().map(f).collect::<Vec<f64>>());
        Rates {
            qps: column(|r| r.qps),
            p50_ms: column(|r| r.p50_ms),
            p99_ms: column(|r| r.p99_ms),
        }
    }

    /// The program's slice in units of the reference's: rate over rate,
    /// and both latencies over the reference's *median* round trip (its
    /// p99 is a scheduling tail that adds noise of its own).
    pub fn over(&self, reference: &Rates) -> Rates {
        Rates {
            qps: self.qps / reference.qps,
            p50_ms: self.p50_ms / reference.p50_ms,
            p99_ms: self.p99_ms / reference.p50_ms,
        }
    }
}

/// Medians over slices, the slices themselves, and the window totals.
pub struct WindowResult {
    /// The program's own numbers.
    pub program: Rates,
    /// The reference server's, from the same slices.
    pub reference: Rates,
    /// Program ÷ reference, slice by slice, then the median.
    pub ratio: Rates,
    pub cpu_us_per_request: f64,
    pub reference_cpu_us_per_request: f64,
    /// Per-slice `(program, reference)`, printed beside the medians.
    pub slices: Vec<(Rates, Rates)>,
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
    pub reads: Vec<(Instant, [u32; K])>,
}

/// Warm up, then measure for `seconds`. `beside` runs on a thread of its
/// own from the warm-up on (the `live-rw` writer) and its result is handed
/// back.
pub fn run_window<T: Send>(
    program: SocketAddr,
    reference: SocketAddr,
    requests: &[Request],
    clients: usize,
    schedule: Schedule,
    must_repeat: bool,
    beside: impl FnOnce(Instant) -> T + Send,
) -> Result<(WindowResult, T), String> {
    let targets = Targets { program, reference };
    let Schedule {
        window,
        period,
        program_share,
        ..
    } = schedule;
    let epoch = Instant::now();
    let start = epoch + schedule.warmup;
    let end = start + window;
    let (logs, cpu, beside_out) = std::thread::scope(|scope| {
        let targets = &targets;
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let times = (schedule, epoch);
                    client_loop(targets, requests, (client, clients), times, must_repeat)
                })
            })
            .collect();
        let beside = scope.spawn(move || beside(epoch));
        // Process CPU at every phase boundary of the window, so it can be
        // split between the program's phases and the reference's.
        let mut cpu = [0.0f64; 2];
        let mut boundary = start;
        let mut program_phase = true;
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let mut last = process_cpu_seconds();
        while boundary < end {
            boundary += if program_phase {
                program_share
            } else {
                period - program_share
            };
            std::thread::sleep(boundary.min(end).saturating_duration_since(Instant::now()));
            let now = process_cpu_seconds();
            if let (Some(a), Some(b)) = (last, now) {
                cpu[usize::from(!program_phase)] += b - a;
            }
            last = now;
            program_phase = !program_phase;
        }
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let beside_out = beside.join().expect("writer thread panicked");
        (logs, last.map(|_| cpu), beside_out)
    });
    let cpu = cpu.ok_or("cannot read /proc/self/stat for CPU time")?;

    let (mut attempted, mut failed) = (0, 0);
    let (mut samples, mut reads) = (Vec::new(), Vec::new());
    for log in logs {
        attempted += log.attempted;
        failed += log.failed;
        samples.extend(log.samples);
        reads.extend(log.reads);
    }

    let slice_len = schedule.slice;
    let mut per_slice: Vec<[Vec<u64>; 2]> = vec![Default::default(); SLICES];
    for s in samples.iter().filter(|s| s.done < window) {
        let slice = (s.done.as_nanos() / slice_len.as_nanos()) as usize;
        per_slice[slice][usize::from(s.class.is_none())].push(s.latency.as_nanos() as u64);
    }
    let (mut completed, mut reference_completed) = (0usize, 0usize);
    let mut slices = Vec::with_capacity(SLICES);
    for [program, reference] in &mut per_slice {
        if program.len().min(reference.len()) < MIN_SLICE_SAMPLES {
            eprintln!(
                "warning: a slice holds {} + {} samples; a p99 has fewer than ten beyond it",
                program.len(),
                reference.len()
            );
        }
        if program.is_empty() || reference.is_empty() {
            return Err("a slice of the window completed no request".into());
        }
        completed += program.len();
        reference_completed += reference.len();
        slices.push((
            Rates::of(program, program_share * PERIODS_PER_SLICE),
            Rates::of(reference, (period - program_share) * PERIODS_PER_SLICE),
        ));
    }
    let column = |f: fn(&(Rates, Rates)) -> Rates| -> Vec<Rates> { slices.iter().map(f).collect() };
    Ok((
        WindowResult {
            program: Rates::median_of(&column(|s| s.0)),
            reference: Rates::median_of(&column(|s| s.1)),
            ratio: Rates::median_of(&column(|s| s.0.over(&s.1))),
            cpu_us_per_request: cpu[0] * 1e6 / completed as f64,
            reference_cpu_us_per_request: cpu[1] * 1e6 / reference_completed as f64,
            slices,
            attempted,
            failed,
            samples,
            reads,
        },
        beside_out,
    ))
}

/// p50 round trip of one class inside the window, in microseconds.
pub fn class_p50_us(samples: &[Sample], class: Class) -> f64 {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| s.class == Some(class))
        .map(|s| s.latency.as_nanos() as u64)
        .collect();
    percentile_of(&mut v, 0.50) as f64 / 1e3
}
