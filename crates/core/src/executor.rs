//! Persistent worker-pool executor for the serving layer.
//!
//! Spawning fresh threads for every batch of work is pure overhead under a
//! query stream and gives the operator nothing to observe. An [`Executor`]
//! owns long-lived workers pulling from a **bounded** MPMC queue:
//!
//! * **Backpressure** — [`Executor::submit`] blocks while the queue is at
//!   capacity; [`Executor::try_submit`] refuses instead (and the refusal is
//!   counted), so a caller can shed load rather than buffer unboundedly.
//! * **Deadlines** — a job submitted with a deadline that has already passed
//!   by the time a worker dequeues it is *not run*; its ticket resolves to
//!   [`JobError::DeadlineMissed`] and the miss is counted.
//! * **Graceful shutdown** — [`Executor::shutdown`] (also run on drop) stops
//!   accepting work, lets the workers drain everything already queued, and
//!   joins them. Queued jobs are never dropped.
//!
//! Every hand-off is instrumented when an enabled
//! [`MetricsRegistry`] is attached:
//! `gqr_executor_queue_depth` (histogram of depth at enqueue),
//! `gqr_executor_queue_wait_ns` (enqueue→dequeue latency),
//! `gqr_executor_jobs_{submitted,completed,rejected}_total`, and
//! `gqr_executor_deadline_missed_total`.
//!
//! ```
//! use gqr_core::executor::Executor;
//!
//! let exec = Executor::builder().workers(2).build();
//! let t = exec.submit(|| 2 + 2).unwrap();
//! assert_eq!(t.wait().unwrap(), 4);
//! ```

use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Why a submission was refused at the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// [`Executor::try_submit`] found the queue at capacity.
    QueueFull,
    /// The executor is shutting down and accepts no new work.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "executor queue is full"),
            SubmitError::ShutDown => write!(f, "executor is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted job produced no value.
#[derive(Debug)]
pub enum JobError {
    /// The job's deadline had passed when a worker dequeued it; the closure
    /// was never run.
    DeadlineMissed,
    /// The job panicked; the payload is preserved for the caller to rethrow
    /// or inspect.
    Panicked(Box<dyn std::any::Any + Send>),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::DeadlineMissed => write!(f, "deadline passed before the job ran"),
            JobError::Panicked(_) => write!(f, "job panicked"),
        }
    }
}

/// One queued unit of work. The closure receives `true` when the job's
/// deadline passed before it could run, in which case it must only deliver
/// the miss to its ticket, not do the work.
struct Job {
    run: Box<dyn FnOnce(bool) + Send>,
    deadline: Option<Instant>,
    enqueued_at: Instant,
}

struct QueueState {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Workers wait here for jobs (or shutdown).
    not_empty: Condvar,
    /// Blocked producers wait here for queue space.
    not_full: Condvar,
    capacity: usize,
    metrics: MetricsRegistry,
}

/// Completion handle for a submitted job. Dropping it detaches: the job
/// still runs, its result is discarded.
#[derive(Debug)]
pub struct Ticket<T> {
    rx: mpsc::Receiver<Result<T, JobError>>,
}

impl<T> Ticket<T> {
    /// Block until the job finishes (or is skipped for a missed deadline).
    pub fn wait(self) -> Result<T, JobError> {
        self.rx
            .recv()
            .expect("executor workers deliver every accepted job")
    }

    /// Non-blocking poll: `Some` once the job has finished.
    pub fn try_wait(&self) -> Option<Result<T, JobError>> {
        self.rx.try_recv().ok()
    }
}

/// Configuration for an [`Executor`].
#[derive(Clone, Debug)]
pub struct ExecutorBuilder {
    workers: usize,
    queue_capacity: usize,
    metrics: MetricsRegistry,
}

impl ExecutorBuilder {
    /// Number of worker threads (default: available parallelism).
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n > 0, "an executor needs at least one worker");
        self.workers = n;
        self
    }

    /// Bound on queued (not yet running) jobs before submitters block
    /// (default: `4 × workers`).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "queue capacity must be positive");
        self.queue_capacity = n;
        self
    }

    /// Attach a metrics registry; all `gqr_executor_*` series record into it.
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Start the worker threads.
    pub fn build(self) -> Executor {
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(self.queue_capacity.min(1024)),
                shutting_down: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: self.queue_capacity,
            metrics: self.metrics,
        });
        let workers = (0..self.workers)
            .map(|i| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gqr-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            shared,
            workers: Mutex::new(workers),
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.not_empty.wait(state).unwrap();
            }
        };
        shared.not_full.notify_one();
        let now = Instant::now();
        if shared.metrics.is_enabled() {
            let waited = now.saturating_duration_since(job.enqueued_at);
            shared
                .metrics
                .record_duration("gqr_executor_queue_wait_ns", waited);
        }
        let missed = job.deadline.is_some_and(|d| now > d);
        if missed {
            shared.metrics.incr("gqr_executor_deadline_missed_total");
        }
        (job.run)(missed);
        shared.metrics.incr("gqr_executor_jobs_completed_total");
    }
}

/// A persistent worker pool over a bounded job queue. See the
/// [module docs](self) for semantics; build one with [`Executor::builder`]
/// or share the process-wide [`Executor::global`].
pub struct Executor {
    shared: std::sync::Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Executor {
    /// Start configuring an executor. Defaults: one worker per available
    /// core, queue capacity `4 × workers`, metrics disabled.
    pub fn builder() -> ExecutorBuilder {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ExecutorBuilder {
            workers,
            queue_capacity: 4 * workers,
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// The process-wide shared executor (built lazily with defaults). This
    /// is what background work such as live compaction runs on when the
    /// caller does not bring an executor of their own. It is never shut
    /// down.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::builder().build())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.lock().unwrap().len()
    }

    /// The attached metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Jobs currently queued (excluding jobs already running).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Submit a job, blocking while the queue is at capacity
    /// (backpressure). Errs only when the executor is shut down.
    pub fn submit<T, F>(&self, f: F) -> Result<Ticket<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_inner(None, f, true)
    }

    /// Submit a job that is only worth running before `deadline`. If a
    /// worker dequeues it later than that, the closure is skipped and the
    /// ticket resolves to [`JobError::DeadlineMissed`].
    pub fn submit_with_deadline<T, F>(
        &self,
        deadline: Instant,
        f: F,
    ) -> Result<Ticket<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_inner(Some(deadline), f, true)
    }

    /// Non-blocking submit: errs with [`SubmitError::QueueFull`] instead of
    /// waiting for queue space.
    pub fn try_submit<T, F>(&self, f: F) -> Result<Ticket<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_inner(None, f, false)
    }

    /// Non-blocking deadline submit: the admission-control primitive the
    /// serving layer runs on. Errs with [`SubmitError::QueueFull`] instead
    /// of waiting for queue space (overload turns into an immediate shed,
    /// never a growing queue), and a job dequeued after `deadline` is
    /// skipped, resolving the ticket to [`JobError::DeadlineMissed`].
    pub fn try_submit_with_deadline<T, F>(
        &self,
        deadline: Instant,
        f: F,
    ) -> Result<Ticket<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_inner(Some(deadline), f, false)
    }

    fn submit_inner<T, F>(
        &self,
        deadline: Option<Instant>,
        f: F,
        block: bool,
    ) -> Result<Ticket<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::sync_channel(1);
        let run = Box::new(move |missed: bool| {
            let outcome = if missed {
                Err(JobError::DeadlineMissed)
            } else {
                catch_unwind(AssertUnwindSafe(f)).map_err(JobError::Panicked)
            };
            let _ = tx.send(outcome);
        });
        self.enqueue(
            Job {
                run,
                deadline,
                enqueued_at: Instant::now(),
            },
            block,
        )?;
        Ok(Ticket { rx })
    }

    fn enqueue(&self, job: Job, block: bool) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if state.shutting_down {
                self.shared.metrics.incr("gqr_executor_jobs_rejected_total");
                return Err(SubmitError::ShutDown);
            }
            if state.queue.len() < self.shared.capacity {
                break;
            }
            if !block {
                self.shared.metrics.incr("gqr_executor_jobs_rejected_total");
                return Err(SubmitError::QueueFull);
            }
            state = self.shared.not_full.wait(state).unwrap();
        }
        state.queue.push_back(job);
        if self.shared.metrics.is_enabled() {
            self.shared
                .metrics
                .record("gqr_executor_queue_depth", state.queue.len() as u64);
        }
        self.shared
            .metrics
            .incr("gqr_executor_jobs_submitted_total");
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Stop accepting work, let the workers drain the queue, and join them.
    /// Jobs already queued all run; subsequent submissions err with
    /// [`SubmitError::ShutDown`]. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutting_down = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers())
            .field("queue_capacity", &self.shared.capacity)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn submit_runs_jobs_and_returns_results() {
        let exec = Executor::builder().workers(2).build();
        let tickets: Vec<_> = (0..20)
            .map(|i| exec.submit(move || i * i).unwrap())
            .collect();
        let results: Vec<i32> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(results, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_drains_queue() {
        let done = Arc::new(AtomicUsize::new(0));
        let exec = Executor::builder().workers(1).queue_capacity(64).build();
        for _ in 0..32 {
            let done = Arc::clone(&done);
            exec.submit(move || {
                std::thread::sleep(Duration::from_micros(200));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        exec.shutdown();
        assert_eq!(
            done.load(Ordering::SeqCst),
            32,
            "every queued job ran before shutdown returned"
        );
        assert!(matches!(exec.submit(|| ()), Err(SubmitError::ShutDown)));
    }

    #[test]
    fn try_submit_applies_backpressure() {
        let metrics = MetricsRegistry::enabled();
        let exec = Executor::builder()
            .workers(1)
            .queue_capacity(2)
            .metrics(metrics.clone())
            .build();
        // Gate the single worker so the queue can fill behind it.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = exec.submit(move || gate_rx.recv().unwrap()).unwrap();
        // Wait until the worker has actually dequeued the blocker.
        while exec.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let a = exec.try_submit(|| 1).unwrap();
        let b = exec.try_submit(|| 2).unwrap();
        let full = exec.try_submit(|| 3);
        assert!(matches!(full, Err(SubmitError::QueueFull)));
        assert_eq!(
            metrics.counter_value("gqr_executor_jobs_rejected_total"),
            Some(1)
        );
        gate_tx.send(()).unwrap();
        blocker.wait().unwrap();
        assert_eq!(a.wait().unwrap(), 1);
        assert_eq!(b.wait().unwrap(), 2);
        assert_eq!(
            metrics.counter_value("gqr_executor_jobs_submitted_total"),
            Some(3)
        );
        // Queue depth was observed at enqueue time.
        assert!(
            metrics
                .histogram("gqr_executor_queue_depth")
                .unwrap()
                .count()
                >= 3
        );
    }

    #[test]
    fn expired_deadline_skips_the_job_and_counts_a_miss() {
        let metrics = MetricsRegistry::enabled();
        let exec = Executor::builder()
            .workers(1)
            .metrics(metrics.clone())
            .build();
        // Hold the worker so the deadlined job sits in the queue past its
        // deadline.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = exec.submit(move || gate_rx.recv().unwrap()).unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let doomed = exec
            .submit_with_deadline(Instant::now() + Duration::from_millis(1), move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        gate_tx.send(()).unwrap();
        blocker.wait().unwrap();
        assert!(matches!(doomed.wait(), Err(JobError::DeadlineMissed)));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "the closure never ran");
        assert_eq!(
            metrics.counter_value("gqr_executor_deadline_missed_total"),
            Some(1)
        );
    }

    #[test]
    fn job_panic_is_reported_on_the_ticket() {
        let exec = Executor::builder().workers(1).build();
        let t = exec.submit(|| -> i32 { panic!("kaput") }).unwrap();
        match t.wait() {
            Err(JobError::Panicked(p)) => {
                assert_eq!(p.downcast_ref::<&str>(), Some(&"kaput"));
            }
            other => panic!("expected a panic, got {other:?}"),
        }
        // The worker survived the panic.
        assert_eq!(exec.submit(|| 7).unwrap().wait().unwrap(), 7);
    }

    #[test]
    fn global_executor_is_shared_and_alive() {
        let a = Executor::global();
        let b = Executor::global();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.submit(|| 41 + 1).unwrap().wait().unwrap(), 42);
    }

    #[test]
    fn try_wait_polls_without_blocking() {
        let exec = Executor::builder().workers(1).build();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let t = exec.submit(move || gate_rx.recv().unwrap()).unwrap();
        assert!(t.try_wait().is_none(), "job still gated");
        gate_tx.send(()).unwrap();
        loop {
            if let Some(r) = t.try_wait() {
                r.unwrap();
                break;
            }
            std::thread::yield_now();
        }
    }
}
