//! Lock-free chunked work dispatch over scoped threads.
//!
//! Both offline fleet evaluation ([`crate::fleet_eval`]) and online batch
//! serving (`vup-serve`) run many independent per-vehicle tasks and need
//! their results back in input order. This executor does that without any
//! mutex on the hot path:
//!
//! - **Dispatch** is a single `AtomicUsize` cursor. Workers claim chunks
//!   of indices with `fetch_add`, so there is no dispatch lock and no
//!   per-task allocation.
//! - **Collection** writes into a pre-allocated per-slot output vector.
//!   Each index is claimed by exactly one worker, so slot writes never
//!   contend; there is no result lock and no post-hoc sort — outputs
//!   land in input order by construction.
//! - **Panics are isolated.** Each task runs under `catch_unwind`; a
//!   panicking task yields an `Err` with the captured message in its own
//!   slot while every other task completes normally.
//!
//! Determinism: task `i` always computes the same value regardless of
//! thread count or scheduling, and slot `i` always holds task `i`'s
//! result, so the returned vector is identical for any thread count.
//!
//! **Observability.** [`run_chunked_observed`] is the same scheduler with
//! a per-worker stats side channel: each worker counts its claimed chunks
//! and executed tasks locally (plain `u64`s, no shared state on the hot
//! path) and, when the supplied [`ExecutorMetrics`] are live, times its
//! busy and idle spans. The stats are folded into a [`RunSummary`] and
//! published to the metrics registry once per run, on the coordinating
//! thread. With disabled metrics no clock is ever read, and the task
//! results are bit-identical either way — the stats are write-only.
//! [`run_chunked_traced`] additionally gives each worker an
//! `executor_worker` span under a caller-supplied [`SpanCtx`]; with a
//! disabled context the spans are no-ops and, again, no clock is read.
//!
//! **Cancellation.** [`run_chunked_cancellable`] threads a
//! [`CancelToken`] through the dispatch loop: workers re-check it before
//! every chunk claim, so a manual trip or an expired wall-clock deadline
//! stops the run at the next claim boundary and fills every unclaimed
//! slot with `Err(`[`CANCELLED_TASK`]`)`. The never-token used by all
//! other entry points keeps the check to one discriminant read.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vup_obs::{Counter, Gauge, Registry, SpanCtx};

/// Outcome of one task: its value, or the captured panic message.
pub type TaskResult<T> = std::result::Result<T, String>;

/// Error message filled into the slots of tasks a cancelled run never
/// claimed (see [`CancelToken`]).
pub const CANCELLED_TASK: &str = "cancelled before execution";

/// Cooperative cancellation for executor runs.
///
/// Workers check the token between chunk claims: once it reports
/// cancelled, no *new* chunk is claimed (tasks already in flight finish
/// normally) and every unclaimed slot comes back as
/// `Err(`[`CANCELLED_TASK`]`)`. Two trip conditions exist:
///
/// - **manual** — [`CancelToken::cancel`] flips a shared flag;
/// - **deadline** — a token built with [`CancelToken::with_deadline`]
///   additionally trips once the wall clock passes the deadline.
///
/// [`CancelToken::never`] (also the `Default`) holds nothing: checks are
/// a single `Option` discriminant read and **never touch the clock**, so
/// the plain entry points keep the executor's clock-free guarantee.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A live token that only trips when [`CancelToken::cancel`] is
    /// called.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A token that can never trip; checks are clock-free no-ops.
    pub fn never() -> CancelToken {
        CancelToken::default()
    }

    /// A live token that additionally trips once `budget` of wall-clock
    /// time has elapsed from now. Checking such a token reads the clock.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            })),
        }
    }

    /// Trips the token; every subsequent check reports cancelled.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Release);
        }
    }

    /// Whether the token has tripped (manually, or by passing its
    /// deadline). Always `false` for [`CancelToken::never`], with no
    /// clock read.
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.flag.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }
}

/// What one executor worker did during one run.
///
/// Chunk and task counts are always collected (two local `u64` adds per
/// chunk). The nanosecond spans are only measured when the run's
/// [`ExecutorMetrics`] are live; otherwise they stay 0 and the clock is
/// never read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Chunks this worker claimed from the dispatch cursor.
    pub chunks_claimed: u64,
    /// Tasks this worker executed.
    pub tasks_run: u64,
    /// Nanoseconds spent inside task bodies.
    pub busy_nanos: u64,
    /// Nanoseconds spent outside task bodies (claim overhead plus waiting
    /// for `thread::scope` to wind down).
    pub idle_nanos: u64,
}

/// Per-worker stats of one [`run_chunked_observed`] call.
///
/// Worker entries are in completion order, which is scheduler-dependent;
/// the totals are what to assert on. Summed over all workers,
/// `chunks_claimed` is always `n_tasks.div_ceil(chunk_size)` and
/// `tasks_run` is always `n_tasks`, for every thread count.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// One entry per worker that participated in the run.
    pub workers: Vec<WorkerStats>,
}

impl RunSummary {
    /// Total chunks claimed across all workers.
    pub fn chunks_claimed(&self) -> u64 {
        self.workers.iter().map(|w| w.chunks_claimed).sum()
    }

    /// Total tasks executed across all workers.
    pub fn tasks_run(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_run).sum()
    }

    /// Total nanoseconds spent inside task bodies (0 when untimed).
    pub fn busy_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_nanos).sum()
    }

    /// Total nanoseconds spent outside task bodies (0 when untimed).
    pub fn idle_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_nanos).sum()
    }
}

/// Registry handles for one executor pool's metrics.
///
/// Register once per pool (e.g. `"fleet_eval"`, `"serve"`) and reuse for
/// every run; the `pool` label keeps independent dispatch sites apart in
/// one registry. [`ExecutorMetrics::disabled`] is the no-op used by the
/// un-instrumented entry points.
pub struct ExecutorMetrics {
    enabled: bool,
    runs: Counter,
    chunks: Counter,
    tasks: Counter,
    busy_nanos: Counter,
    idle_nanos: Counter,
    workers: Gauge,
}

impl ExecutorMetrics {
    /// Registers the executor metric family under `pool`.
    pub fn register(registry: &Registry, pool: &str) -> ExecutorMetrics {
        registry.describe("vup_executor_runs_total", "Executor runs, by pool.");
        registry.describe(
            "vup_executor_chunks_claimed_total",
            "Chunks claimed from the dispatch cursor.",
        );
        registry.describe("vup_executor_tasks_total", "Tasks executed.");
        registry.describe(
            "vup_executor_busy_nanos_total",
            "Worker nanoseconds spent inside task bodies.",
        );
        registry.describe(
            "vup_executor_idle_nanos_total",
            "Worker nanoseconds spent outside task bodies.",
        );
        registry.describe(
            "vup_executor_workers",
            "Workers that participated in the last run.",
        );
        let labels = [("pool", pool)];
        ExecutorMetrics {
            enabled: registry.is_enabled(),
            runs: registry.counter_with("vup_executor_runs_total", &labels),
            chunks: registry.counter_with("vup_executor_chunks_claimed_total", &labels),
            tasks: registry.counter_with("vup_executor_tasks_total", &labels),
            busy_nanos: registry.counter_with("vup_executor_busy_nanos_total", &labels),
            idle_nanos: registry.counter_with("vup_executor_idle_nanos_total", &labels),
            workers: registry.gauge_with("vup_executor_workers", &labels),
        }
    }

    /// Metrics that record nothing and suppress all timing.
    pub fn disabled() -> ExecutorMetrics {
        ExecutorMetrics::register(&Registry::disabled(), "")
    }

    /// Whether runs under these metrics measure and record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Publishes one run's summary (single update pass, coordinator only).
    fn record(&self, summary: &RunSummary) {
        if !self.enabled {
            return;
        }
        self.runs.inc();
        self.chunks.add(summary.chunks_claimed());
        self.tasks.add(summary.tasks_run());
        self.busy_nanos.add(summary.busy_nanos());
        self.idle_nanos.add(summary.idle_nanos());
        self.workers.set(summary.workers.len() as f64);
    }
}

/// Saturating nanosecond reading of an elapsed [`Instant`] span.
fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Pre-allocated output slots, one per task.
///
/// Safety contract: index `i` is written by exactly one worker (the one
/// that claimed it from the atomic cursor) and only read after
/// `thread::scope` has joined every worker, so no cell is ever aliased
/// mutably. This is what lets the executor require only `T: Send` —
/// `OnceLock` slots would demand `T: Sync`, which task outputs have no
/// reason to satisfy.
struct Slots<T> {
    cells: Vec<UnsafeCell<Option<T>>>,
}

unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(n: usize) -> Slots<T> {
        Slots {
            cells: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// Writes slot `i`. Caller must be the unique claimant of `i`.
    unsafe fn write(&self, i: usize, value: T) {
        unsafe { *self.cells[i].get() = Some(value) };
    }

    /// Consumes the slots after all workers have been joined.
    fn into_values(self) -> impl Iterator<Item = Option<T>> {
        self.cells.into_iter().map(UnsafeCell::into_inner)
    }
}

/// Resolves a requested thread count: `0` means the machine's available
/// parallelism, and the result is never larger than the task count.
pub fn effective_threads(n_threads: usize, n_tasks: usize) -> usize {
    let requested = if n_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        n_threads
    };
    requested.min(n_tasks).max(1)
}

/// Runs `n_tasks` independent tasks on `n_threads` workers (0 = auto),
/// one task per claim. Best for heavy, uneven tasks such as per-vehicle
/// model training. Results are returned in task-index order.
pub fn run_tasks<T, F>(n_tasks: usize, n_threads: usize, task: F) -> Vec<TaskResult<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked(n_tasks, n_threads, 1, task)
}

/// [`run_tasks`] with per-worker stats and metrics publishing.
pub fn run_tasks_observed<T, F>(
    n_tasks: usize,
    n_threads: usize,
    task: F,
    metrics: &ExecutorMetrics,
) -> (Vec<TaskResult<T>>, RunSummary)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked_observed(n_tasks, n_threads, 1, task, metrics)
}

/// [`run_tasks_observed`] with per-worker trace spans under `parent`.
pub fn run_tasks_traced<T, F>(
    n_tasks: usize,
    n_threads: usize,
    task: F,
    metrics: &ExecutorMetrics,
    parent: &SpanCtx,
) -> (Vec<TaskResult<T>>, RunSummary)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked_traced(n_tasks, n_threads, 1, task, metrics, parent)
}

/// Runs `n_tasks` independent tasks, claimed `chunk_size` indices at a
/// time. Larger chunks amortize the atomic claim for very light tasks;
/// `chunk_size = 1` gives the best load balance for heavy ones.
pub fn run_chunked<T, F>(
    n_tasks: usize,
    n_threads: usize,
    chunk_size: usize,
    task: F,
) -> Vec<TaskResult<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked_observed(
        n_tasks,
        n_threads,
        chunk_size,
        task,
        &ExecutorMetrics::disabled(),
    )
    .0
}

/// [`run_chunked`] with per-worker stats and metrics publishing.
///
/// Returns the task results (identical to [`run_chunked`]'s, bit for bit)
/// plus a [`RunSummary`] of what each worker did. When `metrics` are live
/// the workers additionally time their busy/idle spans and the summary is
/// published to the registry; when disabled no clock is read and only the
/// chunk/task counts are collected.
pub fn run_chunked_observed<T, F>(
    n_tasks: usize,
    n_threads: usize,
    chunk_size: usize,
    task: F,
    metrics: &ExecutorMetrics,
) -> (Vec<TaskResult<T>>, RunSummary)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked_traced(
        n_tasks,
        n_threads,
        chunk_size,
        task,
        metrics,
        &SpanCtx::disabled(),
    )
}

/// [`run_chunked_observed`] with per-worker trace spans: every worker
/// (including the single-threaded fast path) runs under an
/// `executor_worker` span parented to `parent`, annotated with the
/// chunks and tasks it processed. A disabled `parent` makes the spans
/// no-ops — no clock reads, identical results.
pub fn run_chunked_traced<T, F>(
    n_tasks: usize,
    n_threads: usize,
    chunk_size: usize,
    task: F,
    metrics: &ExecutorMetrics,
    parent: &SpanCtx,
) -> (Vec<TaskResult<T>>, RunSummary)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked_cancellable(
        n_tasks,
        n_threads,
        chunk_size,
        task,
        metrics,
        parent,
        &CancelToken::never(),
    )
}

/// [`run_chunked_traced`] with a deadline-aware cancellation check:
/// workers consult `cancel` before every chunk claim (and, on the
/// single-threaded fast path, before every task), so a tripped token —
/// manual or wall-clock deadline — stops the run at the next claim
/// boundary. Tasks already in flight complete; every task that was never
/// claimed yields `Err(`[`CANCELLED_TASK`]`)` in its slot, and
/// `tasks_run` in the summary counts only the tasks that actually
/// executed. With [`CancelToken::never`] this is exactly
/// [`run_chunked_traced`]: one extra discriminant read per claim, no
/// clock access.
#[allow(clippy::too_many_arguments)]
pub fn run_chunked_cancellable<T, F>(
    n_tasks: usize,
    n_threads: usize,
    chunk_size: usize,
    task: F,
    metrics: &ExecutorMetrics,
    parent: &SpanCtx,
    cancel: &CancelToken,
) -> (Vec<TaskResult<T>>, RunSummary)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    if n_tasks == 0 {
        let summary = RunSummary::default();
        metrics.record(&summary);
        return (Vec::new(), summary);
    }
    let n_threads = effective_threads(n_threads, n_tasks);
    let timed = metrics.is_enabled();

    let run_one = |i: usize| -> TaskResult<T> {
        catch_unwind(AssertUnwindSafe(|| task(i))).map_err(|payload| panic_message(&*payload))
    };

    if n_threads == 1 {
        // Same semantics (per-task panic isolation), no thread overhead.
        let mut span = parent.child("executor_worker");
        let started = timed.then(Instant::now);
        let mut executed = 0usize;
        let results: Vec<TaskResult<T>> = (0..n_tasks)
            .map(|i| {
                if cancel.is_cancelled() {
                    return Err(CANCELLED_TASK.to_string());
                }
                executed += 1;
                run_one(i)
            })
            .collect();
        let summary = RunSummary {
            workers: vec![WorkerStats {
                chunks_claimed: executed.div_ceil(chunk_size) as u64,
                tasks_run: executed as u64,
                busy_nanos: started.map_or(0, elapsed_nanos),
                idle_nanos: 0,
            }],
        };
        span.arg("chunks", summary.chunks_claimed());
        span.arg("tasks", summary.tasks_run());
        metrics.record(&summary);
        return (results, summary);
    }

    let slots: Slots<TaskResult<T>> = Slots::new(n_tasks);
    let cursor = AtomicUsize::new(0);
    // Cold path: each worker pushes its local stats exactly once, after
    // its last claim fails. Never touched while tasks run.
    let worker_stats: Mutex<Vec<WorkerStats>> = Mutex::new(Vec::with_capacity(n_threads));

    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| {
                let mut span = parent.child("executor_worker");
                let worker_started = timed.then(Instant::now);
                let mut stats = WorkerStats::default();
                loop {
                    if cancel.is_cancelled() {
                        break;
                    }
                    let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                    if start >= n_tasks {
                        break;
                    }
                    let end = (start + chunk_size).min(n_tasks);
                    stats.chunks_claimed += 1;
                    stats.tasks_run += (end - start) as u64;
                    let chunk_started = timed.then(Instant::now);
                    for i in start..end {
                        let result = run_one(i);
                        // Sound: this worker is the unique claimant of i
                        // (fetch_add hands out each index once).
                        unsafe { slots.write(i, result) };
                    }
                    if let Some(t0) = chunk_started {
                        stats.busy_nanos += elapsed_nanos(t0);
                    }
                }
                if let Some(t0) = worker_started {
                    stats.idle_nanos = elapsed_nanos(t0).saturating_sub(stats.busy_nanos);
                }
                span.arg("chunks", stats.chunks_claimed);
                span.arg("tasks", stats.tasks_run);
                worker_stats.lock().expect("stats lock").push(stats);
            });
        }
    });

    let summary = RunSummary {
        workers: worker_stats.into_inner().expect("stats lock"),
    };
    metrics.record(&summary);

    let results = slots
        .into_values()
        // Every claimed slot was filled before its worker was joined; an
        // empty slot means the run was cancelled before the index was
        // ever claimed.
        .map(|slot| slot.unwrap_or_else(|| Err(CANCELLED_TASK.to_string())))
        .collect();
    (results, summary)
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_task_order_for_all_thread_counts() {
        for threads in [1usize, 2, 4, 0] {
            let results = run_tasks(100, threads, |i| i * i);
            let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
            let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(values, expected, "threads = {threads}");
        }
    }

    #[test]
    fn chunked_claiming_covers_every_index_exactly_once() {
        use std::sync::atomic::AtomicU32;
        for chunk in [1usize, 3, 7, 64, 1000] {
            let calls: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
            let results = run_chunked(97, 4, chunk, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(results.len(), 97);
            for (i, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {chunk}, index {i}");
            }
        }
    }

    #[test]
    fn a_panicking_task_is_isolated_to_its_slot() {
        let results = run_tasks(10, 4, |i| {
            if i == 3 {
                panic!("task {i} exploded");
            }
            i + 1
        });
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let message = r.as_ref().unwrap_err();
                assert!(message.contains("task 3 exploded"), "got: {message}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i + 1);
            }
        }
    }

    #[test]
    fn panics_are_isolated_single_threaded_too() {
        let results = run_tasks(4, 1, |i| {
            if i % 2 == 0 {
                panic!("even panic");
            }
            i
        });
        assert!(results[0].is_err());
        assert_eq!(*results[1].as_ref().unwrap(), 1);
        assert!(results[2].is_err());
        assert_eq!(*results[3].as_ref().unwrap(), 3);
    }

    #[test]
    fn zero_tasks_returns_empty() {
        let results: Vec<TaskResult<u8>> = run_tasks(0, 4, |_| unreachable!());
        assert!(results.is_empty());
    }

    #[test]
    fn observed_run_matches_plain_run_and_counts_everything() {
        for (threads, chunk) in [(1usize, 1usize), (1, 8), (4, 1), (4, 8), (0, 3)] {
            let plain = run_chunked(97, threads, chunk, |i| i * 2);
            let (observed, summary) =
                run_chunked_observed(97, threads, chunk, |i| i * 2, &ExecutorMetrics::disabled());
            let a: Vec<usize> = plain.into_iter().map(|r| r.unwrap()).collect();
            let b: Vec<usize> = observed.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(a, b, "threads {threads}, chunk {chunk}");
            // The claim/task totals are deterministic for every schedule.
            assert_eq!(summary.tasks_run(), 97, "threads {threads}, chunk {chunk}");
            assert_eq!(
                summary.chunks_claimed(),
                97usize.div_ceil(chunk) as u64,
                "threads {threads}, chunk {chunk}"
            );
            // Untimed run: no clock was read, so no nanos were recorded.
            assert_eq!(summary.busy_nanos(), 0);
            assert_eq!(summary.idle_nanos(), 0);
        }
    }

    #[test]
    fn live_metrics_accumulate_run_totals() {
        let registry = Registry::new();
        let metrics = ExecutorMetrics::register(&registry, "test_pool");
        let (_, first) = run_chunked_observed(20, 4, 2, |i| i, &metrics);
        let (_, second) = run_chunked_observed(10, 2, 1, |i| i, &metrics);
        assert!(first.workers.len() <= 4 && !first.workers.is_empty());

        let labels = [("pool", "test_pool")];
        assert_eq!(
            registry
                .counter_with("vup_executor_runs_total", &labels)
                .get(),
            2
        );
        assert_eq!(
            registry
                .counter_with("vup_executor_tasks_total", &labels)
                .get(),
            30
        );
        assert_eq!(
            registry
                .counter_with("vup_executor_chunks_claimed_total", &labels)
                .get(),
            first.chunks_claimed() + second.chunks_claimed()
        );
        assert_eq!(
            registry
                .counter_with("vup_executor_busy_nanos_total", &labels)
                .get(),
            first.busy_nanos() + second.busy_nanos()
        );
        assert_eq!(
            registry.gauge_with("vup_executor_workers", &labels).get(),
            second.workers.len() as f64
        );
    }

    #[test]
    fn observed_empty_run_still_counts_the_run() {
        let registry = Registry::new();
        let metrics = ExecutorMetrics::register(&registry, "empty");
        let (results, summary) =
            run_chunked_observed(0, 4, 1, |_: usize| -> u8 { unreachable!() }, &metrics);
        assert!(results.is_empty() && summary.workers.is_empty());
        let labels = [("pool", "empty")];
        assert_eq!(
            registry
                .counter_with("vup_executor_runs_total", &labels)
                .get(),
            1
        );
        assert_eq!(
            registry
                .counter_with("vup_executor_tasks_total", &labels)
                .get(),
            0
        );
    }

    #[test]
    fn traced_run_matches_plain_and_records_worker_spans() {
        use vup_obs::Tracer;
        for threads in [1usize, 4] {
            let tracer = Tracer::new();
            let root = tracer.root("run");
            let (traced, summary) = run_chunked_traced(
                40,
                threads,
                4,
                |i| i * 3,
                &ExecutorMetrics::disabled(),
                &root.ctx(),
            );
            drop(root);
            let plain = run_chunked(40, threads, 4, |i| i * 3);
            let a: Vec<usize> = plain.into_iter().map(|r| r.unwrap()).collect();
            let b: Vec<usize> = traced.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(a, b, "threads = {threads}");

            let snapshot = tracer.snapshot();
            let workers: Vec<_> = snapshot
                .events
                .iter()
                .filter(|e| e.name == "executor_worker")
                .collect();
            assert_eq!(workers.len(), summary.workers.len(), "threads = {threads}");
            // Worker spans carry the same totals the summary reports.
            let tasks: u64 = workers
                .iter()
                .map(|e| {
                    e.args
                        .iter()
                        .find(|(k, _)| *k == "tasks")
                        .unwrap()
                        .1
                        .parse::<u64>()
                        .unwrap()
                })
                .sum();
            assert_eq!(tasks, 40);
        }
    }

    #[test]
    fn disabled_span_ctx_keeps_the_traced_path_clock_free() {
        let (results, summary) = run_chunked_traced(
            16,
            2,
            2,
            |i| i,
            &ExecutorMetrics::disabled(),
            &SpanCtx::disabled(),
        );
        assert_eq!(results.len(), 16);
        assert_eq!(summary.busy_nanos(), 0);
        assert_eq!(summary.idle_nanos(), 0);
    }

    #[test]
    fn never_token_matches_the_plain_run_bit_for_bit() {
        for threads in [1usize, 4] {
            let plain = run_chunked(60, threads, 3, |i| i * 7);
            let (cancellable, summary) = run_chunked_cancellable(
                60,
                threads,
                3,
                |i| i * 7,
                &ExecutorMetrics::disabled(),
                &SpanCtx::disabled(),
                &CancelToken::never(),
            );
            let a: Vec<usize> = plain.into_iter().map(|r| r.unwrap()).collect();
            let b: Vec<usize> = cancellable.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(a, b, "threads = {threads}");
            assert_eq!(summary.tasks_run(), 60);
            // A never-token run stays clock-free.
            assert_eq!(summary.busy_nanos(), 0);
        }
    }

    #[test]
    fn pre_tripped_token_cancels_every_unclaimed_task() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 4] {
            let (results, summary) = run_chunked_cancellable(
                20,
                threads,
                2,
                |_| -> usize { panic!("a cancelled run must not execute tasks") },
                &ExecutorMetrics::disabled(),
                &SpanCtx::disabled(),
                &token,
            );
            assert_eq!(results.len(), 20, "threads = {threads}");
            for r in &results {
                assert_eq!(r.as_ref().unwrap_err(), CANCELLED_TASK);
            }
            assert_eq!(summary.tasks_run(), 0, "threads = {threads}");
        }
    }

    #[test]
    fn mid_run_cancellation_stops_new_claims_but_keeps_finished_work() {
        // Single-threaded so the trip point is deterministic: task 5
        // cancels the token, so tasks 0..=5 ran and 6.. were never
        // claimed.
        let token = CancelToken::new();
        let (results, summary) = run_chunked_cancellable(
            12,
            1,
            1,
            |i| {
                if i == 5 {
                    token.cancel();
                }
                i * 2
            },
            &ExecutorMetrics::disabled(),
            &SpanCtx::disabled(),
            &token,
        );
        for (i, r) in results.iter().enumerate() {
            if i <= 5 {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            } else {
                assert_eq!(r.as_ref().unwrap_err(), CANCELLED_TASK);
            }
        }
        assert_eq!(summary.tasks_run(), 6);
    }

    #[test]
    fn expired_deadline_token_reports_cancelled() {
        let token = CancelToken::with_deadline(Duration::from_nanos(0));
        assert!(token.is_cancelled());
        let (results, _) = run_chunked_cancellable(
            8,
            2,
            1,
            |i| i,
            &ExecutorMetrics::disabled(),
            &SpanCtx::disabled(),
            &token,
        );
        assert!(results.iter().all(|r| r.is_err()));
        // A generous deadline does not trip.
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        // The never token cannot trip at all, even after cancel().
        let never = CancelToken::never();
        never.cancel();
        assert!(!never.is_cancelled());
    }

    #[test]
    fn effective_threads_resolves_auto_and_caps() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(4, 0), 1);
    }
}
