//! The worker pool: one queue of tasks, bounded admission, counters.

use ppds_observe::MetricsRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many workers, and whether the queue is bounded.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads pulling tasks from the queue. A task is an opaque
    /// closure: the pool does not know how many threads it spawns or how
    /// long it blocks on a socket, so the right count is the caller's to
    /// measure (the hosted server runs one party of one session per task
    /// and defaults to the core count).
    pub workers: usize,
    /// Bounded-queue mode: when `Some(cap)`, a submission that would leave
    /// more than `cap` tasks waiting (not yet picked up by a worker) is
    /// refused with [`EngineError::QueueFull`] instead of growing the queue
    /// without limit. `None` (the default) is an unbounded queue. No
    /// production caller sets it — the hosted server admits against the
    /// `engine_queue_depth` gauge under its own lock and runs the engine
    /// unbounded — but it is why [`Engine::try_submit_task`] is fallible.
    pub queue_cap: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().div_ceil(2))
                .unwrap_or(4),
            queue_cap: None,
        }
    }
}

impl EngineConfig {
    /// A config with exactly `workers` workers and an unbounded queue.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..Default::default()
        }
    }

    /// Returns the config with the bounded-queue cap set (see
    /// [`EngineConfig::queue_cap`]).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }
}

/// Typed scheduler errors surfaced to submitters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The bounded queue ([`EngineConfig::queue_cap`]) is full: `depth`
    /// tasks are already waiting against a cap of `cap`. The task was
    /// **not** accepted; the caller sheds load or retries later.
    QueueFull {
        /// Tasks waiting when the submission was refused.
        depth: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::QueueFull { depth, cap } => {
                write!(f, "engine queue full: {depth} waiting, cap {cap}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The engine's one kind of work: a closure that runs on a worker thread
/// and reports success or a failure description (a task that panics counts
/// as failed). The pool keeps nothing a task produces — whatever the caller
/// wants back travels over state the closure owns (a channel, a server's
/// session registry).
pub type TaskFn = Box<dyn FnOnce() -> Result<(), String> + Send + 'static>;

/// Point-in-time view of everything the engine has executed so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineReport {
    /// Tasks accepted by [`Engine::try_submit_task`].
    pub submitted: u64,
    /// Tasks that returned `Ok`.
    pub completed: u64,
    /// Tasks that returned `Err` or panicked.
    pub failed: u64,
    /// Sum of per-task wall times (exceeds real elapsed time when tasks ran
    /// in parallel; the ratio is the scheduler's effective concurrency).
    pub busy_time: Duration,
}

/// Shared state between the engine handle and its workers.
struct EngineShared {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    busy_nanos: AtomicU64,
    /// Operator-facing gauges and counters; see [`Engine::registry`].
    registry: Arc<MetricsRegistry>,
    /// Serializes bounded-queue admission: the depth check and the enqueue
    /// must be atomic with respect to other submitters, or two racing
    /// submissions could both pass a `cap - 1` check. Uncontended in
    /// practice — submissions happen per session, not per message.
    admission: Mutex<()>,
}

/// The engine: a handle to the worker pool. Dropping it (or calling
/// [`Engine::shutdown`]) closes the queue, drains queued and in-flight
/// tasks, and joins the workers.
pub struct Engine {
    sender: Option<Sender<TaskFn>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<EngineShared>,
    queue_cap: Option<usize>,
}

impl Engine {
    /// Starts the worker pool.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn start(config: EngineConfig) -> Engine {
        assert!(config.workers > 0, "engine needs at least one worker");
        let (sender, receiver) = channel::<TaskFn>();
        // One queue shared by every worker: a worker holds the lock to
        // receive a message, never while it runs one.
        let queue = Arc::new(Mutex::new(receiver));
        let shared = Arc::new(EngineShared {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            registry: Arc::new(MetricsRegistry::new()),
            admission: Mutex::new(()),
        });

        let workers = (0..config.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppds-engine-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &shared))
                    .expect("spawn engine worker")
            })
            .collect();

        Engine {
            sender: Some(sender),
            workers,
            shared,
            queue_cap: config.queue_cap,
        }
    }

    /// Queues a task, refusing with [`EngineError::QueueFull`] when the
    /// bounded queue ([`EngineConfig::queue_cap`]) is at capacity; without
    /// a configured cap this never fails. The depth check and the enqueue
    /// happen under one lock, so the cap is race-free. The pool does not
    /// read `label`: it names the kind of task at the call site.
    ///
    /// Completion shows up in [`Engine::report`] and the registry. This is
    /// the hook a network front-end uses to schedule protocol sessions
    /// whose I/O it owns itself.
    pub fn try_submit_task(&self, _label: &'static str, task: TaskFn) -> Result<(), EngineError> {
        let _admission = self
            .shared
            .admission
            .lock()
            .expect("the admission lock guards no data a panic could corrupt");
        let depth_gauge = self.shared.registry.gauge("engine_queue_depth");
        if let Some(cap) = self.queue_cap {
            let depth = depth_gauge.get().max(0) as usize;
            if depth >= cap {
                self.shared
                    .registry
                    .counter("engine_jobs_rejected_full")
                    .inc();
                return Err(EngineError::QueueFull { depth, cap });
            }
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.registry.counter("engine_jobs_submitted").inc();
        depth_gauge.inc();
        self.sender
            .as_ref()
            .expect("engine not shut down")
            .send(task)
            .expect("workers outlive the handle: they survive a panicking task");
        Ok(())
    }

    /// Tasks admitted but not yet picked up by a worker (the
    /// `engine_queue_depth` gauge).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .registry
            .gauge("engine_queue_depth")
            .get()
            .max(0) as usize
    }

    /// The operator metrics registry: scheduler gauges
    /// (`engine_queue_depth`, `engine_in_flight`) and task counters
    /// (`engine_jobs_submitted` / `_completed` / `_failed` /
    /// `_rejected_full`). Cheap to clone and safe to scrape from any thread
    /// while tasks run; see [`ppds_observe::MetricsRegistry::render_text`]
    /// for the exposition format.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Point-in-time counters. The drain property: a caller that reads
    /// `completed + failed == submitted` here also reads both scheduler
    /// gauges and the registry's finished counters in their drained state —
    /// these loads acquire what each worker released when it moved its
    /// finished counter, which is the last thing it does for a task.
    pub fn report(&self) -> EngineReport {
        EngineReport {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Acquire),
            failed: self.shared.failed.load(Ordering::Acquire),
            busy_time: Duration::from_nanos(self.shared.busy_nanos.load(Ordering::Relaxed)),
        }
    }

    /// Drains queued and in-flight tasks, joins the workers, and returns
    /// the final report.
    pub fn shutdown(mut self) -> EngineReport {
        self.close();
        self.report()
    }

    fn close(&mut self) {
        // Closing the queue makes worker `recv` return Err once drained.
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.close();
    }
}

fn worker_loop(queue: &Mutex<Receiver<TaskFn>>, shared: &EngineShared) {
    let queue_depth = shared.registry.gauge("engine_queue_depth");
    let in_flight = shared.registry.gauge("engine_in_flight");
    let jobs_completed = shared.registry.counter("engine_jobs_completed");
    let jobs_failed = shared.registry.counter("engine_jobs_failed");
    loop {
        // The guard is a temporary of this statement alone. In a `while let`
        // scrutinee it would live through the task and the pool would run
        // one task at a time.
        let received = queue
            .lock()
            .expect("the queue lock is held only across recv, which does not panic")
            .recv();
        let Ok(task) = received else {
            // Queue closed and drained.
            return;
        };
        queue_depth.dec();
        in_flight.inc();
        let start = Instant::now();
        // A panic is a failed task, accounted like any other: the worker
        // and the counters a drain waits on both survive it.
        let succeeded = matches!(catch_unwind(AssertUnwindSafe(task)), Ok(Ok(())));
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        in_flight.dec();
        // Last, and with Release: everything above happens-before whoever
        // acquires a finished count that includes this task (`report`).
        if succeeded {
            jobs_completed.inc();
            shared.completed.fetch_add(1, Ordering::Release);
        } else {
            jobs_failed.inc();
            shared.failed.fetch_add(1, Ordering::Release);
        }
    }
}
