//! The worker-pool scheduler: submission queue, results store, rollups.

use crate::job::{ClusteringJob, JobId, JobResult};
use ppdbscan::config::YaoLedger;
use ppdbscan::{run_session, CoreError};
use ppds_observe::MetricsRegistry;
use ppds_transport::MetricsSnapshot;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many workers, and whether the queue is bounded.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads pulling jobs from the queue. Each session additionally
    /// spawns its per-party threads, so the sweet spot is roughly
    /// `cores / 2` for two-party workloads.
    pub workers: usize,
    /// Bounded-queue mode: when `Some(cap)`, a submission that would leave
    /// more than `cap` jobs waiting (not yet picked up by a worker) is
    /// refused with [`EngineError::QueueFull`] instead of growing the queue
    /// without limit — the load-shedding contract a network front-end needs
    /// to answer "busy" instead of accepting work it cannot start. `None`
    /// (the default) keeps the historical unbounded queue. The admitted
    /// depth is the `engine_queue_depth` gauge in [`Engine::registry`].
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
    /// jobs are already waiting against a cap of `cap`. The job was **not**
    /// accepted; the caller sheds load (a server replies `ServerBusy`) or
    /// retries later.
    QueueFull {
        /// Jobs waiting when the submission was refused.
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

/// A generic unit of work for [`Engine::try_submit_task`]: runs on a worker
/// thread, reports success or a failure description (a task that panics
/// counts as failed). Unlike a
/// [`ClusteringJob`] it deposits nothing in the results store — completion
/// is visible through the report counters and whatever state the closure
/// updates itself (a server's session registry, for instance).
pub type TaskFn = Box<dyn FnOnce() -> Result<(), String> + Send + 'static>;

/// What travels down the worker queue.
enum Work {
    /// A clustering session job (results land in the store).
    Clustering(JobId, ClusteringJob),
    /// A generic task with a label for the failure counters.
    Task(JobId, &'static str, TaskFn),
}

/// Aggregated view over everything the engine has executed so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineReport {
    /// Jobs accepted by [`Engine::submit`].
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs whose session returned an error or panicked.
    pub failed: u64,
    /// Componentwise sum of every finished job's party traffic.
    pub traffic: MetricsSnapshot,
    /// Absorbed Yao ledgers of every finished job.
    pub yao: YaoLedger,
    /// Sum of per-job wall times (exceeds real elapsed time when jobs ran
    /// in parallel; the ratio is the scheduler's effective concurrency).
    pub busy_time: Duration,
}

/// Shared mutable state between the engine handle and its workers.
struct EngineShared {
    results: Mutex<HashMap<u64, Arc<JobResult>>>,
    /// Signaled whenever a result lands.
    job_done: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rollup: Mutex<Rollup>,
    /// Operator-facing gauges and counters; see [`Engine::registry`].
    registry: Arc<MetricsRegistry>,
    /// Serializes bounded-queue admission: the depth check and the enqueue
    /// must be atomic with respect to other submitters, or two racing
    /// submissions could both pass a `cap - 1` check. Uncontended in
    /// practice — submissions happen per session, not per message.
    admission: Mutex<()>,
}

#[derive(Default)]
struct Rollup {
    traffic: MetricsSnapshot,
    yao: YaoLedger,
    busy: Duration,
}

/// The engine: a handle to the worker pool. Dropping it (or calling
/// [`Engine::shutdown`]) closes the queue, drains in-flight jobs, and joins
/// the workers.
pub struct Engine {
    sender: Option<Sender<Work>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<EngineShared>,
    next_id: AtomicU64,
    queue_cap: Option<usize>,
}

impl Engine {
    /// Starts the worker pool.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn start(config: EngineConfig) -> Engine {
        assert!(config.workers > 0, "engine needs at least one worker");
        let (sender, receiver) = channel::<Work>();
        // One queue shared by every worker: a worker holds the lock to
        // receive a message, never while it runs one.
        let queue = Arc::new(Mutex::new(receiver));
        let shared = Arc::new(EngineShared {
            results: Mutex::new(HashMap::new()),
            job_done: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rollup: Mutex::new(Rollup::default()),
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
            next_id: AtomicU64::new(0),
            queue_cap: config.queue_cap,
        }
    }

    /// Admission control + enqueue, shared by every submit path. Holds the
    /// admission lock across the depth check and the send so the cap is
    /// race-free.
    fn admit(&self, work: impl FnOnce(JobId) -> Work) -> Result<JobId, EngineError> {
        let _admission = self.shared.admission.lock().unwrap();
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
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.registry.counter("engine_jobs_submitted").inc();
        depth_gauge.inc();
        self.sender
            .as_ref()
            .expect("engine not shut down")
            .send(work(id))
            .expect("workers outlive the handle: they survive a panicking job");
        Ok(id)
    }

    /// Queues a job and returns its handle immediately.
    ///
    /// # Panics
    /// Panics when a [`EngineConfig::queue_cap`] is configured and the
    /// queue is full — bounded-queue callers must use [`Engine::try_submit`]
    /// and handle [`EngineError::QueueFull`]. Without a cap (the default)
    /// this never panics.
    pub fn submit(&self, job: ClusteringJob) -> JobId {
        self.try_submit(job)
            .expect("bounded engine queue overflowed; use try_submit to shed load")
    }

    /// Queues a job, refusing with [`EngineError::QueueFull`] when the
    /// bounded queue ([`EngineConfig::queue_cap`]) is at capacity. Without
    /// a configured cap this never fails.
    pub fn try_submit(&self, job: ClusteringJob) -> Result<JobId, EngineError> {
        self.admit(|id| Work::Clustering(id, job))
    }

    /// Queues a generic task (same queue, same workers, same backpressure
    /// as clustering jobs). `label` names the task kind in failure logs.
    /// The task's completion shows up in [`Engine::report`] counters and
    /// the registry, **not** in the results store — [`Engine::wait`] /
    /// [`Engine::take`] do not apply to task ids. This is the hook a
    /// network front-end uses to schedule protocol sessions whose I/O it
    /// owns itself.
    pub fn try_submit_task(&self, label: &'static str, task: TaskFn) -> Result<JobId, EngineError> {
        self.admit(|id| Work::Task(id, label, task))
    }

    /// Jobs admitted but not yet picked up by a worker (the
    /// `engine_queue_depth` gauge).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .registry
            .gauge("engine_queue_depth")
            .get()
            .max(0) as usize
    }

    /// Queues several jobs, returning their handles in order.
    ///
    /// # Panics
    /// Like [`Engine::submit`], panics if a bounded queue overflows.
    pub fn submit_all(&self, jobs: impl IntoIterator<Item = ClusteringJob>) -> Vec<JobId> {
        jobs.into_iter().map(|j| self.submit(j)).collect()
    }

    /// The result for `id`, if it has finished.
    pub fn try_result(&self, id: JobId) -> Option<Arc<JobResult>> {
        self.shared
            .results
            .lock()
            .unwrap()
            .get(&id.0)
            .map(Arc::clone)
    }

    /// Like [`Engine::wait`], but also *removes* the result from the store.
    ///
    /// The store retains every result until taken (rollup counters are
    /// unaffected by taking), so a long-lived engine serving an open-ended
    /// job stream should prefer this over [`Engine::wait`] to keep memory
    /// bounded. Note that [`Engine::wait_all`] considers only results still
    /// in the store.
    pub fn take(&self, id: JobId) -> Arc<JobResult> {
        let mut results = self.shared.results.lock().unwrap();
        loop {
            if let Some(result) = results.remove(&id.0) {
                return result;
            }
            results = self.shared.job_done.wait(results).unwrap();
        }
    }

    /// Blocks until job `id` finishes and returns its result.
    pub fn wait(&self, id: JobId) -> Arc<JobResult> {
        let mut results = self.shared.results.lock().unwrap();
        loop {
            if let Some(result) = results.get(&id.0) {
                return Arc::clone(result);
            }
            results = self.shared.job_done.wait(results).unwrap();
        }
    }

    /// Blocks until every submitted job has finished, then returns all
    /// results still in the store (everything not already [`Engine::take`]n)
    /// in submission (id) order.
    pub fn wait_all(&self) -> Vec<Arc<JobResult>> {
        let mut results = self.shared.results.lock().unwrap();
        loop {
            let submitted = self.shared.submitted.load(Ordering::Relaxed);
            let finished = self.shared.completed.load(Ordering::Relaxed)
                + self.shared.failed.load(Ordering::Relaxed);
            if finished >= submitted {
                let mut all: Vec<Arc<JobResult>> = results.values().map(Arc::clone).collect();
                all.sort_by_key(|r| r.id);
                return all;
            }
            results = self.shared.job_done.wait(results).unwrap();
        }
    }

    /// The operator metrics registry: scheduler gauges
    /// (`engine_queue_depth`, `engine_in_flight`), job counters
    /// (`engine_jobs_submitted` / `_completed` / `_failed`), and per-mode
    /// traffic rollups. Cheap to clone and safe to scrape from any thread
    /// while jobs run; see [`ppds_observe::MetricsRegistry::render_text`]
    /// for the exposition format.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Point-in-time aggregated rollups.
    pub fn report(&self) -> EngineReport {
        let rollup = self.shared.rollup.lock().unwrap();
        EngineReport {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            traffic: rollup.traffic,
            yao: rollup.yao,
            busy_time: rollup.busy,
        }
    }

    /// Drains in-flight jobs, joins the workers, and returns the final
    /// report.
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

fn worker_loop(queue: &Mutex<Receiver<Work>>, shared: &EngineShared) {
    let queue_depth = shared.registry.gauge("engine_queue_depth");
    let in_flight = shared.registry.gauge("engine_in_flight");
    let jobs_completed = shared.registry.counter("engine_jobs_completed");
    let jobs_failed = shared.registry.counter("engine_jobs_failed");
    loop {
        // The guard is a temporary of this statement alone. In a `while let`
        // scrutinee it would live through the job and the pool would run one
        // job at a time.
        let received = queue
            .lock()
            .expect("the queue lock is held only across recv, which does not panic")
            .recv();
        let Ok(work) = received else {
            // Queue closed and drained.
            return;
        };
        let (id, job) = match work {
            Work::Clustering(id, job) => (id, job),
            Work::Task(_id, _label, task) => {
                // Generic task: run it, account it, deposit nothing.
                queue_depth.dec();
                in_flight.inc();
                let start = Instant::now();
                // A panic is a failed task, accounted like any other: the
                // worker and the counters a drain waits on both survive it.
                let outcome = catch_unwind(AssertUnwindSafe(task))
                    .unwrap_or_else(|_| Err("task panicked".to_owned()));
                let wall_time = start.elapsed();
                shared.rollup.lock().unwrap().busy += wall_time;
                let succeeded = outcome.is_ok();
                {
                    // Same lock discipline as clustering jobs: a drain
                    // waiter that observes finished == submitted also
                    // observes in-flight back at zero.
                    let _results = shared.results.lock().unwrap();
                    if succeeded {
                        shared.completed.fetch_add(1, Ordering::Relaxed);
                        jobs_completed.inc();
                    } else {
                        shared.failed.fetch_add(1, Ordering::Relaxed);
                        jobs_failed.inc();
                    }
                    in_flight.dec();
                }
                shared.job_done.notify_all();
                continue;
            }
        };
        queue_depth.dec();
        in_flight.inc();
        let mode = job.request.mode_name();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_session(&job.cfg, &job.request, job.seed)
        }))
        .unwrap_or(Err(CoreError::PartyPanicked("engine job")));
        let wall_time = start.elapsed();

        let (traffic, yao) = match &outcome {
            Ok(outputs) => {
                let traffic = outputs.iter().map(|o| o.traffic).sum();
                let mut yao = YaoLedger::default();
                for output in outputs {
                    yao.absorb(output.yao);
                }
                (traffic, yao)
            }
            Err(_) => (MetricsSnapshot::default(), YaoLedger::default()),
        };

        {
            let mut rollup = shared.rollup.lock().unwrap();
            rollup.traffic += traffic;
            rollup.yao.absorb(yao);
            rollup.busy += wall_time;
        }
        shared.registry.record_traffic(mode, traffic);

        let succeeded = outcome.is_ok();
        let result = Arc::new(JobResult {
            id,
            mode,
            outcome,
            wall_time,
            traffic,
            yao,
        });
        {
            // Insert before bumping the finished counters, under the same
            // lock `wait_all` holds while reading them: once a waiter sees
            // `finished == submitted`, every result is in the store.
            let mut results = shared.results.lock().unwrap();
            results.insert(id.0, result);
            if succeeded {
                shared.completed.fetch_add(1, Ordering::Relaxed);
                jobs_completed.inc();
            } else {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                jobs_failed.inc();
            }
            // Under the same lock as the finished counters: a waiter that
            // observes the drain also observes in-flight back at zero.
            in_flight.dec();
        }
        shared.job_done.notify_all();
    }
}
