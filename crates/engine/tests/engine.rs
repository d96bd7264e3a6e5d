//! Engine integration tests: tasks under concurrency — accounting, the
//! drain property, load shedding, and in-process sessions whose outputs and
//! per-session leakage are what the same call returns outside the pool.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{run_data_pair, run_mesh_local, PartyData};
use ppdbscan::{ArbitraryPartition, CoreError, PartyOutput, VerticalPartition};
use ppds_dbscan::{DbscanParams, Point};
use ppds_engine::{Engine, EngineConfig, EngineError, EngineReport};
use ppds_smc::LeakageEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
    let mut c = ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound);
    c.key_bits = 64; // correctness is key-size independent; keep tests fast
    c.mask_bits = 6;
    c
}

fn random_points(n: usize, bound: i64, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(vec![
                rng.random_range(-bound..=bound),
                rng.random_range(-bound..=bound),
            ])
        })
        .collect()
}

/// One whole in-process session, callable any number of times: directly,
/// or from inside a task.
type Session = Arc<dyn Fn() -> Result<Vec<PartyOutput>, CoreError> + Send + Sync>;

fn two_party(c: ProtocolConfig, alice: PartyData, bob: PartyData, seed: u64) -> Session {
    Arc::new(move || {
        let (a, b) = run_data_pair(
            &c,
            alice.clone(),
            bob.clone(),
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed + 1),
        )?;
        Ok(vec![a, b])
    })
}

fn mesh(c: ProtocolConfig, parties: Vec<Vec<Point>>, seed: u64) -> Session {
    Arc::new(move || {
        let outcomes = run_mesh_local(&c, &parties, seed)?;
        Ok(outcomes.into_iter().map(|o| o.output).collect())
    })
}

/// Spins until every submitted task is accounted for. `report` is the read
/// the drain property is stated over: whatever the caller checks next is
/// in its drained state.
fn drained(engine: &Engine) -> EngineReport {
    loop {
        let report = engine.report();
        if report.completed + report.failed == report.submitted {
            return report;
        }
        std::thread::yield_now();
    }
}

#[test]
fn concurrent_sessions_across_all_modes_match_direct_runs() {
    // (mode, session) for four seeds of each of the five modes.
    let mut sessions: Vec<(&str, Session)> = Vec::new();
    for seed in 0..4u64 {
        let horizontal = |s| PartyData::Horizontal(random_points(7, 10, seed * 31 + s));
        sessions.push((
            "horizontal",
            two_party(cfg(8, 3, 10), horizontal(1), horizontal(2), seed),
        ));
        let enhanced = |s| PartyData::Enhanced(random_points(5, 10, seed * 37 + s));
        sessions.push((
            "enhanced",
            two_party(cfg(8, 3, 10), enhanced(3), enhanced(4), seed + 100),
        ));
        let vertical = VerticalPartition::split(&random_points(6, 10, seed * 41 + 5), 1);
        sessions.push((
            "vertical",
            two_party(
                cfg(8, 2, 10),
                PartyData::Vertical(vertical.alice),
                PartyData::Vertical(vertical.bob),
                seed + 200,
            ),
        ));
        let arbitrary = ArbitraryPartition::random(
            &mut StdRng::seed_from_u64(seed),
            &random_points(5, 10, seed * 47 + 6),
        );
        sessions.push((
            "arbitrary",
            two_party(
                cfg(8, 2, 10),
                PartyData::Arbitrary(arbitrary.alice_values),
                PartyData::Arbitrary(arbitrary.bob_values),
                seed + 300,
            ),
        ));
        let parties = (0..3)
            .map(|p| random_points(4, 10, seed * 43 + p))
            .collect();
        sessions.push(("multiparty", mesh(cfg(8, 2, 10), parties, seed + 400)));
    }

    let engine = Engine::start(EngineConfig::with_workers(8));
    let (tx, rx) = mpsc::channel();
    for (index, (_, session)) in sessions.iter().enumerate() {
        let (session, tx) = (Arc::clone(session), tx.clone());
        let task = move || {
            let outputs = session().map_err(|e| e.to_string())?;
            tx.send((index, outputs)).map_err(|e| e.to_string())
        };
        engine
            .try_submit_task("session", Box::new(task))
            .expect("unbounded");
    }
    drop(tx);
    let mut pooled: Vec<(usize, Vec<PartyOutput>)> = rx.iter().collect();
    pooled.sort_by_key(|(index, _)| *index);
    assert_eq!(pooled.len(), sessions.len(), "a session failed on the pool");

    for ((mode, session), (_, on_pool)) in sessions.iter().zip(&pooled) {
        // The same call outside the pool: concurrency changes throughput,
        // never answers (and a second run of a seed reproduces the first).
        let direct = session().expect("direct run");
        assert_eq!(on_pool.len(), if *mode == "multiparty" { 3 } else { 2 });
        assert_eq!(on_pool.len(), direct.len());
        for (p, d) in on_pool.iter().zip(&direct) {
            assert_eq!(p.clustering, d.clustering, "{mode}");
            assert_eq!(p.leakage, d.leakage, "{mode}");
            assert_eq!(p.traffic, d.traffic, "{mode}");
            assert_eq!(p.yao, d.yao, "{mode}");
            assert!(p.traffic.total_bytes() > 0);
            if *mode == "horizontal" {
                // Theorem 9's per-session profile holds under a loaded
                // pool: concurrency adds no leakage events.
                for event in p.leakage.events() {
                    assert!(
                        matches!(
                            event,
                            LeakageEvent::NeighborCount { .. }
                                | LeakageEvent::OwnPointMatched { .. }
                        ),
                        "Theorem 9 forbids event {event:?}"
                    );
                }
                assert!(p.leakage.count_kind("neighbor_count") > 0);
            }
        }
    }

    let report = engine.shutdown();
    assert_eq!(
        (report.submitted, report.completed, report.failed),
        (20, 20, 0)
    );
    assert!(report.busy_time.as_nanos() > 0);
}

#[test]
fn registry_gauges_converge_to_zero_at_drain() {
    let engine = Engine::start(EngineConfig::with_workers(3));
    let registry = engine.registry();
    let hits = Arc::new(AtomicU64::new(0));
    for _ in 0..6 {
        let hits = Arc::clone(&hits);
        let task = move || {
            std::thread::yield_now();
            hits.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        engine
            .try_submit_task("bump", Box::new(task))
            .expect("unbounded");
    }
    assert_eq!(registry.counter("engine_jobs_submitted").get(), 6);
    let report = drained(&engine);
    // Drained, as read through `report` alone (no lock, no join): every
    // queued task was picked up and every picked-up task finished, so both
    // scheduler gauges are back at zero and the finished counters are in.
    assert_eq!(registry.gauge("engine_queue_depth").get(), 0);
    assert_eq!(registry.gauge("engine_in_flight").get(), 0);
    assert_eq!(registry.counter("engine_jobs_completed").get(), 6);
    assert_eq!(registry.counter("engine_jobs_failed").get(), 0);
    assert_eq!((report.completed, hits.load(Ordering::Relaxed)), (6, 6));
    let text = registry.render_text();
    assert!(text.contains("engine_jobs_completed 6"), "{text}");
    // The registry outlives the engine handle: scraping after shutdown
    // still sees the final counters.
    engine.shutdown();
    assert_eq!(registry.counter("engine_jobs_completed").get(), 6);
}

#[test]
fn bounded_queue_sheds_load_with_typed_error() {
    let engine = Engine::start(EngineConfig::with_workers(1).with_queue_cap(1));

    // Occupy the single worker with a task that blocks until released, so
    // queue depth is fully under test control.
    let (release_tx, release_rx) = mpsc::channel::<()>();
    engine
        .try_submit_task(
            "blocker",
            Box::new(move || {
                release_rx.recv().expect("released");
                Ok(())
            }),
        )
        .expect("empty queue admits the blocker");

    // Wait until the worker picked the blocker up (depth back to 0).
    while engine.queue_depth() > 0 {
        std::thread::yield_now();
    }

    // One slot: first queued task admitted, second refused by name.
    engine
        .try_submit_task("queued", Box::new(|| Ok(())))
        .expect("one slot available");
    assert_eq!(engine.queue_depth(), 1);
    let err = engine
        .try_submit_task("refused", Box::new(|| Ok(())))
        .unwrap_err();
    assert_eq!(err, EngineError::QueueFull { depth: 1, cap: 1 });
    assert!(err.to_string().contains("queue full"), "{err}");

    // The gauge backs the decision and the rejection is counted.
    let registry = engine.registry();
    assert_eq!(registry.gauge("engine_queue_depth").get(), 1);
    assert_eq!(registry.counter("engine_jobs_rejected_full").get(), 1);

    // Release the worker: the queue drains and capacity returns.
    release_tx.send(()).expect("worker waiting");
    assert_eq!(drained(&engine).completed, 2);
    engine
        .try_submit_task("after-drain", Box::new(|| Ok(())))
        .expect("capacity returned after drain");
    let report = engine.shutdown();
    // blocker + two admitted tasks; the refused one is gone.
    assert_eq!(report.submitted, 3);
    assert_eq!(report.completed, 3);
}

#[test]
fn tasks_are_counted_completed_or_failed_never_lost() {
    let engine = Engine::start(EngineConfig::with_workers(2));
    let hits = Arc::new(AtomicU64::new(0));
    for _ in 0..4 {
        let hits = Arc::clone(&hits);
        engine
            .try_submit_task(
                "bump",
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
            )
            .expect("unbounded");
    }
    engine
        .try_submit_task("fails", Box::new(|| Err("intentional".into())))
        .expect("unbounded");
    // Eps² beyond the lattice: config validation fails inside the session,
    // and the task that ran it is a failed task.
    let bad = two_party(
        cfg(1_000_000, 3, 5),
        PartyData::Horizontal(random_points(4, 5, 1)),
        PartyData::Horizontal(random_points(4, 5, 2)),
        1,
    );
    engine
        .try_submit_task(
            "bad-session",
            Box::new(move || bad().map(drop).map_err(|e| e.to_string())),
        )
        .expect("unbounded");
    let report = engine.shutdown();
    assert_eq!(hits.load(Ordering::Relaxed), 4);
    assert_eq!(report.submitted, 6);
    assert_eq!(report.completed, 4);
    assert_eq!(report.failed, 2, "task failures counted, not lost");
}

#[test]
fn a_panicking_task_is_a_failed_job_and_its_worker_takes_the_next() {
    use std::sync::mpsc;
    use std::time::Duration;

    let engine = Engine::start(EngineConfig::with_workers(1));
    engine
        .try_submit_task(
            "panics",
            Box::new(|| -> Result<(), String> { panic!("intentional") }),
        )
        .expect("unbounded");
    let (tx, rx) = mpsc::channel::<()>();
    engine
        .try_submit_task(
            "sends",
            Box::new(move || tx.send(()).map_err(|e| e.to_string())),
        )
        .expect("the only worker is still there to receive");
    rx.recv_timeout(Duration::from_secs(5))
        .expect("the only worker outlived the panicking task");
    let report = drained(&engine);
    assert_eq!((report.failed, report.completed), (1, 1));
    let registry = engine.registry();
    assert_eq!(registry.gauge("engine_queue_depth").get(), 0);
    assert_eq!(registry.gauge("engine_in_flight").get(), 0);
    assert_eq!(registry.counter("engine_jobs_failed").get(), 1);
}

#[test]
fn a_worker_holds_the_queue_only_to_receive() {
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    let engine = Engine::start(EngineConfig::with_workers(2));
    let barrier = Arc::new(Barrier::new(2));
    let (tx, rx) = mpsc::channel::<()>();
    for _ in 0..2 {
        let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
        engine
            .try_submit_task(
                "meets",
                Box::new(move || {
                    barrier.wait();
                    tx.send(()).map_err(|e| e.to_string())
                }),
            )
            .expect("unbounded");
    }
    let both_ran = (0..2).all(|_| rx.recv_timeout(Duration::from_secs(5)).is_ok());
    if !both_ran {
        // A worker is parked on the barrier for good; joining it on drop
        // would hang the suite instead of failing it.
        std::mem::forget(engine);
        panic!("the second task never started: the queue lock was held across the first");
    }
    assert_eq!(engine.shutdown().completed, 2);
}
