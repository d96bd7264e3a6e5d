//! Engine integration tests: concurrency, determinism, rollups, and
//! per-session leakage under load.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{run_participants, Participant, PartyData};
use ppdbscan::{ArbitraryPartition, PartyOutput, SessionRequest, VerticalPartition};
use ppds_dbscan::{DbscanParams, Point};
use ppds_engine::{ClusteringJob, Engine, EngineConfig};
use ppds_smc::LeakageEvent;
use ppds_smc::Party;
use ppds_transport::MetricsSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn horizontal_job(seed: u64) -> ClusteringJob {
    ClusteringJob::new(
        cfg(8, 3, 10),
        SessionRequest::Horizontal {
            alice: random_points(7, 10, seed * 31 + 1),
            bob: random_points(6, 10, seed * 31 + 2),
        },
        seed,
    )
}

#[test]
fn runs_eight_plus_concurrent_jobs_across_all_modes() {
    let engine = Engine::start(EngineConfig::with_workers(8));
    let mut jobs = Vec::new();
    for seed in 0..4u64 {
        jobs.push(horizontal_job(seed));
        jobs.push(ClusteringJob::new(
            cfg(8, 3, 10),
            SessionRequest::Enhanced {
                alice: random_points(5, 10, seed * 37 + 3),
                bob: random_points(5, 10, seed * 37 + 4),
            },
            seed + 100,
        ));
        jobs.push(ClusteringJob::new(
            cfg(8, 2, 10),
            SessionRequest::Vertical(VerticalPartition::split(
                &random_points(6, 10, seed * 41 + 5),
                1,
            )),
            seed + 200,
        ));
        jobs.push(ClusteringJob::new(
            cfg(8, 2, 10),
            SessionRequest::Arbitrary(ArbitraryPartition::random(
                &mut StdRng::seed_from_u64(seed),
                &random_points(5, 10, seed * 47 + 6),
            )),
            seed + 300,
        ));
        jobs.push(ClusteringJob::new(
            cfg(8, 2, 10),
            SessionRequest::Multiparty {
                parties: (0..3)
                    .map(|p| random_points(4, 10, seed * 43 + p))
                    .collect(),
            },
            seed + 400,
        ));
    }
    assert!(jobs.len() >= 8, "acceptance: at least 8 concurrent jobs");
    let expected_modes: Vec<&str> = jobs.iter().map(|j| j.request.mode_name()).collect();

    let ids = engine.submit_all(jobs);
    let results = engine.wait_all();
    assert_eq!(results.len(), ids.len());
    for (result, expected_mode) in results.iter().zip(&expected_modes) {
        assert!(result.is_ok(), "{} ({}) failed", result.id, result.mode);
        assert_eq!(&result.mode, expected_mode);
        assert_eq!(
            result.outputs().len(),
            if result.mode == "multiparty" { 3 } else { 2 }
        );
        assert!(result.traffic.total_bytes() > 0);
    }

    let report = engine.shutdown();
    assert_eq!(report.submitted, 20);
    assert_eq!(report.completed, 20);
    assert_eq!(report.failed, 0);
}

#[test]
fn engine_matches_direct_drivers() {
    // Acceptance: per-job clustering output is byte-identical to the
    // single-session drivers given the same descriptor.
    let c = cfg(8, 3, 10);
    let alice = random_points(7, 10, 1001);
    let bob = random_points(7, 10, 1002);
    let records = random_points(7, 10, 1003);
    let vertical = VerticalPartition::split(&records, 1);

    let engine = Engine::start(EngineConfig::with_workers(4));
    let h = engine.submit(ClusteringJob::new(
        c,
        SessionRequest::Horizontal {
            alice: alice.clone(),
            bob: bob.clone(),
        },
        7,
    ));
    let e = engine.submit(ClusteringJob::new(
        c,
        SessionRequest::Enhanced {
            alice: alice.clone(),
            bob: bob.clone(),
        },
        8,
    ));
    let v = engine.submit(ClusteringJob::new(
        c,
        SessionRequest::Vertical(vertical.clone()),
        9,
    ));

    // The direct reference path: two Participants over a duplex pair with
    // the seeds the engine derives from the job seed.
    let direct = |data_a: PartyData, data_b: PartyData, seed: u64| -> (PartyOutput, PartyOutput) {
        let (a, b) = run_participants(
            Participant::new(c)
                .role(Party::Alice)
                .data(data_a)
                .seed(seed),
            Participant::new(c)
                .role(Party::Bob)
                .data(data_b)
                .seed(seed + 1),
        )
        .unwrap();
        (a.output, b.output)
    };

    let (da, db) = direct(
        PartyData::Horizontal(alice.clone()),
        PartyData::Horizontal(bob.clone()),
        7,
    );
    let engine_h = engine.wait(h);
    assert_eq!(engine_h.outputs()[0].clustering, da.clustering);
    assert_eq!(engine_h.outputs()[1].clustering, db.clustering);
    assert_eq!(engine_h.outputs()[0].traffic, da.traffic);
    assert_eq!(engine_h.outputs()[1].traffic, db.traffic);
    assert_eq!(engine_h.outputs()[0].yao, da.yao);

    let (ea, eb) = direct(
        PartyData::Enhanced(alice.clone()),
        PartyData::Enhanced(bob.clone()),
        8,
    );
    let engine_e = engine.wait(e);
    assert_eq!(engine_e.outputs()[0].clustering, ea.clustering);
    assert_eq!(engine_e.outputs()[1].clustering, eb.clustering);
    assert_eq!(engine_e.outputs()[0].traffic, ea.traffic);

    let (va, vb) = direct(
        PartyData::Vertical(vertical.alice.clone()),
        PartyData::Vertical(vertical.bob.clone()),
        9,
    );
    let engine_v = engine.wait(v);
    assert_eq!(engine_v.outputs()[0].clustering, va.clustering);
    assert_eq!(engine_v.outputs()[1].clustering, vb.clustering);
    assert_eq!(engine_v.outputs()[1].traffic, vb.traffic);
}

#[test]
fn batched_jobs_match_unbatched_with_fewer_rounds() {
    // The engine-facing batching knob: same descriptor, same seed, one job
    // batched — labels and leakage identical, wire rounds collapse.
    let engine = Engine::start(EngineConfig::with_workers(2));
    let make = || {
        ClusteringJob::new(
            cfg(8, 2, 10),
            SessionRequest::Vertical(VerticalPartition::split(&random_points(10, 10, 555), 1)),
            42,
        )
    };
    let plain = engine.wait(engine.submit(make()));
    let batched = engine.wait(engine.submit(make().with_batching(true)));
    for (p, b) in plain.outputs().iter().zip(batched.outputs()) {
        assert_eq!(p.clustering, b.clustering);
        assert_eq!(p.leakage, b.leakage);
        assert_eq!(p.yao, b.yao);
        assert!(
            p.traffic.total_rounds() as f64 >= 5.0 * b.traffic.total_rounds() as f64,
            "rounds {} vs {}",
            p.traffic.total_rounds(),
            b.traffic.total_rounds()
        );
    }
    // Rollups aggregate rounds like every other counter.
    let report = engine.shutdown();
    assert_eq!(
        report.traffic.total_rounds(),
        plain.traffic.total_rounds() + batched.traffic.total_rounds()
    );
}

#[test]
fn packed_jobs_match_unpacked_with_fewer_bytes() {
    // The engine-facing packing knob: same descriptor, same seed, one job
    // packed — labels, leakage, and ledger identical, response bytes drop
    // by the packing factor (the Ideal comparator's verdict padding packs).
    let engine = Engine::start(EngineConfig::with_workers(2));
    let make = || {
        ClusteringJob::new(
            cfg(8, 2, 10),
            SessionRequest::Vertical(VerticalPartition::split(&random_points(10, 10, 556), 1)),
            43,
        )
        .with_batching(true)
    };
    let plain = engine.wait(engine.submit(make()));
    let packed = engine.wait(engine.submit(make().with_packing(true)));
    for (p, q) in plain.outputs().iter().zip(packed.outputs()) {
        assert_eq!(p.clustering, q.clustering);
        assert_eq!(p.leakage, q.leakage);
        assert_eq!(p.yao, q.yao);
        // 64-bit test keys only fit 2 verdict slots per word; production
        // key sizes reach ~10-20x (see tests/packing_parity.rs at 256 bits).
        assert!(
            p.traffic.total_bytes() as f64 >= 1.8 * q.traffic.total_bytes() as f64,
            "bytes {} vs {}",
            p.traffic.total_bytes(),
            q.traffic.total_bytes()
        );
    }
    engine.shutdown();
}

#[test]
fn resubmitted_job_reproduces_identical_results() {
    let engine = Engine::start(EngineConfig::with_workers(4));
    let job = horizontal_job(99);
    let first = engine.wait(engine.submit(job.clone()));
    let second = engine.wait(engine.submit(job));
    assert_eq!(
        first.outputs()[0].clustering,
        second.outputs()[0].clustering
    );
    assert_eq!(
        first.outputs()[1].clustering,
        second.outputs()[1].clustering
    );
    assert_eq!(first.traffic, second.traffic);
    assert_eq!(first.yao, second.yao);
}

#[test]
fn report_rolls_up_exactly_the_sum_of_job_results() {
    let engine = Engine::start(EngineConfig::with_workers(3));
    let ids = engine.submit_all((0..6).map(horizontal_job));
    let results = engine.wait_all();
    assert_eq!(ids.len(), results.len());

    let expected_traffic: MetricsSnapshot = results.iter().map(|r| r.traffic).sum();
    let expected_comparisons: u64 = results.iter().map(|r| r.yao.comparisons).sum();
    let report = engine.report();
    assert_eq!(report.traffic, expected_traffic);
    assert_eq!(report.yao.comparisons, expected_comparisons);
    assert_eq!(report.completed, 6);
    assert!(report.busy_time.as_nanos() > 0);
    // Sanity: sessions are symmetric, so sent == received in aggregate.
    assert_eq!(report.traffic.bytes_sent, report.traffic.bytes_received);
}

#[test]
fn registry_gauges_converge_to_zero_at_drain() {
    let engine = Engine::start(EngineConfig::with_workers(3));
    let registry = engine.registry();
    engine.submit_all((0..6).map(horizontal_job));
    assert_eq!(registry.counter("engine_jobs_submitted").get(), 6);
    let results = engine.wait_all();
    assert_eq!(results.len(), 6);
    // Drained: every queued job was picked up and every picked-up job
    // finished, so both scheduler gauges are back at zero.
    assert_eq!(registry.gauge("engine_queue_depth").get(), 0);
    assert_eq!(registry.gauge("engine_in_flight").get(), 0);
    assert_eq!(registry.counter("engine_jobs_completed").get(), 6);
    assert_eq!(registry.counter("engine_jobs_failed").get(), 0);
    // Per-mode traffic rollup matches the per-job sum the report carries.
    let expected: MetricsSnapshot = results.iter().map(|r| r.traffic).sum();
    assert_eq!(registry.traffic("horizontal"), Some(expected));
    let text = registry.render_text();
    assert!(text.contains("engine_jobs_completed 6"), "{text}");
    // The registry outlives the engine handle: scraping after shutdown
    // still sees the final counters.
    engine.shutdown();
    assert_eq!(registry.counter("engine_jobs_completed").get(), 6);
}

#[test]
fn take_removes_results_but_keeps_rollups() {
    let engine = Engine::start(EngineConfig::with_workers(2));
    let ids = engine.submit_all((0..3).map(horizontal_job));
    let taken = engine.take(ids[0]);
    assert!(taken.is_ok());
    assert!(engine.try_result(ids[0]).is_none(), "take must evict");
    // wait_all still terminates (it counts finished jobs, not stored
    // results) and returns only what was not taken.
    let rest = engine.wait_all();
    assert_eq!(rest.len(), 2);
    let report = engine.shutdown();
    assert_eq!(report.completed, 3, "rollups unaffected by take");
}

#[test]
fn failed_jobs_are_reported_not_lost() {
    let engine = Engine::start(EngineConfig::with_workers(2));
    // Eps² beyond the lattice: config validation must fail inside the
    // session and surface as a failed job.
    let bad = ClusteringJob::new(
        cfg(1_000_000, 3, 5),
        SessionRequest::Horizontal {
            alice: random_points(4, 5, 1),
            bob: random_points(4, 5, 2),
        },
        1,
    );
    let good = horizontal_job(3);
    let bad_id = engine.submit(bad);
    let good_id = engine.submit(good);
    assert!(engine.wait(bad_id).outcome.is_err());
    assert!(engine.wait(good_id).is_ok());
    let report = engine.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 1);
}

#[test]
fn leakage_profile_preserved_per_concurrent_session() {
    // Theorem 9's per-session profile must hold for every job of a fully
    // loaded engine: concurrency adds no leakage events.
    let engine = Engine::start(EngineConfig::with_workers(8));
    let ids = engine.submit_all((0..8).map(horizontal_job));
    for id in ids {
        let result = engine.wait(id);
        for out in result.outputs() {
            for event in out.leakage.events() {
                match event {
                    LeakageEvent::NeighborCount { .. } | LeakageEvent::OwnPointMatched { .. } => {}
                    other => panic!("Theorem 9 forbids event {other:?} (job {})", result.id),
                }
            }
            assert!(out.leakage.count_kind("neighbor_count") > 0);
        }
    }
}

#[test]
fn bounded_queue_sheds_load_with_typed_error() {
    use ppds_engine::EngineError;
    use std::sync::mpsc;

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

    // One slot: first queued job admitted, second refused by name.
    engine
        .try_submit(horizontal_job(1))
        .expect("one slot available");
    assert_eq!(engine.queue_depth(), 1);
    let err = engine.try_submit(horizontal_job(2)).unwrap_err();
    assert_eq!(err, EngineError::QueueFull { depth: 1, cap: 1 });
    assert!(err.to_string().contains("queue full"), "{err}");

    // The gauge backs the decision and the rejection is counted.
    let registry = engine.registry();
    assert_eq!(registry.gauge("engine_queue_depth").get(), 1);
    assert_eq!(registry.counter("engine_jobs_rejected_full").get(), 1);

    // Release the worker: the queue drains and capacity returns.
    release_tx.send(()).expect("worker waiting");
    let results = engine.wait_all();
    assert_eq!(results.len(), 1, "one clustering job ran");
    assert!(results[0].is_ok());
    engine
        .try_submit(horizontal_job(3))
        .expect("capacity returned after drain");
    let report = engine.shutdown();
    // blocker task + two admitted clustering jobs; the refused one is gone.
    assert_eq!(report.submitted, 3);
    assert_eq!(report.completed, 3);
}

#[test]
fn tasks_share_queue_accounting_with_jobs() {
    let engine = Engine::start(EngineConfig::with_workers(2));
    let hits = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    for _ in 0..4 {
        let hits = std::sync::Arc::clone(&hits);
        engine
            .try_submit_task(
                "bump",
                Box::new(move || {
                    hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Ok(())
                }),
            )
            .expect("unbounded");
    }
    engine
        .try_submit_task("fails", Box::new(|| Err("intentional".into())))
        .expect("unbounded");
    let _ = engine.try_submit(horizontal_job(9));
    let results = engine.wait_all();
    assert_eq!(results.len(), 1, "only clustering jobs deposit results");
    let report = engine.shutdown();
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 4);
    assert_eq!(report.submitted, 6);
    assert_eq!(report.completed, 5);
    assert_eq!(report.failed, 1, "task failure counted, not lost");
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
    engine.wait_all();
    let report = engine.report();
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
