//! Multi-tenant engine demo: many in-process clustering sessions through
//! one worker pool, as tasks that send their outputs back over a channel.
//!
//! Run with `cargo run --release --example engine_throughput`.

use ppds::ppdbscan::session::{run_data_pair, PartyData};
use ppds::ppdbscan::ProtocolConfig;
use ppds::ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds::ppds_dbscan::{dbscan_with_external_density, DbscanParams, Point, Quantizer};
use ppds::ppds_engine::{Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::Instant;

const SESSIONS: u64 = 12;

/// One tenant's workload: a blob dataset split between two hospitals.
fn tenant(seed: u64) -> (ProtocolConfig, Vec<Point>, Vec<Point>) {
    let quantizer = Quantizer::new(1.0, 40);
    let (points, _) = standard_blobs(&mut StdRng::seed_from_u64(seed), 8, 2, 2, quantizer);
    let (alice, bob) = split_alternating(&points);
    let mut cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 49,
            min_pts: 3,
        },
        40,
    );
    cfg.key_bits = 64; // demo speed; the engine is key-size agnostic
    (cfg, alice, bob)
}

fn main() {
    let engine = Engine::start(EngineConfig::with_workers(4));
    let (tx, rx) = mpsc::channel();

    println!("submitting {SESSIONS} horizontal clustering sessions to a 4-worker engine...");
    let t0 = Instant::now();
    for seed in 0..SESSIONS {
        let tx = tx.clone();
        let task = move || {
            let (cfg, alice, bob) = tenant(seed);
            let start = Instant::now();
            let outputs = run_data_pair(
                &cfg,
                PartyData::Horizontal(alice),
                PartyData::Horizontal(bob),
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed + 1),
            )
            .map_err(|e| e.to_string())?;
            tx.send((seed, outputs, start.elapsed()))
                .map_err(|e| e.to_string())
        };
        engine
            .try_submit_task("horizontal-session", Box::new(task))
            .expect("an unbounded engine admits every task");
    }
    drop(tx);
    // Workers finish in any order; print in seed order so two runs agree.
    let mut results: Vec<_> = rx.iter().collect();
    let elapsed = t0.elapsed();
    results.sort_by_key(|(seed, ..)| *seed);
    assert_eq!(results.len() as u64, SESSIONS, "a session failed");

    let (mut bytes, mut messages, mut comparisons) = (0, 0, 0);
    for (seed, (alice, bob), wall) in &results {
        let traffic = alice.traffic + bob.traffic;
        bytes += traffic.total_bytes();
        messages += traffic.total_messages();
        comparisons += alice.yao.comparisons + bob.yao.comparisons;
        println!(
            "  session-{seed}: clusters(alice)={} traffic={} B wall={wall:.1?}",
            alice.clustering.num_clusters,
            traffic.total_bytes(),
        );
    }

    // Spot-check one session against the single-session reference semantics.
    let (cfg, alice, bob) = tenant(0);
    let reference = dbscan_with_external_density(&alice, &bob, cfg.params);
    let (_, (session_0_alice, _), _) = &results[0];
    assert_eq!(session_0_alice.clustering, reference);
    println!("session-0 output matches the single-session reference semantics ✓");

    let report = engine.shutdown();
    println!(
        "\n{} sessions in {elapsed:.1?} wall ({:.1?} cumulative busy, {:.1}x effective concurrency)",
        report.completed,
        report.busy_time,
        report.busy_time.as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "aggregate traffic: {bytes} bytes / {messages} messages; modeled Yao comparisons: {comparisons}"
    );
}
