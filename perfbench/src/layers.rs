//! Direct calls: the harness times public functions of each layer crate
//! with the parameters the session workloads use (2048-bit modulus,
//! 1024-bit Paillier key, batches of 5 and 250 ring elements, n = 10⁴
//! grids). Fixed seeds, mean per operation, every row outside the program.
//! These rows say what a layer costs on its own; the traced pass says how
//! much of a session it is.

use crate::workloads::{keypair, scaled_uniform, Spec, PARAMS};
use ppdbscan::domain::{dot_response_packing, enhanced_share_domain, hdp_domain, vdp_domain};
use ppdbscan::ProtocolConfig;
use ppds_bigint::{modular, multi_exp, random, BigUint, FixedBaseTable, MontgomeryCtx};
use ppds_dbscan::{band_width, coarse_cell, dbscan, CoarseGrid, Point};
use ppds_engine::{Engine, EngineConfig};
use ppds_paillier::{Ciphertext, Keypair};
use ppds_smc::backend::clamp_sharing_bound;
use ppds_smc::compare::{CmpOp, Comparator};
use ppds_smc::kth::{kth_smallest_with, SelectionMethod};
use ppds_smc::sharing::Fe;
use ppds_smc::{
    DealerTape, PaillierBackend, Party, ProtocolContext, RecordId, SharingBackend, SharingLedger,
    SmcBackend,
};
use ppds_transport::tcp::TcpChannel;
use ppds_transport::{duplex, Channel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// `(metric name, value)` rows in report order.
pub type Rows = Vec<(&'static str, f64)>;

/// Seconds per call of `op`: one untimed call, one timed call to size a
/// chunk of about 100 µs, then whole chunks until `budget` is spent.
fn per_op<T>(budget: Duration, mut op: impl FnMut() -> T) -> f64 {
    black_box(op());
    let t0 = Instant::now();
    black_box(op());
    let single = t0.elapsed().as_secs_f64().max(1e-9);
    let chunk = ((100e-6 / single) as u64).clamp(1, 4096);
    let (t0, mut calls) = (Instant::now(), 0u64);
    loop {
        for _ in 0..chunk {
            black_box(op());
        }
        calls += chunk;
        if t0.elapsed() >= budget {
            return t0.elapsed().as_secs_f64() / calls as f64;
        }
    }
}

/// Seconds per iteration of a two-party exchange: `bob` runs on a scoped
/// thread, `alice` on this one, over the channel pair `pair` makes. One
/// iteration sizes the loop — and is the measurement when it alone fills
/// the budget; otherwise a second run of that many iterations is.
fn per_exchange<C: Channel + Send>(
    budget: Duration,
    pair: impl Fn() -> (C, C),
    alice: impl Fn(&mut C, u64) + Sync,
    bob: impl Fn(&mut C, u64) + Sync,
) -> f64 {
    let run = |iterations: u64| {
        let (mut chan_a, mut chan_b) = pair();
        std::thread::scope(|scope| {
            let peer = scope.spawn(|| (0..iterations).for_each(|i| bob(&mut chan_b, i)));
            let t0 = Instant::now();
            (0..iterations).for_each(|i| alice(&mut chan_a, i));
            peer.join().expect("peer thread does not panic");
            t0.elapsed().as_secs_f64()
        })
    };
    let first = run(1).max(1e-9);
    let iterations = ((budget.as_secs_f64() / first) as u64).min(1_000_000);
    if iterations <= 1 {
        return first;
    }
    run(iterations) / iterations as f64
}

fn loopback_pair() -> (TcpChannel, TcpChannel) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let a = TcpChannel::connect(addr).expect("loopback connect");
    let b = TcpChannel::accept(&listener).expect("loopback accept");
    (a, b)
}

fn bigint_rows(budget: Duration, rows: &mut Rows) {
    let mut r = StdRng::seed_from_u64(0xB16);
    let bits = 2048;
    let mut modulus = random::gen_biguint_exact_bits(&mut r, bits);
    modulus.set_bit(0, true);
    let ctx = MontgomeryCtx::new(&modulus).expect("odd modulus");
    let base = random::gen_biguint_below(&mut r, &modulus);
    let exp = random::gen_biguint_exact_bits(&mut r, bits);
    let (am, bm) = (ctx.to_mont(&base), ctx.to_mont(&exp));
    rows.push((
        "bigint.mont_mul_ns",
        per_op(budget, || ctx.mont_mul(&am, &bm)) * 1e9,
    ));
    rows.push((
        "bigint.pow_mod_us",
        per_op(budget, || ctx.pow_mod(&base, &exp)) * 1e6,
    ));
    let table = FixedBaseTable::new(&ctx, &base, 4, bits);
    rows.push((
        "bigint.fixed_base_pow_us",
        per_op(budget, || table.pow(&exp)) * 1e6,
    ));
    let operands: Vec<(BigUint, BigUint)> = (0..64)
        .map(|_| {
            (
                random::gen_biguint_below(&mut r, &modulus),
                random::gen_biguint_exact_bits(&mut r, 128),
            )
        })
        .collect();
    let pairs: Vec<(&BigUint, &BigUint)> = operands[..16].iter().map(|(b, e)| (b, e)).collect();
    rows.push((
        "bigint.multi_exp16_us",
        per_op(budget, || multi_exp(&ctx, &pairs)) * 1e6,
    ));
    let values: Vec<BigUint> = operands.into_iter().map(|(b, _)| b).collect();
    rows.push((
        "bigint.batch_inverse64_us",
        per_op(budget, || modular::batch_mod_inverse_with(&ctx, &values)) * 1e6,
    ));
}

/// The enhanced workload's configuration (its lattice bound is 14),
/// whatever the workload being traced: the Paillier and Paillier-backed
/// smc rows are about that path.
fn paillier_cfg(spec: &Spec) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new_with_dgk(PARAMS, 14)
        .with_batching(true)
        .with_packing(true);
    cfg.key_bits = spec.layer_key_bits;
    cfg
}

fn paillier_rows(budget: Duration, cfg: &ProtocolConfig, kp: &Keypair, rows: &mut Rows) {
    let mut r = StdRng::seed_from_u64(0x9A1);
    let t0 = Instant::now();
    for seed in [11u64, 12] {
        black_box(Keypair::generate(
            cfg.key_bits,
            &mut StdRng::seed_from_u64(seed),
        ));
    }
    rows.push(("paillier.keygen_ms", t0.elapsed().as_secs_f64() / 2.0 * 1e3));

    let pk = &kp.public;
    let m = random::gen_biguint_below(&mut r, pk.n());
    rows.push((
        "paillier.encrypt_us",
        per_op(budget, || pk.encrypt(&m, &mut r)) * 1e6,
    ));
    let ms = vec![m.clone(); 64];
    let t0 = Instant::now();
    let cts: Vec<Ciphertext> = pk.encrypt_many(&ms, &mut r).expect("messages are below n");
    rows.push((
        "paillier.encrypt_many64_us",
        t0.elapsed().as_secs_f64() * 1e6,
    ));
    rows.push((
        "paillier.decrypt_crt_us",
        per_op(budget, || kp.private.decrypt_crt(&cts[0])) * 1e6,
    ));
    rows.push((
        "paillier.validate_many64_us",
        per_op(budget, || pk.validate_many(&cts)) * 1e6,
    ));

    // One full word of the masked-distance layout the enhanced mode packs.
    let layout = dot_response_packing(cfg, 2)
        .expect("validated configs have a dot layout")
        .layout;
    let slots: Vec<BigUint> = (0..layout.capacity())
        .map(|_| BigUint::from_u64(r.random_range(0..1u64 << 20)))
        .collect();
    let items: Vec<Ciphertext> = slots
        .iter()
        .map(|s| pk.encrypt(s, &mut r).expect("slot value is below n"))
        .collect();
    rows.push((
        "paillier.pack_ciphertexts_us",
        per_op(budget, || {
            pk.pack_ciphertexts(&layout, &items, &slots, &mut r)
        }) * 1e6,
    ));
    let words = pk
        .pack_encrypt(&layout, &slots, &mut r)
        .expect("slots fit the layout");
    rows.push((
        "paillier.unpack_decrypt_us",
        per_op(budget, || {
            kp.private.unpack_decrypt(&layout, &words, slots.len())
        }) * 1e6,
    ));
}

/// DGK comparison, masked dot product and k-th selection on the Paillier
/// substrate, through the same `SmcBackend` the drivers use.
fn smc_paillier_rows(cfg: &ProtocolConfig, alice_kp: &Keypair, bob_kp: &Keypair, rows: &mut Rows) {
    let dim = 2;
    let backend = |party: Party| {
        let (my_keypair, peer_pk) = match party {
            Party::Alice => (alice_kp, &bob_kp.public),
            Party::Bob => (bob_kp, &alice_kp.public),
        };
        PaillierBackend {
            my_keypair,
            peer_pk,
            comparator: Comparator::Dgk,
            packed: true,
            batching: true,
            mul_packing: ppdbscan::domain::mul_response_packing(cfg, dim),
            dot_packing: dot_response_packing(cfg, dim),
            mul_mask_bound: cfg.mul_mask_bound(),
            dot_mask_bound: BigUint::from_u64(cfg.enhanced_mask_bound(dim)),
        }
    };
    let domain = enhanced_share_domain(cfg, dim);
    let once = Duration::ZERO; // one iteration: each costs 0.1–1 s at 1024 bits

    const CMP_BATCH: usize = 3;
    let compare = |role: Party, value: i64| {
        move |chan: &mut _, i: u64| {
            let mut acct = SharingLedger::default();
            backend(role)
                .compare_batch(
                    chan,
                    role,
                    &[value; CMP_BATCH],
                    CmpOp::Leq,
                    &domain,
                    &ProtocolContext::new(31).at(i),
                    &mut acct,
                )
                .expect("DGK batch runs");
        }
    };
    let secs = per_exchange(
        once,
        duplex,
        compare(Party::Alice, 1234),
        compare(Party::Bob, 4321),
    );
    rows.push(("smc.dgk_cmp_packed_us", secs / CMP_BATCH as f64 * 1e6));

    const DOT_ROWS: usize = 8;
    let answer: Vec<Vec<i64>> = (0..DOT_ROWS as i64)
        .map(|j| vec![1, j % 7, j % 5, (j % 7) * (j % 7) + (j % 5) * (j % 5)])
        .collect();
    let secs = per_exchange(
        once,
        duplex,
        |chan, i| {
            let mut acct = SharingLedger::default();
            let ctx = ProtocolContext::new(32).at(i);
            backend(Party::Alice)
                .dot_many_querier(chan, &[25, -6, -8, 1], DOT_ROWS, &ctx, &mut acct)
                .expect("dot_many querier runs");
        },
        |chan, i| {
            let mut acct = SharingLedger::default();
            let ctx = ProtocolContext::new(33).at(i);
            backend(Party::Bob)
                .dot_many_responder(chan, &answer, &ctx, &mut acct)
                .expect("dot_many responder runs");
        },
    );
    rows.push(("smc.dot_many_row_us", secs / DOT_ROWS as f64 * 1e6));

    // Minimum of three shared distances: two share comparisons.
    let select = |role: Party, shares: [i64; 3]| {
        move |chan: &mut _, i: u64| {
            let mut acct = SharingLedger::default();
            kth_smallest_with(
                SelectionMethod::RepeatedMin,
                &backend(role),
                chan,
                role,
                &shares,
                1,
                &domain,
                true,
                &ProtocolContext::new(34).at(i),
                &mut acct,
            )
            .expect("selection runs");
        }
    };
    let secs = per_exchange(
        once,
        duplex,
        select(Party::Alice, [40, 17, 95]),
        select(Party::Bob, [9, -3, 30]),
    );
    rows.push(("smc.kth_call_ms", secs * 1e3));
}

/// The sharing substrate's comparison at the two batch shapes the sharing
/// workloads produce (5 candidates per grid query, 250 per all-pairs
/// query), and its multiplication fold at 250.
fn smc_sharing_rows(budget: Duration, rows: &mut Rows) {
    let cfg = ProtocolConfig::new(PARAMS, 400).with_batching(true);
    let backend = SharingBackend {
        tape: DealerTape::from_seed(0x7A9E),
        batching: true,
        dot_mask_bound: clamp_sharing_bound(&BigUint::from_u64(cfg.enhanced_mask_bound(2))),
    };
    let compare = |batch: usize, domain| {
        let values: Vec<i64> = (0..batch as i64).map(|v| 3 * v - 7).collect();
        let side = move |role: Party| {
            let values = values.clone();
            move |chan: &mut _, i: u64| {
                let mut acct = SharingLedger::default();
                let ctx = ProtocolContext::new(41).at(i);
                backend
                    .compare_batch(chan, role, &values, CmpOp::Leq, &domain, &ctx, &mut acct)
                    .expect("sharing comparison runs");
            }
        };
        per_exchange(budget, duplex, side(Party::Alice), side(Party::Bob)) / batch as f64
    };
    rows.push(("smc.share_cmp_b5_ns", compare(5, vdp_domain(&cfg, 2)) * 1e9));
    rows.push((
        "smc.share_cmp_b250_ns",
        compare(250, hdp_domain(&cfg, 2)) * 1e9,
    ));

    let groups: Vec<Vec<i64>> = (0..250).map(|g| vec![g % 97, (3 * g) % 89]).collect();
    let records: Vec<RecordId> = (0..250).collect();
    let secs = per_exchange(
        budget,
        duplex,
        |chan, i| {
            let (mut acct, ctx) = (SharingLedger::default(), ProtocolContext::new(42).at(i));
            backend
                .mul_fold_keyholder(chan, &groups, &records, &ctx, &mut acct)
                .expect("fold keyholder runs");
        },
        |chan, i| {
            let (mut acct, ctx) = (SharingLedger::default(), ProtocolContext::new(42).at(i));
            backend
                .mul_fold_peer(chan, &groups, &records, &ctx, &mut acct)
                .expect("fold peer runs");
        },
    );
    rows.push(("smc.share_fold_b250_ns", secs / 250.0 * 1e9));
}

fn dbscan_rows(budget: Duration, points: &[Point], rows: &mut Rows) {
    rows.push((
        "dbscan.plain_ms",
        per_op(budget, || dbscan(points, PARAMS)) * 1e3,
    ));
    let (big, _) = scaled_uniform(10_000, 0xD85);
    let width = band_width(PARAMS.eps_sq, 1);
    rows.push((
        "dbscan.grid_build_us",
        per_op(budget, || CoarseGrid::from_points(&big, width)) * 1e6,
    ));
    let grid = CoarseGrid::from_points(&big, width);
    let cells: Vec<Vec<i64>> = big.iter().map(|p| coarse_cell(p.coords(), width)).collect();
    let mut next = 0;
    let lookup = per_op(budget, || {
        next = (next + 1) % cells.len();
        grid.candidates(&cells[next])
    });
    rows.push(("dbscan.band_candidates_ns", lookup * 1e9));
}

fn transport_rows(budget: Duration, rows: &mut Rows) {
    for (name, size) in [
        ("transport.rtt_64b_us", 64),
        ("transport.rtt_64k_us", 64 * 1024),
    ] {
        let payload = vec![0x5Au8; size];
        let secs = per_exchange(
            budget,
            loopback_pair,
            |chan, _| {
                chan.send_bytes(&payload).expect("ping");
                black_box(chan.recv_bytes().expect("pong"));
            },
            |chan, _| {
                let frame = chan.recv_bytes().expect("ping");
                chan.send_bytes(&frame).expect("pong");
            },
        );
        rows.push((name, secs * 1e6));
    }
    let batch: Vec<Fe> = (0..250).map(Fe).collect();
    let secs = per_exchange(
        budget,
        duplex,
        |chan, _| chan.send_batch(&batch).expect("batch sends"),
        |chan, _| {
            black_box(chan.recv_batch::<Fe>().expect("batch decodes"));
        },
    );
    rows.push(("transport.codec_batch_mb_s", 250.0 * 8.0 / secs / 1e6));
}

/// Submit → run → completion signal of a no-op engine task, 10⁴ times.
fn engine_rows(rows: &mut Rows) {
    const TASKS: u32 = 10_000;
    let engine = Engine::start(EngineConfig::with_workers(2));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let t0 = Instant::now();
    for _ in 0..TASKS {
        let done = done_tx.clone();
        engine
            .try_submit_task(
                "noop",
                Box::new(move || done.send(()).map_err(|e| e.to_string())),
            )
            .expect("unbounded engine admits");
        done_rx.recv().expect("worker signals completion");
    }
    rows.push((
        "engine.noop_task_us",
        t0.elapsed().as_secs_f64() / f64::from(TASKS) * 1e6,
    ));
    engine.shutdown();
}

/// Every direct-call row, each given about `budget` of wall time (the
/// Paillier-substrate SMC rows run one exchange each instead: they cost a
/// few hundred milliseconds apiece at 1024 bits).
pub fn direct_rows(spec: &Spec, points: &[Point], budget: Duration) -> Rows {
    let mut rows = Rows::new();
    bigint_rows(budget, &mut rows);
    let cfg = paillier_cfg(spec);
    let (alice_kp, bob_kp) = (keypair(cfg.key_bits, 0), keypair(cfg.key_bits, 1));
    paillier_rows(budget, &cfg, &alice_kp, &mut rows);
    smc_paillier_rows(&cfg, &alice_kp, &bob_kp, &mut rows);
    smc_sharing_rows(budget, &mut rows);
    dbscan_rows(budget, points, &mut rows);
    transport_rows(budget, &mut rows);
    engine_rows(&mut rows);
    rows
}
