//! SMC primitive costs: the Multiplication Protocol (one product and one
//! dot product), Yao's millionaires by domain size, the Ideal comparator,
//! and k-th-smallest selection — each including its real two-thread channel
//! round trips. Every primitive takes a slice; the single-item rows pass a
//! slice of one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppds_bigint::{BigInt, BigUint};
use ppds_paillier::Keypair;
use ppds_smc::compare::{compare_alice, compare_bob, CmpOp, Comparator, ComparisonDomain};
use ppds_smc::kth::{kth_smallest_with, SelectionMethod};
use ppds_smc::multiplication::{
    dot_many_keyholder, dot_many_peer, mul_batches_keyholder, mul_batches_peer, sample_mask,
};
use ppds_smc::{PaillierBackend, Party, ProtocolContext, SharingLedger, SmcBackend};
use ppds_transport::duplex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn keypair() -> &'static Keypair {
    static KP: OnceLock<Keypair> = OnceLock::new();
    KP.get_or_init(|| Keypair::generate(256, &mut rng(0)))
}

/// The benchmark workload's key size (`enhanced_paillier_dgk_12`).
fn keypair_1024() -> &'static Keypair {
    static KP: OnceLock<Keypair> = OnceLock::new();
    KP.get_or_init(|| Keypair::generate(1024, &mut rng(1024)))
}

/// The homomorphic backend over the one bench keypair (both roles), Ideal
/// comparator, no packing.
fn backend(batching: bool) -> PaillierBackend<'static> {
    PaillierBackend {
        my_keypair: keypair(),
        peer_pk: &keypair().public,
        comparator: Comparator::Ideal,
        packed: false,
        batching,
        mul_packing: None,
        dot_packing: None,
        mul_mask_bound: BigUint::from_u64(1 << 20),
        dot_mask_bound: BigUint::from_u64(1 << 30),
    }
}

fn bench_multiplication(c: &mut Criterion) {
    let mut group = c.benchmark_group("mul_protocol_256");
    group.sample_size(20);
    let mask_bound = BigUint::from_u64(1 << 30);
    group.bench_function("single", |b| {
        b.iter(|| {
            let (mut kchan, mut pchan) = duplex();
            let handle = std::thread::spawn(move || {
                let (x, scope) = ([vec![BigInt::from_i64(37)]], |_| ProtocolContext::new(1));
                mul_batches_keyholder(&mut kchan, keypair(), &x, scope, None).unwrap()
            });
            let pctx = ProtocolContext::new(2);
            mul_batches_peer(
                &mut pchan,
                &keypair().public,
                &[[BigInt::from_i64(53)]],
                |_| vec![sample_mask(pctx.narrow("mask").rng(), &mask_bound)],
                |_| pctx,
                None,
            )
            .unwrap();
            handle.join().unwrap()
        });
    });
    for m in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("dot_product", m), &m, |b, &m| {
            let xs: Vec<BigInt> = (0..m as i64).map(BigInt::from_i64).collect();
            let ys = vec![(0..m as i64).map(|v| BigInt::from_i64(v * 3)).collect()];
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let xs2 = xs.clone();
                let handle = std::thread::spawn(move || {
                    let ctx = ProtocolContext::new(3);
                    dot_many_keyholder(&mut kchan, keypair(), &[xs2], &[1], None, |_| ctx).unwrap()
                });
                let (pk, ctx) = (&keypair().public, ProtocolContext::new(4));
                dot_many_peer(&mut pchan, pk, &ys, &[1], &mask_bound, None, |_| ctx).unwrap();
                handle.join().unwrap()
            });
        });
    }
    group.finish();
}

/// One comparison `a OP b` over `domain`: a slice of one on both sides.
fn compare_once(comparator: Comparator, (a, b): (i64, i64), op: CmpOp, domain: ComparisonDomain) {
    let (mut achan, mut bchan) = duplex();
    let handle = std::thread::spawn(move || {
        let scope = |_| ProtocolContext::new(5);
        compare_alice(
            comparator,
            &mut achan,
            keypair(),
            &[a],
            &domain,
            false,
            scope,
        )
        .unwrap()
    });
    let (pk, scope) = (&keypair().public, |_| ProtocolContext::new(6));
    compare_bob(comparator, &mut bchan, pk, &[b], op, &domain, scope).unwrap();
    handle.join().unwrap();
}

fn bench_yao(c: &mut Criterion) {
    let mut group = c.benchmark_group("yao_millionaires_256");
    group.sample_size(10);
    for n0 in [16i64, 64, 256] {
        let domain = ComparisonDomain::new(1, n0 - 1);
        group.bench_with_input(BenchmarkId::from_parameter(n0), &n0, |b, _| {
            b.iter(|| compare_once(Comparator::Yao, (2, 5), CmpOp::Lt, domain));
        });
    }
    group.finish();
}

fn bench_ideal_compare(c: &mut Criterion) {
    let domain = ComparisonDomain::symmetric(1 << 30);
    c.bench_function("ideal_compare", |b| {
        b.iter(|| compare_once(Comparator::Ideal, (123, 456), CmpOp::Leq, domain));
    });
}

fn bench_kth_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("kth_selection_n32");
    group.sample_size(10);
    let n = 32usize;
    let mut r = rng(9);
    let dists: Vec<i64> = (0..n).map(|_| r.random_range(0..1000)).collect();
    let vs: Vec<i64> = (0..n).map(|_| r.random_range(-500..500)).collect();
    let us: Vec<i64> = dists.iter().zip(&vs).map(|(d, v)| d + v).collect();
    let domain = ComparisonDomain::symmetric(4000);
    let select = |role, chan: &mut _, method, shares: &[i64], k, seed| {
        let (backend, ctx) = (backend(false), ProtocolContext::new(seed));
        let mut acct = SharingLedger::default();
        kth_smallest_with(
            method, &backend, chan, role, shares, k, &domain, false, &ctx, &mut acct,
        )
        .unwrap()
    };
    for (label, method, k) in [
        ("repmin_k1", SelectionMethod::RepeatedMin, 1usize),
        ("repmin_k16", SelectionMethod::RepeatedMin, 16),
        ("quickselect_k16", SelectionMethod::QuickSelect, 16),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let (mut achan, mut bchan) = duplex();
                std::thread::scope(|scope| {
                    scope.spawn(|| select(Party::Alice, &mut achan, method, &us, k, 10));
                    select(Party::Bob, &mut bchan, method, &vs, k, 11)
                })
            });
        });
    }
    group.finish();
}

/// Ablation (DESIGN.md §7): the same four Algorithm 2 runs — four
/// one-element groups at the same scopes, so the same ciphertexts — shipped
/// by the backend's two framings: a frame pair per run, or one frame pair
/// for all four. The batched framing saves three round trips of framing
/// and thread wakeups.
fn bench_batching_ablation(c: &mut Criterion) {
    let groups: Vec<Vec<i64>> = (0..4).map(|v| vec![v]).collect();
    let records: Vec<u64> = (0..4).collect();
    let mut group = c.benchmark_group("mul_batching_m4");
    group.sample_size(10);
    for (label, batching) in [("four_frames", false), ("one_frame", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let (backend, mut acct) = (backend(batching), SharingLedger::default());
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let (ctx, mut acct) = (ProtocolContext::new(20), SharingLedger::default());
                        backend
                            .mul_fold_keyholder(&mut kchan, &groups, &records, &ctx, &mut acct)
                            .unwrap()
                    });
                    let ctx = ProtocolContext::new(21);
                    backend
                        .mul_fold_peer(&mut pchan, &groups, &records, &ctx, &mut acct)
                        .unwrap();
                })
            });
        });
    }
    group.finish();
}

/// Keyed-substream discipline overhead: deriving one generator per record
/// (`ctx.rng_for(i)` — the cost the DGK batch path now pays per item)
/// versus advancing one threaded sequential stream (the old discipline).
/// The derivation is a handful of 64-bit multiplies per record, which the
/// first Paillier exponentiation dwarfs by orders of magnitude.
fn bench_keyed_derivation(c: &mut Criterion) {
    use criterion::black_box;
    use rand::RngCore;
    let mut group = c.benchmark_group("randomness_discipline_1024_draws");
    group.bench_function("keyed_substreams", |b| {
        let ctx = ProtocolContext::new(7).narrow("dgk");
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                acc ^= ctx.rng_for(black_box(i)).next_u64();
            }
            acc
        });
    });
    group.bench_function("sequential_stream", |b| {
        b.iter(|| {
            let mut r = rng(7);
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc ^= r.next_u64();
            }
            acc
        });
    });
    group.finish();
}

/// One DGK comparison at the benchmark's shape — a 33-bit share domain —
/// timed per role at 1024- and 2048-bit keys, in the full-domain shape
/// (`ℓ = 33` cells) and under the enhanced workload's promised gap
/// (`|x − y| ≤ 1,577`: 11 low bits and a mod-3 digit, 12 cells). A real
/// exchange is recorded once (Alice's bit frame, Bob's cells, the
/// conclusion); each role then runs alone against its peer's recorded
/// frames, so a row is that role's compute and nothing else.
fn bench_dgk_roles(c: &mut Criterion) {
    use ppds_smc::bitwise::{dgk_alice, dgk_bob};
    use ppds_transport::Channel;
    let bound = (1u64 << 33) - 1;
    let (x, y) = (0x1_2345_6789u64, 0x1_2345_6798u64);
    let alice_scope = |_| ProtocolContext::new(1);
    let bob_scope = |_| ProtocolContext::new(2);
    for bits in [1024usize, 2048] {
        let key = Keypair::generate(bits, &mut rng(bits as u64));
        let key = key.private.dgk().unwrap();
        for (shape, gap) in [("33bit", bound), ("33bit_gap11", 1577)] {
            let (bits_frame, reply, verdicts) = std::thread::scope(|scope| {
                let (mut a1, mut b1) = duplex();
                let (mut a2, mut b2) = duplex();
                scope
                    .spawn(move || dgk_alice(&mut a1, key, &[x], bound, gap, alice_scope).unwrap());
                scope.spawn(move || {
                    dgk_bob(&mut b2, key.public(), &[y], bound, gap, bob_scope).unwrap()
                });
                let bits: Vec<Vec<BigUint>> = b1.recv_batch().unwrap();
                a2.send_batch(&bits).unwrap();
                let reply: Vec<Vec<BigUint>> = a2.recv_batch().unwrap();
                b1.send_batch(&reply).unwrap();
                let verdicts: Vec<bool> = b1.recv_batch().unwrap();
                a2.send_batch(&verdicts).unwrap();
                (bits, reply, verdicts)
            });
            assert_eq!(verdicts, [true]);

            let mut group = c.benchmark_group(format!("dgk_compare_{shape}_{bits}"));
            group.sample_size(10);
            group.bench_function("alice", |b| {
                b.iter(|| {
                    let (mut achan, mut bchan) = duplex();
                    bchan.send_batch(&reply).unwrap();
                    dgk_alice(&mut achan, key, &[x], bound, gap, alice_scope).unwrap()
                });
            });
            group.bench_function("bob", |b| {
                b.iter(|| {
                    let (mut achan, mut bchan) = duplex();
                    achan.send_batch(&bits_frame).unwrap();
                    achan.send_batch(&verdicts).unwrap();
                    dgk_bob(&mut bchan, key.public(), &[y], bound, gap, bob_scope).unwrap()
                });
            });
            group.finish();
        }
    }
}

/// Packed vs unpacked dot-many response: one enhanced-protocol
/// neighborhood answer (24 masked distances) at 256-bit keys. Unpacked:
/// 24 response ciphertexts, 24 keyholder decryptions. Packed: the
/// responses share words (~6 slots each here), so both the response bytes
/// and the decryption count drop by the packing factor.
fn bench_dot_many_packing(c: &mut Criterion) {
    use ppds_paillier::SlotLayout;
    use ppds_smc::multiplication::ResponsePacking;
    let rows: Vec<Vec<BigInt>> = (0..24)
        .map(|j| {
            vec![
                BigInt::from_i64(1),
                BigInt::from_i64(j % 7),
                BigInt::from_i64(j % 5),
                BigInt::from_i64((j % 7) * (j % 7) + (j % 5) * (j % 5)),
            ]
        })
        .collect();
    let xs: Vec<BigInt> = [25i64, -6, -8, 1]
        .iter()
        .map(|&v| BigInt::from_i64(v))
        .collect();
    let mask_bound = ppds_bigint::BigUint::from_u64(1 << 20);
    let packing = ResponsePacking {
        layout: SlotLayout::new(keypair().public.bits(), 24).unwrap(),
        offset: ppds_bigint::BigUint::from_u64((1 << 20) + 200),
    };
    let mut group = c.benchmark_group("dot_many_24rows_256bit");
    group.sample_size(10);
    for (label, packed) in [("unpacked", false), ("packed", true)] {
        let packing = packed.then(|| packing.clone());
        let rows = rows.clone();
        let xs = xs.clone();
        let mask_bound = mask_bound.clone();
        group.bench_function(label, move |b| {
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let xs2 = xs.clone();
                let p2 = packing.clone();
                let handle = std::thread::spawn(move || {
                    dot_many_keyholder(&mut kchan, keypair(), &[xs2], &[24], p2.as_ref(), |_| {
                        ProtocolContext::new(3)
                    })
                    .unwrap()
                });
                dot_many_peer(
                    &mut pchan,
                    &keypair().public,
                    &rows,
                    &[24],
                    &mask_bound,
                    packing.as_ref(),
                    |_| ProtocolContext::new(4),
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
    }
    group.finish();
}

/// Flight-recorder overhead on the hottest SMC primitive: the same
/// `dot_many` exchange with the recorder off (no sink installed — spans
/// compile down to an `enabled()` check) and on (lock-free slot claims per
/// span edge). The delta is the tracing tax a production operator pays.
fn bench_trace_overhead(c: &mut Criterion) {
    use ppds_observe::{trace, SpanRecorder, TraceSink};
    use std::sync::Arc;
    let rows: Vec<Vec<BigInt>> = (0..24)
        .map(|j| {
            vec![
                BigInt::from_i64(1),
                BigInt::from_i64(j % 7),
                BigInt::from_i64(j % 5),
                BigInt::from_i64((j % 7) * (j % 7) + (j % 5) * (j % 5)),
            ]
        })
        .collect();
    let xs: Vec<BigInt> = [25i64, -6, -8, 1]
        .iter()
        .map(|&v| BigInt::from_i64(v))
        .collect();
    let mask_bound = ppds_bigint::BigUint::from_u64(1 << 20);
    let mut group = c.benchmark_group("dot_many_trace_overhead");
    group.sample_size(10);
    for (label, traced) in [("untraced", false), ("traced", true)] {
        let rows = rows.clone();
        let xs = xs.clone();
        let mask_bound = mask_bound.clone();
        group.bench_function(label, move |b| {
            b.iter(|| {
                let recorder = traced.then(SpanRecorder::new);
                let _guard = recorder
                    .clone()
                    .map(|r| trace::install(r as Arc<dyn TraceSink>));
                let (mut kchan, mut pchan) = duplex();
                let xs2 = xs.clone();
                let rec2 = recorder.clone();
                let handle = std::thread::spawn(move || {
                    let _guard = rec2.map(|r| trace::install(r as Arc<dyn TraceSink>));
                    dot_many_keyholder(&mut kchan, keypair(), &[xs2], &[24], None, |_| {
                        ProtocolContext::new(3)
                    })
                    .unwrap()
                });
                dot_many_peer(
                    &mut pchan,
                    &keypair().public,
                    &rows,
                    &[24],
                    &mask_bound,
                    None,
                    |_| ProtocolContext::new(4),
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
    }
    group.finish();
}

/// The two multi-exp response legs against the per-operand loops they
/// replaced (kernel on vs off, same inputs, same output bytes):
/// slot aggregation in `pack_ciphertexts` and the `dot_many` response
/// rows.
fn bench_kernel_legs(c: &mut Criterion) {
    use ppds_paillier::SlotLayout;
    let kp = keypair();
    let mut r = rng(40);
    let layout = SlotLayout::new(kp.public.bits(), 24).unwrap();
    let k = layout.capacity();
    let items: Vec<_> = (0..k)
        .map(|i| {
            kp.public
                .encrypt(&BigUint::from_u64(i as u64 + 1), &mut r)
                .unwrap()
        })
        .collect();
    let plain: Vec<BigUint> = (0..k).map(|i| BigUint::from_u64(i as u64)).collect();

    let mut group = c.benchmark_group("kernel_legs_256bit");
    group.sample_size(10);
    // Time only the slot-aggregation leg (the plain word is encrypted the
    // same way on both paths): Π itemsᵢ^(2^{w·i}) folded into the word.
    let word = {
        let mut r = rng(41);
        kp.public
            .pack_encrypt(&layout, &plain, &mut r)
            .unwrap()
            .remove(0)
    };
    group.bench_function("pack_aggregation_multi_exp", |b| {
        let ctx = ppds_bigint::MontgomeryCtx::new(kp.public.n_squared()).unwrap();
        let shifts: Vec<BigUint> = (0..k).map(|i| layout.slot_shift(i)).collect();
        b.iter(|| {
            let pairs: Vec<(&BigUint, &BigUint)> = items
                .iter()
                .map(|c| c.as_biguint())
                .zip(shifts.iter())
                .collect();
            let shifted = ppds_bigint::multi_exp(&ctx, &pairs);
            &(word.as_biguint() * &shifted) % kp.public.n_squared()
        });
    });
    group.bench_function("pack_aggregation_per_operand", |b| {
        // The pre-kernel path: one mul_plain (shift) + add per item.
        b.iter(|| {
            items
                .iter()
                .enumerate()
                .fold(word.clone(), |acc, (i, item)| {
                    let shifted = kp.public.mul_plain(item, &layout.slot_shift(i));
                    kp.public.add(&acc, &shifted)
                })
        });
    });

    group.finish();

    // dot_many response rows at the benchmark's key size: 4 shared
    // ciphertext bases under ≤ 64-bit signed coefficients. One batch
    // inversion per query and one multi-exponentiation per row, against
    // the scalar fold it is byte-equal to.
    let kp = keypair_1024();
    let cts: Vec<_> = (0..4u64)
        .map(|i| {
            kp.public
                .encrypt(&BigUint::from_u64(i + 2), &mut r)
                .unwrap()
        })
        .collect();
    let rows: Vec<Vec<BigInt>> = (0..16)
        .map(|j: i64| {
            vec![
                BigInt::from_i64(j - 11),
                BigInt::from_i64(j % 7),
                BigInt::from_i64(-(j % 5)),
                BigInt::from_i64(j * j),
            ]
        })
        .collect();
    let acc = kp.public.encrypt(&BigUint::from_u64(99), &mut r).unwrap();
    let mut group = c.benchmark_group("kernel_legs_1024bit");
    group.sample_size(10);
    for count in [1usize, 2, 16] {
        group.bench_function(format!("dot_response_rows{count}"), |b| {
            b.iter(|| {
                let inverses = kp.public.negate_many(&cts).unwrap();
                rows[..count]
                    .iter()
                    .map(|ys| {
                        let row = kp.public.dot_plain_signed(&cts, &inverses, ys);
                        kp.public.add(&acc, &row)
                    })
                    .collect::<Vec<_>>()
            });
        });
    }
    group.bench_function("dot_response_per_operand_rows16", |b| {
        b.iter(|| {
            rows.iter()
                .map(|ys| {
                    cts.iter().zip(ys).fold(acc.clone(), |a, (ct, y)| {
                        kp.public.add(&a, &kp.public.mul_plain_signed(ct, y))
                    })
                })
                .collect::<Vec<_>>()
        });
    });
    group.finish();
}

/// The two batched SMC workhorses on both substrates (DESIGN.md §14), at
/// k ∈ {4, 16, 64, 256}: `dot_many` with k responder rows (one
/// neighborhood answer) against the packed-Paillier variant, and
/// `mul_batches` with k four-element groups (one fused Algorithm 2
/// sweep). Same dataflow and channel round trips either way — the delta
/// is 8-byte ring elements plus dealer-tape derivation versus 256-bit
/// ciphertext legs plus encrypt/decrypt work.
fn bench_backend_workhorses(c: &mut Criterion) {
    use ppds_paillier::SlotLayout;
    use ppds_smc::multiplication::{zero_sum_masks, ResponsePacking};
    use ppds_smc::sharing::{
        sharing_dot_querier, sharing_dot_responder, sharing_fold_keyholder, sharing_fold_peer,
        DealerTape, Fe,
    };

    let packing = ResponsePacking {
        layout: SlotLayout::new(keypair().public.bits(), 24).unwrap(),
        offset: ppds_bigint::BigUint::from_u64((1 << 20) + 200),
    };
    let mask_bound = BigUint::from_u64(1 << 20);
    let xs: [i64; 4] = [25, -6, -8, 1];

    let mut group = c.benchmark_group("backend_dot_many");
    group.sample_size(10);
    for k in [4usize, 16, 64, 256] {
        let rows: Vec<Vec<i64>> = (0..k as i64)
            .map(|j| vec![1, j % 7, j % 5, (j % 7) * (j % 7) + (j % 5) * (j % 5)])
            .collect();
        let rows_big: Vec<Vec<BigInt>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| BigInt::from_i64(v)).collect())
            .collect();
        let rows_fe: Vec<Vec<Fe>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| Fe::embed(v)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::new("paillier_packed", k), &k, |b, &k| {
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let xs2: Vec<BigInt> = xs.iter().map(|&v| BigInt::from_i64(v)).collect();
                let p2 = packing.clone();
                let handle = std::thread::spawn(move || {
                    dot_many_keyholder(&mut kchan, keypair(), &[xs2], &[k], Some(&p2), |_| {
                        ProtocolContext::new(3)
                    })
                    .unwrap()
                });
                dot_many_peer(
                    &mut pchan,
                    &keypair().public,
                    &rows_big,
                    &[k],
                    &mask_bound,
                    Some(&packing),
                    |_| ProtocolContext::new(4),
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("sharing", k), &k, |b, &k| {
            // Both sides must share the tape seed and walk the same
            // context path — the path-symmetry contract of DESIGN.md §14.
            let tape = DealerTape::from_seed(0xD07 + k as u64);
            let ctx = ProtocolContext::new(5).at(k as u64);
            b.iter(|| {
                let (mut qchan, mut rchan) = duplex();
                let xs2: Vec<Fe> = xs.iter().map(|&v| Fe::embed(v)).collect();
                let handle = std::thread::spawn(move || {
                    let mut acct = SharingLedger::default();
                    sharing_dot_querier(&tape, &mut qchan, &[xs2], &[k], |_| ctx, &mut acct)
                        .unwrap()
                });
                let mut masks_rng = ctx.narrow("bench_mask").rng();
                let masks: Vec<Fe> = (0..k).map(|_| Fe::random(&mut masks_rng)).collect();
                let mut acct = SharingLedger::default();
                let scopes = |_| ctx;
                sharing_dot_responder(&tape, &mut rchan, &rows_fe, &masks, &[k], scopes, &mut acct)
                    .unwrap();
                handle.join().unwrap()
            });
        });
    }
    group.finish();

    // Zero-sum masks concentrate up to (len-1)·bound in the closing mask,
    // so the fold packing needs a wider offset than the dot-product one.
    let fold_packing = ResponsePacking {
        layout: SlotLayout::new(keypair().public.bits(), 24).unwrap(),
        offset: ppds_bigint::BigUint::from_u64(4 << 20),
    };
    let mut group = c.benchmark_group("backend_mul_batches");
    group.sample_size(10);
    for k in [4usize, 16, 64, 256] {
        let groups: Vec<Vec<i64>> = (0..k as i64)
            .map(|g| (0..4).map(|i| (g * 4 + i) % 97).collect())
            .collect();
        let groups_big: Vec<Vec<BigInt>> = groups
            .iter()
            .map(|r| r.iter().map(|&v| BigInt::from_i64(v)).collect())
            .collect();
        let groups_fe: Vec<Vec<Fe>> = groups
            .iter()
            .map(|r| r.iter().map(|&v| Fe::embed(v)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::new("paillier_packed", k), &k, |b, _| {
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let g2 = groups_big.clone();
                let p2 = fold_packing.clone();
                let handle = std::thread::spawn(move || {
                    let kctx = ProtocolContext::new(20).narrow("mul");
                    mul_batches_keyholder(
                        &mut kchan,
                        keypair(),
                        &g2,
                        |g| kctx.at(g as u64),
                        Some(&p2),
                    )
                    .unwrap()
                });
                let pctx = ProtocolContext::new(21).narrow("mul");
                mul_batches_peer(
                    &mut pchan,
                    &keypair().public,
                    &groups_big,
                    |g| zero_sum_masks(pctx.narrow("mask").at(g as u64).rng(), 4, &mask_bound),
                    |g| pctx.at(g as u64),
                    Some(&fold_packing),
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("sharing", k), &k, |b, _| {
            let tape = DealerTape::from_seed(0xF01D + k as u64);
            let ctx = ProtocolContext::new(22).narrow("mul");
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let g2 = groups_fe.clone();
                // Each group is its own query, one fold a group as on the
                // Paillier leg.
                let handle = std::thread::spawn(move || {
                    let mut acct = SharingLedger::default();
                    let scopes = |g| ctx.at(g as u64);
                    sharing_fold_keyholder(
                        &tape,
                        &mut kchan,
                        &g2,
                        &[1; 256][..k],
                        scopes,
                        &mut acct,
                    )
                    .unwrap()
                });
                let mut acct = SharingLedger::default();
                sharing_fold_peer(
                    &tape,
                    &mut pchan,
                    &groups_fe,
                    &[1; 256][..k],
                    |g| ctx.at(g as u64),
                    &mut acct,
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_multiplication,
    bench_yao,
    bench_ideal_compare,
    bench_kth_selection,
    bench_batching_ablation,
    bench_keyed_derivation,
    bench_dgk_roles,
    bench_dot_many_packing,
    bench_kernel_legs,
    bench_trace_overhead,
    bench_backend_workhorses
);
criterion_main!(benches);
