//! Backend parity: the secret-sharing backend must be observationally
//! interchangeable with the Paillier backend everywhere the paper's
//! protocols surface a result. Concretely, for every protocol mode and
//! both round framings:
//!
//! 1. clustering labels are byte-identical across backends;
//! 2. the `LeakageLog` (event *order* included — the Figure-1-defense
//!    permutations draw from backend-independent keyed streams) and the
//!    modeled `YaoLedger` are byte-identical across backends, so swapping
//!    the arithmetic substrate never changes what a party *observes*; and
//! 3. the trust delta is explicitly ledgered: sharing runs populate the
//!    `SharingLedger` (dealer correlations consumed, elements opened),
//!    Paillier runs leave it at zero — the ledger itself records which
//!    trust model produced a given output.
//!
//! Plus direct property tests of the `Z_2^64` field layer: embed/lift
//! round-trips, additive reconstruction, Beaver-fold correctness against
//! plaintext inner products, and `share_less_than` against plaintext `<`.

mod common;

use common::{
    run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_multiparty, run_vertical_pair,
};
use ppds::ppdbscan::config::ProtocolConfig;
use ppds::ppdbscan::{ArbitraryPartition, PartyOutput, VerticalPartition};
use ppds::ppds_dbscan::{DbscanParams, Point};
use ppds::ppds_smc::compare::ComparisonDomain;
use ppds::ppds_smc::sharing::{fe_dot, sharing_fold_keyholder, sharing_fold_peer, Fe};
use ppds::ppds_smc::{
    BackendKind, DealerTape, Party, ProtocolContext, SharingBackend, SharingLedger, SmcBackend,
};
use ppds::ppds_transport::duplex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::thread;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn lattice_points(seed: u64, n: usize, bound: i64) -> Vec<Point> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            Point::new(vec![
                r.random_range(-bound..=bound),
                r.random_range(-bound..=bound),
            ])
        })
        .collect()
}

fn base_cfg() -> ProtocolConfig {
    ProtocolConfig::new(
        DbscanParams {
            eps_sq: 8,
            min_pts: 2,
        },
        6,
    )
}

/// Labels, leakage (order-sensitive), and the modeled Yao ledger must be
/// byte-identical across backends; wire traffic legitimately differs
/// (that difference is the whole point of the sharing backend), so it is
/// asserted separately, not compared.
fn assert_backend_parity(
    name: &str,
    paillier: &(PartyOutput, PartyOutput),
    sharing: &(PartyOutput, PartyOutput),
) {
    for (side, (po, so)) in [
        ("alice", (&paillier.0, &sharing.0)),
        ("bob", (&paillier.1, &sharing.1)),
    ] {
        assert_eq!(po.clustering, so.clustering, "{name}/{side}: labels");
        assert_eq!(po.leakage, so.leakage, "{name}/{side}: leakage event order");
        assert_eq!(po.yao, so.yao, "{name}/{side}: yao ledger");
        assert_eq!(
            po.sharing,
            SharingLedger::default(),
            "{name}/{side}: Paillier run must not touch the sharing ledger"
        );
        assert!(
            so.sharing.compares > 0 || so.sharing.triples > 0,
            "{name}/{side}: sharing run must ledger its dealer trust"
        );
        assert!(
            so.sharing.modeled_offline_bytes > 0,
            "{name}/{side}: sharing run must model its offline cost"
        );
    }
}

#[test]
fn all_modes_agree_across_backends_and_framings() {
    let points = lattice_points(17, 6, 5);
    let (alice, bob) = (points[..3].to_vec(), points[3..].to_vec());
    let vertical = VerticalPartition::split(&points, 1);
    let arbitrary = ArbitraryPartition::random(&mut rng(0xA5A5), &points);

    for batching in [false, true] {
        let tag = if batching { "batched" } else { "unbatched" };
        let p_cfg = base_cfg().with_batching(batching);
        let s_cfg = p_cfg.with_backend(BackendKind::Sharing);

        let p = run_horizontal_pair(&p_cfg, &alice, &bob, rng(1), rng(2)).unwrap();
        let s = run_horizontal_pair(&s_cfg, &alice, &bob, rng(1), rng(2)).unwrap();
        assert_backend_parity(&format!("horizontal/{tag}"), &p, &s);

        let mut enh = p_cfg;
        enh.params.min_pts = 3; // force the joint core tests to engage
        let enh_s = enh.with_backend(BackendKind::Sharing);
        let p = run_enhanced_pair(&enh, &alice, &bob, rng(3), rng(4)).unwrap();
        let s = run_enhanced_pair(&enh_s, &alice, &bob, rng(3), rng(4)).unwrap();
        assert_backend_parity(&format!("enhanced/{tag}"), &p, &s);

        let p = run_vertical_pair(&p_cfg, &vertical, rng(5), rng(6)).unwrap();
        let s = run_vertical_pair(&s_cfg, &vertical, rng(5), rng(6)).unwrap();
        assert_backend_parity(&format!("vertical/{tag}"), &p, &s);

        let p = run_arbitrary_pair(&p_cfg, &arbitrary, rng(7), rng(8)).unwrap();
        let s = run_arbitrary_pair(&s_cfg, &arbitrary, rng(7), rng(8)).unwrap();
        assert_backend_parity(&format!("arbitrary/{tag}"), &p, &s);

        let parties = vec![
            points[..2].to_vec(),
            points[2..4].to_vec(),
            points[4..].to_vec(),
        ];
        let mp = run_multiparty(&p_cfg, &parties, 99).unwrap();
        let ms = run_multiparty(&s_cfg, &parties, 99).unwrap();
        for (i, (po, so)) in mp.iter().zip(&ms).enumerate() {
            assert_eq!(po.clustering, so.clustering, "multiparty/{tag} party {i}");
            assert_eq!(po.leakage, so.leakage, "multiparty/{tag} party {i} leakage");
            assert_eq!(po.yao, so.yao, "multiparty/{tag} party {i} yao");
            assert_eq!(po.sharing, SharingLedger::default());
            assert!(so.sharing.compares > 0, "multiparty/{tag} party {i} ledger");
        }
    }
}

/// The sharing backend's own framings must also agree with each other —
/// batching is a wire-layout choice, never an arithmetic one.
#[test]
fn sharing_backend_is_batching_invariant() {
    let points = lattice_points(23, 6, 5);
    let (alice, bob) = (points[..3].to_vec(), points[3..].to_vec());
    let u_cfg = base_cfg().with_backend(BackendKind::Sharing);
    let b_cfg = u_cfg.with_batching(true);
    let u = run_horizontal_pair(&u_cfg, &alice, &bob, rng(9), rng(10)).unwrap();
    let b = run_horizontal_pair(&b_cfg, &alice, &bob, rng(9), rng(10)).unwrap();
    for (side, (uo, bo)) in [("alice", (&u.0, &b.0)), ("bob", (&u.1, &b.1))] {
        assert_eq!(uo.clustering, bo.clustering, "{side}: labels");
        assert_eq!(uo.leakage, bo.leakage, "{side}: leakage");
        assert_eq!(
            uo.sharing, bo.sharing,
            "{side}: framing must consume identical correlations"
        );
    }
}

/// The headline perf claim, pinned: on the same vertical workload the
/// sharing backend must move at least 10× fewer wire bytes than the
/// packed-Paillier path.
#[test]
fn sharing_moves_an_order_of_magnitude_fewer_bytes_on_vertical() {
    let points = lattice_points(31, 12, 5);
    let partition = VerticalPartition::split(&points, 1);
    let p_cfg = base_cfg().with_batching(true);
    let s_cfg = p_cfg.with_backend(BackendKind::Sharing);
    let (pa, _) = run_vertical_pair(&p_cfg, &partition, rng(11), rng(12)).unwrap();
    let (sa, _) = run_vertical_pair(&s_cfg, &partition, rng(11), rng(12)).unwrap();
    assert_eq!(pa.clustering, sa.clustering, "labels must agree");
    let (pb, sb) = (pa.traffic.bytes_sent, sa.traffic.bytes_sent);
    assert!(
        sb * 10 <= pb,
        "sharing sent {sb} bytes, packed Paillier {pb}: need >= 10x reduction"
    );
}

// ---------------------------------------------------------------------------
// Field-layer property tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The signed embedding is a bijection.
    #[test]
    fn embed_lift_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(Fe::embed(v).lift(), v);
    }

    /// Additive sharing reconstructs exactly for any mask, including ones
    /// whose i64 difference would overflow: shares live in the ring.
    #[test]
    fn additive_shares_reconstruct(v in any::<i64>(), mask in any::<u64>()) {
        let share_a = Fe::embed(v) - Fe(mask);
        let share_b = Fe(mask);
        prop_assert_eq!((share_a + share_b).lift(), v);
    }

    /// Ring arithmetic matches wrapping i64/u64 arithmetic.
    #[test]
    fn ring_ops_match_wrapping_semantics(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(
            (Fe::embed(a) + Fe::embed(b)).lift(),
            a.wrapping_add(b)
        );
        prop_assert_eq!(
            (Fe::embed(a) * Fe::embed(b)).lift(),
            a.wrapping_mul(b)
        );
        prop_assert_eq!((-Fe::embed(a)).lift(), a.wrapping_neg());
    }

    /// A Beaver inner-product fold over a live channel equals the plaintext
    /// inner product — the triple's correlation cancels exactly.
    #[test]
    fn beaver_fold_equals_plaintext_dot(
        seed in any::<u64>(),
        xs in proptest::collection::vec(-1000i64..=1000, 1..6),
        ys_extra in proptest::collection::vec(-1000i64..=1000, 6..=6),
    ) {
        let ys: Vec<i64> = ys_extra[..xs.len()].to_vec();
        let expected: i64 = xs.iter().zip(&ys).map(|(&x, &y)| x * y).sum();
        let tape = DealerTape::from_seed(seed);
        let ctx = ProtocolContext::new(seed ^ 0xF01D);
        let (mut a_chan, mut b_chan) = duplex();
        let xs_fe: Vec<Fe> = xs.iter().map(|&x| Fe::embed(x)).collect();
        let ys_fe: Vec<Fe> = ys.iter().map(|&y| Fe::embed(y)).collect();
        let peer_ctx = ctx;
        let peer = thread::spawn(move || {
            let mut acct = SharingLedger::default();
            sharing_fold_peer(&tape, &mut b_chan, &[ys_fe], &[1], |_| peer_ctx, &mut acct).unwrap();
            acct
        });
        let mut acct = SharingLedger::default();
        let got = sharing_fold_keyholder(&tape, &mut a_chan, &[xs_fe], &[1], |_| ctx, &mut acct)
            .unwrap();
        let peer_acct = peer.join().unwrap();
        prop_assert_eq!(got[0].lift(), expected);
        prop_assert_eq!(acct.triples, xs.len() as u64);
        prop_assert_eq!(acct, peer_acct, "both sides account the same fold");
    }

    /// `share_less_than` over shared distances equals the plaintext
    /// compare, for arbitrary in-ring share splits of both operands.
    #[test]
    fn share_less_than_matches_plaintext(
        seed in any::<u64>(),
        dist_a in -100_000i64..=100_000,
        dist_b in -100_000i64..=100_000,
        mask_a in any::<i64>(),
        mask_b in any::<i64>(),
    ) {
        // Alice holds (u_a, u_b), Bob holds (v_a, v_b), with
        // dist_a = u_a − v_a and dist_b = u_b − v_b (the Paillier share
        // convention: keyholder holds value + mask, peer holds the mask).
        let u_a = (Fe::embed(dist_a) + Fe::embed(mask_a)).lift();
        let v_a = mask_a;
        let u_b = (Fe::embed(dist_b) + Fe::embed(mask_b)).lift();
        let v_b = mask_b;
        let backend = SharingBackend {
            tape: DealerTape::from_seed(seed),
            batching: false,
            dot_mask_bound: 0,
        };
        let ctx = ProtocolContext::new(seed ^ 0x17);
        let domain = ComparisonDomain::symmetric(200_000);
        let (mut a_chan, mut b_chan) = duplex();
        let bob = thread::spawn(move || {
            let (mut acct, pairs) = (SharingLedger::default(), [(v_a, v_b)]);
            let scopes = |_| ctx;
            backend
                .share_less_than_scoped(&mut b_chan, Party::Bob, &pairs, &domain, scopes, &mut acct)
                .unwrap()[0]
        });
        let (mut acct, pairs) = (SharingLedger::default(), [(u_a, u_b)]);
        let got = backend
            .share_less_than_scoped(&mut a_chan, Party::Alice, &pairs, &domain, |_| ctx, &mut acct)
            .unwrap()[0];
        let bob_got = bob.join().unwrap();
        prop_assert_eq!(got, dist_a < dist_b, "alice verdict");
        prop_assert_eq!(bob_got, got, "both parties learn the same bit");
        prop_assert_eq!(acct.compares, 1);
        prop_assert!(acct.bit_triples > 0, "modeled bit-decomposition cost");
    }

    /// `fe_dot` agrees with the schoolbook wrapping inner product.
    #[test]
    fn fe_dot_matches_schoolbook(
        pairs in proptest::collection::vec((any::<i64>(), any::<i64>()), 0..8),
    ) {
        let a: Vec<Fe> = pairs.iter().map(|&(x, _)| Fe::embed(x)).collect();
        let b: Vec<Fe> = pairs.iter().map(|&(_, y)| Fe::embed(y)).collect();
        let expected = pairs
            .iter()
            .fold(0i64, |acc, &(x, y)| acc.wrapping_add(x.wrapping_mul(y)));
        prop_assert_eq!(fe_dot(&a, &b).lift(), expected);
    }
}
