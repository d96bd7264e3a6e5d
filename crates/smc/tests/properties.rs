//! Property-based tests for the SMC primitives — the faithful Yao protocol
//! and the comparison backends must implement exact integer comparison for
//! arbitrary in-domain inputs, and the multiplication protocols must
//! satisfy their masking identities — and the framing table: every
//! primitive exists once, over a slice, so the two framings a backend can
//! give it must agree in everything but the number of frames.

use ppds_bigint::{BigInt, BigUint};
use ppds_paillier::Keypair;
use ppds_smc::compare::{compare_alice, compare_bob, CmpOp, Comparator, ComparisonDomain};
use ppds_smc::kth::{kth_smallest_with, select_in_lockstep, Selection, SelectionMethod};
use ppds_smc::millionaires::{yao_alice, yao_bob, YaoConfig};
use ppds_smc::multiplication::{
    dot_many_keyholder, dot_many_peer, mul_batches_keyholder, mul_batches_peer, zero_sum_masks,
};
use ppds_smc::{
    AnyBackend, BackendKind, DealerTape, PaillierBackend, Party, ProtocolContext, RecordId,
    SharingBackend, SharingLedger, SmcBackend, SmcError,
};
use ppds_transport::wire::WireEncode;
use ppds_transport::{duplex, Channel, MemoryChannel, MetricsSnapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::OnceLock;

fn keypair() -> &'static Keypair {
    static KP: OnceLock<Keypair> = OnceLock::new();
    KP.get_or_init(|| Keypair::generate(128, &mut StdRng::seed_from_u64(7)))
}

fn bigints(values: &[i64]) -> Vec<BigInt> {
    values.iter().map(|&v| BigInt::from_i64(v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn yao_decides_lt_exactly(
        n0 in 2u64..40,
        i_frac in 0.0f64..1.0,
        j_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let i = 1 + (i_frac * (n0 - 1) as f64) as u64;
        let j = 1 + (j_frac * (n0 - 1) as f64) as u64;
        let config = YaoConfig { n0 };
        let (mut achan, mut bchan) = duplex();
        let alice = std::thread::spawn(move || {
            yao_alice(&mut achan, keypair(), i, &config, &ProtocolContext::new(seed)).unwrap()
        });
        let bob_view = yao_bob(
            &mut bchan,
            &keypair().public,
            j,
            &config,
            &ProtocolContext::new(seed.wrapping_add(1)),
        )
        .unwrap();
        let alice_view = alice.join().unwrap();
        prop_assert_eq!(alice_view, i < j);
        prop_assert_eq!(bob_view, i < j);
    }

    #[test]
    fn comparators_agree_on_signed_domains(
        lo in -60i64..0,
        span in 1i64..60,
        offsets in proptest::collection::vec((0i64..60, 0i64..60), 1..4),
        leq in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let domain = ComparisonDomain::new(lo, lo + span);
        let within = |off: i64| lo + off % (span + 1);
        let (a, b): (Vec<i64>, Vec<i64>) =
            offsets.iter().map(|&(x, y)| (within(x), within(y))).unzip();
        let op = if leq { CmpOp::Leq } else { CmpOp::Lt };
        let expect: Vec<bool> =
            a.iter().zip(&b).map(|(a, b)| if leq { a <= b } else { a < b }).collect();
        for comparator in [Comparator::Yao, Comparator::Ideal, Comparator::Dgk] {
            let (mut achan, mut bchan) = duplex();
            let a = a.clone();
            let alice = std::thread::spawn(move || {
                let scopes = |i| ProtocolContext::new(seed).at(i as u64);
                compare_alice(comparator, &mut achan, keypair(), &a, &domain, false, scopes)
                    .unwrap()
            });
            let scopes = |i| ProtocolContext::new(seed.wrapping_add(1)).at(i as u64);
            let pk = &keypair().public;
            let bob_view =
                compare_bob(comparator, &mut bchan, pk, &b, op, &domain, false, scopes).unwrap();
            prop_assert_eq!(&alice.join().unwrap(), &expect, "{:?}", comparator);
            prop_assert_eq!(&bob_view, &expect);
        }
    }

    #[test]
    fn multiplication_masks_cancel_per_group(
        xs in proptest::collection::vec(-100i64..100, 1..6),
        ys_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut r = StdRng::seed_from_u64(ys_seed);
        use rand::Rng as _;
        let ys: Vec<i64> = xs.iter().map(|_| r.random_range(-100..100)).collect();
        let masks = zero_sum_masks(
            StdRng::seed_from_u64(seed),
            xs.len(),
            &BigUint::from_u64(1 << 20),
        );

        let (mut kchan, mut pchan) = duplex();
        let xs_big = [bigints(&xs)];
        let keyholder = std::thread::spawn(move || {
            let scopes = |_| ProtocolContext::new(seed.wrapping_add(1));
            mul_batches_keyholder(&mut kchan, keypair(), &xs_big, scopes, None).unwrap()
        });
        let scopes = |_| ProtocolContext::new(seed.wrapping_add(2));
        let (pk, ys_big) = (&keypair().public, [bigints(&ys)]);
        mul_batches_peer(&mut pchan, pk, &ys_big, |_| masks.clone(), scopes, None).unwrap();
        let ws = keyholder.join().unwrap().remove(0);

        // Σ w_i = Σ x_i·y_i exactly (zero-sum masks cancel).
        let sum = ws.iter().fold(BigInt::zero(), |acc, w| &acc + w);
        let expect: i64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        prop_assert_eq!(sum, BigInt::from_i64(expect));
    }

    #[test]
    fn dot_product_identity_holds(
        xs in proptest::collection::vec(-50i64..50, 1..5),
        ys_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut r = StdRng::seed_from_u64(ys_seed);
        use rand::Rng as _;
        let ys: Vec<i64> = xs.iter().map(|_| r.random_range(-50..50)).collect();

        let (mut kchan, mut pchan) = duplex();
        let xs_big = bigints(&xs);
        let keyholder = std::thread::spawn(move || {
            let ctx = ProtocolContext::new(seed);
            dot_many_keyholder(&mut kchan, keypair(), &[xs_big], &[1], None, |_| ctx).unwrap()
        });
        let (pk, bound) = (&keypair().public, BigUint::from_u64(1 << 24));
        let ctx = ProtocolContext::new(seed.wrapping_add(1));
        let v = dot_many_peer(&mut pchan, pk, &[bigints(&ys)], &[1], &bound, None, |_| ctx).unwrap();
        let u = keyholder.join().unwrap();
        let expect: i64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        prop_assert_eq!(&u[0] - &v[0], BigInt::from_i64(expect));
    }
}

// ---------------------------------------------------------------------------
// The framing table
// ---------------------------------------------------------------------------

/// What a row's primitive runs on.
#[derive(Debug, Clone, Copy)]
enum Substrate {
    Paillier {
        comparator: Comparator,
        packed: bool,
    },
    Sharing,
}

const SUBSTRATES: [Substrate; 5] = [
    Substrate::Paillier {
        comparator: Comparator::Ideal,
        packed: false,
    },
    Substrate::Paillier {
        comparator: Comparator::Dgk,
        packed: false,
    },
    Substrate::Paillier {
        comparator: Comparator::Dgk,
        packed: true,
    },
    Substrate::Paillier {
        comparator: Comparator::Yao,
        packed: false,
    },
    Substrate::Sharing,
];

impl Substrate {
    /// One key serves both roles: whoever holds it in a primitive, the
    /// other side needs only its public half.
    fn backend(self, batching: bool) -> AnyBackend<'static> {
        match self {
            Substrate::Paillier { comparator, packed } => AnyBackend::Paillier(PaillierBackend {
                my_keypair: keypair(),
                peer_pk: &keypair().public,
                comparator,
                packed,
                batching,
                mul_packing: None,
                dot_packing: None,
                mul_mask_bound: BigUint::from_u64(1 << 20),
                dot_mask_bound: BigUint::from_u64(1 << 20),
            }),
            Substrate::Sharing => AnyBackend::Sharing(SharingBackend {
                tape: DealerTape::from_seed(0x7A9E),
                batching,
                dot_mask_bound: 1 << 20,
            }),
        }
    }

    /// Wire frames one comparison exchange costs, and whether a slice of
    /// them shares those frames when the backend batches (Algorithm 1's
    /// z-sequence is per-comparison interactive state: Yao never does).
    fn comparison_frames(self) -> (u64, bool) {
        match self {
            Substrate::Paillier { comparator, .. } => (3, comparator != Comparator::Yao),
            Substrate::Sharing => (2, true),
        }
    }
}

/// One side of a primitive: everything it needs besides its backend, its
/// channel end and its ledger; outputs flattened to integers.
type Side<'a> = &'a (dyn Fn(
    &AnyBackend<'_>,
    &mut MemoryChannel,
    Party,
    &mut SharingLedger,
) -> Result<Vec<i64>, SmcError>
         + Sync);

/// What both parties take away from one run of a primitive.
#[derive(Debug, PartialEq)]
struct Observed {
    outputs: [Vec<i64>; 2],
    ledgers: [SharingLedger; 2],
    /// Alice's counters (Bob's are their mirror image).
    traffic: MetricsSnapshot,
}

/// Runs `side` for both roles over a fresh channel pair; `Err` carries both
/// results when either side failed.
#[allow(clippy::type_complexity)]
fn run(
    substrate: Substrate,
    batching: bool,
    side: Side<'_>,
) -> Result<Observed, [Result<Vec<i64>, SmcError>; 2]> {
    let (mut achan, mut bchan) = duplex();
    let (alice, bob, traffic) = std::thread::scope(|scope| {
        let alice = scope.spawn(move || {
            let mut acct = SharingLedger::default();
            let backend = substrate.backend(batching);
            let out = side(&backend, &mut achan, Party::Alice, &mut acct);
            // Hanging up is how a failed side releases the other.
            (out, acct, achan.metrics())
        });
        let mut acct = SharingLedger::default();
        let out = side(
            &substrate.backend(batching),
            &mut bchan,
            Party::Bob,
            &mut acct,
        );
        drop(bchan);
        let (alice_out, alice_acct, traffic) = alice.join().unwrap();
        ((alice_out, alice_acct), (out, acct), traffic)
    });
    match (alice.0, bob.0) {
        (Ok(a), Ok(b)) => Ok(Observed {
            outputs: [a, b],
            ledgers: [alice.1, bob.1],
            traffic,
        }),
        (a, b) => Err([a, b]),
    }
}

fn payload(t: &MetricsSnapshot) -> [u64; 2] {
    [
        t.bytes_sent - 4 * t.rounds_sent,
        t.bytes_received - 4 * t.rounds_received,
    ]
}

/// Runs `side` at both framings and holds the pair to the framing
/// contract: equal outputs on both sides, equal ledgers, equal logical
/// messages, equal payload bytes, and `frames` = (reference, batched) wire
/// rounds exactly. Returns the outputs.
fn assert_framings_agree(
    name: &str,
    substrate: Substrate,
    side: Side<'_>,
    frames: (u64, u64),
) -> Vec<i64> {
    let name = format!("{name} on {substrate:?}");
    let reference = run(substrate, false, side).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    let batched = run(substrate, true, side).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    assert_eq!(reference.outputs, batched.outputs, "{name}: outputs");
    assert_eq!(reference.ledgers, batched.ledgers, "{name}: ledgers");
    let (r, b) = (&reference.traffic, &batched.traffic);
    assert_eq!(r.total_messages(), b.total_messages(), "{name}: messages");
    assert_eq!(payload(r), payload(b), "{name}: payload bytes");
    assert_eq!(
        (r.total_rounds(), b.total_rounds()),
        frames,
        "{name}: wire rounds (reference, batched)"
    );
    let [alice, _] = reference.outputs;
    alice
}

const DOMAIN: ComparisonDomain = ComparisonDomain { lo: -40, hi: 40 };
const ALICE: [i64; 5] = [-7, 0, 12, 12, 31];
const BOB: [i64; 5] = [3, 0, 11, 13, -31];

fn mine<'a, T>(role: Party, alice: &'a [T], bob: &'a [T]) -> &'a [T] {
    match role {
        Party::Alice => alice,
        Party::Bob => bob,
    }
}

fn flags(verdicts: Vec<bool>) -> Vec<i64> {
    verdicts.into_iter().map(i64::from).collect()
}

#[test]
fn comparison_framings_agree_on_every_substrate() {
    let k = ALICE.len() as u64;
    for substrate in SUBSTRATES {
        let (per_exchange, shares_frames) = substrate.comparison_frames();
        let batched = if shares_frames { 1 } else { k };
        let frames = (k * per_exchange, batched * per_exchange);

        let compare: Side<'_> = &|backend, chan, role, acct| {
            let (values, ctx) = (mine(role, &ALICE, &BOB), ProtocolContext::new(11));
            let op = CmpOp::Leq;
            Ok(flags(backend.compare_batch(
                chan, role, values, op, &DOMAIN, &ctx, acct,
            )?))
        };
        let got = assert_framings_agree("compare", substrate, compare, frames);
        let expect: Vec<i64> = ALICE
            .iter()
            .zip(&BOB)
            .map(|(a, b)| (a <= b) as i64)
            .collect();
        assert_eq!(got, expect, "{substrate:?}");

        // Share comparison: dist_a < dist_b with dist = u − v per operand.
        let alice_pairs: Vec<(i64, i64)> = ALICE.iter().map(|&u| (u, 5)).collect();
        let bob_pairs: Vec<(i64, i64)> = BOB.iter().map(|&v| (v, -5)).collect();
        let share_less_than: Side<'_> = &|backend, chan, role, acct| {
            let (pairs, ctx) = (
                mine(role, &alice_pairs, &bob_pairs),
                ProtocolContext::new(12),
            );
            let scopes = |i| ctx.at(i as u64);
            Ok(flags(backend.share_less_than_scoped(
                chan, role, pairs, &DOMAIN, scopes, acct,
            )?))
        };
        let got = assert_framings_agree("share_less_than", substrate, share_less_than, frames);
        let expect: Vec<i64> = ALICE
            .iter()
            .zip(&BOB)
            .map(|(u, v)| (u - v < 5 - -5) as i64)
            .collect();
        assert_eq!(got, expect, "{substrate:?}");
    }
}

#[test]
fn multiplication_fold_framings_agree_on_both_substrates() {
    let xs = [vec![3, -1, 0], vec![7], vec![], vec![-9, 9]];
    let ys = [vec![5, 5, -9], vec![-2], vec![], vec![4, 6]];
    // Sparse record ids: a group is keyed by its record, not its position.
    let records = [0, 5, 6, 9];
    for substrate in [SUBSTRATES[0], Substrate::Sharing] {
        let fold: Side<'_> = &|backend, chan, role, acct| {
            let ctx = ProtocolContext::new(13);
            match role {
                Party::Alice => backend.mul_fold_keyholder(chan, &xs, &records, &ctx, acct),
                Party::Bob => backend
                    .mul_fold_peer(chan, &ys, &records, &ctx, acct)
                    .map(|()| Vec::new()),
            }
        };
        let got = assert_framings_agree("mul_fold", substrate, fold, (2 * 4, 2));
        assert_eq!(got, [15 - 5, -14, 0, -36 + 54], "{substrate:?}");
    }
}

#[test]
fn selection_framings_agree_on_every_substrate() {
    let dists = [9i64, 2, 14, 5, 0, 7, 3, 11];
    let masks = [4i64, -3, 0, 8, -8, 1, 2, -5];
    let shares: Vec<i64> = dists.iter().zip(&masks).map(|(d, v)| d + v).collect();
    for substrate in SUBSTRATES {
        let (per_exchange, shares_frames) = substrate.comparison_frames();
        for (method, k, comparisons, levels) in [
            (SelectionMethod::RepeatedMin, 3, 7 + 6 + 5, None),
            (SelectionMethod::QuickSelect, 3, 7 + 6 + 1, Some(3)),
        ] {
            let select: Side<'_> = &|backend, chan, role, acct| {
                let (shares, ctx) = (mine(role, &shares, &masks), ProtocolContext::new(14));
                let out = kth_smallest_with(
                    method, backend, chan, role, shares, k, &DOMAIN, false, &ctx, acct,
                )?;
                Ok(vec![out.index as i64, out.comparisons as i64])
            };
            // A minimum scan's comparisons depend on one another; a
            // quickselect level's do not, and share frames when batched.
            let batched = match levels {
                Some(levels) if shares_frames => levels,
                _ => comparisons,
            };
            let frames = (comparisons * per_exchange, batched * per_exchange);
            let got = assert_framings_agree(&format!("{method:?}"), substrate, select, frames);
            assert_eq!(
                got,
                [6, comparisons as i64],
                "{substrate:?}: third smallest is 3"
            );
        }
    }
}

/// A backend that writes down the operands of every slice of share
/// comparisons a selection hands it, then passes the slice on; a selection
/// asks for nothing else.
struct Recording<'a, 'k> {
    inner: &'a AnyBackend<'k>,
    calls: RefCell<Vec<Vec<(i64, i64)>>>,
}

impl SmcBackend for Recording<'_, '_> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn share_less_than_scoped<C: Channel, S: Fn(usize) -> ProtocolContext>(
        &self,
        chan: &mut C,
        role: Party,
        pairs: &[(i64, i64)],
        domain: &ComparisonDomain,
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        self.calls.borrow_mut().push(pairs.to_vec());
        self.inner
            .share_less_than_scoped(chan, role, pairs, domain, scopes, acct)
    }

    fn compare_scoped<C: Channel, S: Fn(usize) -> ProtocolContext>(
        &self,
        _: &mut C,
        _: Party,
        _: &[i64],
        _: CmpOp,
        _: &ComparisonDomain,
        _: S,
        _: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        unimplemented!("a selection compares shares only")
    }

    fn dot_queries_querier<C: Channel, X: AsRef<[i64]>, S: Fn(usize) -> ProtocolContext>(
        &self,
        _: &mut C,
        _: &[X],
        _: &[usize],
        _: S,
        _: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        unimplemented!("a selection asks no dot product")
    }

    fn dot_queries_responder<C: Channel, S: Fn(usize) -> ProtocolContext>(
        &self,
        _: &mut C,
        _: &[Vec<i64>],
        _: &[usize],
        _: S,
        _: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        unimplemented!("a selection answers no dot product")
    }

    fn send_framed<C: Channel, T: WireEncode>(&self, _: &mut C, _: &[T]) -> Result<(), SmcError> {
        unimplemented!("a selection sends no public message")
    }

    fn mul_fold_keyholder<C: Channel>(
        &self,
        _: &mut C,
        _: &[Vec<i64>],
        _: &[RecordId],
        _: &ProtocolContext,
        _: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        unimplemented!("a selection multiplies nothing")
    }

    fn mul_fold_peer<C: Channel>(
        &self,
        _: &mut C,
        _: &[Vec<i64>],
        _: &[RecordId],
        _: &ProtocolContext,
        _: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        unimplemented!("a selection multiplies nothing")
    }
}

/// One generated core-point test's selection: the distances, the
/// responder's masks `v` (the querier holds `u = d + v`) and the rank.
struct Ranked {
    dists: Vec<i64>,
    masks: Vec<i64>,
    k: usize,
}

impl Ranked {
    fn shares(&self, role: Party) -> Vec<i64> {
        match role {
            Party::Alice => self
                .dists
                .iter()
                .zip(&self.masks)
                .map(|(d, v)| d + v)
                .collect(),
            Party::Bob => self.masks.clone(),
        }
    }

    /// The selection replayed over the plain distances: the index pairs of
    /// each step it asks, and where it ends.
    fn replay(&self, method: SelectionMethod) -> (Vec<Vec<(usize, usize)>>, [i64; 2]) {
        let mut selection =
            Selection::new(method, &self.dists, self.k, ProtocolContext::new(0)).unwrap();
        let mut steps = Vec::new();
        while selection.outcome().is_none() {
            let asked = selection.next_pairs().to_vec();
            let verdicts: Vec<bool> = asked
                .iter()
                .map(|&(a, b)| self.dists[a] < self.dists[b])
                .collect();
            selection.absorb(&verdicts).unwrap();
            steps.push(asked);
        }
        let outcome = selection.outcome().unwrap();
        (steps, [outcome.index as i64, outcome.comparisons as i64])
    }
}

/// `[index, comparisons]` per test, then every recorded call as its length
/// and its operands: what [`run`] carries out of a party's thread.
fn flatten(outcomes: &[[i64; 2]], calls: &[Vec<(i64, i64)>]) -> Vec<i64> {
    let mut flat = outcomes.concat();
    for call in calls {
        flat.push(call.len() as i64);
        flat.extend(call.iter().flat_map(|&(a, b)| [a, b]));
    }
    flat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Selections advanced in lockstep are the same selections: per test
    /// the outcome, the comparison count and the pairs asked in order are
    /// those of one `kth_smallest_with` call after another (and of the
    /// algorithm run over plain distances), the ledgers, logical messages
    /// and payload bytes agree, and only the frames differ — a frame set per
    /// step of the longest selection where the backend batches.
    #[test]
    fn lockstep_selections_are_the_sequential_ones_regrouped(seed in any::<u64>()) {
        use rand::Rng as _;
        let mut r = StdRng::seed_from_u64(seed);
        let domain = ComparisonDomain::symmetric(400);
        for tests in [1usize, 2, 7] {
            // Unequal lengths and ranks, one-element vectors included.
            let ranked: Vec<Ranked> = (0..tests)
                .map(|t| {
                    let len = 1 + (t * 3 + r.random_range(0..3usize)) % 9;
                    Ranked {
                        dists: (0..len).map(|_| r.random_range(0..200)).collect(),
                        masks: (0..len).map(|_| r.random_range(-50..=50)).collect(),
                        k: r.random_range(1..=len),
                    }
                })
                .collect();
            for method in [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect] {
                let replays: Vec<_> = ranked.iter().map(|t| t.replay(method)).collect();
                let outcomes: Vec<[i64; 2]> = replays.iter().map(|(_, o)| *o).collect();
                let steps: Vec<usize> = replays.iter().map(|(s, _)| s.len()).collect();
                let comparisons: i64 = outcomes.iter().map(|o| o[1]).sum();
                let longest = steps.iter().copied().max().unwrap_or(0);
                // What each role's backend must see: a test's steps one after
                // another, or step r of every test still running as one call.
                let expected = |role: Party, lockstep: bool| {
                    let shares: Vec<Vec<i64>> = ranked.iter().map(|t| t.shares(role)).collect();
                    let step = |t: usize, r: usize| {
                        let asked = replays[t].0.get(r).into_iter().flatten();
                        asked.map(|&(a, b)| (shares[t][a], shares[t][b])).collect::<Vec<_>>()
                    };
                    let calls: Vec<Vec<(i64, i64)>> = if lockstep {
                        (0..longest).map(|r| (0..tests).flat_map(|t| step(t, r)).collect()).collect()
                    } else {
                        (0..tests).flat_map(|t| (0..steps[t]).map(move |r| (t, r)))
                            .map(|(t, r)| step(t, r)).collect()
                    };
                    flatten(&outcomes, &calls)
                };
                let ctx_of = |t: usize| ProtocolContext::new(14).at(t as u64).narrow("sel");
                for substrate in [SUBSTRATES[0], Substrate::Sharing] {
                    let (per_exchange, _) = substrate.comparison_frames();
                    let run_as = |lockstep: bool, batching: bool| {
                        let side: Side<'_> = &|backend, chan, role, acct| {
                            let recording = Recording { inner: backend, calls: RefCell::default() };
                            let shares: Vec<Vec<i64>> =
                                ranked.iter().map(|t| t.shares(role)).collect();
                            let outcomes = if lockstep {
                                let mut selections = (0..tests)
                                    .map(|t| Selection::new(method, &shares[t], ranked[t].k, ctx_of(t)))
                                    .collect::<Result<Vec<_>, _>>()?;
                                select_in_lockstep(
                                    &recording, chan, role, &mut selections, &domain, acct,
                                )?
                            } else {
                                (0..tests)
                                    .map(|t| kth_smallest_with(
                                        method, &recording, chan, role, &shares[t], ranked[t].k,
                                        &domain, true, &ctx_of(t), acct,
                                    ))
                                    .collect::<Result<Vec<_>, _>>()?
                            };
                            let outcomes: Vec<[i64; 2]> = outcomes
                                .iter()
                                .map(|o| [o.index as i64, o.comparisons as i64])
                                .collect();
                            Ok(flatten(&outcomes, &recording.calls.take()))
                        };
                        run(substrate, batching, side).unwrap()
                    };
                    let name = format!("{tests} tests, {method:?} on {substrate:?}");
                    let reference = run_as(false, false);
                    for (lockstep, batching) in [(false, true), (true, false), (true, true)] {
                        let got = run_as(lockstep, batching);
                        let want = [expected(Party::Alice, lockstep), expected(Party::Bob, lockstep)];
                        prop_assert_eq!(&got.outputs, &want, "{}: outcomes and pairs", &name);
                        prop_assert_eq!(got.ledgers, reference.ledgers, "{}: ledgers", &name);
                        let (g, r) = (&got.traffic, &reference.traffic);
                        prop_assert_eq!(g.total_messages(), r.total_messages(), "{}", &name);
                        prop_assert_eq!(payload(g), payload(r), "{}: payload bytes", &name);
                        // Unbatched, a comparison is a frame set however it
                        // is grouped; batched, a call is.
                        let exchanges = match (batching, lockstep) {
                            (false, _) => comparisons as u64,
                            (true, false) => steps.iter().sum::<usize>() as u64,
                            (true, true) => longest as u64,
                        };
                        prop_assert_eq!(g.total_rounds(), per_exchange * exchanges, "{}", &name);
                    }
                    let want = [expected(Party::Alice, false), expected(Party::Bob, false)];
                    prop_assert_eq!(&reference.outputs, &want, "{}: sequential reference", &name);
                    let booked = match substrate {
                        Substrate::Sharing => comparisons as u64,
                        Substrate::Paillier { .. } => 0,
                    };
                    prop_assert_eq!(reference.ledgers[0].compares, booked, "{}", &name);
                }
            }
        }
    }
}

/// A slice whose length the two sides disagree on: whichever side reads the
/// mismatched frame refuses it by name, the other is released by the
/// hang-up, and neither hangs or panics. (One item at a time there is no
/// frame to disagree about: the shorter side simply finishes.)
#[test]
fn arity_mismatches_are_typed_errors_on_every_substrate() {
    let records = [0, 1, 2];
    for substrate in SUBSTRATES {
        let compare: Side<'_> = &|backend, chan, role, acct| {
            let values = mine(role, &ALICE[..2], &BOB[..3]);
            let (op, ctx) = (CmpOp::Lt, ProtocolContext::new(15));
            Ok(flags(backend.compare_batch(
                chan, role, values, op, &DOMAIN, &ctx, acct,
            )?))
        };
        let fold: Side<'_> = &|backend, chan, role, acct| {
            let ctx = ProtocolContext::new(16);
            let groups = vec![vec![1, 2]; 3];
            match role {
                Party::Alice => {
                    backend.mul_fold_keyholder(chan, &groups[..2], &records[..2], &ctx, acct)
                }
                Party::Bob => backend
                    .mul_fold_peer(chan, &groups, &records, &ctx, acct)
                    .map(|()| Vec::new()),
            }
        };
        let compare_shares_frames = substrate.comparison_frames().1;
        let rows = [
            ("compare", compare, compare_shares_frames),
            ("mul_fold", fold, true),
        ];
        for (name, side, shares_frames) in rows {
            for batching in [false, true] {
                let name = format!("{name} on {substrate:?}, batching={batching}");
                let results = run(substrate, batching, side).expect_err(&name);
                let refused = |r: &Result<Vec<i64>, SmcError>| match r {
                    Err(SmcError::Protocol(msg)) => {
                        msg.contains("expected") || msg.contains("arity")
                    }
                    _ => false,
                };
                let refusals = results.iter().any(refused);
                assert_eq!(refusals, batching && shares_frames, "{name}: {results:?}");
                let typed = |r: &Result<Vec<i64>, SmcError>| {
                    matches!(
                        r,
                        Ok(_) | Err(SmcError::Protocol(_) | SmcError::Transport(_))
                    )
                };
                assert!(results.iter().all(typed), "{name}: {results:?}");
            }
        }
    }
}

/// An empty slice is no exchange: no frame, no ledger entry, in either
/// framing, with nobody on the other end.
#[test]
fn empty_slices_touch_no_wire_on_any_substrate() {
    for substrate in SUBSTRATES {
        for batching in [false, true] {
            let backend = substrate.backend(batching);
            let (mut chan, _peer) = duplex();
            let (mut acct, ctx) = (SharingLedger::default(), ProtocolContext::new(17));
            for role in [Party::Alice, Party::Bob] {
                let none = backend
                    .compare_batch(&mut chan, role, &[], CmpOp::Lt, &DOMAIN, &ctx, &mut acct)
                    .unwrap();
                assert!(none.is_empty());
                let none = backend
                    .share_less_than_scoped(&mut chan, role, &[], &DOMAIN, |_| ctx, &mut acct)
                    .unwrap();
                assert!(none.is_empty());
            }
            let none = backend
                .mul_fold_keyholder(&mut chan, &[], &[], &ctx, &mut acct)
                .unwrap();
            assert!(none.is_empty());
            backend
                .mul_fold_peer(&mut chan, &[], &[], &ctx, &mut acct)
                .unwrap();
            assert_eq!(chan.metrics(), MetricsSnapshot::default(), "{substrate:?}");
            assert_eq!(acct, SharingLedger::default(), "{substrate:?}");
        }
    }
}
