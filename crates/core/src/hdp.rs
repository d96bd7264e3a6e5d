//! Protocol HDP (§4.2): secure `dist²(a, b) ≤ Eps²` for horizontally
//! partitioned records, run for a whole *set* of neighborhood queries —
//! every point of the querying party against the responder points it is
//! served, each query in a fresh random order chosen by the responder.
//!
//! Per pair the paper's recipe runs in two stages:
//!
//! 1. **Multiplication stage.** The responder is the Multiplication
//!    Protocol keyholder with his attribute values `b_k`; the querier is
//!    the peer with her values `a_k` and zero-sum blinding terms `r_k`
//!    (`Σ r_k = 0`). The responder learns `w_k = a_k·b_k + r_k` and sums
//!    them to the exact inner product `⟨a, b⟩` — individual products stay
//!    hidden behind the `r_k`.
//! 2. **Comparison stage.** Querier input `i = Σ a_k²`; responder input
//!    `j = Eps² − Σ b_k² + 2⟨a, b⟩`. One Yao comparison decides
//!    `i ≤ j ⟺ dist²(a, b) ≤ Eps²`.
//!
//! Both stages run through the session's [`SmcBackend`] — the Paillier
//! substrate reproduces the direct homomorphic calls byte-for-byte, the
//! sharing substrate replaces them with Beaver folds and masked opens over
//! `Z_2^64` (same dataflow, 8-byte elements). The drivers hand the fold
//! each query's point once with the number of points it is served, so the
//! sharing fold masks the querier's point once a query, not once a pair
//! (DESIGN.md §14, *The query-shaped fold*).
//!
//! The paper asks one query per core-point test. The answer is a function
//! of the query point alone and DBSCAN tests every point, so the drivers
//! ask all of them up front (*resolve*, DESIGN.md §7): whole queries, in
//! index order, are packed into chunks of at most 1,024 (query, candidate)
//! pairs, and a chunk is one exchange — its multiplications, then its
//! comparisons, each framed by the backend. The crate's one resolve loop
//! runs them, as many at once as [`SmcBackend::split_exchange_bytes`] lets
//! two single-threaded parties send without both blocking.
//!
//! The querier ends with the *count* of matching responder points per
//! query (the Theorem 9 leakage); because the responder permutes his
//! points per query, the querier cannot link matches across queries, which
//! defeats the Figure 1 intersection attack. The responder learns, for
//! each of his own points, whether it matched *some* unidentified query
//! point (and logs it as [`LeakageEvent::OwnPointMatched`]).

use crate::config::{ProtocolConfig, YaoLedger};
use crate::domain::{hdp_domain, lattice_norm_sq};
use crate::error::CoreError;
use crate::resolve::{query_runs, resolve, window};
use ppds_dbscan::Point;
use ppds_smc::compare::{CmpOp, ComparisonDomain};
use ppds_smc::{
    LeakageEvent, LeakageLog, Party, ProtocolContext, RecordId, SharingLedger, SmcBackend, SmcError,
};
use ppds_transport::Channel;
use rand::seq::SliceRandom;
use std::iter::repeat_n;

/// The responder's stage-2 operand `base + 2·inner`: `base` is local
/// (`Eps²` less the responder's own squares), `inner` is whatever the
/// peer's stage-1 frames decrypt — or open — to. An honest inner product
/// keeps the sum inside `domain`; a hostile one must neither panic a debug
/// build nor wrap back into range in a release build, so the arithmetic is
/// checked and the frame refused.
pub(crate) fn responder_operand(
    base: i64,
    inner: i64,
    domain: &ComparisonDomain,
) -> Result<i64, SmcError> {
    inner
        .checked_mul(2)
        .and_then(|twice| base.checked_add(twice))
        .ok_or(SmcError::DomainViolation {
            value: inner,
            lo: domain.lo,
            hi: domain.hi,
        })
}

/// Querier side of a set of neighborhood queries: returns, per query, how
/// many of the `served(q)` responder points it is compared against lie
/// within `Eps` of `queries[q]`.
///
/// `ctx` is this querying direction's context. Chunk `c` draws from
/// `ctx.narrow("resolve").at(c)`, and its pair at flat position `i` keys
/// masks, multiplication nonces and comparison randomness by `i` — so both
/// framings derive identical bytes, and the responder (who walks the same
/// path) stays correlated on the sharing backend's dealer tape. A chunk is
/// posted with the fold replies and the querier's half of its comparisons,
/// and settles on the responder's half (DESIGN.md §7, *Pipelined resolve*).
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn hdp_resolve_querier<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    queries: &[Point],
    served: impl Fn(usize) -> usize,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
) -> Result<Vec<usize>, CoreError> {
    let dim = queries.first().map_or(0, Point::dim);
    let domain = hdp_domain(cfg, dim);
    let resolve_ctx = ctx.narrow("resolve");
    let runs: Vec<_> = query_runs(queries.len(), &served).collect();
    let window = window(backend, &runs, &served, dim);
    let mut counts = vec![0usize; queries.len()];
    resolve(
        chan,
        window,
        runs,
        |chan, chunk, (run, pairs)| {
            // A query's point is folded once against every responder point
            // it is served, and stands once for each in the comparisons.
            let points: Vec<&[i64]> = run.clone().map(|q| queries[q].coords()).collect();
            let per_query: Vec<usize> = run.clone().map(&served).collect();
            let norm = |q| repeat_n(lattice_norm_sq(&queries[q]), served(q));
            let values: Vec<i64> = run.clone().flat_map(norm).collect();
            // The fold's sharing work is booked when the chunk settles.
            let (cctx, mut fold) = (resolve_ctx.at(chunk), SharingLedger::default());
            let ids: Vec<RecordId> = (0..pairs as u64).collect();
            backend.mul_fold_queries_peer(chan, &points, &per_query, &ids, &cctx, &mut fold)?;
            backend.compare_batch_post(chan, &values, &cctx.narrow("cmp"))?;
            Ok((run, pairs, values, fold))
        },
        |chan, chunk, (_, pairs, values, fold)| {
            acct.absorb(*fold);
            ledger.record_many(cfg.key_bits, domain.n0(), *pairs as u64);
            let (op, cmp_ctx) = (CmpOp::Leq, resolve_ctx.at(chunk).narrow("cmp"));
            Ok(backend.compare_batch_finish(chan, values, op, &domain, &cmp_ctx, acct)?)
        },
        |&(_, pairs, ..)| pairs,
        |(run, ..), within| {
            let mut at = 0;
            for q in run {
                let segment = &within[at..at + served(q)];
                counts[q] = segment.iter().filter(|&&w| w).count();
                at += segment.len();
            }
        },
    )?;
    Ok(counts)
}

/// What a responder serves to each of the peer's queries, by query index.
/// The drivers hand in the crate's candidate generator (every own point,
/// or the band-adjacent ones of a grid-pruned session).
pub trait ServedSets {
    /// How many points `query` is served: the number its querier was told.
    fn count(&self, query: usize) -> usize;

    /// Appends the indices of the points served to `query`, ascending.
    fn extend(&mut self, query: usize, out: &mut Vec<usize>);
}

/// Responder side of [`hdp_resolve_querier`]: serves `queries` peer
/// queries the subsets of `my_points` that `served` lists for them.
///
/// Each query's served set is permuted afresh from
/// `ctx.narrow("perm").at(q)` before it joins its chunk, so the querier
/// sees every query's match bits in an order it cannot link to any other
/// query (the Figure 1 defense), and matched own points are logged in that
/// permuted order.
///
/// A chunk is posted with its fold requests and settles on the replies
/// (DESIGN.md §7, *Pipelined resolve*); its permuted point indices live
/// from one to the other, so only the window's are ever held.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn hdp_resolve_responder<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    my_points: &[Point],
    queries: usize,
    served: &mut impl ServedSets,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
    leakage: &mut LeakageLog,
) -> Result<(), CoreError> {
    let Some(first) = my_points.first() else {
        // Nothing to serve, however many queries the peer announced.
        return Ok(());
    };
    let dim = first.dim();
    let domain = hdp_domain(cfg, dim);
    let eps = cfg.params.eps_sq as i64;
    let resolve_ctx = ctx.narrow("resolve");
    let runs: Vec<_> = query_runs(queries, |q| served.count(q)).collect();
    let window = window(backend, &runs, |q| served.count(q), dim);
    let coords = |order: &[usize]| -> Vec<&[i64]> {
        order.iter().map(|&idx| my_points[idx].coords()).collect()
    };
    resolve(
        chan,
        window,
        runs,
        |chan, chunk, (run, pairs)| {
            let mut order = Vec::with_capacity(pairs);
            let mut per_query = Vec::with_capacity(run.len());
            for q in run {
                let from = order.len();
                served.extend(q, &mut order);
                assert_eq!(
                    order.len() - from,
                    served.count(q),
                    "query {q} is served the set it was counted for"
                );
                order[from..].shuffle(&mut ctx.narrow("perm").at(q as u64).rng());
                per_query.push(order.len() - from);
            }
            let records: Vec<RecordId> = (0..pairs as u64).collect();
            let cctx = resolve_ctx.at(chunk);
            backend.mul_fold_keyholder_post(chan, &coords(&order), &per_query, &records, &cctx)?;
            Ok((order, per_query, records))
        },
        |chan, chunk, (order, per_query, records)| {
            ledger.record_many(cfg.key_bits, domain.n0(), order.len() as u64);
            let (points, cctx) = (coords(order), resolve_ctx.at(chunk));
            let inner = backend
                .mul_fold_keyholder_finish(chan, &points, per_query, records, &cctx, acct)?;
            let operand = |(&idx, inner): (&usize, i64)| {
                responder_operand(eps - my_points[idx].norm_sq() as i64, inner, &domain)
            };
            let values: Result<Vec<i64>, _> = order.iter().zip(inner).map(operand).collect();
            let (role, op, cmp_ctx) = (Party::Bob, CmpOp::Leq, cctx.narrow("cmp"));
            Ok(backend.compare_batch(chan, role, &values?, op, &domain, &cmp_ctx, acct)?)
        },
        |(order, ..)| order.len(),
        |(order, ..), within| {
            for (&idx, _) in order.iter().zip(&within).filter(|(_, &matched)| matched) {
                leakage.record(LeakageEvent::OwnPointMatched {
                    point: format!("own#{idx}"),
                });
            }
        },
    )
}

impl ProtocolConfig {
    /// Mask bound for the Multiplication Protocol's blinding terms:
    /// `C² · 2^σ`, so each masked product `a_k·b_k + r_k` hides its value
    /// with σ bits of statistical slack. These never enter a Yao comparison
    /// (the `r_k` cancel), so σ can be large regardless of the comparator.
    pub fn mul_mask_bound(&self) -> ppds_bigint::BigUint {
        let c2 = (self.coord_bound as u128) * (self.coord_bound as u128);
        ppds_bigint::BigUint::from_u128(c2 << self.mask_bits.min(64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::paillier_backend;
    use crate::prune::PAIR_CHUNK;
    use crate::test_helpers::{ctx, rng};
    use ppds_dbscan::{dist_sq, DbscanParams};
    use ppds_paillier::Keypair;
    use ppds_smc::{AnyBackend, DealerTape, SharingBackend};
    use ppds_transport::{duplex, MetricsSnapshot};
    use std::sync::OnceLock;

    fn querier_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(11)))
    }

    fn responder_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(22)))
    }

    fn cfg(eps_sq: u64, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts: 3 }, bound)
    }

    struct Listed<'a>(&'a [Vec<usize>]);

    impl ServedSets for Listed<'_> {
        fn count(&self, query: usize) -> usize {
            self.0[query].len()
        }

        fn extend(&mut self, query: usize, out: &mut Vec<usize>) {
            out.extend_from_slice(&self.0[query]);
        }
    }

    /// What both sides of one resolve direction take away.
    struct Resolved {
        counts: Vec<usize>,
        leakage: LeakageLog,
        ledgers: (YaoLedger, YaoLedger),
        sharing: SharingLedger,
        traffic: MetricsSnapshot,
    }

    /// Runs every query against the responder points `served[q]` lists.
    fn resolve(
        cfg: &ProtocolConfig,
        (sharing, batching): (bool, bool),
        queries: &[Point],
        responder_points: &[Point],
        served: &[Vec<usize>],
    ) -> Resolved {
        let cfg = &cfg.with_batching(batching);
        let backend_for = |mine: &'static Keypair, theirs: &'static Keypair| {
            if sharing {
                AnyBackend::Sharing(SharingBackend {
                    tape: DealerTape::from_seed(4242),
                    batching,
                    dot_mask_bound: 1 << 20,
                })
            } else {
                AnyBackend::Paillier(paillier_backend(cfg, mine, &theirs.public, 2))
            }
        };
        let sizes: Vec<usize> = served.iter().map(Vec::len).collect();
        let (mut qchan, mut rchan) = duplex();
        std::thread::scope(|scope| {
            let q = scope.spawn(|| {
                let mut ledger = YaoLedger::default();
                let mut acct = SharingLedger::default();
                let counts = hdp_resolve_querier(
                    &mut qchan,
                    cfg,
                    &backend_for(querier_kp(), responder_kp()),
                    queries,
                    |q| sizes[q],
                    &ctx(100),
                    &mut ledger,
                    &mut acct,
                )
                .unwrap();
                (counts, ledger, acct, qchan.metrics())
            });
            // The responder's own seed differs: only the dealer tape (inside
            // the sharing backend) is shared between the two sides.
            let mut ledger = YaoLedger::default();
            let mut leakage = LeakageLog::new();
            hdp_resolve_responder(
                &mut rchan,
                cfg,
                &backend_for(responder_kp(), querier_kp()),
                responder_points,
                served.len(),
                &mut Listed(served),
                &ctx(200),
                &mut ledger,
                &mut SharingLedger::default(),
                &mut leakage,
            )
            .unwrap();
            let (counts, q_ledger, sharing, traffic) = q.join().unwrap();
            Resolved {
                counts,
                leakage,
                ledgers: (q_ledger, ledger),
                sharing,
                traffic,
            }
        })
    }

    fn pts(coords: &[[i64; 2]]) -> Vec<Point> {
        coords.iter().map(|c| Point::new(c.to_vec())).collect()
    }

    fn everyone(queries: usize, responder_points: usize) -> Vec<Vec<usize>> {
        vec![(0..responder_points).collect(); queries]
    }

    fn plain_counts(
        queries: &[Point],
        points: &[Point],
        served: &[Vec<usize>],
        eps_sq: u64,
    ) -> Vec<usize> {
        queries
            .iter()
            .zip(served)
            .map(|(q, set)| {
                set.iter()
                    .filter(|&&idx| dist_sq(&points[idx], q) <= eps_sq)
                    .count()
            })
            .collect()
    }

    fn fixture() -> (Vec<Point>, Vec<Point>) {
        let queries = pts(&[[0, 0], [9, 9], [-2, 1]]);
        let responder_points = pts(&[
            [1, 1],   // dist² 2 from the origin: in
            [3, 0],   // dist² 9: in (boundary)
            [3, 1],   // dist² 10: out
            [-2, -2], // dist² 8: in
            [10, 10], // out; the only neighbour of (9, 9)
        ]);
        (queries, responder_points)
    }

    #[test]
    fn counts_match_plain_distance_computation() {
        let (queries, responder_points) = fixture();
        let c = cfg(9, 10);
        let served = everyone(3, 5);
        let expected = plain_counts(&queries, &responder_points, &served, 9);
        assert_eq!(expected, [3, 1, 2]);
        let run = resolve(&c, (false, false), &queries, &responder_points, &served);
        assert_eq!(run.counts, expected);
        assert_eq!(
            run.leakage.count_kind("own_point_matched"),
            expected.iter().sum::<usize>(),
            "the responder sees the bits the querier counted"
        );
        assert_eq!(run.leakage.len(), 6, "and nothing else");
    }

    #[test]
    fn batched_framing_matches_sequential_and_collapses_rounds() {
        let (queries, responder_points) = fixture();
        let c = cfg(9, 10);
        let served = everyone(3, 5);
        let seq = resolve(&c, (false, false), &queries, &responder_points, &served);
        let bat = resolve(&c, (false, true), &queries, &responder_points, &served);
        assert_eq!(bat.counts, seq.counts);
        assert_eq!(bat.leakage, seq.leakage, "identical permuted leakage order");
        // 15 pairs are one chunk: 5 rounds (2 mul + 3 compare) for all
        // three queries, where the sequential framing pays 5 per pair.
        assert_eq!(bat.traffic.total_rounds(), 5);
        assert_eq!(seq.traffic.total_rounds(), 5 * 15);
        assert_eq!(bat.traffic.total_messages(), seq.traffic.total_messages());
    }

    #[test]
    fn each_query_is_served_in_an_order_of_its_own() {
        // The Figure 1 defense: five points, all within Eps of both
        // queries, are logged in two different orders.
        let queries = pts(&[[0, 0], [0, 0]]);
        let responder_points = pts(&[[0, 1], [1, 0], [1, 1], [0, -1], [-1, 0]]);
        let run = resolve(
            &cfg(4, 5),
            (true, true),
            &queries,
            &responder_points,
            &everyone(2, 5),
        );
        assert_eq!(run.counts, [5, 5]);
        let events = run.leakage.events();
        assert_eq!(events.len(), 10);
        assert_ne!(events[..5], events[5..], "a fresh permutation per query");
        let sorted = |half: &[LeakageEvent]| {
            let mut seen: Vec<String> = half.iter().map(|e| format!("{e:?}")).collect();
            seen.sort();
            seen
        };
        assert_eq!(sorted(&events[..5]), sorted(&events[5..]));
    }

    #[test]
    fn sharing_backend_matches_paillier_counts() {
        let (queries, responder_points) = fixture();
        let served = everyone(3, 5);
        let expected = plain_counts(&queries, &responder_points, &served, 9);
        for batching in [false, true] {
            let run = resolve(
                &cfg(9, 10),
                (true, batching),
                &queries,
                &responder_points,
                &served,
            );
            assert_eq!(run.counts, expected, "batching={batching}");
            assert_eq!(run.sharing.compares, 15);
            assert!(run.sharing.triples > 0, "folds consume Beaver triples");
        }
    }

    #[test]
    fn queries_pack_into_chunks_whole() {
        // Served sizes 0, 600, 500, 0, 0, 1100: the second chunk starts at
        // the 500 (600 + 500 > 1,024), the 1,100 exceeds a chunk by itself
        // and still travels whole, and the zeros ride along for free.
        let mut r = rng(5);
        use rand::Rng;
        let responder_points: Vec<Point> = (0..1100)
            .map(|_| Point::new(vec![r.random_range(-9..=9), r.random_range(-9..=9)]))
            .collect();
        let queries = pts(&[[0, 0], [1, 1], [-3, 2], [5, 5], [9, -9], [2, -2]]);
        let served: Vec<Vec<usize>> = [0usize, 600, 500, 0, 0, 1100]
            .iter()
            .map(|&size| (0..1100).step_by(1100 / size.max(1)).take(size).collect())
            .collect();
        assert!(served[1].len() + served[2].len() > PAIR_CHUNK);
        let expected = plain_counts(&queries, &responder_points, &served, 16);
        for batching in [true, false] {
            let run = resolve(
                &cfg(16, 10),
                (true, batching),
                &queries,
                &responder_points,
                &served,
            );
            assert_eq!(run.counts, expected, "batching={batching}");
            assert_eq!(run.ledgers.0.comparisons, 2200);
            assert_eq!(run.ledgers.1.comparisons, 2200);
            if batching {
                assert_eq!(run.traffic.total_rounds(), 3 * 4, "three chunks");
            }
        }
    }

    #[test]
    fn empty_sides_exchange_nothing() {
        let (queries, responder_points) = fixture();
        for batching in [false, true] {
            let c = cfg(4, 10);
            let run = resolve(&c, (false, batching), &queries, &[], &everyone(3, 0));
            assert_eq!(run.counts, [0, 0, 0]);
            assert!(run.leakage.is_empty());
            assert_eq!(run.traffic.total_rounds(), 0);
            let run = resolve(&c, (false, batching), &[], &responder_points, &[]);
            assert!(run.counts.is_empty());
            assert_eq!(run.traffic.total_rounds(), 0);
        }
    }

    #[test]
    fn works_with_negative_coordinates_and_yao() {
        let c = ProtocolConfig::new_with_yao(
            DbscanParams {
                eps_sq: 4,
                min_pts: 2,
            },
            3,
        );
        let run = resolve(
            &c,
            (false, false),
            &pts(&[[-2, 1]]),
            &pts(&[[-1, 1], [2, -2]]),
            &everyone(1, 2),
        );
        assert_eq!(run.counts, [1]);
        assert_eq!(run.leakage.count_kind("own_point_matched"), 1);
    }

    #[test]
    fn a_hostile_inner_product_is_refused_not_wrapped() {
        let domain = hdp_domain(&cfg(4, 5), 2);
        assert_eq!(responder_operand(4 - 50, 25, &domain).unwrap(), 4);
        for inner in [i64::MAX, i64::MIN, 1 << 62, i64::MAX / 2 + 1] {
            let refused = responder_operand(4, inner, &domain);
            assert!(
                matches!(refused, Err(SmcError::DomainViolation { value, .. }) if value == inner),
                "{inner}: {refused:?}"
            );
        }
        // The doubling fits, the sum does not.
        assert!(responder_operand(i64::MAX, 1, &domain).is_err());
    }

    #[test]
    fn ledger_counts_one_comparison_per_pair() {
        let c = cfg(4, 5);
        let run = resolve(
            &c,
            (false, false),
            &pts(&[[0, 0], [4, 4]]),
            &pts(&[[0, 1], [4, 4], [1, 0]]),
            &[vec![0, 1, 2], vec![1]],
        );
        assert_eq!(run.counts, [2, 1]);
        assert_eq!(run.ledgers.0.comparisons, 4);
        assert_eq!(run.ledgers.1.comparisons, 4);
        assert!(run.ledgers.0.modeled_bytes > 0);
        assert_eq!(
            run.sharing,
            SharingLedger::default(),
            "Paillier substrate leaves the sharing ledger untouched"
        );
    }
}
