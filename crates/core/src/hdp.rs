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
//! pairs, and a chunk is one exchange: its multiplications, then its
//! comparisons. The backend frames each stage — one frame per protocol
//! message for all of the chunk's pairs when it batches, one per pair over
//! the same stream when it does not. No chunk reads another's verdicts, so
//! where the backend can ship a chunk's opening messages ahead
//! ([`SmcBackend::split_exchange_bytes`]) a window of chunks is in flight at
//! once, as many as leave no state where both parties send with both unread
//! backlogs above `prune::WINDOW_BYTES`.
//!
//! The querier ends with the *count* of matching responder points per
//! query (the Theorem 9 leakage); because the responder permutes his
//! points per query, the querier cannot link matches across queries, which
//! defeats the Figure 1 intersection attack. The responder learns, for
//! each of his own points, whether it matched *some* unidentified query
//! point (and logs it as [`LeakageEvent::OwnPointMatched`]).

use crate::config::{ProtocolConfig, YaoLedger};
use crate::domain::hdp_domain;
use crate::error::CoreError;
use crate::prune::{query_chunk, WINDOW_BYTES};
use ppds_dbscan::Point;
use ppds_observe::trace;
use ppds_smc::compare::{CmpOp, ComparisonDomain};
use ppds_smc::ResponsePacking;
use ppds_smc::{
    LeakageEvent, LeakageLog, Party, ProtocolContext, RecordId, SharingLedger, SmcBackend, SmcError,
};
use ppds_transport::Channel;
use rand::seq::SliceRandom;
use std::ops::Range;

/// One resolve direction's chunks and how many of them are in flight at
/// once. Both sides derive it from data they agree on before the first
/// chunk — the backend, the served counts and the dimension — and must: a
/// querier that expected fewer chunks ahead would read a fold request where
/// it wants an open.
struct Schedule {
    /// Every run of whole queries [`query_chunk`] cuts, in order, with its
    /// pair count. A run without pairs costs no frame and no chunk index on
    /// either side, so it is left out.
    chunks: Vec<(Range<usize>, usize)>,
    /// Chunks in flight at once: the largest `W` whose [`need`] for the
    /// bytes each way of a chunk with the most pairs and the most queries
    /// served anything stays within [`WINDOW_BYTES`] — or 1, one chunk at a
    /// time in the unsplit calls' frame order, when the backend posts
    /// nothing ahead. Never more than there are chunks, so chunk `c` may
    /// keep its state in slot `c % window` of a vector of `window`: the
    /// chunk `window` places before it has settled by the time it is posted.
    window: usize,
    /// Pair `i` of a chunk keys its randomness by `records[i]`.
    records: Vec<RecordId>,
}

impl Schedule {
    fn new<B: SmcBackend>(
        backend: &B,
        queries: usize,
        served: impl Fn(usize) -> usize,
        dim: usize,
    ) -> Schedule {
        let (mut chunks, mut most_queries) = (Vec::new(), 0);
        let mut start = 0;
        while start < queries {
            let (end, pairs) = query_chunk(start, queries, &served);
            if pairs > 0 {
                chunks.push((start..end, pairs));
                let asked = (start..end).filter(|&q| served(q) > 0).count();
                most_queries = most_queries.max(asked);
            }
            start = end;
        }
        let largest = chunks.iter().map(|&(_, pairs)| pairs).max().unwrap_or(0);
        let window = backend
            .split_exchange_bytes(largest, most_queries, dim)
            .map_or(1, |bytes| {
                // `need` grows with the window, so the first misfit ends it.
                (2..=chunks.len())
                    .take_while(|&window| need(window, bytes) <= WINDOW_BYTES)
                    .last()
                    .unwrap_or(1)
            });
        Schedule {
            chunks,
            window,
            records: (0..largest as u64).collect(),
        }
    }

    /// How many chunks are posted once chunk `chunk` settles next.
    fn posted_by(&self, chunk: usize) -> usize {
        self.chunks.len().min(chunk + self.window)
    }

    /// Where chunk `chunk` keeps its state from posted to settled.
    fn slot(&self, chunk: usize) -> usize {
        chunk % self.window
    }
}

/// The most the smaller of the two unread backlogs can be at any state of a
/// `window`-chunk resolve in which both parties are in `send`, when a chunk
/// is `responder` bytes one way (fold requests and his half of the open)
/// and `querier` bytes back (fold replies and her half). Two
/// single-threaded parties deadlock only if both block in `send`, which
/// needs both backlogs beyond what the sockets buffer, so a window is safe
/// when this stays within that buffering (DESIGN.md §7, *Why 64 KiB*). With
/// the responder `m` chunks posted past what the querier has read, the
/// querier is at most `window − m` chunks past what he has read:
/// `max over m in 1..window of min(m·responder, (window − m)·querier)`.
/// The tests below replay both loops and find this exact once there are
/// `2 · window` chunks, and an overestimate with fewer.
fn need(window: usize, (responder, querier): (usize, usize)) -> usize {
    (1..window)
        .map(|m| (m * responder).min((window - m) * querier))
        .max()
        .unwrap_or(0)
}

/// A chunk's comparisons must answer every one of its pairs.
fn check_arity(chunk: usize, pairs: usize, within: &[bool]) -> Result<(), CoreError> {
    if within.len() != pairs {
        return Err(CoreError::mismatch(format!(
            "resolve chunk {chunk} arity: {pairs} pairs vs {} answers",
            within.len()
        )));
    }
    Ok(())
}

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
/// path) stays correlated on the sharing backend's dealer tape. A chunk
/// without pairs costs no frame and no chunk index on either side.
///
/// Chunks run in a window (DESIGN.md §7, *Pipelined resolve*): the querier
/// answers each fold request as soon as the window admits it, with its half
/// of the chunk's comparisons, and defers the one receive that settles a
/// chunk until the window is full.
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
    let schedule = Schedule::new(backend, queries.len(), &served, dim);
    let mut counts = vec![0usize; queries.len()];
    // The stage-2 inputs of every chunk answered and not yet settled.
    let mut unsettled: Vec<Vec<i64>> = vec![Vec::new(); schedule.window];
    let (mut points, mut per_query) = (Vec::new(), Vec::new());
    let mut answered = 0;
    for (chunk, (run, pairs)) in schedule.chunks.iter().enumerate() {
        let span = trace::span_with(|| format!("resolve#{chunk}"), || chan.metrics());
        while answered < schedule.posted_by(chunk) {
            let (run, pairs) = &schedule.chunks[answered];
            let cctx = resolve_ctx.at(answered as u64);
            let values = &mut unsettled[schedule.slot(answered)];
            points.clear();
            per_query.clear();
            for q in run.clone() {
                let query = &queries[q];
                let i_val =
                    i64::try_from(query.norm_sq()).expect("ΣA² fits i64 on a validated lattice");
                // A query's point is folded once against every responder
                // point it is served.
                let count = served(q);
                points.push(query.coords());
                per_query.push(count);
                values.extend(std::iter::repeat_n(i_val, count));
            }
            let records = &schedule.records[..*pairs];
            backend.mul_fold_queries_peer(chan, &points, &per_query, records, &cctx, acct)?;
            backend.compare_batch_post(chan, values, &cctx.narrow("cmp"))?;
            answered += 1;
        }
        let values = std::mem::take(&mut unsettled[schedule.slot(chunk)]);
        ledger.record_many(cfg.key_bits, domain.n0(), *pairs as u64);
        let cmp_ctx = resolve_ctx.at(chunk as u64).narrow("cmp");
        let within =
            backend.compare_batch_finish(chan, &values, CmpOp::Leq, &domain, &cmp_ctx, acct)?;
        check_arity(chunk, *pairs, &within)?;
        let mut at = 0;
        for q in run.clone() {
            let segment = &within[at..at + served(q)];
            counts[q] = segment.iter().filter(|&&w| w).count();
            at += segment.len();
        }
        span.end(|| chan.metrics());
    }
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
/// Chunks run in a window (DESIGN.md §7, *Pipelined resolve*): the
/// responder posts chunk `i + W`'s fold request as soon as chunk `i`
/// settles. A chunk's permuted point indices are drawn when it is posted and
/// dropped when it settles, so only the window's indices are ever held.
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
    let perm_ctx = ctx.narrow("perm");
    let schedule = Schedule::new(backend, queries, |q| served.count(q), dim);
    // Every posted chunk not yet settled: its served points in permuted
    // order and how many each query was served; the points' coordinates are
    // read from `my_points` where the chunk is posted and where it settles.
    let mut unsettled: Vec<(Vec<usize>, Vec<usize>)> = vec![Default::default(); schedule.window];
    let coords = |order: &[usize]| -> Vec<&[i64]> {
        order.iter().map(|&idx| my_points[idx].coords()).collect()
    };
    let mut posted = 0;
    for (chunk, &(_, pairs)) in schedule.chunks.iter().enumerate() {
        let span = trace::span_with(|| format!("resolve#{chunk}"), || chan.metrics());
        while posted < schedule.posted_by(chunk) {
            let (run, pairs) = &schedule.chunks[posted];
            let mut order = Vec::with_capacity(*pairs);
            let mut per_query = Vec::with_capacity(run.len());
            for q in run.clone() {
                let from = order.len();
                served.extend(q, &mut order);
                assert_eq!(
                    order.len() - from,
                    served.count(q),
                    "query {q} is served the set it was counted for"
                );
                order[from..].shuffle(&mut perm_ctx.at(q as u64).rng());
                per_query.push(order.len() - from);
            }
            let (records, cctx) = (&schedule.records[..*pairs], resolve_ctx.at(posted as u64));
            let points = coords(&order);
            backend.mul_fold_keyholder_post(chan, &points, &per_query, records, &cctx)?;
            unsettled[schedule.slot(posted)] = (order, per_query);
            posted += 1;
        }
        let (order, per_query) = std::mem::take(&mut unsettled[schedule.slot(chunk)]);
        ledger.record_many(cfg.key_bits, domain.n0(), pairs as u64);
        let (records, cctx) = (&schedule.records[..pairs], resolve_ctx.at(chunk as u64));
        let points = coords(&order);
        let inner_products =
            backend.mul_fold_keyholder_finish(chan, &points, &per_query, records, &cctx, acct)?;
        let values = order
            .iter()
            .zip(inner_products)
            .map(|(&idx, inner)| {
                let own = my_points[idx].norm_sq() as i64;
                responder_operand(eps - own, inner, &domain)
            })
            .collect::<Result<Vec<i64>, SmcError>>()?;
        let cmp_ctx = cctx.narrow("cmp");
        let within = backend.compare_batch(
            chan,
            Party::Bob,
            &values,
            CmpOp::Leq,
            &domain,
            &cmp_ctx,
            acct,
        )?;
        check_arity(chunk, pairs, &within)?;
        for (&idx, _) in order.iter().zip(&within).filter(|(_, &matched)| matched) {
            leakage.record(LeakageEvent::OwnPointMatched {
                point: format!("own#{idx}"),
            });
        }
        span.end(|| chan.metrics());
    }
    Ok(())
}

/// The Multiplication Protocol response packing this config selects for
/// `dim`-attribute groups: `Some` when `cfg.packing` is on (validated
/// configs always have a layout), `None` otherwise.
pub(crate) fn mul_packing(cfg: &ProtocolConfig, dim: usize) -> Option<ResponsePacking> {
    if cfg.packing {
        crate::domain::mul_response_packing(cfg, dim)
    } else {
        None
    }
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
    fn queries_pack_into_chunks_whole_and_an_empty_chunk_costs_nothing() {
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
        // Nothing served at all: no frame either way.
        let run = resolve(
            &cfg(16, 10),
            (true, true),
            &queries,
            &responder_points,
            &vec![Vec::new(); 6],
        );
        assert_eq!(run.counts, [0; 6]);
        assert_eq!(run.traffic.total_rounds(), 0);
        assert!(run.leakage.is_empty());
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

    /// One step of a side of a resolve direction, replayed without a wire.
    #[derive(Clone, Copy)]
    enum Op {
        /// Ships a frame of this many bytes.
        Send(usize),
        /// Reads the peer's next frame.
        Recv,
    }

    /// Both sides of `schedule`'s loops, in their order — the responder's
    /// frames `(fold request, his half of the open)` a chunk, the querier's
    /// `(fold reply, her half)` — as the responder's program and the
    /// querier's.
    fn programs(
        schedule: &Schedule,
        (request, bob): (usize, usize),
        (reply, alice): (usize, usize),
    ) -> (Vec<Op>, Vec<Op>) {
        let (mut responder, mut querier) = (Vec::new(), Vec::new());
        let mut posted = 0;
        for chunk in 0..schedule.chunks.len() {
            for _ in posted..schedule.posted_by(chunk) {
                responder.push(Op::Send(request));
                querier.extend([Op::Recv, Op::Send(reply), Op::Send(alice)]);
            }
            posted = schedule.posted_by(chunk);
            responder.extend([Op::Recv, Op::Recv, Op::Send(bob)]);
            querier.push(Op::Recv);
        }
        (responder, querier)
    }

    /// Per step of a program: frames sent and frames read before it; and
    /// the bytes of its first `k` frames, by `k`.
    fn replay(ops: &[Op]) -> (Vec<(usize, usize)>, Vec<usize>) {
        let (mut before, mut stream, mut read) = (Vec::new(), vec![0], 0);
        for op in ops {
            before.push((stream.len() - 1, read));
            match *op {
                Op::Send(bytes) => stream.push(stream[stream.len() - 1] + bytes),
                Op::Recv => read += 1,
            }
        }
        (before, stream)
    }

    /// By brute force: every pair of send steps the two programs can be at
    /// together — each has read no frame the other has not sent — and at
    /// each the smaller of the two unread backlogs, the frame in `send`
    /// included. Returns the largest.
    fn worst_both_sending(a: &[Op], b: &[Op]) -> usize {
        let ((a_before, a_stream), (b_before, b_stream)) = (replay(a), replay(b));
        let sends = |ops: &[Op]| -> Vec<usize> {
            (0..ops.len())
                .filter(|&i| matches!(ops[i], Op::Send(_)))
                .collect()
        };
        let mut worst = 0;
        for i in sends(a) {
            for j in sends(b) {
                let ((a_sent, a_read), (b_sent, b_read)) = (a_before[i], b_before[j]);
                if a_read > b_sent || b_read > a_sent {
                    continue;
                }
                let a_unread = a_stream[a_sent + 1] - a_stream[b_read];
                let b_unread = b_stream[b_sent + 1] - b_stream[a_read];
                worst = worst.max(a_unread.min(b_unread));
            }
        }
        worst
    }

    /// [`need`] against the brute force over the windowed loops, for the
    /// sharing backend's frames at every dimension up to 8 and chunks of one
    /// query, ten and a thousand: never below it, and equal to it once there
    /// are chunks enough to fill the window both ways (checked up to 20
    /// chunks, so for every window a 100 + 100 session can take).
    #[test]
    fn the_window_bound_is_the_worst_state_where_both_parties_send() {
        const PAIRS: usize = 1000;
        let backend = SharingBackend {
            tape: DealerTape::from_seed(4242),
            batching: true,
            dot_mask_bound: 1 << 20,
        };
        // Each half of the open is one element a pair, in a frame.
        let open = ppds_transport::FRAME_OVERHEAD_BYTES as usize + 8 * PAIRS;
        for dim in 1..=8 {
            for queries in [1, 10, PAIRS] {
                let bytes = backend.split_exchange_bytes(PAIRS, queries, dim).unwrap();
                let frames = ((bytes.0 - open, open), (bytes.1 - open, open));
                for window in 1..=10 {
                    for chunks in 1..=20 {
                        let schedule = Schedule {
                            chunks: vec![(0..1, PAIRS); chunks],
                            window,
                            records: Vec::new(),
                        };
                        let (responder, querier) = programs(&schedule, frames.0, frames.1);
                        let worst = worst_both_sending(&responder, &querier);
                        let bound = need(window, bytes);
                        let case = format!(
                            "dim {dim}, {queries} queries, window {window}, {chunks} chunks"
                        );
                        assert!(bound >= worst, "{case}: need {bound} < {worst}");
                        // Fewer chunks never fill the window both ways at once.
                        if window > 1 && chunks >= 2 * window {
                            assert_eq!(bound, worst, "{case}: the bound is exact");
                        }
                    }
                }
            }
        }
        // DESIGN.md §7's table: dimension 2, ten queries a chunk, `need` at
        // windows 2 to 8.
        let dim2 = backend.split_exchange_bytes(PAIRS, 10, 2).unwrap();
        assert_eq!(dim2, (24_008, 16_168));
        let needs: Vec<usize> = (2..=8).map(|window| need(window, dim2)).collect();
        assert_eq!(
            needs,
            [16_168, 24_008, 32_336, 48_016, 48_504, 64_672, 72_024]
        );
        // Ten 1,000-pair chunks of ten queries: what the 100 + 100 sessions
        // run.
        for (dim, window) in [(2, 7), (6, 5), (8, 4)] {
            let schedule = Schedule::new(&backend, 100, |_| 100, dim);
            assert_eq!(schedule.chunks.len(), 10);
            assert_eq!(schedule.window, window, "dim {dim}");
        }
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
