//! The enhanced core-point test (Section 5).
//!
//! The basic horizontal protocol reveals, per query, *how many* of the
//! responder's points fall in the neighborhood (Theorem 9). Section 5
//! replaces the count with a single bit:
//!
//! 1. The querier's coefficient vector `(ΣA², −2A_1, …, −2A_m, 1)` is
//!    encrypted under her key and sent **once**; the responder answers with
//!    `E(Dist²(A, B_j) + v_j)` for every point `B_j` (freshly permuted),
//!    using the dot-product Multiplication Protocol. The querier decrypts
//!    shares `u_j`, the responder keeps `v_j`.
//! 2. With `k = MinPts − |querier's own neighbors|`, the parties select the
//!    k-th smallest shared distance (repeated-minimum or quickselect, §5's
//!    two algorithms) using share comparisons
//!    `u_a − u_b < v_a − v_b ⟺ Dist_a < Dist_b`.
//! 3. One final Yao comparison decides `u_k ≤ Eps² + v_k`, i.e. whether the
//!    k-th nearest responder point is within Eps — which is precisely
//!    "is A a core point", revealing nothing else about the count
//!    (Theorem 11).
//!
//! Edge cases the paper leaves implicit: when `k ≤ 0` the querier already
//! knows A is core, and when `k > n_b` it cannot possibly be; both are
//! decided locally, and the responder only sees a one-bit "not engaging"
//! flag (strictly less than it learns from a full selection).
//!
//! The paper writes this as one conversation per query point. Every test is
//! known before the first runs, so a querying direction is *resolved* like
//! the other point-holding modes (DESIGN.md §7): all `(engage, k)` flags
//! travel ahead, 1,024 to a frame; the engaged tests are cut into chunks of
//! at most 1,024 served rows like horizontal queries, and a chunk is one
//! exchange per step — its dot legs together, its selections in lockstep
//! ([`select_in_lockstep`]), its threshold tests as one slice. Test `idx`
//! keeps its own keys (`ctx.at(idx)` with `"dot"`, `"sel"`, `"cmp"`,
//! `"perm"` beneath it), so only the frame a message rides changes.
//!
//! All three phases dispatch through the session's [`SmcBackend`], which
//! also frames them: the Paillier substrate reproduces the homomorphic dot
//! products and Yao comparisons byte-for-byte; the sharing substrate answers
//! with one masked-share exchange per phase over `Z_2^64` (DESIGN.md §14).

use crate::backend::backend_for;
use crate::config::{ProtocolConfig, YaoLedger};
use crate::domain::{enhanced_share_domain, lattice_norm_sq};
use crate::error::CoreError;
use crate::hdp::ServedSets;
use crate::prune::{local_index, query_candidate_counts, serve_candidate_counts, PAIR_CHUNK};
use crate::resolve::{query_runs, resolve};
use crate::session::{HandshakeProfile, Link, Mode, ModeDriver, Node, Session, SessionLog};
use ppds_dbscan::{Clustering, Point};
use ppds_observe::trace;
use ppds_smc::compare::CmpOp;
use ppds_smc::kth::{select_in_lockstep, Selection};
use ppds_smc::{LeakageEvent, Party, ProtocolContext, SharingLedger, SmcBackend, SmcError};
use ppds_transport::Channel;
use rand::seq::SliceRandom;
use std::iter::once;
use std::ops::Range;

/// One engaged core-point test of a chunk: test `idx` of its direction asks
/// for the `k`-th smallest of the distances at `rows` of the chunk's rows.
struct Engaged {
    idx: usize,
    k: usize,
    rows: Range<usize>,
}

/// The chunks of one resolve direction: the engaged tests (`ranks[q] > 0`,
/// the rank test `q` asks for), whole and in index order, while their
/// `served` rows fit [`PAIR_CHUNK`] ([`query_runs`] over the engaged rows).
/// Both sides cut from the flags and the served counts, which both hold.
fn engaged_tests<'a>(
    ranks: &'a [usize],
    served: &'a [usize],
) -> impl Iterator<Item = Vec<Engaged>> + 'a {
    let rows = |q: usize| if ranks[q] > 0 { served[q] } else { 0 };
    query_runs(ranks.len(), rows).map(move |(run, _)| {
        let mut first = 0;
        let engaged = run.filter(|&q| ranks[q] > 0).map(|idx| {
            let rows = first..first + served[idx];
            first = rows.end;
            let k = ranks[idx];
            Engaged { idx, k, rows }
        });
        engaged.collect()
    })
}

/// Phases 2 and 3 of a chunk, the same steps in either role over this
/// party's `shares` of the chunk's distances: the selections advance in
/// lockstep, then the threshold tests `u_k ≤ Eps² + v_k` ride one slice.
/// Returns, per test, which of its rows ranked k-th and the verdict.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
fn rank_and_decide<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    role: Party,
    tests: &[Engaged],
    shares: &[i64],
    dim: usize,
    ctx: &ProtocolContext,
    (ledger, acct): (&mut YaoLedger, &mut SharingLedger),
) -> Result<Vec<(usize, bool)>, CoreError> {
    if tests.last().map(|t| t.rows.end) != Some(shares.len()) {
        return Err(SmcError::protocol("dot exchange of another row count").into());
    }
    let domain = enhanced_share_domain(cfg, dim);
    let sel_span = trace::span("sel", || chan.metrics());
    let mut selections = tests
        .iter()
        .map(|t| {
            let sel_ctx = ctx.at(t.idx as u64).narrow("sel");
            Selection::new(cfg.selection, &shares[t.rows.clone()], t.k, sel_ctx)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let outcomes = select_in_lockstep(backend, chan, role, &mut selections, &domain, acct)?;
    sel_span.end(|| chan.metrics());

    let comparisons: usize = outcomes.iter().map(|o| o.comparisons + 1).sum();
    ledger.record_many(cfg.key_bits, domain.n0(), comparisons as u64);
    let threshold = match role {
        Party::Alice => 0,
        Party::Bob => cfg.params.eps_sq as i64,
    };
    let kth = |(t, o): (&Engaged, _)| threshold + shares[t.rows.start + o];
    let mut ranked = outcomes.iter().map(|o| o.index);
    let values: Vec<i64> = tests.iter().zip(ranked.clone()).map(kth).collect();
    let cmp_span = trace::span("cmp", || chan.metrics());
    let scopes = |i: usize| ctx.at(tests[i].idx as u64).narrow("cmp");
    let op = CmpOp::Leq;
    let is_core = backend.compare_scoped(chan, role, &values, op, &domain, scopes, acct)?;
    cmp_span.end(|| chan.metrics());
    // An answer a verdict, so that the resolve loop sees a short or a long reply.
    let answer = |core| (ranked.next().unwrap_or(0), core);
    Ok(is_core.into_iter().map(answer).collect())
}

/// Querier side of one resolve direction: whether each query is a core point
/// of the joint data. `own_counts[q]` is the size of query `q`'s *local*
/// Eps-neighborhood (itself included), `served[q]` how many responder points
/// it is served; test `q` draws from `ctx.at(q)`. Logs one
/// [`LeakageEvent::CorePointBit`] per query, in index order.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub(crate) fn resolve_querier<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    queries: &[Point],
    own_counts: &[usize],
    served: &[usize],
    ctx: &ProtocolContext,
    log: &mut SessionLog,
) -> Result<Vec<bool>, CoreError> {
    let needed = |q: usize| cfg.params.min_pts.saturating_sub(own_counts[q]);
    let engaged = |q: usize| (1..=served[q]).contains(&needed(q));
    let flags: Vec<(bool, u64)> = (0..queries.len())
        .map(|q| (engaged(q), needed(q) as u64))
        .collect();
    for block in flags.chunks(PAIR_CHUNK) {
        backend.send_framed(chan, block)?;
    }
    // Decided locally unless engaged: core iff the local neighborhood suffices.
    let mut core: Vec<bool> = (0..queries.len()).map(|q| needed(q) == 0).collect();
    let ranks: Vec<usize> = (0..queries.len())
        .map(|q| if engaged(q) { needed(q) } else { 0 })
        .collect();
    let dim = queries.first().map_or(0, Point::dim);
    resolve(
        chan,
        1,
        engaged_tests(&ranks, served),
        |_, _, tests| Ok(tests),
        |chan, _, tests| {
            // Phase 1: shares u_j = Dist²(A, B_j) + v_j.
            let xs: Vec<Vec<i64>> = tests
                .iter()
                .map(|t| {
                    let query = &queries[t.idx];
                    let minus_2a = query.coords().iter().map(|&a| -2 * a);
                    once(lattice_norm_sq(query))
                        .chain(minus_2a)
                        .chain(once(1))
                        .collect()
                })
                .collect();
            let rows: Vec<usize> = tests.iter().map(|t| t.rows.len()).collect();
            let dot_span = trace::span("dot", || chan.metrics());
            let scopes = |i: usize| ctx.at(tests[i].idx as u64).narrow("dot");
            let shares = backend.dot_queries_querier(chan, &xs, &rows, scopes, &mut log.sharing)?;
            dot_span.end(|| chan.metrics());
            let (role, ledgers) = (Party::Alice, (&mut log.ledger, &mut log.sharing));
            rank_and_decide(chan, cfg, backend, role, tests, &shares, dim, ctx, ledgers)
        },
        Vec::len,
        |tests, decided| {
            for (test, (_, is_core)) in tests.iter().zip(decided) {
                core[test.idx] = is_core;
            }
        },
    )?;
    for (q, &is_core) in core.iter().enumerate() {
        let query = if engaged(q) { "joint" } else { "local" }.into();
        log.leakage
            .record(LeakageEvent::CorePointBit { query, is_core });
    }
    Ok(core)
}

/// The peer's `(engage, k)` flags, one per query, as the rank each test asks
/// for (0: not engaged) beside its served count. The flags are
/// peer-controlled and later size the selections, so they are held to the
/// handshake as they arrive: at most [`PAIR_CHUNK`] a frame, `queries` in
/// all, and an engaged `k` within `1..=served(q)` — which no test served
/// nothing can meet.
fn recv_flags<C: Channel>(
    chan: &mut C,
    queries: usize,
    served: &impl ServedSets,
) -> Result<(Vec<usize>, Vec<usize>), SmcError> {
    let (mut ranks, mut counts) = (Vec::new(), Vec::new());
    while ranks.len() < queries {
        let frame: Vec<(bool, u64)> = chan.recv_batch()?;
        let due = PAIR_CHUNK.min(queries - ranks.len());
        if frame.is_empty() || frame.len() > due {
            return Err(SmcError::protocol(format!(
                "flags frame of {} tests with {due} due",
                frame.len()
            )));
        }
        for (engage, k) in frame {
            let count = served.count(ranks.len());
            if engage && !(1..=count as u64).contains(&k) {
                return Err(SmcError::protocol(format!(
                    "querier engaged with invalid k = {k} for {count} served points"
                )));
            }
            ranks.push(if engage { k as usize } else { 0 });
            counts.push(count);
        }
    }
    Ok((ranks, counts))
}

/// Responder side of [`resolve_querier`]: serves `queries` peer
/// queries the subsets of `my_points` that `served` lists for them. Band
/// pruning is exact, so every within-Eps point is a candidate and the k-th
/// smallest served distance decides core-ness just like the k-th smallest
/// overall. Each engaged query's served set is permuted afresh from
/// `ctx.at(q).narrow("perm")` (the Figure 1 defense); the rank it asked for
/// and, when it is core, the own point that ranked k-th are logged.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub(crate) fn resolve_responder<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    my_points: &[Point],
    queries: usize,
    served: &mut impl ServedSets,
    ctx: &ProtocolContext,
    log: &mut SessionLog,
) -> Result<(), CoreError> {
    let (ranks, counts) = recv_flags(chan, queries, served)?;
    let dim = my_points.first().map_or(0, Point::dim);
    resolve(
        chan,
        1,
        engaged_tests(&ranks, &counts),
        |_, _, tests| {
            // Phase 1 serves each query's set in a fresh permutation.
            let mut order = Vec::new();
            for test in &tests {
                served.extend(test.idx, &mut order);
                assert_eq!(
                    order.len(),
                    test.rows.end,
                    "a query is served what it was counted"
                );
                let perm = ctx.at(test.idx as u64).narrow("perm");
                order[test.rows.clone()].shuffle(&mut perm.rng());
            }
            Ok((tests, order))
        },
        |chan, _, (tests, order)| {
            // Phase 1: masked dot products.
            let rows: Vec<Vec<i64>> = order
                .iter()
                .map(|&own| {
                    let p = &my_points[own];
                    let b = p.coords().iter().copied();
                    once(1).chain(b).chain(once(lattice_norm_sq(p))).collect()
                })
                .collect();
            let per_query: Vec<usize> = tests.iter().map(|t| t.rows.len()).collect();
            let dot_span = trace::span("dot", || chan.metrics());
            let scopes = |i: usize| ctx.at(tests[i].idx as u64).narrow("dot");
            let ledgers = (&mut log.ledger, &mut log.sharing);
            let shares =
                backend.dot_queries_responder(chan, &rows, &per_query, scopes, ledgers.1)?;
            dot_span.end(|| chan.metrics());
            let role = Party::Bob;
            rank_and_decide(chan, cfg, backend, role, tests, &shares, dim, ctx, ledgers)
        },
        |(tests, _)| tests.len(),
        |(tests, order), decided| {
            for (test, (ranked, is_core)) in tests.iter().zip(decided) {
                log.leakage.record(LeakageEvent::ThresholdRank {
                    query: "peer-query".into(),
                    k: test.k as u64,
                });
                if is_core {
                    // The responder knows which of *his own* points ranked
                    // k-th and that it sits within Eps of some
                    // unidentifiable query point.
                    log.leakage.record(LeakageEvent::OwnPointMatched {
                        point: format!("own#{}", order[test.rows.start + ranked]),
                    });
                }
            }
        },
    )
}

/// The enhanced protocol as a [`ModeDriver`]: the horizontal resolve /
/// expand split with the count-free core-point tests above.
pub(crate) struct EnhancedDriver<'a> {
    pub points: &'a [Point],
}

impl ModeDriver for EnhancedDriver<'_> {
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError> {
        crate::horizontal::validate_complete_records(cfg, self.points)
    }

    fn profile(&self) -> HandshakeProfile {
        crate::horizontal::complete_records_profile(Mode::Enhanced, self.points)
    }

    fn check_session(&self, _cfg: &ProtocolConfig, _session: &Session) -> Result<(), CoreError> {
        Ok(())
    }

    fn execute<C: Channel>(
        &self,
        node: &mut Node<'_, C>,
        ctx: &ProtocolContext,
        log: &mut SessionLog,
    ) -> Result<Clustering, CoreError> {
        let (cfg, points) = (node.cfg, self.points);
        let dim = points.first().map_or(0, Point::dim);
        // Direction-keyed paths, so both halves of one core test share a
        // context path and the sharing backend's tape draws stay correlated.
        let queries = |querier: Party| match querier {
            Party::Alice => ctx.narrow("enh_a"),
            Party::Bob => ctx.narrow("enh_b"),
        };
        // Resolve: every own point's core test, in index order. The
        // grid-pruning cell exchange is the horizontal driver's, run *before*
        // the `(engage, k)` flags so the engage decisions can use the
        // candidate cardinalities.
        let mut core = Vec::new();
        let resolve = |link: &mut Link<'_, C>, log: &mut SessionLog| {
            let (chan, peer_n) = (&mut *link.chan, link.session.peer_n);
            let own = |idx: usize| format!("own#{idx}");
            let served = query_candidate_counts(chan, cfg, points, peer_n, &mut log.leakage, own)?;
            let index = local_index(points, cfg.params.eps_sq, cfg.pruning);
            let own: Vec<usize> = points
                .iter()
                .map(|point| index.region_query(point).len())
                .collect();
            log.leakage.reserve(points.len());
            let backend = backend_for(cfg, &link.session, dim);
            let query_ctx = queries(link.role);
            core = resolve_querier(chan, cfg, &backend, points, &own, &served, &query_ctx, log)?;
            Ok(())
        };
        let serve = |link: &mut Link<'_, C>, log: &mut SessionLog| {
            let (chan, peer_n) = (&mut *link.chan, link.session.peer_n);
            let served = &mut serve_candidate_counts(chan, cfg, points, peer_n, &mut log.leakage)?;
            let backend = backend_for(cfg, &link.session, dim);
            let serve_ctx = queries(link.role.peer());
            resolve_responder(chan, cfg, &backend, points, peer_n, served, &serve_ctx, log)
        };
        crate::horizontal::run_phases(node, log, resolve, serve)?;
        Ok(crate::horizontal::expand_own_points(
            cfg,
            points,
            |idx, _own_count| core[idx],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{paillier_backend, sharing_backend};
    use crate::prune::CandidateSets;
    use crate::test_helpers::{ctx, rng};
    use ppds_dbscan::{dist_sq, DbscanParams};
    use ppds_paillier::Keypair;
    use ppds_smc::{AnyBackend, DealerTape, LeakageLog};
    use ppds_transport::duplex;
    use std::sync::OnceLock;

    fn querier_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(66)))
    }

    fn responder_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(67)))
    }

    /// Both sides of a resolve direction of one query, each with its own
    /// backend of `cfg`'s kind and its own seed; returns the verdict and
    /// both parties' logs.
    fn run_test(
        cfg: ProtocolConfig,
        query: Point,
        own_count: usize,
        responder_points: Vec<Point>,
        seed: u64,
    ) -> (bool, SessionLog, SessionLog) {
        let (dim, nb) = (query.dim(), responder_points.len());
        let backend = |mine: &'static Keypair, theirs: &'static Keypair| match cfg.backend {
            ppds_smc::BackendKind::Paillier => {
                AnyBackend::Paillier(paillier_backend(&cfg, mine, &theirs.public, dim))
            }
            ppds_smc::BackendKind::Sharing => {
                AnyBackend::Sharing(sharing_backend(&cfg, DealerTape::from_seed(3131), dim))
            }
        };
        let (mut qchan, mut rchan) = duplex();
        std::thread::scope(|scope| {
            let q = scope.spawn(|| {
                let (mut log, backend) = (SessionLog::new(), backend(querier_kp(), responder_kp()));
                let (own, served) = (&[own_count], &[nb]);
                let chan = &mut qchan;
                let core = resolve_querier(
                    chan,
                    &cfg,
                    &backend,
                    &[query],
                    own,
                    served,
                    &ctx(seed),
                    &mut log,
                );
                (core.unwrap()[0], log)
            });
            let (mut r_log, backend) = (SessionLog::new(), backend(responder_kp(), querier_kp()));
            let (points, served, ctx) = (
                &responder_points,
                &mut CandidateSets::All(nb),
                ctx(seed + 1),
            );
            resolve_responder(
                &mut rchan, &cfg, &backend, points, 1, served, &ctx, &mut r_log,
            )
            .unwrap();
            let (is_core, q_log) = q.join().unwrap();
            (is_core, q_log, r_log)
        })
    }

    fn cfg(eps_sq: u64, min_pts: usize) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, 10)
    }

    fn four_points() -> Vec<Point> {
        [[1, 0], [0, 2], [5, 5], [-1, -1]]
            .map(|c| Point::new(c.to_vec()))
            .to_vec()
    }

    #[test]
    fn core_decision_matches_plain_count_on_both_substrates() {
        let query = Point::new(vec![0, 0]);
        let served = four_points();
        let peer_in = served.iter().filter(|p| dist_sq(p, &query) <= 4).count();
        let sharing = |batching| {
            let base = cfg(4, 1).with_backend(ppds_smc::BackendKind::Sharing);
            base.with_batching(batching)
        };
        for (b, mut c) in [cfg(4, 1), sharing(false), sharing(true)]
            .into_iter()
            .enumerate()
        {
            for (min_pts, own_count) in (1..=6).flat_map(|m| (0..=3).map(move |o| (m, o))) {
                c.params.min_pts = min_pts;
                let seed = 1000 + (min_pts * 10 + own_count) as u64;
                let (got, q_log, _) = run_test(c, query.clone(), own_count, served.clone(), seed);
                let name = format!("backend {b} min_pts={min_pts} own={own_count}");
                assert_eq!(got, own_count + peer_in >= min_pts, "{name}");
                // An engaged test opens masked elements on the sharing
                // substrate and books nothing on the Paillier one.
                let engaged = (1..=served.len()).contains(&min_pts.saturating_sub(own_count));
                assert_eq!(
                    q_log.sharing.opened_elements > 0,
                    b > 0 && engaged,
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn leakage_is_core_bit_only_for_querier() {
        let responder_points = vec![Point::new(vec![1, 1]), Point::new(vec![8, 8])];
        let (is_core, q, r) = run_test(cfg(4, 2), Point::new(vec![0, 0]), 1, responder_points, 50);
        assert!(is_core);
        // Querier's deliberate disclosures: exactly one core-point bit.
        assert_eq!(q.leakage.count_kind("core_point_bit"), 1);
        assert_eq!(q.leakage.count_kind("neighbor_count"), 0);
        // Responder: learned the rank k and that his nearest point matched.
        assert_eq!(r.leakage.count_kind("threshold_rank"), 1);
        assert_eq!(r.leakage.count_kind("own_point_matched"), 1);
    }

    #[test]
    fn locally_decided_tests_engage_nobody() {
        // own_count ≥ MinPts: core, and the responder learns one flag bit.
        let far = vec![Point::new(vec![9, 9])];
        let (is_core, _, r) = run_test(cfg(4, 2), Point::new(vec![0, 0]), 5, far, 60);
        assert!(is_core);
        assert_eq!(r.leakage, LeakageLog::new());
        // k > responder point count: impossible to reach MinPts.
        let near = vec![Point::new(vec![0, 1])];
        let (is_core, _, r) = run_test(cfg(4, 5), Point::new(vec![0, 0]), 1, near, 70);
        assert!(!is_core);
        assert_eq!(r.leakage, LeakageLog::new());
    }

    #[test]
    fn quickselect_variant_agrees() {
        let responder_points: Vec<Point> = [[3, 0], [0, 3], [2, 2], [10, 0], [0, 10]]
            .map(|c| Point::new(c.to_vec()))
            .to_vec();
        // own_count 1 → k = 3; 3rd nearest responder distance: 9 ≤ 9 ✓.
        // min_pts 5 → k = 4; 4th nearest is dist² 100 > 9.
        for (min_pts, expect, seed) in [(4, true, 80), (5, false, 81)] {
            let mut c = cfg(9, min_pts);
            c.selection = ppds_smc::kth::SelectionMethod::QuickSelect;
            let (is_core, _, _) =
                run_test(c, Point::new(vec![0, 0]), 1, responder_points.clone(), seed);
            assert_eq!(is_core, expect, "min_pts={min_pts}");
        }
    }

    #[test]
    fn yao_backend_small_domain() {
        let params = DbscanParams {
            eps_sq: 2,
            min_pts: 2,
        };
        let mut c = ProtocolConfig::new_with_yao(params, 2);
        c.mask_bits = 1;
        let responder_points = vec![Point::new(vec![1, 1]), Point::new(vec![2, 2])];
        let (is_core, _, _) = run_test(c, Point::new(vec![0, 0]), 1, responder_points, 90);
        assert!(is_core); // nearest responder dist² = 2 ≤ 2
    }
}
