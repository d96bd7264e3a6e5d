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
//! All three phases dispatch through the session's [`SmcBackend`]: the
//! Paillier substrate reproduces the homomorphic dot products and Yao
//! comparisons byte-for-byte; the sharing substrate answers with one
//! masked-share exchange per phase over `Z_2^64` (DESIGN.md §14).

use crate::config::{ProtocolConfig, YaoLedger};
use crate::domain::{dot_response_packing, enhanced_share_domain};
use crate::error::CoreError;
use crate::hdp::ServedSets;
use crate::session::{HandshakeProfile, Mode, ModeContext, ModeDriver, Session, SessionLog};
use ppds_dbscan::{Clustering, Point};
use ppds_observe::trace;
use ppds_smc::compare::CmpOp;
use ppds_smc::kth::kth_smallest_with;
use ppds_smc::ResponsePacking;
use ppds_smc::{
    LeakageEvent, LeakageLog, Party, ProtocolContext, SharingLedger, SmcBackend, SmcError,
};
use ppds_transport::Channel;
use rand::seq::SliceRandom;

/// The masked-distance response packing this config selects: `Some` when
/// `cfg.packing` is on (validated configs always have a layout).
pub(crate) fn dot_packing(cfg: &ProtocolConfig, dim: usize) -> Option<ResponsePacking> {
    if cfg.packing {
        dot_response_packing(cfg, dim)
    } else {
        None
    }
}

/// What [`kth_smallest_with`]'s vestigial `batched` argument is given: it
/// selects nothing, framing being the backend's alone.
const BACKEND_FRAMES: bool = true;

/// Querier side of one enhanced core-point test. `own_count` is the size of
/// the querier's *local* Eps-neighborhood of `query` (including the point
/// itself); `ctx` is this core test's context (the driver narrows per
/// query). Returns whether `query` is a core point of the joint data.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn enhanced_core_test_querier<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    query: &Point,
    own_count: usize,
    responder_count: usize,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
    leakage: &mut LeakageLog,
) -> Result<bool, SmcError> {
    let k_needed = cfg.params.min_pts.saturating_sub(own_count);
    let engage = k_needed >= 1 && k_needed <= responder_count;
    chan.send(&(engage, k_needed as u64))?;
    if !engage {
        // Decided locally: core iff the local neighborhood alone suffices.
        let is_core = k_needed == 0;
        leakage.record(LeakageEvent::CorePointBit {
            query: "local".into(),
            is_core,
        });
        return Ok(is_core);
    }

    // Phase 1: shares u_j = Dist²(A, B_j) + v_j.
    let dim = query.dim();
    let mut xs: Vec<i64> = Vec::with_capacity(dim + 2);
    xs.push(i64::try_from(query.norm_sq()).expect("ΣA² fits i64 on a validated lattice"));
    for &a in query.coords() {
        xs.push(-2 * a);
    }
    xs.push(1);
    let dot_span = trace::span("dot", || chan.metrics());
    let shares = backend.dot_many_querier(chan, &xs, responder_count, &ctx.narrow("dot"), acct)?;
    dot_span.end(|| chan.metrics());

    // Phase 2: k-th smallest shared distance. The backend frames the
    // comparisons: a quickselect partition level is one slice, a minimum
    // scan is inherently sequential and hands over one pair at a time.
    let domain = enhanced_share_domain(cfg, dim);
    let sel_ctx = ctx.narrow("sel");
    let sel_span = trace::span("sel", || chan.metrics());
    let outcome = kth_smallest_with(
        cfg.selection,
        backend,
        chan,
        Party::Alice,
        &shares,
        k_needed,
        &domain,
        BACKEND_FRAMES,
        &sel_ctx,
        acct,
    )?;
    sel_span.end(|| chan.metrics());

    // Phase 3: u_k ≤ Eps² + v_k.
    ledger.record_many(cfg.key_bits, domain.n0(), outcome.comparisons as u64 + 1);
    let cmp_span = trace::span("cmp", || chan.metrics());
    let is_core = backend.compare(
        chan,
        Party::Alice,
        shares[outcome.index],
        CmpOp::Leq,
        &domain,
        &ctx.narrow("cmp"),
        acct,
    )?;
    cmp_span.end(|| chan.metrics());
    leakage.record(LeakageEvent::CorePointBit {
        query: "joint".into(),
        is_core,
    });
    Ok(is_core)
}

/// Responder side of one enhanced core-point test over `my_points`,
/// restricted to the `candidates` indices (the full range when pruning is
/// off — see the crate-internal `prune` module).
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn enhanced_core_respond<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    my_points: &[Point],
    candidates: &[usize],
    dim: usize,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
    leakage: &mut LeakageLog,
) -> Result<(), SmcError> {
    let (engage, k): (bool, u64) = chan.recv()?;
    if !engage {
        return Ok(());
    }
    let k = k as usize;
    if k == 0 || k > candidates.len() {
        return Err(SmcError::protocol(format!(
            "querier engaged with invalid k = {k} for {} served points",
            candidates.len()
        )));
    }
    leakage.record(LeakageEvent::ThresholdRank {
        query: "peer-query".into(),
        k: k as u64,
    });

    // Phase 1: masked dot products over a fresh permutation of the served
    // set. Band pruning is exact, so every within-Eps point is a candidate
    // and the k-th smallest served distance decides core-ness just like
    // the k-th smallest overall.
    let mut order: Vec<usize> = candidates.to_vec();
    order.shuffle(&mut ctx.narrow("perm").rng());
    let rows: Vec<Vec<i64>> = order
        .iter()
        .map(|&idx| {
            let p = &my_points[idx];
            let mut row: Vec<i64> = Vec::with_capacity(p.dim() + 2);
            row.push(1);
            row.extend_from_slice(p.coords());
            row.push(i64::try_from(p.norm_sq()).expect("ΣB² fits i64 on a validated lattice"));
            row
        })
        .collect();
    let dot_span = trace::span("dot", || chan.metrics());
    let shares = backend.dot_many_responder(chan, &rows, &ctx.narrow("dot"), acct)?;
    dot_span.end(|| chan.metrics());

    // Phase 2: mirror the selection.
    let domain = enhanced_share_domain(cfg, dim);
    let sel_ctx = ctx.narrow("sel");
    let sel_span = trace::span("sel", || chan.metrics());
    let outcome = kth_smallest_with(
        cfg.selection,
        backend,
        chan,
        Party::Bob,
        &shares,
        k,
        &domain,
        BACKEND_FRAMES,
        &sel_ctx,
        acct,
    )?;
    sel_span.end(|| chan.metrics());

    // Phase 3: Eps² + v_k vs the querier's u_k.
    ledger.record_many(cfg.key_bits, domain.n0(), outcome.comparisons as u64 + 1);
    let cmp_span = trace::span("cmp", || chan.metrics());
    let is_core = backend.compare(
        chan,
        Party::Bob,
        cfg.params.eps_sq as i64 + shares[outcome.index],
        CmpOp::Leq,
        &domain,
        &ctx.narrow("cmp"),
        acct,
    )?;
    cmp_span.end(|| chan.metrics());
    if is_core {
        // The responder knows which of *his own* points ranked k-th and
        // that it sits within Eps of some unidentifiable query point.
        leakage.record(LeakageEvent::OwnPointMatched {
            point: format!("own#{}", order[outcome.index]),
        });
    }
    Ok(())
}

/// The enhanced protocol as a [`ModeDriver`]: the horizontal resolve /
/// expand split with the count-free core-point test above.
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
        chan: &mut C,
        mctx: &ModeContext<'_>,
        ctx: &ProtocolContext,
        log: &mut SessionLog,
    ) -> Result<Clustering, CoreError> {
        let (cfg, session, points) = (mctx.cfg, mctx.session, self.points);
        let dim = points.first().map_or(0, Point::dim);
        let backend = mctx.backend(dim);
        // Direction-keyed paths, for the same reason as the horizontal
        // driver: both halves of one core test must share a context path
        // so the sharing backend's tape draws stay correlated.
        let (my_queries, peer_queries) = match mctx.role {
            Party::Alice => ("enh_a", "enh_b"),
            Party::Bob => ("enh_b", "enh_a"),
        };
        let query_ctx = ctx.narrow(my_queries);
        let serve_ctx = ctx.narrow(peer_queries);
        // Resolve: one core test per own point, in index order, each still
        // an exchange of its own. The grid-pruning cell exchange is the
        // horizontal driver's, run *before* any (engage, k) message so the
        // engage decisions can use the candidate cardinalities.
        let resolve = |chan: &mut C, log: &mut SessionLog| {
            let served = crate::prune::query_candidate_counts(
                chan,
                cfg,
                points,
                session.peer_n,
                &mut log.leakage,
                |idx| format!("own#{idx}"),
            )?;
            let index = crate::prune::local_index(points, cfg.params.eps_sq, cfg.pruning);
            log.leakage.reserve(points.len());
            let mut core = Vec::with_capacity(points.len());
            for (idx, point) in points.iter().enumerate() {
                let span = trace::span_with(|| format!("resolve#{idx}"), || chan.metrics());
                core.push(enhanced_core_test_querier(
                    chan,
                    cfg,
                    &backend,
                    point,
                    index.region_query(point).len(),
                    served[idx],
                    &query_ctx.at(idx as u64),
                    &mut log.ledger,
                    &mut log.sharing,
                    &mut log.leakage,
                )?);
                span.end(|| chan.metrics());
            }
            Ok(core)
        };
        let serve = |chan: &mut C, log: &mut SessionLog| {
            let mut served = crate::prune::serve_candidate_counts(
                chan,
                cfg,
                points,
                session.peer_n,
                &mut log.leakage,
            )?;
            let mut candidates = Vec::new();
            for q in 0..session.peer_n {
                let span = trace::span_with(|| format!("resolve#{q}"), || chan.metrics());
                candidates.clear();
                served.extend(q, &mut candidates);
                enhanced_core_respond(
                    chan,
                    cfg,
                    &backend,
                    points,
                    &candidates,
                    dim,
                    &serve_ctx.at(q as u64),
                    &mut log.ledger,
                    &mut log.sharing,
                    &mut log.leakage,
                )?;
                span.end(|| chan.metrics());
            }
            Ok(())
        };
        let core = crate::horizontal::resolve_in_role_order(chan, mctx.role, log, resolve, serve)?;
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
    use crate::backend::paillier_backend;
    use crate::test_helpers::{ctx, rng};
    use ppds_dbscan::{dist_sq, DbscanParams};
    use ppds_paillier::Keypair;
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

    fn run_test(
        cfg: ProtocolConfig,
        query: Point,
        own_count: usize,
        responder_points: Vec<Point>,
        seed: u64,
    ) -> (bool, LeakageLog, LeakageLog) {
        let dim = query.dim();
        let nb = responder_points.len();
        let (mut qchan, mut rchan) = duplex();
        let q = std::thread::spawn(move || {
            let backend = paillier_backend(&cfg, querier_kp(), &responder_kp().public, dim);
            let mut ledger = YaoLedger::default();
            let mut acct = SharingLedger::default();
            let mut leakage = LeakageLog::new();
            let is_core = enhanced_core_test_querier(
                &mut qchan,
                &cfg,
                &backend,
                &query,
                own_count,
                nb,
                &ctx(seed),
                &mut ledger,
                &mut acct,
                &mut leakage,
            )
            .unwrap();
            (is_core, leakage)
        });
        let backend = paillier_backend(&cfg, responder_kp(), &querier_kp().public, dim);
        let mut ledger = YaoLedger::default();
        let mut acct = SharingLedger::default();
        let mut r_leakage = LeakageLog::new();
        let all: Vec<usize> = (0..responder_points.len()).collect();
        enhanced_core_respond(
            &mut rchan,
            &cfg,
            &backend,
            &responder_points,
            &all,
            dim,
            &ctx(seed + 1),
            &mut ledger,
            &mut acct,
            &mut r_leakage,
        )
        .unwrap();
        let (is_core, q_leakage) = q.join().unwrap();
        (is_core, q_leakage, r_leakage)
    }

    fn cfg(eps_sq: u64, min_pts: usize) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, 10)
    }

    #[test]
    fn core_decision_matches_plain_count() {
        let responder_points = vec![
            Point::new(vec![1, 0]),
            Point::new(vec![0, 2]),
            Point::new(vec![5, 5]),
            Point::new(vec![-1, -1]),
        ];
        let query = Point::new(vec![0, 0]);
        for min_pts in 1..=6 {
            for own_count in 0..=3 {
                let c = cfg(4, min_pts);
                let peer_in = responder_points
                    .iter()
                    .filter(|p| dist_sq(p, &query) <= 4)
                    .count();
                let expect = own_count + peer_in >= min_pts;
                let (got, _, _) = run_test(
                    c,
                    query.clone(),
                    own_count,
                    responder_points.clone(),
                    1000 + (min_pts * 10 + own_count) as u64,
                );
                assert_eq!(got, expect, "min_pts={min_pts} own={own_count}");
            }
        }
    }

    #[test]
    fn sharing_backend_core_decision_matches() {
        use ppds_smc::{DealerTape, SharingBackend};
        let responder_points = vec![
            Point::new(vec![1, 0]),
            Point::new(vec![0, 2]),
            Point::new(vec![5, 5]),
            Point::new(vec![-1, -1]),
        ];
        let query = Point::new(vec![0, 0]);
        let peer_in = responder_points
            .iter()
            .filter(|p| dist_sq(p, &query) <= 4)
            .count();
        for batching in [false, true] {
            for own_count in [0usize, 1, 2] {
                let run_cfg = cfg(4, 3).with_batching(batching);
                let expect = own_count + peer_in >= 3;
                let mk = move || SharingBackend {
                    tape: DealerTape::from_seed(3131),
                    batching,
                    dot_mask_bound: 1 << 20,
                };
                let nb = responder_points.len();
                let (mut qchan, mut rchan) = duplex();
                let q_query = query.clone();
                let q = std::thread::spawn(move || {
                    let mut ledger = YaoLedger::default();
                    let mut acct = SharingLedger::default();
                    let mut leakage = LeakageLog::new();
                    let is_core = enhanced_core_test_querier(
                        &mut qchan,
                        &run_cfg,
                        &mk(),
                        &q_query,
                        own_count,
                        nb,
                        &ctx(2000 + own_count as u64),
                        &mut ledger,
                        &mut acct,
                        &mut leakage,
                    )
                    .unwrap();
                    (is_core, acct)
                });
                let mut ledger = YaoLedger::default();
                let mut acct = SharingLedger::default();
                let mut r_leakage = LeakageLog::new();
                enhanced_core_respond(
                    &mut rchan,
                    &run_cfg,
                    &mk(),
                    &responder_points,
                    &[0, 1, 2, 3],
                    2,
                    &ctx(2001 + own_count as u64),
                    &mut ledger,
                    &mut acct,
                    &mut r_leakage,
                )
                .unwrap();
                let (is_core, q_acct) = q.join().unwrap();
                assert_eq!(is_core, expect, "batching={batching} own={own_count}");
                assert!(
                    q_acct.opened_elements > 0,
                    "dot product opens masked elements"
                );
            }
        }
    }

    #[test]
    fn leakage_is_core_bit_only_for_querier() {
        let (is_core, q_leakage, r_leakage) = run_test(
            cfg(4, 2),
            Point::new(vec![0, 0]),
            1,
            vec![Point::new(vec![1, 1]), Point::new(vec![8, 8])],
            50,
        );
        assert!(is_core);
        // Querier's deliberate disclosures: exactly one core-point bit.
        assert_eq!(q_leakage.count_kind("core_point_bit"), 1);
        assert_eq!(q_leakage.count_kind("neighbor_count"), 0);
        // Responder: learned the rank k and that his nearest point matched.
        assert_eq!(r_leakage.count_kind("threshold_rank"), 1);
        assert_eq!(r_leakage.count_kind("own_point_matched"), 1);
    }

    #[test]
    fn locally_decided_core() {
        // own_count ≥ MinPts: no engagement, responder learns one flag bit.
        let (is_core, _, r_leakage) = run_test(
            cfg(4, 2),
            Point::new(vec![0, 0]),
            5,
            vec![Point::new(vec![9, 9])],
            60,
        );
        assert!(is_core);
        assert!(r_leakage.is_empty());
    }

    #[test]
    fn locally_decided_not_core() {
        // k > responder point count: impossible to reach MinPts.
        let (is_core, _, _) = run_test(
            cfg(4, 5),
            Point::new(vec![0, 0]),
            1,
            vec![Point::new(vec![0, 1])],
            70,
        );
        assert!(!is_core);
    }

    #[test]
    fn quickselect_variant_agrees() {
        let mut c = cfg(9, 4);
        c.selection = ppds_smc::kth::SelectionMethod::QuickSelect;
        let responder_points = vec![
            Point::new(vec![3, 0]),
            Point::new(vec![0, 3]),
            Point::new(vec![2, 2]),
            Point::new(vec![10, 0]),
            Point::new(vec![0, 10]),
        ];
        // own_count 1 → k = 3; 3rd nearest responder distance: 9 ≤ 9 ✓.
        let (is_core, _, _) = run_test(c, Point::new(vec![0, 0]), 1, responder_points.clone(), 80);
        assert!(is_core);
        // min_pts 5 → k = 4; 4th nearest is dist² 100 > 9.
        let mut c5 = cfg(9, 5);
        c5.selection = ppds_smc::kth::SelectionMethod::QuickSelect;
        let (is_core, _, _) = run_test(c5, Point::new(vec![0, 0]), 1, responder_points, 81);
        assert!(!is_core);
    }

    #[test]
    fn yao_backend_small_domain() {
        let mut c = ProtocolConfig::new_with_yao(
            DbscanParams {
                eps_sq: 2,
                min_pts: 2,
            },
            2,
        );
        c.mask_bits = 1;
        let (is_core, _, _) = run_test(
            c,
            Point::new(vec![0, 0]),
            1,
            vec![Point::new(vec![1, 1]), Point::new(vec![2, 2])],
            90,
        );
        assert!(is_core); // nearest responder dist² = 2 ≤ 2
    }
}
