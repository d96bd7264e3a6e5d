//! The horizontally partitioned DBSCAN drivers: the basic protocol
//! (Algorithms 3 & 4) and the enhanced protocol (Algorithms 7 & 8), which
//! share one expansion engine and differ only in the core-point test.
//!
//! Per the paper, the run is *symmetric*: Alice resolves the peer density
//! of her own points while Bob answers, then the roles swap. Each party
//! ends with labels for its own records only (§3.3); cluster ids are
//! party-local and intentionally not reconciled across parties.
//!
//! Connectivity semantics: the querying party learns only *how many* (or,
//! enhanced, *whether enough*) peer points lie in a neighborhood — never
//! which ones — so expansion can only traverse the party's own points. The
//! plaintext reference of this behaviour is
//! [`ppds_dbscan::dbscan_with_external_density`], and the integration tests
//! assert label-exact agreement with it.
//!
//! **Resolve, then expand** (DESIGN.md §7). The answer to a core-point test
//! is a function of the point alone and DBSCAN tests every point at least
//! once whatever its visiting order, so all of a party's questions are
//! known before its loop starts: the wire phase asks them in ascending
//! index order, each exactly once, and the expansion —
//! [`ppds_dbscan::dbscan_with_core_test`], the loop the plaintext
//! reference runs — answers every test, repeats included, from the
//! resolved table without touching the channel.
//!
//! Both protocols run through the shared [`crate::session`] dispatch; the
//! [`crate::session::Participant`] builder is the supported entry point.

use crate::config::ProtocolConfig;
use crate::error::CoreError;
use crate::hdp::{hdp_resolve_querier, hdp_resolve_responder};
use crate::session::{HandshakeProfile, Mode, ModeContext, ModeDriver, Session, SessionLog};
use ppds_dbscan::{dbscan_with_core_test, Clustering, Point};
use ppds_smc::{LeakageEvent, Party, ProtocolContext};
use ppds_transport::Channel;

/// Runs a point-holding party's two wire phases in role order — Alice
/// resolves her own points first while Bob serves, then the roles swap —
/// and returns what `resolve` learned.
pub(crate) fn resolve_in_role_order<C: Channel, T>(
    chan: &mut C,
    role: Party,
    log: &mut SessionLog,
    resolve: impl FnOnce(&mut C, &mut SessionLog) -> Result<T, CoreError>,
    serve: impl FnOnce(&mut C, &mut SessionLog) -> Result<(), CoreError>,
) -> Result<T, CoreError> {
    match role {
        Party::Alice => {
            let resolved = resolve(chan, log)?;
            serve(chan, log)?;
            Ok(resolved)
        }
        Party::Bob => {
            serve(chan, log)?;
            resolve(chan, log)
        }
    }
}

/// The channel-free half of a point-holding party's run: Algorithms 3 & 4
/// over its own points, each core-point test answered by `is_core(point)`
/// from what the resolve phase learned. Local region queries go through
/// the ε-grid when pruning is on, the linear scan otherwise (see
/// [`crate::prune::local_index`]; both return identical ascending index
/// lists, so the swap cannot perturb labels).
pub(crate) fn expand_own_points(
    cfg: &ProtocolConfig,
    points: &[Point],
    is_core: impl FnMut(usize, usize) -> bool,
) -> Clustering {
    let index = crate::prune::local_index(points, cfg.params.eps_sq, cfg.pruning);
    dbscan_with_core_test(points, index.as_ref(), is_core)
}

/// Querier half of one resolve direction of the basic protocol (two-party,
/// or one pairwise channel of the mesh): learns, per own point, how many
/// of the peer's points lie within `Eps`, and ledgers each count under
/// `label(point)`. `ctx` is this direction's context; the responder walks
/// the same path in [`serve_peer_density`].
pub(crate) fn resolve_peer_density<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    session: &Session,
    points: &[Point],
    ctx: &ProtocolContext,
    log: &mut SessionLog,
    label: impl Fn(usize) -> String,
) -> Result<Vec<usize>, CoreError> {
    let backend = crate::backend::backend_for(cfg, session, points.first().map_or(0, Point::dim));
    // When pruning, disclose every query's coarse cell and learn how many
    // peer points survive each band filter; the secure phase then runs
    // over those candidate sets only (see crate::prune for the exactness
    // argument and leakage ledger).
    let served = crate::prune::query_candidate_counts(
        chan,
        cfg,
        points,
        session.peer_n,
        &mut log.leakage,
        &label,
    )?;
    let counts = hdp_resolve_querier(
        chan,
        cfg,
        &backend,
        points,
        |q| served[q],
        ctx,
        &mut log.ledger,
        &mut log.sharing,
    )?;
    log.leakage.reserve(counts.len());
    for (idx, &count) in counts.iter().enumerate() {
        log.leakage.record(LeakageEvent::NeighborCount {
            query: label(idx),
            count: count as u64,
        });
    }
    Ok(counts)
}

/// Responder half of [`resolve_peer_density`]: serves every one of the
/// peer's points its candidates among `points`.
pub(crate) fn serve_peer_density<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    session: &Session,
    points: &[Point],
    ctx: &ProtocolContext,
    log: &mut SessionLog,
) -> Result<(), CoreError> {
    let backend = crate::backend::backend_for(cfg, session, points.first().map_or(0, Point::dim));
    let mut served =
        crate::prune::serve_candidate_counts(chan, cfg, points, session.peer_n, &mut log.leakage)?;
    hdp_resolve_responder(
        chan,
        cfg,
        &backend,
        points,
        session.peer_n,
        &mut served,
        ctx,
        &mut log.ledger,
        &mut log.sharing,
        &mut log.leakage,
    )
}

/// Shared local validation for complete-record modes: every point within
/// the agreed lattice bound, one common dimension, config usable.
pub(crate) fn validate_complete_records(
    cfg: &ProtocolConfig,
    points: &[Point],
) -> Result<(), CoreError> {
    let dim = points.first().map_or(0, Point::dim);
    cfg.validate(dim.max(1))?;
    check_points(cfg, points)
}

/// Handshake advertisement for complete-record modes. An empty side
/// advertises dimension 0, which the handshake treats as "any" (it still
/// answers queries — with zero matches — either way).
pub(crate) fn complete_records_profile(mode: Mode, points: &[Point]) -> HandshakeProfile {
    HandshakeProfile {
        mode,
        n: points.len(),
        dim: points.first().map_or(0, Point::dim),
        dim_must_match: true,
    }
}

/// The basic horizontal protocol as a [`ModeDriver`].
pub(crate) struct HorizontalDriver<'a> {
    pub points: &'a [Point],
}

impl ModeDriver for HorizontalDriver<'_> {
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError> {
        validate_complete_records(cfg, self.points)
    }

    fn profile(&self) -> HandshakeProfile {
        complete_records_profile(Mode::Horizontal, self.points)
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
        // Contexts are keyed by querying *direction* rather than local
        // phase: the querier's chunk and the responder's serve of it are
        // two halves of the same protocol instance and must walk identical
        // context paths — the sharing backend re-keys this path onto the
        // shared dealer seed, so a path mismatch would decorrelate the two
        // sides' tape draws.
        let (my_queries, peer_queries) = match mctx.role {
            Party::Alice => ("hdp_a", "hdp_b"),
            Party::Bob => ("hdp_b", "hdp_a"),
        };
        let resolve = |chan: &mut C, log: &mut SessionLog| {
            let own = |idx: usize| format!("own#{idx}");
            resolve_peer_density(
                chan,
                cfg,
                session,
                points,
                &ctx.narrow(my_queries),
                log,
                own,
            )
        };
        let serve = |chan: &mut C, log: &mut SessionLog| {
            serve_peer_density(chan, cfg, session, points, &ctx.narrow(peer_queries), log)
        };
        let peer_counts = resolve_in_role_order(chan, mctx.role, log, resolve, serve)?;
        Ok(expand_own_points(cfg, points, |idx, own_count| {
            own_count + peer_counts[idx] >= cfg.params.min_pts
        }))
    }
}

/// Validates that every local point respects the agreed lattice bound and
/// shares one dimension.
pub(crate) fn check_points(cfg: &ProtocolConfig, points: &[Point]) -> Result<(), CoreError> {
    let dim = points.first().map_or(0, Point::dim);
    for (i, p) in points.iter().enumerate() {
        if p.dim() != dim {
            return Err(CoreError::config(format!(
                "point {i} has dimension {} but point 0 has {dim}",
                p.dim()
            )));
        }
        if p.max_abs_coord() > cfg.coord_bound {
            return Err(CoreError::config(format!(
                "point {i} exceeds the agreed coordinate bound {}",
                cfg.coord_bound
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PartyOutput;
    use crate::session::{run_data_pair, Participant, PartyData};
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan_with_external_density, eval, DbscanParams};

    fn pts(coords: &[&[i64]]) -> Vec<Point> {
        coords.iter().map(|c| Point::from(*c)).collect()
    }

    fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
    }

    fn horizontal(
        c: &ProtocolConfig,
        alice: &[Point],
        bob: &[Point],
        sa: u64,
        sb: u64,
    ) -> (PartyOutput, PartyOutput) {
        let views = (alice.to_vec(), bob.to_vec());
        let views = (
            PartyData::Horizontal(views.0),
            PartyData::Horizontal(views.1),
        );
        run_data_pair(c, views.0, views.1, rng(sa), rng(sb)).unwrap()
    }

    fn enhanced(
        c: &ProtocolConfig,
        alice: &[Point],
        bob: &[Point],
        sa: u64,
        sb: u64,
    ) -> (PartyOutput, PartyOutput) {
        let views = (alice.to_vec(), bob.to_vec());
        let views = (PartyData::Enhanced(views.0), PartyData::Enhanced(views.1));
        run_data_pair(c, views.0, views.1, rng(sa), rng(sb)).unwrap()
    }

    #[test]
    fn basic_matches_external_density_reference() {
        let alice = pts(&[&[0, 0], &[1, 0], &[10, 10], &[11, 10], &[30, -30]]);
        let bob = pts(&[&[0, 1], &[1, 1], &[10, 11], &[-30, 30]]);
        let c = cfg(4, 3, 40);
        let (a_out, b_out) = horizontal(&c, &alice, &bob, 1, 2);
        let a_ref = dbscan_with_external_density(&alice, &bob, c.params);
        let b_ref = dbscan_with_external_density(&bob, &alice, c.params);
        assert_eq!(a_out.clustering, a_ref, "alice labels");
        assert_eq!(b_out.clustering, b_ref, "bob labels");
        assert!(a_out.traffic.total_bytes() > 0);
        assert!(a_out.yao.comparisons > 0);
    }

    #[test]
    fn enhanced_matches_basic_labels() {
        let alice = pts(&[&[0, 0], &[1, 0], &[10, 10], &[11, 10], &[30, -30]]);
        let bob = pts(&[&[0, 1], &[1, 1], &[10, 11], &[-30, 30]]);
        let c = cfg(4, 3, 40);
        let (basic_a, basic_b) = horizontal(&c, &alice, &bob, 3, 4);
        let (enh_a, enh_b) = enhanced(&c, &alice, &bob, 5, 6);
        assert_eq!(basic_a.clustering, enh_a.clustering);
        assert_eq!(basic_b.clustering, enh_b.clustering);
    }

    #[test]
    fn leakage_profiles_match_theorems_9_and_11() {
        let alice = pts(&[&[0, 0], &[1, 0], &[9, 9]]);
        let bob = pts(&[&[0, 1], &[8, 9]]);
        let c = cfg(4, 2, 15);
        let (basic_a, _b) = horizontal(&c, &alice, &bob, 7, 8);
        // Theorem 9: one neighbor count per own point.
        assert_eq!(basic_a.leakage.count_kind("neighbor_count"), 3);
        assert_eq!(basic_a.leakage.count_kind("core_point_bit"), 0);

        let (enh_a, _b) = enhanced(&c, &alice, &bob, 9, 10);
        // Theorem 11: core-point bits only, never a count.
        assert_eq!(enh_a.leakage.count_kind("neighbor_count"), 0);
        assert_eq!(enh_a.leakage.count_kind("core_point_bit"), 3);
    }

    #[test]
    fn cross_party_density_counts_are_used() {
        // Alone, neither side clusters (every point would be noise); with
        // the peer's density both sides find their cluster.
        let alice = pts(&[&[0, 0], &[2, 0]]);
        let bob = pts(&[&[1, 0], &[1, 1]]);
        let c = cfg(4, 3, 5);
        let (a_out, b_out) = horizontal(&c, &alice, &bob, 11, 12);
        assert_eq!(a_out.clustering.noise_count(), 0);
        assert_eq!(b_out.clustering.noise_count(), 0);
        assert_eq!(a_out.clustering.num_clusters, 1);
    }

    #[test]
    fn empty_bob_side_degenerates_to_local_dbscan() {
        let alice = pts(&[&[0], &[1], &[2], &[50]]);
        let bob: Vec<Point> = vec![];
        let c = cfg(1, 2, 60);
        let (a_out, b_out) = horizontal(&c, &alice, &bob, 13, 14);
        let reference = dbscan_with_external_density(&alice, &[], c.params);
        assert_eq!(a_out.clustering, reference);
        assert!(b_out.clustering.labels.is_empty());
    }

    #[test]
    fn rand_index_against_centralized_union() {
        // Well-separated clusters split across parties: each party's view
        // agrees perfectly with centralized DBSCAN restricted to its points.
        let alice = pts(&[&[0, 0], &[1, 1], &[20, 20], &[21, 21]]);
        let bob = pts(&[&[0, 1], &[1, 0], &[20, 21], &[21, 20]]);
        let c = cfg(8, 4, 30);
        let (a_out, _) = horizontal(&c, &alice, &bob, 15, 16);
        let mut union = alice.clone();
        union.extend(bob.iter().cloned());
        let central = ppds_dbscan::dbscan(&union, c.params);
        let central_alice = Clustering {
            labels: central.labels[..alice.len()].to_vec(),
            num_clusters: central.num_clusters,
        };
        assert!((eval::rand_index(&a_out.clustering, &central_alice) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn handshake_mismatch_detected() {
        let alice = pts(&[&[0]]);
        let bob = pts(&[&[0]]);
        let cfg_a = cfg(4, 2, 5);
        let cfg_b = cfg(9, 2, 5); // different Eps²
        let result = crate::driver::run_pair(
            |mut chan| {
                Participant::new(cfg_a)
                    .role(Party::Alice)
                    .data(PartyData::Horizontal(alice.clone()))
                    .seed(17)
                    .run(&mut chan)
            },
            |mut chan| {
                Participant::new(cfg_b)
                    .role(Party::Bob)
                    .data(PartyData::Horizontal(bob.clone()))
                    .seed(18)
                    .run(&mut chan)
            },
        );
        match result.unwrap_err() {
            CoreError::HandshakeMismatch { field, .. } => assert_eq!(field, "eps_sq"),
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn out_of_bound_points_rejected_locally() {
        let alice = pts(&[&[100, 0]]);
        let c = cfg(4, 2, 5);
        let (mut chan, _peer) = ppds_transport::duplex();
        let err = Participant::new(c)
            .role(Party::Alice)
            .data(PartyData::Horizontal(alice))
            .seed(19)
            .run(&mut chan)
            .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)));
    }
}
