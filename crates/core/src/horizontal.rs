//! The point-holding DBSCAN drivers over horizontally partitioned data:
//! the basic protocol (Algorithms 3 & 4) for `K ≥ 2` parties, and the
//! phase schedule the enhanced protocol (Algorithms 7 & 8) shares with it.
//! The two protocols share one expansion engine and differ only in the
//! core-point test.
//!
//! **K parties, K phases.** Every party owns complete records and runs one
//! pairwise session with each peer (one keypair, a versioned `Hello` per
//! peer; see [`crate::session`]). The run proceeds in `K` deterministic
//! phases: in phase `p`, party `p` resolves the density of all its points
//! against one peer after another, in id order, each peer answering on
//! their pairwise channel. A core-point test sums the party's own
//! neighbour count with one HDP count per peer, each over a fresh
//! per-query permutation, so the Figure 1 defense holds against every peer
//! independently. The two-party session of the paper is `K = 2`: Alice
//! (id 0) resolves while Bob (id 1) serves, then the roles swap; the
//! K-party mesh is the generalization its §1 and §6 point to ("the
//! two-party algorithm can be extended to multi-party cases") but never
//! spell out. Both run this one driver, under the `Horizontal` and
//! `Multiparty` handshake tags.
//!
//! Every pairwise exchange draws from
//! `ctx.narrow("mesh").at(querier).at(responder).narrow("hdp")`, keyed by
//! the ordered pair of ids rather than traffic order: both halves of an
//! exchange walk the same path (which the sharing backend's dealer tape
//! re-keys onto the pair's shared seed), and adding, removing or resizing
//! one peer never shifts the streams this node uses with any other
//! (`mesh_streams_are_keyed_per_peer`).
//!
//! Each party ends with labels for its own records only (§3.3); cluster
//! ids are party-local and intentionally not reconciled across parties.
//! The querying party learns only *how many* (or, enhanced, *whether
//! enough*) peer points lie in a neighborhood — never which ones — so
//! expansion can only traverse the party's own points, and its labels are
//! [`ppds_dbscan::dbscan_with_external_density`] over its own points with
//! the union of all peers as the external set; the integration tests
//! assert label-exact agreement with it. Its leakage is the Theorem 9
//! profile against each peer separately: one neighbor count per own point
//! *per peer*, labelled `own#i/peer#j` — finer than the union count, the
//! price of the pairwise construction.
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
//! [`crate::session::Participant`] builder is the supported entry point
//! ([`crate::session::Participant::run_mesh`] for one node of a mesh,
//! [`crate::session::run_mesh_local`] for all nodes on threads).

use crate::config::ProtocolConfig;
use crate::error::CoreError;
use crate::hdp::{hdp_resolve_querier, hdp_resolve_responder};
use crate::session::{HandshakeProfile, Link, Mode, ModeDriver, Node, Session, SessionLog};
use ppds_dbscan::{dbscan_with_core_test, Clustering, Point};
use ppds_smc::{LeakageEvent, ProtocolContext};
use ppds_transport::Channel;

/// The point-holding modes' `K` phases on this node: in phase `me` it
/// resolves its own points against every peer in id order, and in every
/// other phase `p` it serves peer `p`. Ids give every node the same
/// schedule, so each exchange meets its other half; at `K = 2` this is
/// role order, Alice resolving first.
pub(crate) fn run_phases<C: Channel>(
    node: &mut Node<'_, C>,
    log: &mut SessionLog,
    mut resolve: impl FnMut(&mut Link<'_, C>, &mut SessionLog) -> Result<(), CoreError>,
    mut serve: impl FnMut(&mut Link<'_, C>, &mut SessionLog) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    let me = node.me;
    for link in &mut node.links[..me] {
        serve(link, log)?;
    }
    for link in &mut node.links {
        resolve(link, log)?;
    }
    for link in &mut node.links[me..] {
        serve(link, log)?;
    }
    Ok(())
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

/// Querier half of one resolve direction of the basic protocol, on one
/// pairwise channel: learns, per own point, how many of the peer's points
/// lie within `Eps`, and ledgers each count under `label(point)`. `ctx` is
/// this direction's context; the responder walks the same path in
/// [`serve_peer_density`].
fn resolve_peer_density<C: Channel>(
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
fn serve_peer_density<C: Channel>(
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
    }
}

/// The basic protocol as a [`ModeDriver`], for the two-party session and
/// the mesh alike; `mode` is the tag its handshake carries.
pub(crate) struct HorizontalDriver<'a> {
    pub points: &'a [Point],
    pub mode: Mode,
}

impl ModeDriver for HorizontalDriver<'_> {
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError> {
        validate_complete_records(cfg, self.points)
    }

    fn profile(&self) -> HandshakeProfile {
        complete_records_profile(self.mode, self.points)
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
        let (cfg, points, me) = (node.cfg, self.points, node.me);
        // Keyed by the ordered pair: the querier's resolve and the
        // responder's serve of it walk one path, so the sharing backend's
        // tape draws stay correlated across the pair.
        let pair = |querier: usize, responder: usize| {
            let mesh = ctx.narrow("mesh");
            mesh.at(querier as u64).at(responder as u64).narrow("hdp")
        };
        let mut peer_counts = vec![0usize; points.len()];
        let resolve = |link: &mut Link<'_, C>, log: &mut SessionLog| {
            let (id, pair_ctx) = (link.id, pair(me, link.id));
            let label = |idx: usize| format!("own#{idx}/peer#{id}");
            let (chan, session) = (&mut *link.chan, &link.session);
            let counts = resolve_peer_density(chan, cfg, session, points, &pair_ctx, log, label)?;
            for (total, count) in peer_counts.iter_mut().zip(counts) {
                *total += count;
            }
            Ok(())
        };
        let serve = |link: &mut Link<'_, C>, log: &mut SessionLog| {
            let (chan, session) = (&mut *link.chan, &link.session);
            serve_peer_density(chan, cfg, session, points, &pair(link.id, me), log)
        };
        run_phases(node, log, resolve, serve)?;
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
    use crate::session::{
        run_data_pair, run_mesh_local, run_participants, Participant, PartyData, SessionMeta,
        WIRE_VERSION,
    };
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan_with_external_density, eval, DbscanParams, Pruning};
    use ppds_smc::{BackendKind, Party};

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

    #[test]
    fn mesh_matches_external_density_reference() {
        let cases = [
            // Three parties.
            (
                77,
                cfg(4, 3, 40),
                vec![
                    pts(&[&[0, 0], &[10, 10], &[30, -30]]),
                    pts(&[&[1, 0], &[11, 10]]),
                    pts(&[&[0, 1], &[10, 11], &[-30, 30]]),
                ],
            ),
            // Each party alone sees nothing; four together make every
            // point core.
            (
                9,
                cfg(4, 4, 5),
                vec![
                    pts(&[&[0, 0]]),
                    pts(&[&[1, 0]]),
                    pts(&[&[0, 1]]),
                    pts(&[&[1, 1]]),
                ],
            ),
            // Uneven sizes, one party empty.
            (
                13,
                cfg(4, 3, 12),
                vec![
                    pts(&[&[0, 0], &[1, 0], &[0, 1], &[9, 9]]),
                    pts(&[&[1, 1]]),
                    pts(&[]),
                ],
            ),
        ];
        for (seed, c, parties) in &cases {
            let outcomes = run_mesh_local(c, parties, *seed).unwrap();
            assert_eq!(outcomes.len(), parties.len());
            for (i, outcome) in outcomes.iter().enumerate() {
                let others: Vec<Point> = parties
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .flat_map(|(_, p)| p.iter().cloned())
                    .collect();
                let reference = dbscan_with_external_density(&parties[i], &others, c.params);
                assert_eq!(
                    outcome.output.clustering, reference,
                    "seed {seed}, party {i}"
                );
                if parties.len() == 4 {
                    assert_eq!((reference.num_clusters, reference.noise_count()), (1, 0));
                }
            }
        }
    }

    /// `K = 2` is the two-party session: the horizontal mode run pairwise
    /// and the mesh of two, from the same seeds, agree on everything — the
    /// traffic each way included — but the mode tag.
    #[test]
    fn two_party_case_equals_bilateral_protocol() {
        let alice = pts(&[&[0, 0], &[1, 1], &[20, 20]]);
        let bob = pts(&[&[0, 1], &[19, 20]]);
        for backend in [BackendKind::Paillier, BackendKind::Sharing] {
            for pruning in [Pruning::Exhaustive, Pruning::Grid { coarseness: 1 }] {
                let c = cfg(4, 3, 30).with_backend(backend).with_pruning(pruning);
                for seed in [5, 6] {
                    let party = |role, points: &[Point], seed| {
                        let data = PartyData::Horizontal(points.to_vec());
                        Participant::new(c).role(role).data(data).seed(seed)
                    };
                    let (a, b) = run_participants(
                        party(Party::Alice, &alice, seed),
                        party(Party::Bob, &bob, seed + 1),
                    )
                    .unwrap();
                    let mesh = run_mesh_local(&c, &[alice.clone(), bob.clone()], seed).unwrap();
                    for (two, mesh) in [a, b].iter().zip(&mesh) {
                        let name = format!("{}/{pruning:?}/seed {seed}", backend.name());
                        let (two_out, mesh_out) = (&two.output, &mesh.output);
                        assert_eq!(two_out.clustering, mesh_out.clustering, "{name}");
                        assert_eq!(two_out.leakage, mesh_out.leakage, "{name}");
                        assert_eq!(two_out.yao, mesh_out.yao, "{name}");
                        assert_eq!(two_out.sharing, mesh_out.sharing, "{name}");
                        assert_eq!(two_out.traffic, mesh_out.traffic, "{name}");
                        assert_eq!(mesh.meta.mode, Mode::Multiparty, "{name}");
                        let mode = Mode::Horizontal;
                        assert_eq!(
                            two.meta,
                            SessionMeta {
                                mode,
                                ..mesh.meta.clone()
                            },
                            "{name}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mesh_leakage_and_metadata_are_per_peer() {
        let parties = vec![pts(&[&[0, 0], &[5, 5]]), pts(&[&[1, 0]]), pts(&[&[0, 1]])];
        let outcomes = run_mesh_local(&cfg(4, 2, 10), &parties, 11).unwrap();
        // Party 0 queried two peers: one count per own point and peer.
        let queries: Vec<String> = outcomes[0]
            .output
            .leakage
            .events()
            .iter()
            .filter_map(|event| match event {
                LeakageEvent::NeighborCount { query, .. } => Some(query.clone()),
                _ => None,
            })
            .collect();
        let want = [
            "own#0/peer#1",
            "own#1/peer#1",
            "own#0/peer#2",
            "own#1/peer#2",
        ];
        assert_eq!(queries, want);
        let meta = &outcomes[0].meta;
        assert_eq!(
            (meta.mode, meta.wire_version),
            (Mode::Multiparty, WIRE_VERSION)
        );
        let peers: Vec<(usize, usize)> = meta.peers.iter().map(|p| (p.id, p.n)).collect();
        assert_eq!(peers, [(1, 1), (2, 1)]);
    }
}
