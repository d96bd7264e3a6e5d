//! The vertically partitioned DBSCAN driver (Algorithms 5 & 6).
//!
//! Both parties hold an attribute slice of *every* record: Alice the first
//! columns, Bob the rest. That is arbitrarily partitioned data whose every
//! column has one owner, so after its own handshake a vertical party builds
//! that column-ownership view and runs the arbitrary driver's path
//! ([`crate::arbitrary`]): one shared DBSCAN loop in lockstep over the
//! common record index space, each `dist ≤ Eps` test a single protocol-VDP
//! comparison (no attribute is split, so nothing is multiplied) whose
//! outcome both sides learn. Because the control flow is a deterministic
//! function of those shared outcomes, the two parties compute
//! byte-identical clusterings without exchanging any labels — and that
//! clustering is *exactly* the single-party DBSCAN of the joined records
//! (verified label-for-label by the integration tests).
//!
//! Runs through the shared [`crate::session`] dispatch; the
//! [`crate::session::Participant`] builder is the supported entry point.

use crate::arbitrary::{execute_split, CellView};
use crate::config::ProtocolConfig;
use crate::error::CoreError;
use crate::session::{HandshakeProfile, Mode, ModeDriver, Node, Session, SessionLog};
use ppds_dbscan::{Clustering, Point};
use ppds_smc::{Party, ProtocolContext};
use ppds_transport::Channel;

/// The most cells a vertical session's joined view may hold (128 MiB of
/// `Option<i64>`). The peer's slice width comes from its `Hello`, and no
/// other check bounds it, so the view is sized only after this one.
const MAX_VIEW_CELLS: usize = 1 << 23;

/// The vertical protocol as a [`ModeDriver`]. The parties own different
/// attribute slices, so their dimensions legitimately differ; the joined
/// dimension is only known (and validated) after the handshake.
pub(crate) struct VerticalDriver<'a> {
    pub attrs: &'a [Point],
}

impl VerticalDriver<'_> {
    fn dim(&self) -> usize {
        self.attrs.first().map_or(1, Point::dim)
    }
}

impl ModeDriver for VerticalDriver<'_> {
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError> {
        crate::horizontal::check_points(cfg, self.attrs)
    }

    fn profile(&self) -> HandshakeProfile {
        HandshakeProfile {
            mode: Mode::Vertical,
            n: self.attrs.len(),
            dim: self.dim(),
        }
    }

    fn check_session(&self, cfg: &ProtocolConfig, session: &Session) -> Result<(), CoreError> {
        if session.peer_n != self.attrs.len() {
            return Err(CoreError::HandshakeMismatch {
                field: "record_count",
                ours: self.attrs.len() as u64,
                theirs: session.peer_n as u64,
            });
        }
        // Both sides compute the same joined shape, so both refuse it.
        let joined = (self.dim().checked_add(session.peer_dim)).filter(|&dim| {
            (dim.checked_mul(self.attrs.len().max(1))).is_some_and(|cells| cells <= MAX_VIEW_CELLS)
        });
        let Some(dim) = joined else {
            return Err(CoreError::config(format!(
                "the peer's {}-attribute slice takes the joined view past {MAX_VIEW_CELLS} cells",
                session.peer_dim
            )));
        };
        cfg.validate(dim)
    }

    fn execute<C: Channel>(
        &self,
        node: &mut Node<'_, C>,
        ctx: &ProtocolContext,
        log: &mut SessionLog,
    ) -> Result<Clustering, CoreError> {
        let (chan, mctx) = node.pair()?;
        // Alice's columns first, then Bob's; the peer's cells are `None`.
        let peer_dim = mctx.session.peer_dim;
        let dim = self.dim() + peer_dim;
        let mut cells = Vec::with_capacity(self.attrs.len() * dim);
        for attrs in self.attrs {
            let mine = attrs.coords().iter().map(|&v| Some(v));
            let theirs = std::iter::repeat_n(None, peer_dim);
            match mctx.role {
                Party::Alice => cells.extend(mine.chain(theirs)),
                Party::Bob => cells.extend(theirs.chain(mine)),
            }
        }
        execute_split(chan, &mctx, CellView::new(dim, cells), ctx, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PartyOutput;
    use crate::partition::VerticalPartition;
    use crate::session::{run_data_pair, Participant, PartyData};
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan, eval, DbscanParams};

    fn records(coords: &[&[i64]]) -> Vec<Point> {
        coords.iter().map(|c| Point::from(*c)).collect()
    }

    fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
    }

    fn vertical(
        c: &ProtocolConfig,
        part: &VerticalPartition,
        sa: u64,
        sb: u64,
    ) -> (PartyOutput, PartyOutput) {
        let (alice, bob) = (part.alice.clone(), part.bob.clone());
        let views = (PartyData::Vertical(alice), PartyData::Vertical(bob));
        run_data_pair(c, views.0, views.1, rng(sa), rng(sb)).unwrap()
    }

    #[test]
    fn matches_plaintext_dbscan_exactly() {
        let recs = records(&[
            &[0, 0, 1, 0],
            &[1, 0, 0, 0],
            &[0, 1, 1, 1],
            &[10, 10, 10, 10],
            &[11, 10, 10, 10],
            &[10, 11, 10, 11],
            &[-20, 5, 3, -9],
        ]);
        let c = cfg(6, 3, 25);
        for split in [1usize, 2, 3] {
            let part = VerticalPartition::split(&recs, split);
            let (a_out, b_out) = vertical(&c, &part, 1, 2);
            let reference = dbscan(&recs, c.params);
            assert_eq!(a_out.clustering, reference, "split {split}: alice");
            assert_eq!(b_out.clustering, reference, "split {split}: bob");
            assert!(eval::same_partition(&a_out.clustering, &b_out.clustering));
        }
    }

    #[test]
    fn yao_backend_matches_ideal() {
        let recs = records(&[&[0, 0], &[1, 1], &[9, 9], &[1, 0]]);
        let part = VerticalPartition::split(&recs, 1);
        let ideal = cfg(2, 2, 10);
        let yao = ProtocolConfig::new_with_yao(ideal.params, 10);
        let (ia, _) = vertical(&ideal, &part, 3, 4);
        let (ya, _) = vertical(&yao, &part, 5, 6);
        assert_eq!(ia.clustering, ya.clustering);
    }

    #[test]
    fn record_count_mismatch_rejected_with_typed_error() {
        let recs = records(&[&[0, 0], &[1, 1]]);
        let part = VerticalPartition::split(&recs, 1);
        let c = cfg(2, 2, 10);
        let result = crate::driver::run_pair(
            |mut chan| {
                Participant::new(c)
                    .role(Party::Alice)
                    .data(PartyData::Vertical(part.alice.clone()))
                    .seed(9)
                    .run(&mut chan)
            },
            |mut chan| {
                // Bob drops a record.
                Participant::new(c)
                    .role(Party::Bob)
                    .data(PartyData::Vertical(part.bob[..1].to_vec()))
                    .seed(10)
                    .run(&mut chan)
            },
        );
        match result.unwrap_err() {
            CoreError::HandshakeMismatch { field, .. } => assert_eq!(field, "record_count"),
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn traffic_is_quadratic_in_n() {
        // §4.3.2: O(c2·n0·n²) — doubling n should roughly quadruple bytes.
        let make = |n: usize| {
            let recs: Vec<Point> = (0..n)
                .map(|i| Point::new(vec![(i as i64) * 3, (i as i64) % 5]))
                .collect();
            VerticalPartition::split(&recs, 1)
        };
        let c = cfg(4, 2, 50);
        let (a_small, _) = vertical(&c, &make(6), 11, 12);
        let (a_big, _) = vertical(&c, &make(12), 13, 14);
        let ratio = a_big.yao.comparisons as f64 / a_small.yao.comparisons.max(1) as f64;
        assert!(
            ratio > 2.5,
            "comparisons should grow superlinearly, ratio = {ratio}"
        );
    }
}
