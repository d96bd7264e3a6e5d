//! The attribute-split DBSCAN driver (§4.3, §4.4): arbitrarily partitioned
//! data, and vertically partitioned data as its special case.
//!
//! "Since the arbitrarily partitioned data could be decomposed into
//! horizontally and vertically partitioned data, …, the algorithm for the
//! arbitrarily partitioned data is the combination of algorithms for
//! horizontally and vertically partitioned data." — concretely: both
//! parties hold a stake in *every* record, so they run one shared DBSCAN
//! loop in lockstep and both learn every label (§3.3), while each distance
//! test uses the ADP decomposition ([`crate::adp`]) that routes split
//! attribute pairs through the Multiplication Protocol. A vertical party
//! ([`crate::vertical`]) enters here with a column-ownership view: no
//! attribute is split, so every test is protocol VDP's one comparison.
//!
//! Runs through the shared [`crate::session`] dispatch; the
//! [`crate::session::Participant`] builder is the supported entry point.

use crate::adp::{adp_compare, PairView};
use crate::config::ProtocolConfig;
use crate::domain::split_domain;
use crate::error::CoreError;
use crate::prune::{pair_chunks, BandCandidates, BandTable, BAND_UNOWNED};
use crate::resolve::resolve;
use crate::session::{HandshakeProfile, Mode, ModeContext, ModeDriver, Node, Session, SessionLog};
use ppds_dbscan::{dbscan_over_graph, Clustering, NeighborGraph};
use ppds_smc::{LeakageEvent, LeakageLog, Party, ProtocolContext};
use ppds_transport::Channel;
use std::fmt::Write as _;

/// One party's view of an attribute-split session: `dim` cells a record in
/// one row-major buffer, `Some(value)` exactly at the cells it owns. The
/// peer owns the rest, so ownership — which is public — is read off the
/// view alone, and both parties read the same.
pub(crate) struct CellView {
    records: usize,
    dim: usize,
    cells: Vec<Option<i64>>,
}

impl CellView {
    /// # Panics
    /// Panics unless `cells` is whole rows of `dim ≥ 1` cells (the drivers
    /// validate the dimension before they get here).
    pub(crate) fn new(dim: usize, cells: Vec<Option<i64>>) -> Self {
        assert!(
            dim > 0 && cells.len().is_multiple_of(dim),
            "cells of whole rows"
        );
        let records = cells.len() / dim;
        CellView {
            records,
            dim,
            cells,
        }
    }

    fn row(&self, x: usize) -> &[Option<i64>] {
        &self.cells[x * self.dim..(x + 1) * self.dim]
    }

    /// Per column: whether this party owns a cell of it, and whether the
    /// peer does.
    fn column_owners(&self) -> Vec<(bool, bool)> {
        let mut owners = vec![(false, false); self.dim];
        for x in 0..self.records {
            for (owner, cell) in owners.iter_mut().zip(self.row(x)) {
                owner.0 |= cell.is_some();
                owner.1 |= cell.is_none();
            }
        }
        owners
    }
}

/// Runs one attribute-split session over `view` — the execute body of
/// both the arbitrary and the vertical driver — in two phases. The
/// comparison domain holds every pair whose split-attribute count is at
/// most the view's `H`, its columns with more than one owner (`H = 0` for
/// vertical data).
///
/// **Resolve** is the only wire phase: every unordered candidate pair gets
/// one joint `dist² ≤ Eps²` bit, [`crate::prune::PAIR_CHUNK`] pairs per
/// [`adp_compare`] slice, one chunk at a time and chunk `c` keyed by
/// `ctx.narrow("resolve").at(c)` (without grid pruning all `n(n−1)/2`
/// pairs stream). A batching backend spends O(1) wire rounds per chunk.
/// DBSCAN region-queries every record and both parties learn every bit it
/// asks for, so the disclosed set is exactly "one bit per candidate pair"
/// whatever the visiting order: resolving it up front discloses nothing
/// the per-query exchange of Algorithms 5/6 did not.
///
/// **Expand** is Algorithm 5/6 verbatim over the resolved graph — same
/// visiting order, one `NeighborCount` disclosure per region query — and
/// touches no wire.
pub(crate) fn execute_split<C: Channel>(
    chan: &mut C,
    mctx: &ModeContext<'_>,
    view: CellView,
    ctx: &ProtocolContext,
    log: &mut SessionLog,
) -> Result<Clustering, CoreError> {
    let (cfg, n) = (mctx.cfg, view.records);
    let records = u32::try_from(n)
        .map_err(|_| CoreError::config("lockstep modes index records with 32 bits"))?;
    let owners = view.column_owners();
    let split = owners.iter().filter(|&&(mine, theirs)| mine && theirs);
    let domain = split_domain(cfg, view.dim, 0, split.count());
    let backend = mctx.backend(view.dim);
    // With grid pruning, both sides publish coarse bands at the cells they
    // own and derive identical candidate pairs over the merged table.
    let bands = band_oracle(chan, mctx, &view, &owners, &mut log.leakage)?;
    let (ledger, sharing) = (&mut log.ledger, &mut log.sharing);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    resolve(
        chan,
        1,
        pair_chunks(records, bands.as_ref()),
        |_, _, pairs| Ok(pairs),
        |chan, chunk, pairs| {
            let views = pairs.iter().map(|&(x, y)| PairView {
                x: view.row(x as usize),
                y: view.row(y as usize),
            });
            let (role, cctx) = (mctx.role, ctx.narrow("resolve").at(chunk));
            Ok(adp_compare(
                chan, cfg, &backend, role, views, &domain, &cctx, ledger, sharing,
            )?)
        },
        Vec::len,
        |pairs, within| {
            let matched = pairs.iter().zip(&within).filter(|(_, &w)| w);
            edges.extend(matched.map(|(&p, _)| p));
        },
    )?;
    // Expand needs the graph alone: the view, the band index and the edge
    // list go before the ledger and the labels are allocated.
    drop((view, bands));
    let graph = NeighborGraph::from_edges(n, &edges);
    drop(edges);
    // One ledger entry per region query: every record once, and once more
    // whenever a later cluster starts on a core point next to it. Room for
    // two each holds the whole ledger in one block that never moves on
    // ordinary data (the E13 inputs re-query 3-4 % of the records).
    let leakage = &mut log.leakage;
    leakage.reserve(2 * n);
    Ok(dbscan_over_graph(&graph, cfg.params, |x, count| {
        let digits = x.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut query = String::with_capacity("record#".len() + digits);
        write!(query, "record#{x}").expect("writing to a String cannot fail");
        leakage.record(LeakageEvent::NeighborCount {
            query,
            count: count as u64,
        });
    }))
}

/// Builds the merged-band candidate oracle for a grid-pruned session
/// (`None` when the config is exhaustive). Each party sends the coarse
/// bands of the columns it owns a cell of, with the
/// [`crate::prune::BAND_UNOWNED`] sentinel at the cells of them it does
/// not own — a vertical party its own columns, whole. The peer owns
/// exactly the cells this party does not, so the received table must carry
/// a real band at each of them and the sentinel everywhere else (validated
/// against that, and ledgered as a `pruning_bands` leakage event). The
/// tables merge owner-wise in the agreed (Alice, Bob) order, so both
/// parties index the identical merged band table.
fn band_oracle<C: Channel>(
    chan: &mut C,
    mctx: &ModeContext<'_>,
    view: &CellView,
    owners: &[(bool, bool)],
    leakage: &mut LeakageLog,
) -> Result<Option<BandCandidates>, CoreError> {
    let cfg = mctx.cfg;
    let ppds_dbscan::Pruning::Grid { coarseness } = cfg.pruning else {
        return Ok(None);
    };
    let width = ppds_dbscan::band_width(cfg.params.eps_sq, coarseness);
    let my_columns: Vec<usize> = (0..view.dim).filter(|&k| owners[k].0).collect();
    let peer_columns: Vec<usize> = (0..view.dim).filter(|&k| owners[k].1).collect();
    let mine = BandTable::collect(
        my_columns.len(),
        (0..view.records).map(|x| {
            let row = view.row(x);
            let band = |&k: &usize| row[k].map_or(BAND_UNOWNED, |v| v.div_euclid(width));
            my_columns.iter().map(band)
        }),
    );
    let theirs = crate::prune::exchange_band_tables(
        chan,
        &mine,
        peer_columns.len(),
        |x, at| view.row(x)[peer_columns[at]].is_some(),
        width,
        cfg.coord_bound,
        leakage,
    )?;
    let (mine, theirs) = ((&mine, &my_columns[..]), (&theirs, &peer_columns[..]));
    let merged = match mctx.role {
        Party::Alice => BandTable::merge(view.dim, mine, theirs)?,
        Party::Bob => BandTable::merge(view.dim, theirs, mine)?,
    };
    Ok(Some(BandCandidates::new(merged, width)))
}

/// The arbitrary-partition protocol as a [`ModeDriver`]. `values` is this
/// party's view: per record, `Some(value)` exactly at the attributes it
/// owns (see [`crate::partition::ArbitraryPartition`]).
pub(crate) struct ArbitraryDriver<'a> {
    pub values: &'a [Vec<Option<i64>>],
}

impl ArbitraryDriver<'_> {
    fn dim(&self) -> usize {
        self.values.first().map_or(1, Vec::len)
    }
}

impl ModeDriver for ArbitraryDriver<'_> {
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError> {
        let dim = self.dim();
        cfg.validate(dim)?;
        for (i, row) in self.values.iter().enumerate() {
            if row.len() != dim {
                return Err(CoreError::config(format!(
                    "record {i} has {} attributes, expected {dim}",
                    row.len()
                )));
            }
            for value in row.iter().flatten() {
                if value.abs() > cfg.coord_bound {
                    return Err(CoreError::config(format!(
                        "record {i} exceeds the agreed coordinate bound {}",
                        cfg.coord_bound
                    )));
                }
            }
        }
        Ok(())
    }

    fn profile(&self) -> HandshakeProfile {
        HandshakeProfile {
            mode: Mode::Arbitrary,
            n: self.values.len(),
            dim: self.dim(),
        }
    }

    fn check_session(&self, _cfg: &ProtocolConfig, session: &Session) -> Result<(), CoreError> {
        if session.peer_n != self.values.len() {
            return Err(CoreError::HandshakeMismatch {
                field: "record_count",
                ours: self.values.len() as u64,
                theirs: session.peer_n as u64,
            });
        }
        Ok(())
    }

    fn execute<C: Channel>(
        &self,
        node: &mut Node<'_, C>,
        ctx: &ProtocolContext,
        log: &mut SessionLog,
    ) -> Result<Clustering, CoreError> {
        let (chan, mctx) = node.pair()?;
        let view = CellView::new(self.dim(), self.values.concat());
        execute_split(chan, &mctx, view, ctx, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PartyOutput;
    use crate::partition::{ArbitraryPartition, Owner, VerticalPartition};
    use crate::session::{run_data_pair, PartyData};
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan, DbscanParams, Point, Pruning};
    use ppds_smc::BackendKind;

    fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
    }

    fn arbitrary(
        c: &ProtocolConfig,
        part: &ArbitraryPartition,
        sa: u64,
        sb: u64,
    ) -> (PartyOutput, PartyOutput) {
        let (alice, bob) = (part.alice_values.clone(), part.bob_values.clone());
        let views = (PartyData::Arbitrary(alice), PartyData::Arbitrary(bob));
        run_data_pair(c, views.0, views.1, rng(sa), rng(sb)).unwrap()
    }

    fn records() -> Vec<Point> {
        vec![
            Point::new(vec![0, 0, 1]),
            Point::new(vec![1, 0, 0]),
            Point::new(vec![0, 1, 1]),
            Point::new(vec![8, 8, 8]),
            Point::new(vec![9, 8, 8]),
            Point::new(vec![8, 9, 9]),
            Point::new(vec![-9, 9, 0]),
        ]
    }

    #[test]
    fn random_partitions_match_plaintext() {
        let recs = records();
        let c = cfg(4, 3, 12);
        let reference = dbscan(&recs, c.params);
        let mut r = rng(42);
        for trial in 0..3 {
            let part = ArbitraryPartition::random(&mut r, &recs);
            let (a_out, b_out) = arbitrary(&c, &part, 100 + trial, 200 + trial);
            assert_eq!(a_out.clustering, reference, "trial {trial}: alice");
            assert_eq!(b_out.clustering, reference, "trial {trial}: bob");
        }
    }

    /// Vertical data is arbitrary data whose every column has one owner:
    /// run as either mode, a vertical split is the same session — labels,
    /// leakage, both ledgers, and the bytes, frames and messages of each
    /// direction — on both backends, exhaustive or grid-pruned.
    #[test]
    fn vertical_ownership_pattern_reduces_to_vertical_protocol_result() {
        for seed in [1, 2, 3] {
            let recs = ppds_dbscan::datagen::uniform_points(&mut rng(seed), 16, 3, 4);
            let vertical = VerticalPartition::split(&recs, 1);
            let ownership = vec![vec![Owner::Alice, Owner::Bob, Owner::Bob]; recs.len()];
            let columns = ArbitraryPartition::from_records(&recs, ownership);
            for backend in [BackendKind::Paillier, BackendKind::Sharing] {
                for pruning in [Pruning::Exhaustive, Pruning::Grid { coarseness: 1 }] {
                    let c = cfg(9, 3, 4).with_backend(backend).with_pruning(pruning);
                    let run = |alice, bob| {
                        run_data_pair(&c, alice, bob, rng(seed + 10), rng(seed + 20)).unwrap()
                    };
                    let (va, vb) = run(
                        PartyData::Vertical(vertical.alice.clone()),
                        PartyData::Vertical(vertical.bob.clone()),
                    );
                    let (aa, ab) = run(
                        PartyData::Arbitrary(columns.alice_values.clone()),
                        PartyData::Arbitrary(columns.bob_values.clone()),
                    );
                    // Theorem 10: each region query reveals one neighbor
                    // count per party, and no core-point bit.
                    let counts = |o: &PartyOutput| o.leakage.count_kind("neighbor_count");
                    assert!(counts(&va) > 0 && counts(&va) == counts(&vb));
                    for (side, v, a) in [("alice", va, aa), ("bob", vb, ab)] {
                        assert_eq!(v.leakage.count_kind("core_point_bit"), 0);
                        let name = format!("seed {seed}/{backend:?}/{pruning:?}/{side}");
                        assert_eq!(v.clustering, dbscan(&recs, c.params), "{name}");
                        assert_eq!(v.clustering, a.clustering, "{name}: labels");
                        assert_eq!(v.leakage, a.leakage, "{name}: LeakageLog");
                        assert_eq!(v.yao, a.yao, "{name}: YaoLedger");
                        assert_eq!(v.sharing, a.sharing, "{name}: SharingLedger");
                        assert_eq!(v.traffic, a.traffic, "{name}: traffic");
                    }
                }
            }
        }
    }

    #[test]
    fn row_wise_ownership_works_like_horizontal_rows() {
        // Whole records owned by alternating parties — the "horizontal rows
        // inside the arbitrary model" case from Figure 4.
        let recs = records();
        let ownership: Vec<Vec<Owner>> = (0..recs.len())
            .map(|i| vec![if i % 2 == 0 { Owner::Alice } else { Owner::Bob }; 3])
            .collect();
        let part = ArbitraryPartition::from_records(&recs, ownership);
        let c = cfg(4, 3, 12);
        let (a_out, b_out) = arbitrary(&c, &part, 3, 4);
        // Unlike the horizontal protocol, the arbitrary driver runs the
        // joint lockstep loop, so the result matches centralized DBSCAN.
        assert_eq!(a_out.clustering, dbscan(&recs, c.params));
        assert_eq!(b_out.clustering, a_out.clustering);
    }

    #[test]
    fn leakage_is_neighbor_counts_like_vertical() {
        let recs = records();
        let part = ArbitraryPartition::random(&mut rng(5), &recs);
        let c = cfg(4, 3, 12);
        let (a_out, _) = arbitrary(&c, &part, 6, 7);
        assert!(a_out.leakage.count_kind("neighbor_count") > 0);
        assert_eq!(a_out.leakage.count_kind("core_point_bit"), 0);
    }
}
