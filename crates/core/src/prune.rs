//! Candidate-pruning plumbing shared by the five mode drivers.
//!
//! This module is the **only** place the exhaustive all-pairs fallback is
//! enumerated; the drivers ask it for candidate sets (or, in the lockstep
//! modes, for the stream of unordered candidate pairs) and never enumerate
//! `0..n` themselves. Two disclosure shapes exist (see DESIGN.md §15):
//!
//! * **Query cell exchange** (horizontal / enhanced / multiparty): ahead of
//!   its secure comparisons the querier sends the coarse band cell of every
//!   own point, [`PAIR_CHUNK`] cells a frame; the responder answers each
//!   frame with the candidate cardinalities and later serves only
//!   candidates. Responder logs one [`LeakageEvent::PruningCellDisclosed`]
//!   per cell, querier one [`LeakageEvent::PruningCandidateCount`] per
//!   count.
//! * **Up-front band tables** (vertical / arbitrary): both parties publish
//!   the coarse band of every cell they own, column by column over the
//!   columns they own a cell of, merged owner-wise in the agreed (Alice,
//!   Bob) order so both sides derive identical candidate sets. Each side
//!   logs one [`LeakageEvent::PruningBandsDisclosed`] for the table it
//!   received.
//!
//! Soundness of the band criterion (no true neighbor is ever pruned) is
//! proved in [`ppds_dbscan::pruning`]; everything here is exact, so pruned
//! runs produce byte-identical clustering labels.

use crate::config::ProtocolConfig;
use crate::error::CoreError;
use crate::hdp::ServedSets;
use ppds_dbscan::index::{GridIndex, LinearIndex, NeighborIndex};
use ppds_dbscan::pruning::{band_width, bands_intersect, CandidateScratch, CoarseGrid, Pruning};
use ppds_dbscan::Point;
use ppds_smc::{LeakageEvent, LeakageLog};
use ppds_transport::wire::{Reader, WireDecode, WireEncode};
use ppds_transport::Channel;

/// The per-party local region-query index: an ε-grid when pruning is on
/// (and the data admits one), the exhaustive linear scan otherwise. Local
/// queries never cross the wire, so this swap is leakage-free.
pub(crate) fn local_index<'a>(
    points: &'a [Point],
    eps_sq: u64,
    pruning: Pruning,
) -> Box<dyn NeighborIndex + 'a> {
    if pruning.is_grid() && !points.is_empty() && eps_sq > 0 {
        Box::new(GridIndex::new(points, eps_sq))
    } else {
        Box::new(LinearIndex::new(points, eps_sq))
    }
}

/// Pairs per resolve exchange, in every mode: large enough that per-frame
/// cost and the small-batch penalty of the comparison backends vanish,
/// small enough that one chunk's buffers stay in cache and a 10⁴-record
/// lockstep session still reports progress ~25 times.
pub(crate) const PAIR_CHUNK: usize = 1024;

/// Every unordered candidate pair `(x, y)`, `x < y`, of an `n`-record
/// lockstep session, ascending in `(x, y)`, in chunks of [`PAIR_CHUNK`]
/// (the last one shorter), cut as they are pulled — the full list
/// (`n(n−1)/2` pairs when exhaustive) is never materialized. `bands = None`
/// is the exhaustive generator. Both parties derive the identical stream
/// because it is a function of agreed data only.
pub(crate) fn pair_chunks(
    n: u32,
    bands: Option<&BandCandidates>,
) -> impl Iterator<Item = Vec<(u32, u32)>> + '_ {
    let mut scratch = CandidateScratch::default();
    // Record `x`'s partners from its `skip`-th on are still to come.
    let (mut x, mut skip) = (0u32, 0usize);
    std::iter::from_fn(move || {
        let mut chunk = Vec::with_capacity(PAIR_CHUNK);
        while x < n && chunk.len() < PAIR_CHUNK {
            let room = PAIR_CHUNK - chunk.len();
            let left = match bands {
                Some(bands) => {
                    let above = &bands.partners_above(x, &mut scratch)[skip..];
                    chunk.extend(above.iter().take(room).map(|&y| (x, y as u32)));
                    above.len()
                }
                None => {
                    let above = x + 1 + skip as u32..n;
                    chunk.extend(above.clone().take(room).map(|y| (x, y)));
                    above.len()
                }
            };
            if left > room {
                skip += room;
            } else {
                (x, skip) = (x + 1, 0);
            }
        }
        (!chunk.is_empty()).then_some(chunk)
    })
}

/// The band width of a grid-pruned point-holding exchange with a peer that
/// holds `responder_n` points; `None` when every responder point is served
/// to every query — the exhaustive policy, or nothing to prune.
fn cell_exchange_width(cfg: &ProtocolConfig, responder_n: usize) -> Option<i64> {
    match cfg.pruning {
        Pruning::Grid { coarseness } if responder_n > 0 => {
            Some(band_width(cfg.params.eps_sq, coarseness))
        }
        _ => None,
    }
}

/// Querier half of the query cell exchange: discloses the coarse cell of
/// every query, [`PAIR_CHUNK`] cells a frame, and learns how many of the
/// peer's `peer_n` records survive each band filter. Returns one served
/// count per query — `peer_n` each, with nothing sent, when the session
/// does not prune.
///
/// The counts are peer-controlled and later size the comparison buffers,
/// so each frame must answer exactly the cells it follows and no count may
/// exceed `peer_n`, the handshake's ceiling.
pub(crate) fn query_candidate_counts<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    queries: &[Point],
    peer_n: usize,
    leakage: &mut LeakageLog,
    label: impl Fn(usize) -> String,
) -> Result<Vec<usize>, CoreError> {
    let Some(width) = cell_exchange_width(cfg, peer_n) else {
        return Ok(vec![peer_n; queries.len()]);
    };
    let dim = queries.first().map_or(0, Point::dim);
    let mut served = Vec::with_capacity(queries.len());
    for block in queries.chunks(PAIR_CHUNK) {
        chan.send(&BandTable::collect(
            dim,
            block
                .iter()
                .map(|p| p.coords().iter().map(|&c| c.div_euclid(width))),
        ))?;
        let counts: Vec<u64> = chan.recv()?;
        if counts.len() != block.len() {
            return Err(CoreError::mismatch(format!(
                "peer answered {} query cells with {} candidate counts",
                block.len(),
                counts.len()
            )));
        }
        for count in counts {
            if count > peer_n as u64 {
                return Err(CoreError::mismatch(format!(
                    "peer candidate count {count} exceeds its {peer_n} records"
                )));
            }
            leakage.record(LeakageEvent::PruningCandidateCount {
                query: label(served.len()),
                count,
            });
            served.push(count as usize);
        }
    }
    Ok(served)
}

/// The candidate generator behind the point-holding modes: what a
/// responder serves to each of the peer's queries, by query index.
pub(crate) enum CandidateSets {
    /// Every own record to every query — the exhaustive generator.
    All(usize),
    /// The records band-adjacent to each query's disclosed cell.
    Banded {
        grid: CoarseGrid,
        /// The cell frames as received: query `q` is row `q % PAIR_CHUNK`
        /// of frame `q / PAIR_CHUNK`.
        cells: Vec<BandTable>,
        /// `counts[q]` candidates were announced for query `q`.
        counts: Vec<usize>,
        scratch: CandidateScratch,
    },
}

impl ServedSets for CandidateSets {
    fn count(&self, query: usize) -> usize {
        match self {
            CandidateSets::All(n) => *n,
            CandidateSets::Banded { counts, .. } => counts[query],
        }
    }

    fn extend(&mut self, query: usize, out: &mut Vec<usize>) {
        match self {
            CandidateSets::All(n) => out.extend(0..*n),
            CandidateSets::Banded {
                grid,
                cells,
                scratch,
                ..
            } => {
                let cell = cells[query / PAIR_CHUNK].row(query % PAIR_CHUNK);
                out.extend_from_slice(grid.candidates_with(cell, scratch));
            }
        }
    }
}

/// Responder half of the query cell exchange for `queries` peer queries
/// over `points`: learns each query's coarse cell, answers every frame
/// with the candidate cardinalities, and returns the generator the secure
/// phase serves from — [`CandidateSets::All`], with nothing received, when
/// the session does not prune.
///
/// Cells are peer-controlled and index the coarse grid, so every frame is
/// validated as it is decoded ([`recv_band_table`]): exactly the cells the
/// handshake's record count leaves outstanding, each `dim` bands long,
/// every band one a coordinate within `coord_bound` can quantize to.
pub(crate) fn serve_candidate_counts<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    points: &[Point],
    queries: usize,
    leakage: &mut LeakageLog,
) -> Result<CandidateSets, CoreError> {
    let Some(width) = cell_exchange_width(cfg, points.len()) else {
        return Ok(CandidateSets::All(points.len()));
    };
    let grid = CoarseGrid::from_points(points, width);
    let mut scratch = CandidateScratch::default();
    // Both grow with the frames that arrive, never with the record count
    // the peer's handshake merely announced.
    let (mut cells, mut counts) = (Vec::new(), Vec::new());
    while counts.len() < queries {
        let table = recv_band_table(
            chan,
            PAIR_CHUNK.min(queries - counts.len()),
            points[0].dim(),
            |_, _| false,
            width,
            cfg.coord_bound,
        )?;
        let first = counts.len();
        for cell in table.rows() {
            leakage.record(LeakageEvent::PruningCellDisclosed {
                query: format!("peer-query#{}", counts.len()),
                cell: cell.to_vec(),
            });
            counts.push(grid.candidates_with(cell, &mut scratch).len());
        }
        let reply: Vec<u64> = counts[first..].iter().map(|&c| c as u64).collect();
        chan.send(&reply)?;
        cells.push(table);
    }
    Ok(CandidateSets::Banded {
        grid,
        cells,
        counts,
        scratch,
    })
}

/// A per-record band table in one row-major buffer: record `x` has the
/// bands `row(x)`, `dim` of them. On the wire it is the `Vec<Vec<i64>>` it
/// replaces (a row count, then each row behind its own length), so a peer
/// can still send a ragged one; in memory it is one allocation, not one
/// per record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BandTable {
    records: usize,
    dim: usize,
    bands: Vec<i64>,
}

impl BandTable {
    /// Collects `rows`, each of which must yield exactly `dim` bands.
    ///
    /// # Panics
    /// Panics on a row of another length (the drivers validate their
    /// inputs' dimensions before they get here).
    pub(crate) fn collect<R: IntoIterator<Item = i64>>(
        dim: usize,
        rows: impl ExactSizeIterator<Item = R>,
    ) -> Self {
        let records = rows.len();
        let mut bands = Vec::with_capacity(records * dim);
        for (x, row) in rows.enumerate() {
            bands.extend(row);
            assert_eq!(bands.len(), (x + 1) * dim, "band row {x} is not {dim} long");
        }
        BandTable {
            records,
            dim,
            bands,
        }
    }

    fn row(&self, x: usize) -> &[i64] {
        &self.bands[x * self.dim..(x + 1) * self.dim]
    }

    fn rows(&self) -> impl ExactSizeIterator<Item = &[i64]> {
        (0..self.records).map(|x| self.row(x))
    }

    /// The merged table of an attribute-split session over `dim`
    /// attributes, taking the owner's band in each cell. Each side's table
    /// carries the bands of the columns it lists, with [`BAND_UNOWNED`] at
    /// the cells of them it does not own. Expressed over (Alice's, Bob's) —
    /// not (mine, theirs) — so both parties derive byte-identical merged
    /// tables, and a cell both parties claim, or neither does, is a typed
    /// error instead of a mid-protocol desync.
    pub(crate) fn merge(
        dim: usize,
        alice: (&BandTable, &[usize]),
        bob: (&BandTable, &[usize]),
    ) -> Result<BandTable, CoreError> {
        let records = alice.0.records;
        let mut bands = vec![BAND_UNOWNED; records * dim];
        for (table, columns) in [alice, bob] {
            if (table.records, table.dim) != (records, columns.len()) {
                return Err(CoreError::mismatch(format!(
                    "band table of {} records × {} columns, expected {records} × {}",
                    table.records,
                    table.dim,
                    columns.len()
                )));
            }
            for (x, row) in table.rows().enumerate() {
                for (&band, &k) in row.iter().zip(columns) {
                    let cell = &mut bands[x * dim + k];
                    if band != BAND_UNOWNED {
                        if *cell != BAND_UNOWNED {
                            return Err(CoreError::mismatch(format!(
                                "record {x} has an attribute band both parties claim"
                            )));
                        }
                        *cell = band;
                    }
                }
            }
        }
        if let Some(at) = bands.iter().position(|&band| band == BAND_UNOWNED) {
            return Err(CoreError::mismatch(format!(
                "record {} has an attribute band owned by neither party",
                at / dim
            )));
        }
        Ok(BandTable {
            records,
            dim,
            bands,
        })
    }

    /// Number of distinct rows.
    fn distinct_rows(&self) -> u64 {
        let mut order: Vec<usize> = (0..self.records).collect();
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        order.dedup_by(|a, b| self.row(*a) == self.row(*b));
        order.len() as u64
    }
}

impl WireEncode for BandTable {
    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(4 + self.records * (4 + 8 * self.dim));
        (self.records as u32).encode(out);
        for row in self.rows() {
            (self.dim as u32).encode(out);
            row.iter().for_each(|band| band.encode(out));
        }
    }
}

/// Exchanges per-record band tables (both sides send before either
/// receives, like the `Hello` frames) and ledgers the received table as
/// one [`LeakageEvent::PruningBandsDisclosed`]. The peer's table has
/// `peer_dim` bands a row, and [`BAND_UNOWNED`] exactly where
/// `unowned(record, band)` says the peer owns no cell.
pub(crate) fn exchange_band_tables<C: Channel>(
    chan: &mut C,
    mine: &BandTable,
    peer_dim: usize,
    unowned: impl Fn(usize, usize) -> bool,
    width: i64,
    coord_bound: i64,
    leakage: &mut LeakageLog,
) -> Result<BandTable, CoreError> {
    chan.send(mine)?;
    let theirs = recv_band_table(chan, mine.records, peer_dim, unowned, width, coord_bound)?;
    leakage.record(LeakageEvent::PruningBandsDisclosed {
        records: theirs.records as u64,
        band_width: width,
        distinct: theirs.distinct_rows(),
    });
    Ok(theirs)
}

/// Receives one band table of exactly `records` rows.
///
/// The table is peer-controlled, so it is checked as it is decoded: one
/// row per record, every row `dim` bands long (what the handshake agreed),
/// [`BAND_UNOWNED`] exactly where `unowned(record, band)` and elsewhere a
/// band a coordinate within `coord_bound` can quantize to. Downstream grid
/// code may then index rows and step to adjacent bands without overflow.
fn recv_band_table<C: Channel>(
    chan: &mut C,
    records: usize,
    dim: usize,
    unowned: impl Fn(usize, usize) -> bool,
    width: i64,
    coord_bound: i64,
) -> Result<BandTable, CoreError> {
    let payload = chan.recv_bytes()?;
    let mut reader = Reader::new(&payload);
    let announced = u32::decode(&mut reader)? as usize;
    if announced != records {
        return Err(CoreError::mismatch(format!(
            "peer band table covers {announced} records, expected {records}"
        )));
    }
    // floor(−coord_bound / width) can sit one band below −(coord_bound / width).
    let max_band = (coord_bound / width + 1).unsigned_abs();
    // Never more room than the bands that can have arrived, whatever
    // dimension the peer's handshake announced.
    let mut bands = Vec::with_capacity(records.saturating_mul(dim).min(payload.len() / 8));
    for x in 0..records {
        let len = u32::decode(&mut reader)? as usize;
        if len != dim {
            return Err(CoreError::mismatch(format!(
                "peer band row {x} has {len} bands, handshake agreed {dim}"
            )));
        }
        for at in 0..dim {
            let band = i64::decode(&mut reader)?;
            if unowned(x, at) {
                if band != BAND_UNOWNED {
                    return Err(CoreError::mismatch(format!(
                        "peer band {band} at record {x} claims a cell the peer does not own"
                    )));
                }
            } else if band.unsigned_abs() > max_band {
                return Err(CoreError::mismatch(format!(
                    "peer band {band} at record {x} lies outside the agreed coordinate bound"
                )));
            }
            bands.push(band);
        }
    }
    if !reader.is_empty() {
        return Err(CoreError::mismatch(format!(
            "peer band table carries {} trailing bytes",
            reader.remaining()
        )));
    }
    Ok(BandTable {
        records,
        dim,
        bands,
    })
}

/// Sentinel band value for the cells of a sent column that the sender does
/// not own (the arbitrary partitioning). Real bands can never take this
/// value: a coordinate would need to be below `-band_width · 2^62`, far
/// outside any admissible `coord_bound`.
pub(crate) const BAND_UNOWNED: i64 = i64::MIN;

/// Candidate oracle over a merged/joined band table: for record `x`, every
/// *later* record whose band is adjacent-or-equal, in ascending order. Band
/// adjacency is symmetric and a record is never its own partner, so
/// "later" enumerates each unordered candidate pair exactly once. This is
/// what replaces the all-pairs loop in the lockstep modes.
pub(crate) struct BandCandidates {
    table: BandTable,
    grid: CoarseGrid,
}

impl BandCandidates {
    /// Indexes the merged band table.
    pub(crate) fn new(table: BandTable, width: i64) -> Self {
        let grid = CoarseGrid::from_cells(&table.bands, table.dim, width);
        BandCandidates { table, grid }
    }

    /// Candidate partners `y > x` of record `x`, ascending.
    fn partners_above<'s>(&self, x: u32, scratch: &'s mut CandidateScratch) -> &'s [usize] {
        let cell = self.table.row(x as usize);
        let hits = self.grid.candidates_with(cell, scratch);
        let above = &hits[hits.partition_point(|&y| y <= x as usize)..];
        debug_assert!(
            above
                .iter()
                .all(|&y| bands_intersect(self.table.row(y), cell)),
            "band adjacency must be symmetric: the x < y filter relies on it"
        );
        above
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppds_dbscan::pruning::band_width;

    #[test]
    fn local_index_picks_grid_exactly_when_it_can() {
        let points = vec![Point::new(vec![0, 0]), Point::new(vec![3, 4])];
        let grid = Pruning::Grid { coarseness: 1 };
        assert_eq!(
            local_index(&points, 25, grid).region_query(&points[0]),
            vec![0, 1]
        );
        assert_eq!(
            local_index(&points, 25, Pruning::Exhaustive).region_query(&points[0]),
            vec![0, 1]
        );
        // Degenerate shapes fall back to the linear scan instead of
        // tripping the GridIndex constructor panics.
        assert!(local_index(&[], 25, grid).is_empty());
        assert_eq!(
            local_index(&points, 0, grid).region_query(&points[0]),
            vec![0]
        );
    }

    fn table(dim: usize, rows: &[&[i64]]) -> BandTable {
        BandTable::collect(dim, rows.iter().map(|row| row.iter().copied()))
    }

    #[test]
    fn merge_takes_the_owner_side_and_rejects_orphans() {
        let s = BAND_UNOWNED;
        // Alice owns column 0 and record 1's column 2; Bob the rest.
        let alice = table(2, &[&[1, s], &[3, 6]]);
        let bob = table(2, &[&[2, 5], &[4, s]]);
        let merged = BandTable::merge(3, (&alice, &[0, 2]), (&bob, &[1, 2])).unwrap();
        assert_eq!(merged, table(3, &[&[1, 2, 5], &[3, 4, 6]]));
        assert_eq!(merged.distinct_rows(), 2);
        assert_eq!(table(1, &[&[4], &[5], &[4]]).distinct_rows(), 2);
        // Vertical: whole columns, Alice's first.
        let (alice, bob) = (table(1, &[&[1], &[2]]), table(1, &[&[7], &[9]]));
        let joined = BandTable::merge(2, (&alice, &[0]), (&bob, &[1])).unwrap();
        assert_eq!(joined, table(2, &[&[1, 7], &[2, 9]]));
        // A cell both claim, a cell neither claims, and tables of the
        // wrong shape are typed errors.
        let refused = [
            BandTable::merge(2, (&alice, &[0]), (&bob, &[0])),
            BandTable::merge(2, (&table(1, &[&[1], &[s]]), &[0]), (&bob, &[1])),
            BandTable::merge(3, (&alice, &[0]), (&bob, &[1])),
            BandTable::merge(2, (&table(1, &[&[1]]), &[0]), (&bob, &[1])),
            BandTable::merge(2, (&alice, &[0, 1]), (&bob, &[1])),
        ];
        for merged in refused {
            assert!(matches!(merged, Err(CoreError::Mismatch(_))), "{merged:?}");
        }
    }

    #[test]
    fn a_band_table_travels_as_the_nested_vector_it_replaces() {
        let rows = vec![vec![3i64, -1], vec![0, i64::MIN]];
        let flat = table(2, &[&rows[0], &rows[1]]);
        assert_eq!(flat.encode_to_vec(), rows.encode_to_vec());
        assert_eq!(
            table(1, &[]).encode_to_vec(),
            Vec::<Vec<i64>>::new().encode_to_vec()
        );
    }

    #[test]
    fn band_pairs_are_unordered_sorted_and_exclude_self() {
        let w = band_width(4, 1);
        let oracle = BandCandidates::new(table(1, &[&[0], &[0], &[1], &[9]]), w);
        assert_eq!(
            pair_chunks(4, Some(&oracle)).collect::<Vec<_>>(),
            vec![vec![(0, 1), (0, 2), (1, 2)]],
            "record 3 is nobody's candidate"
        );
    }

    #[test]
    fn exhaustive_pairs_cover_the_triangle_in_full_chunks_plus_a_tail() {
        for n in [0u32, 1, 2, 3, 46, 47] {
            let chunks: Vec<_> = pair_chunks(n, None).collect();
            let total = (n as usize * n.saturating_sub(1) as usize) / 2;
            assert_eq!(chunks.iter().map(Vec::len).sum::<usize>(), total, "n={n}");
            assert_eq!(chunks.len(), total.div_ceil(PAIR_CHUNK), "n={n}");
            assert!(chunks.iter().rev().skip(1).all(|c| c.len() == PAIR_CHUNK));
            let flat: Vec<(u32, u32)> = chunks.concat();
            assert!(flat.iter().all(|&(x, y)| x < y && y < n));
            assert!(
                flat.windows(2).all(|w| w[0] < w[1]),
                "ascending, no repeats"
            );
        }
    }

    fn grid_cfg() -> ProtocolConfig {
        use ppds_dbscan::DbscanParams;
        let params = DbscanParams {
            eps_sq: 8,
            min_pts: 2,
        };
        ProtocolConfig::new(params, 10).with_pruning(Pruning::Grid { coarseness: 1 })
    }

    #[test]
    fn cell_exchange_counts_the_band_adjacent_records_frame_by_frame() {
        use ppds_transport::duplex;
        // More queries than one frame holds, over a handful of records.
        let queries: Vec<Point> = (0..PAIR_CHUNK as i64 + 3)
            .map(|i| Point::new(vec![i % 21 - 10, (i / 21) % 21 - 10]))
            .collect();
        let records = vec![
            Point::new(vec![0, 0]),
            Point::new(vec![2, 2]),
            Point::new(vec![-10, 9]),
        ];
        let cfg = grid_cfg();
        let width = band_width(8, 1);
        let cell = |p: &Point| ppds_dbscan::coarse_cell(p.coords(), width);
        let want: Vec<usize> = queries
            .iter()
            .map(|q| {
                records
                    .iter()
                    .filter(|r| bands_intersect(&cell(q), &cell(r)))
                    .count()
            })
            .collect();
        let (mut qchan, mut rchan) = duplex();
        let (served, mut sets, q_log, r_log) = std::thread::scope(|scope| {
            let querier = scope.spawn(|| {
                let mut log = LeakageLog::new();
                let served = query_candidate_counts(&mut qchan, &cfg, &queries, 3, &mut log, |q| {
                    format!("own#{q}")
                });
                (served.unwrap(), log, qchan.metrics())
            });
            let mut r_log = LeakageLog::new();
            let sets =
                serve_candidate_counts(&mut rchan, &cfg, &records, queries.len(), &mut r_log)
                    .unwrap();
            let (served, q_log, traffic) = querier.join().unwrap();
            assert_eq!(
                traffic.total_rounds(),
                4,
                "two cell frames, two count frames"
            );
            (served, sets, q_log, r_log)
        });
        assert_eq!(served, want);
        assert_eq!(q_log.count_kind("pruning_candidates"), queries.len());
        assert_eq!(r_log.count_kind("pruning_cell"), queries.len());
        let mut out = Vec::new();
        for (q, query) in queries.iter().enumerate() {
            assert_eq!(sets.count(q), want[q]);
            out.clear();
            sets.extend(q, &mut out);
            let scan: Vec<usize> = (0..records.len())
                .filter(|&r| bands_intersect(&cell(query), &cell(&records[r])))
                .collect();
            assert_eq!(out, scan, "query {q}");
        }
    }

    #[test]
    fn unpruned_and_empty_responders_exchange_no_cells() {
        use ppds_transport::duplex;
        let points = vec![Point::new(vec![0, 0]), Point::new(vec![5, 5])];
        let exhaustive = grid_cfg().with_pruning(Pruning::Exhaustive);
        // (config, responder records): nothing to prune either way.
        for (cfg, records) in [(exhaustive, points.clone()), (grid_cfg(), Vec::new())] {
            let (mut a, mut b) = duplex();
            let mut log = LeakageLog::new();
            let served =
                query_candidate_counts(&mut a, &cfg, &points, records.len(), &mut log, |q| {
                    q.to_string()
                })
                .unwrap();
            assert_eq!(served, vec![records.len(); 2]);
            // An announced query count the responder could never allocate
            // for: nothing here is sized by it.
            let mut sets =
                serve_candidate_counts(&mut b, &cfg, &records, usize::MAX, &mut log).unwrap();
            assert_eq!(sets.count(usize::MAX - 1), records.len());
            let mut out = Vec::new();
            sets.extend(7, &mut out);
            assert_eq!(out, (0..records.len()).collect::<Vec<_>>());
            assert!(log.is_empty());
            assert_eq!(a.metrics().total_rounds() + b.metrics().total_rounds(), 0);
        }
    }

    #[test]
    fn hostile_candidate_counts_and_cells_are_typed_errors() {
        use ppds_transport::duplex;
        let cfg = grid_cfg();
        let points = vec![Point::new(vec![0, 0]), Point::new(vec![5, 5])];
        // Counts frames a querier of two points must refuse from a peer
        // that announced three records.
        for counts in [vec![1u64], vec![1, 1, 1], vec![1, 4], vec![u64::MAX, 0]] {
            let (mut a, mut b) = duplex();
            b.send(&counts).unwrap();
            let mut log = LeakageLog::new();
            let err = query_candidate_counts(&mut a, &cfg, &points, 3, &mut log, |q| q.to_string())
                .unwrap_err();
            assert!(matches!(err, CoreError::Mismatch(_)), "{counts:?}: {err}");
        }
        // Cell frames a responder expecting two 2-band cells must refuse:
        // bands run −4..=3 at coord_bound 10, width 3.
        let cases: Vec<Vec<Vec<i64>>> = vec![
            vec![vec![0, 0]],                    // short frame
            vec![vec![0, 0]; 3],                 // long frame
            vec![vec![0, 0], vec![0]],           // short cell
            vec![vec![0, 0], vec![0, 0, 0]],     // long cell
            vec![vec![0, 0], vec![i64::MAX, 0]], // overflow bait
            vec![vec![i64::MIN, 0], vec![0, 0]], // overflow bait
            vec![vec![0, 0], vec![0, 5]],        // just out of range
        ];
        for cells in cases {
            let (mut a, mut b) = duplex();
            b.send(&cells).unwrap();
            let mut log = LeakageLog::new();
            let err = serve_candidate_counts(&mut a, &cfg, &points, 2, &mut log)
                .err()
                .expect("refused");
            assert!(matches!(err, CoreError::Mismatch(_)), "{cells:?}: {err}");
            assert!(log.is_empty(), "a rejected frame is not ledgered");
        }
    }

    #[test]
    fn hostile_band_tables_are_typed_errors() {
        use ppds_transport::duplex;
        let mine = table(1, &[&[0], &[1]]);
        // The peer owns no cell of record 1: its one band there is owed
        // the sentinel. coord_bound 10, width 3.
        let unowned = |x: usize, _: usize| x == 1;
        let s = BAND_UNOWNED;
        let cases: Vec<Vec<Vec<i64>>> = vec![
            vec![vec![0]],                   // short table
            vec![vec![0], vec![s], vec![2]], // long table
            vec![vec![0], vec![s, 2]],       // ragged row
            vec![vec![0], vec![]],           // empty row
            vec![vec![i64::MAX], vec![s]],   // overflow bait
            vec![vec![5], vec![s]],          // just out of range
            vec![vec![s], vec![s]],          // sentinel where a band is owed
            vec![vec![0], vec![1]],          // band where the sentinel is owed
        ];
        for theirs in cases {
            let (mut a, mut b) = duplex();
            b.send(&theirs).unwrap();
            let mut leakage = LeakageLog::new();
            let err =
                exchange_band_tables(&mut a, &mine, 1, unowned, 3, 10, &mut leakage).unwrap_err();
            assert!(matches!(err, CoreError::Mismatch(_)), "{theirs:?}: {err}");
            assert!(leakage.is_empty(), "a rejected table is not ledgered");
        }
        // The extreme legal band and the owed sentinel pass.
        let (mut a, mut b) = duplex();
        b.send(&vec![vec![-4i64], vec![s]]).unwrap();
        let mut leakage = LeakageLog::new();
        let theirs = exchange_band_tables(&mut a, &mine, 1, unowned, 3, 10, &mut leakage).unwrap();
        assert_eq!(theirs, table(1, &[&[-4], &[s]]));
        assert_eq!(leakage.count_kind("pruning_bands"), 1);
    }
}
