#![warn(missing_docs)]

//! Shared utilities for the experiment harness and the Criterion benches:
//! canonical workloads, table formatting, and small measurement helpers.
//!
//! The experiment binary (`cargo run -p ppds-bench --bin experiments --release`)
//! prints every experiment table; the Criterion benches (`cargo bench`)
//! cover the primitive costs.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{run_data_pair, PartyData};
use ppdbscan::{ArbitraryPartition, CoreError, PartyOutput, VerticalPartition};
use ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds_dbscan::{DbscanParams, Point, Quantizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic RNG for every experiment (results must be reproducible).
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// [`run_data_pair`] over horizontally partitioned complete records.
pub fn run_horizontal_pair(
    cfg: &ProtocolConfig,
    alice: &[Point],
    bob: &[Point],
    rng_a: StdRng,
    rng_b: StdRng,
) -> Result<(PartyOutput, PartyOutput), CoreError> {
    run_data_pair(
        cfg,
        PartyData::Horizontal(alice.to_vec()),
        PartyData::Horizontal(bob.to_vec()),
        rng_a,
        rng_b,
    )
}

/// [`run_data_pair`] on the enhanced (count-free) protocol.
pub fn run_enhanced_pair(
    cfg: &ProtocolConfig,
    alice: &[Point],
    bob: &[Point],
    rng_a: StdRng,
    rng_b: StdRng,
) -> Result<(PartyOutput, PartyOutput), CoreError> {
    run_data_pair(
        cfg,
        PartyData::Enhanced(alice.to_vec()),
        PartyData::Enhanced(bob.to_vec()),
        rng_a,
        rng_b,
    )
}

/// [`run_data_pair`] on a vertical partition.
pub fn run_vertical_pair(
    cfg: &ProtocolConfig,
    partition: &VerticalPartition,
    rng_a: StdRng,
    rng_b: StdRng,
) -> Result<(PartyOutput, PartyOutput), CoreError> {
    run_data_pair(
        cfg,
        PartyData::Vertical(partition.alice.clone()),
        PartyData::Vertical(partition.bob.clone()),
        rng_a,
        rng_b,
    )
}

/// [`run_data_pair`] on an arbitrary partition.
pub fn run_arbitrary_pair(
    cfg: &ProtocolConfig,
    partition: &ArbitraryPartition,
    rng_a: StdRng,
    rng_b: StdRng,
) -> Result<(PartyOutput, PartyOutput), CoreError> {
    run_data_pair(
        cfg,
        PartyData::Arbitrary(partition.alice_values.clone()),
        PartyData::Arbitrary(partition.bob_values.clone()),
        rng_a,
        rng_b,
    )
}

/// The canonical experiment workload: `n` lattice points in `dim`
/// dimensions forming three Gaussian blobs, split evenly between the
/// parties, with parameters that keep every blob clusterable.
pub struct Workload {
    /// All generated points (Alice's and Bob's interleaved).
    pub all: Vec<Point>,
    /// Alice's horizontal share (even indices).
    pub alice: Vec<Point>,
    /// Bob's horizontal share (odd indices).
    pub bob: Vec<Point>,
    /// Protocol configuration matched to the generator's lattice bound.
    pub cfg: ProtocolConfig,
}

/// Builds the canonical blob workload.
pub fn blob_workload(n: usize, dim: usize, seed: u64) -> Workload {
    let quantizer = Quantizer::new(1.0, 60);
    let per_cluster = (n / 3).max(1);
    let (all, _) = standard_blobs(&mut rng(seed), per_cluster, 3, dim, quantizer);
    let (alice, bob) = split_alternating(&all);
    let cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 81,
            min_pts: 3,
        },
        60,
    );
    Workload {
        all,
        alice,
        bob,
        cfg,
    }
}

/// Prints a markdown table row, padding each cell to its column width.
pub fn print_row(widths: &[usize], cells: &[String]) {
    let mut line = String::from("|");
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!(" {cell:>width$} |"));
    }
    println!("{line}");
}

/// Prints a markdown table header plus separator.
pub fn print_header(widths: &[usize], names: &[&str]) {
    print_row(
        widths,
        &names.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let mut line = String::from("|");
    for width in widths {
        line.push_str(&format!("{}|", "-".repeat(width + 2)));
    }
    println!("{line}");
}

/// Formats a byte count with a binary-prefix unit.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_split() {
        let w1 = blob_workload(30, 2, 7);
        let w2 = blob_workload(30, 2, 7);
        assert_eq!(w1.all, w2.all);
        assert_eq!(w1.alice.len() + w1.bob.len(), w1.all.len());
        assert!(w1.alice.len().abs_diff(w1.bob.len()) <= 1);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MiB");
    }
}
