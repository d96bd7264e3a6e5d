//! Basic vs enhanced horizontal protocol: same clustering, strictly less
//! leakage (Theorem 9 vs Theorem 11).
//!
//! The basic protocol tells the querying party *how many* peer points sit
//! in each neighborhood; the enhanced protocol of Section 5 reveals only
//! the core-point bit, at the price of a masked dot product and a
//! k-th-smallest selection over shared distances per engaged test — extra
//! comparisons, and extra rounds only for the steps of the longest
//! selection in a chunk of tests, not per test (DESIGN.md §7). This example
//! runs both on identical data and prints the leakage ledgers and costs
//! side by side.
//!
//! Run with: `cargo run --release --example enhanced_privacy`

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{run_participants, Participant, PartyData};
use ppdbscan::PartyOutput;
use ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds_dbscan::{DbscanParams, Point, Quantizer};
use ppds_smc::kth::SelectionMethod;
use ppds_smc::Party;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs one horizontal-family protocol (basic or enhanced, per `data`)
/// through the session API with the given seeds.
fn run(
    cfg: ProtocolConfig,
    data: fn(Vec<Point>) -> PartyData,
    alice: &[Point],
    bob: &[Point],
    seeds: (u64, u64),
) -> (PartyOutput, PartyOutput) {
    let (a, b) = run_participants(
        Participant::new(cfg)
            .role(Party::Alice)
            .data(data(alice.to_vec()))
            .seed(seeds.0),
        Participant::new(cfg)
            .role(Party::Bob)
            .data(data(bob.to_vec()))
            .seed(seeds.1),
    )
    .expect("protocol run");
    (a.output, b.output)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let quantizer = Quantizer::new(1.0, 60);
    let (points, _) = standard_blobs(&mut rng, 20, 2, 2, quantizer);
    let (alice, bob) = split_alternating(&points);

    let params = DbscanParams {
        eps_sq: 100,
        min_pts: 4,
    };
    let cfg = ProtocolConfig::new(params, 60);

    println!("Running the BASIC horizontal protocol (Algorithms 3 & 4)…");
    let (basic_a, _) = run(cfg, PartyData::Horizontal, &alice, &bob, (1, 2));

    println!("Running the ENHANCED protocol (Algorithms 7 & 8, repeated-min)…");
    let (enh_a, enh_b) = run(cfg, PartyData::Enhanced, &alice, &bob, (3, 4));

    println!("Running the ENHANCED protocol again with quickselect…");
    let mut cfg_qs = cfg;
    cfg_qs.selection = SelectionMethod::QuickSelect;
    let (qs_a, _) = run(cfg_qs, PartyData::Enhanced, &alice, &bob, (5, 6));

    assert_eq!(basic_a.clustering, enh_a.clustering);
    assert_eq!(basic_a.clustering, qs_a.clustering);
    println!(
        "\n✔ All three runs produce the identical clustering \
         ({} clusters, {} noise).\n",
        basic_a.clustering.num_clusters,
        basic_a.clustering.noise_count()
    );

    println!("Alice's leakage ledger (what she learned beyond her output):");
    println!(
        "  basic:    {:>3} neighbor COUNTS revealed (Theorem 9)",
        basic_a.leakage.count_kind("neighbor_count")
    );
    println!(
        "  enhanced: {:>3} neighbor counts, {:>3} core-point BITS (Theorem 11)",
        enh_a.leakage.count_kind("neighbor_count"),
        enh_a.leakage.count_kind("core_point_bit")
    );
    println!("\nWhat Bob learned while responding:");
    println!(
        "  enhanced: {} selection ranks (k = MinPts − |Alice's local neighbors|), \
         {} own-point match flags",
        enh_b.leakage.count_kind("threshold_rank"),
        enh_b.leakage.count_kind("own_point_matched")
    );

    println!("\nThe privacy is not free — cost comparison for Alice's endpoint:");
    for (name, out) in [
        ("basic", &basic_a),
        ("enhanced/rep-min", &enh_a),
        ("enhanced/quickselect", &qs_a),
    ] {
        println!(
            "  {name:<22} {:>8.1} KiB wire, {:>6} Yao comparisons, modeled {:>10.1} KiB faithful-Yao",
            out.traffic.total_bytes() as f64 / 1024.0,
            out.yao.comparisons,
            out.yao.modeled_bytes as f64 / 1024.0
        );
    }
    println!(
        "\nThe enhanced protocol's comparisons run on secret-shared distances with \
         2^{} statistical masking, so its modeled Yao domain is far larger — the \
         trade-off the `experiments` binary quantifies (`-- e3`).",
        cfg.mask_bits
    );
}
