#![warn(missing_docs)]

//! Plaintext DBSCAN and everything needed to evaluate the private protocols
//! against it.
//!
//! This crate is the paper's *baseline substrate*:
//!
//! * [`algo::dbscan`] — the classic single-party algorithm of Ester,
//!   Kriegel, Sander & Xu (KDD '96), structured exactly like the paper's
//!   Algorithms 5 & 6 so the privacy-preserving vertical protocol can be
//!   validated label-for-label against it;
//! * [`algo::dbscan_with_external_density`] — the *horizontal reference
//!   semantics*: density counts include a second (remote) point set but
//!   cluster expansion only traverses the local one. This is precisely what
//!   the paper's Algorithms 3 & 4 compute per party, and it deliberately
//!   differs from centralized DBSCAN when clusters are bridged only by the
//!   other party's points (measured by experiment E4);
//! * [`index`] — linear-scan and uniform-grid region-query indexes;
//! * [`datagen`] — synthetic workloads standing in for the private hospital
//!   databases the paper motivates (Gaussian blobs, two moons, a cluster
//!   enclosed by a ring, uniform noise), all quantized to a bounded integer
//!   lattice because the SMC comparison domain must be bounded;
//! * [`eval`] — partition-agreement metrics (exact match, Rand index,
//!   purity) used by the correctness experiments.
//!
//! Coordinates are `i64` lattice values throughout; [`point::Quantizer`]
//! maps real-valued data onto the lattice with an explicit scale.

pub mod algo;
pub mod datagen;
pub mod eval;
pub mod index;
pub mod kdist;
pub mod point;
pub mod pruning;

pub use algo::{
    dbscan, dbscan_over_graph, dbscan_with_core_test, dbscan_with_external_density, Clustering,
    DbscanParams, Label, NeighborGraph,
};
pub use point::{dist_sq, Point, Quantizer};
pub use pruning::{
    band_width, bands_intersect, coarse_cell, CandidateScratch, CoarseGrid, Pruning,
    PRUNING_DISCIPLINE,
};
