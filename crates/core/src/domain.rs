//! Yao comparison domains for each distance protocol.
//!
//! Algorithm 1 compares integers in `[1, n0]`; each protocol's operands are
//! signed quantities with ranges derived from the public lattice bound `C`,
//! the dimension `m`, and `Eps²`. The derivations below are the basis of
//! each protocol's `O(c2·n0·…)` communication term, so they are computed
//! once, exactly, and tested against brute-force enumeration.

use crate::config::ProtocolConfig;
use ppds_bigint::BigUint;
use ppds_dbscan::Point;
use ppds_paillier::SlotLayout;
use ppds_smc::compare::ComparisonDomain;
use ppds_smc::ResponsePacking;

fn mc2(dim: usize, coord_bound: i64) -> i64 {
    let c2 = (coord_bound as i128) * (coord_bound as i128);
    i64::try_from(dim as i128 * c2).expect("m·C² fits i64 for validated configs")
}

/// `Σx_k²` of a point on a validated lattice, as the point-holding drivers
/// hand it to the backend.
pub(crate) fn lattice_norm_sq(point: &Point) -> i64 {
    i64::try_from(point.norm_sq()).expect("Σx² fits i64 on a validated lattice")
}

/// Domain for protocol HDP's final comparison (§4.2).
///
/// Alice's operand is `i = ΣA_k² ∈ [0, mC²]`. Bob's operand is
/// `j = Eps² − ΣB_k² + 2·⟨A, B⟩ ∈ [Eps² − 3mC², Eps² + 2mC²]`
/// (the inner product of lattice points is bounded by `±mC²`).
pub fn hdp_domain(cfg: &ProtocolConfig, dim: usize) -> ComparisonDomain {
    let m = mc2(dim, cfg.coord_bound);
    let eps = cfg.params.eps_sq as i64;
    ComparisonDomain::new((eps - 3 * m).min(0), (eps + 2 * m).max(m))
}

/// Domain for protocol VDP's comparison (§4.3).
///
/// Alice's operand is her local squared-delta sum `α ∈ [0, mC²·4]`
/// (per-attribute deltas span `2C`, so each squared term is ≤ `4C²`);
/// Bob's is `Eps² − β` with `β` bounded the same way.
pub fn vdp_domain(cfg: &ProtocolConfig, dim: usize) -> ComparisonDomain {
    let four_m = 4 * mc2(dim, cfg.coord_bound);
    let eps = cfg.params.eps_sq as i64;
    ComparisonDomain::new((eps - four_m).min(0), eps.max(four_m))
}

/// Domain for the arbitrary-partition comparison (§4.4).
///
/// Alice: `i = V_A + Σ_H x_k² ∈ [0, 4mC² + mC²]`.
/// Bob: `j = Eps² − V_B − Σ_H y_k² + 2·cross ∈ [Eps² − 7mC², Eps² + 2mC²]`.
pub fn adp_domain(cfg: &ProtocolConfig, dim: usize) -> ComparisonDomain {
    let m = mc2(dim, cfg.coord_bound);
    let eps = cfg.params.eps_sq as i64;
    ComparisonDomain::new((eps - 7 * m).min(0), (eps + 2 * m).max(5 * m))
}

/// Domain for the enhanced protocol's share comparisons (§5).
///
/// Share differences satisfy `|u_a − u_b| ≤ Dmax + 2V` and the threshold
/// comparison operands satisfy `|·| ≤ Dmax + V + Eps²`; one symmetric
/// domain covers both.
pub fn enhanced_share_domain(cfg: &ProtocolConfig, dim: usize) -> ComparisonDomain {
    let d_max = cfg.max_dist_sq(dim) as i64;
    let v = cfg.enhanced_mask_bound(dim) as i64;
    let eps = cfg.params.eps_sq as i64;
    ComparisonDomain::symmetric(d_max + 2 * v + eps + 1)
}

/// Builds a [`ResponsePacking`] whose slots hold `value + offset` for
/// signed values of magnitude at most `offset`: slot width
/// `bits(2·offset) + 1` (the carry guard), capacity from `key_bits`.
fn response_packing(key_bits: usize, offset: BigUint) -> Option<ResponsePacking> {
    let max_slot = &offset << 1usize;
    let layout = SlotLayout::new(key_bits, max_slot.bit_length() + 1)?;
    Some(ResponsePacking { layout, offset })
}

/// Packing for Multiplication Protocol responses (`ProtocolConfig::packing`
/// on the HDP/ADP legs): each slot holds `x·y + r + offset` with
/// `|x·y| ≤ C²` and `r` one of a group's zero-sum blinding terms. The
/// first `dim − 1` terms are bounded by
/// [`ProtocolConfig::mul_mask_bound`], but the *closing* term balances
/// their sum and can reach `(dim − 1)·mask_bound`, so the offset budgets
/// `C² + dim·mask_bound` (covering both shapes with a term to spare).
/// `None` when `key_bits` cannot fit one slot —
/// [`ProtocolConfig::validate`] rejects such configs up front.
pub fn mul_response_packing(cfg: &ProtocolConfig, dim: usize) -> Option<ResponsePacking> {
    let c2 = BigUint::from_u128((cfg.coord_bound as u128) * (cfg.coord_bound as u128));
    let mask_budget = &cfg.mul_mask_bound() * dim.max(1) as u64;
    response_packing(cfg.key_bits, &c2 + &mask_budget)
}

/// Packing for the enhanced protocol's masked-distance responses: each
/// slot holds `dist² + v + offset` with `dist² ≤ Dmax` and `|v| ≤ V`
/// ([`ProtocolConfig::enhanced_mask_bound`]), so `offset = Dmax + V` —
/// derived on both sides from the public config and dimension alone.
pub fn dot_response_packing(cfg: &ProtocolConfig, dim: usize) -> Option<ResponsePacking> {
    let d_max = cfg.max_dist_sq(dim.max(1));
    let v = cfg.enhanced_mask_bound(dim.max(1));
    response_packing(
        cfg.key_bits,
        &BigUint::from_u64(d_max) + &BigUint::from_u64(v),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppds_dbscan::{dist_sq, DbscanParams, Point};

    fn cfg(eps_sq: u64, coord_bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts: 3 }, coord_bound)
    }

    /// Enumerates every lattice point pair in low dimension and checks the
    /// protocol operands stay inside the advertised domains.
    #[test]
    fn hdp_operands_always_in_domain() {
        let c = cfg(9, 3);
        let domain = hdp_domain(&c, 2);
        for ax in -3i64..=3 {
            for ay in -3i64..=3 {
                for bx in -3i64..=3 {
                    for by in -3i64..=3 {
                        let a = Point::new(vec![ax, ay]);
                        let b = Point::new(vec![bx, by]);
                        let i = a.norm_sq() as i64;
                        let ip = ax * bx + ay * by;
                        let j = 9i64 - b.norm_sq() as i64 + 2 * ip;
                        assert!(i >= domain.lo && i <= domain.hi, "i = {i}");
                        assert!(j >= domain.lo && j <= domain.hi, "j = {j}");
                        // And the comparison is the right predicate:
                        assert_eq!(i <= j, dist_sq(&a, &b) <= 9, "{a:?} {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn vdp_operands_always_in_domain() {
        let c = cfg(4, 2);
        let domain = vdp_domain(&c, 2);
        // Vertical split of 2-D records: Alice owns attr 0, Bob attr 1.
        for xa in -2i64..=2 {
            for xb in -2i64..=2 {
                for ya in -2i64..=2 {
                    for yb in -2i64..=2 {
                        let alpha = (xa - ya) * (xa - ya);
                        let beta = (xb - yb) * (xb - yb);
                        let j = 4 - beta;
                        assert!(alpha >= domain.lo && alpha <= domain.hi);
                        assert!(j >= domain.lo && j <= domain.hi);
                        assert_eq!(
                            alpha <= j,
                            (alpha + beta) as u64 <= 4,
                            "alpha={alpha} beta={beta}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adp_operands_always_in_domain() {
        // 2 attributes, attr 0 split Alice(x)/Bob(y), attr 1 both Alice.
        let c = cfg(4, 2);
        let domain = adp_domain(&c, 2);
        for x0a in -2i64..=2 {
            for y0b in -2i64..=2 {
                for va in 0i64..=16 {
                    // va = Σ (x-y)² over Alice-only attrs, max (2C)² = 16
                    let i = va + x0a * x0a;
                    let cross = x0a * y0b;
                    let j = 4 - y0b * y0b + 2 * cross; // V_B = 0 here
                    assert!(i >= domain.lo && i <= domain.hi, "i = {i}");
                    assert!(j >= domain.lo && j <= domain.hi, "j = {j}");
                }
            }
        }
    }

    #[test]
    fn enhanced_domain_covers_share_differences() {
        let c = cfg(16, 4);
        let dim = 2;
        let domain = enhanced_share_domain(&c, dim);
        let d_max = c.max_dist_sq(dim) as i64;
        let v = c.enhanced_mask_bound(dim) as i64;
        // Extreme share difference: d=Dmax with +V mask vs d=0 with -V.
        let extreme = d_max + 2 * v;
        assert!(extreme <= domain.hi);
        assert!(-extreme >= domain.lo);
        // Threshold comparison operand: eps² + v.
        assert!(16 + v <= domain.hi);
    }

    #[test]
    fn domains_grow_with_eps_and_bound() {
        let small = hdp_domain(&cfg(4, 2), 2);
        let bigger_eps = hdp_domain(&cfg(100, 2), 2);
        let bigger_c = hdp_domain(&cfg(4, 20), 2);
        assert!(bigger_eps.hi > small.hi);
        assert!(bigger_c.n0() > small.n0());
    }
}
