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

/// `k·C²`, for `k` up to four times a validated dimension.
fn mc2(k: usize, coord_bound: i64) -> i64 {
    let c2 = (coord_bound as i128) * (coord_bound as i128);
    i64::try_from(k as i128 * c2).expect("4m·C² fits i64 for validated configs")
}

/// `Σx_k²` of a point on a validated lattice, as the point-holding drivers
/// hand it to the backend.
pub(crate) fn lattice_norm_sq(point: &Point) -> i64 {
    i64::try_from(point.norm_sq()).expect("Σx² fits i64 on a validated lattice")
}

/// Domain for the comparison of an attribute-split pair (§4.2–§4.4) whose
/// count `h` of split attributes — those whose two endpoints belong to
/// different parties — lies in `h_min..=h_max`.
///
/// Alice's operand is `i = V_A + Σ_H a_k² ∈ [0, (4m − 3h)C²]` (a delta
/// she owns both ends of spans `2C`, so its square is ≤ `4C²`); Bob's is
/// `j = Eps² − V_B − Σ_H b_k² + 2·Σ_H a_k·b_k ∈ [Eps² − (4m − h)C²,
/// Eps² + 2hC²]`. HDP is `h = m` throughout, VDP `h = 0`, and the
/// arbitrary mode `0..=H` for its `H` columns whose owner is not the same
/// in every record.
pub(crate) fn split_domain(
    cfg: &ProtocolConfig,
    dim: usize,
    h_min: usize,
    h_max: usize,
) -> ComparisonDomain {
    let c = cfg.coord_bound;
    let eps = cfg.params.eps_sq as i64;
    ComparisonDomain::new(
        (eps - mc2(4 * dim - h_min, c)).min(0),
        (eps + mc2(2 * h_max, c)).max(mc2(4 * dim - 3 * h_min, c)),
    )
}

/// Domain for protocol HDP's final comparison (§4.2): every attribute is
/// split, so `i = ΣA_k² ∈ [0, mC²]` and `j ∈ [Eps² − 3mC², Eps² + 2mC²]`.
pub fn hdp_domain(cfg: &ProtocolConfig, dim: usize) -> ComparisonDomain {
    split_domain(cfg, dim, dim, dim)
}

/// Domain for protocol VDP's comparison (§4.3): no attribute is split, so
/// `α ∈ [0, 4mC²]` and Bob's `Eps² − β` is bounded the same way.
pub fn vdp_domain(cfg: &ProtocolConfig, dim: usize) -> ComparisonDomain {
    split_domain(cfg, dim, 0, 0)
}

/// Domain for the enhanced protocol's share comparisons (§5).
///
/// Share differences satisfy `|u_a − u_b| ≤ Dmax + 2V` and the threshold
/// comparison operands satisfy `|·| ≤ Dmax + V + Eps²`; one symmetric
/// domain covers both. The masks cancel between the two sides of every
/// comparison, so the pair differs by at most `Dmax + Eps²` whatever `V`
/// is: `(u_a − u_b) − (v_a − v_b) = Dist_a − Dist_b` and
/// `u_k − (Eps² + v_k) = Dist_k − Eps²`. That is the domain's gap.
pub fn enhanced_share_domain(cfg: &ProtocolConfig, dim: usize) -> ComparisonDomain {
    let d_max = cfg.max_dist_sq(dim) as i64;
    let v = cfg.enhanced_mask_bound(dim) as i64;
    let eps = cfg.params.eps_sq as i64;
    ComparisonDomain::symmetric(d_max + 2 * v + eps + 1).with_gap((d_max + eps) as u64)
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

    /// Every per-cell ownership of a record pair at `m = 2`, `C = 2`: both
    /// operands lie in the domain of the pair's split count `h`, and
    /// `i ≤ j` is exactly `dist² ≤ Eps²`. VDP is the `h = 0` patterns and
    /// HDP the `h = m` ones; the arbitrary mode's `0..=m` covers them all.
    #[test]
    fn split_operands_always_in_domain() {
        for eps in [0i64, 3, 8, 16, 32] {
            let c = cfg(eps as u64, 2);
            let old_vdp = ComparisonDomain::new((eps - 32).min(0), eps.max(32));
            let old_hdp = ComparisonDomain::new((eps - 24).min(0), (eps + 16).max(8));
            assert_eq!((vdp_domain(&c, 2), hdp_domain(&c, 2)), (old_vdp, old_hdp));
            let widest = split_domain(&c, 2, 0, 2);
            // Bit `2k` says Alice owns `x_k`, bit `2k + 1` that she owns `y_k`.
            for pattern in 0u32..16 {
                let alice = |cell: usize| pattern >> cell & 1 == 1;
                let h = (0..2).filter(|&k| alice(2 * k) != alice(2 * k + 1)).count();
                let domain = split_domain(&c, 2, h, h);
                assert!(widest.lo <= domain.lo && domain.hi <= widest.hi);
                for cells in 0..625 {
                    let v = |at: u32| (cells / 5i64.pow(at)) % 5 - 2;
                    let (x, y) = ([v(0), v(1)], [v(2), v(3)]);
                    let (mut i, mut j) = (0, eps);
                    for k in 0..2 {
                        let d2 = (x[k] - y[k]).pow(2);
                        match (alice(2 * k), alice(2 * k + 1)) {
                            (true, true) => i += d2,
                            (false, false) => j -= d2,
                            (ax, _) => {
                                let (a, b) = if ax { (x[k], y[k]) } else { (y[k], x[k]) };
                                i += a * a;
                                j += 2 * a * b - b * b;
                            }
                        }
                    }
                    let at = format!("eps {eps}, pattern {pattern:04b}, {x:?} {y:?}");
                    assert!(domain.lo <= i && i <= domain.hi, "i = {i}: {at}");
                    assert!(domain.lo <= j && j <= domain.hi, "j = {j}: {at}");
                    let (px, py) = (Point::new(x.to_vec()), Point::new(y.to_vec()));
                    assert_eq!(i <= j, dist_sq(&px, &py) <= eps as u64, "{at}");
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

    /// Every pair the enhanced session compares differs by at most the
    /// domain's gap, `Dmax + Eps²`, at the extreme distances and masks, for
    /// any mask width; the split domains make no promise.
    #[test]
    fn enhanced_pairs_differ_by_at_most_the_gap() {
        for (eps, mask_bits) in [(16i64, 0u32), (16, 30), (70, 40), (3, 12)] {
            let mut c = cfg(eps as u64, 4);
            c.mask_bits = mask_bits;
            let domain = enhanced_share_domain(&c, 2);
            let d_max = c.max_dist_sq(2) as i64;
            let v = c.enhanced_mask_bound(2) as i64;
            assert_eq!(domain.gap(), (d_max + eps) as u64);
            let (dists, masks) = ([0, 1, d_max - 1, d_max], [-v, -1, 0, 1, v]);
            for (&dist_a, &dist_b) in dists.iter().flat_map(|a| dists.iter().map(move |b| (a, b))) {
                for (&v_a, &v_b) in masks.iter().flat_map(|a| masks.iter().map(move |b| (a, b))) {
                    let (u_a, u_b) = (dist_a + v_a, dist_b + v_b);
                    // The share comparison and the threshold test, each
                    // party's operand inside the domain.
                    for (alice, bob) in [(u_a - u_b, v_a - v_b), (u_a, eps + v_a)] {
                        assert!(domain.lo <= alice.min(bob) && alice.max(bob) <= domain.hi);
                        assert!(alice.abs_diff(bob) <= domain.gap(), "{alice} vs {bob}");
                    }
                }
            }
        }
        let c = cfg(16, 4);
        for split in [hdp_domain(&c, 2), vdp_domain(&c, 2)] {
            assert_eq!(split.gap(), split.hi.abs_diff(split.lo));
        }
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
