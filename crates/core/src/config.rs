//! Protocol configuration shared (publicly) by both parties.

use crate::error::CoreError;
use ppds_dbscan::{DbscanParams, Pruning};
use ppds_smc::compare::Comparator;
use ppds_smc::kth::SelectionMethod;
use ppds_smc::millionaires;
use ppds_smc::BackendKind;

/// Everything both parties must agree on before a run. All of it is public
/// metadata in the paper's model: the density parameters (Eps, MinPts), the
/// data schema (dimension, lattice bound), and the cryptographic knobs.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolConfig {
    /// Density parameters (`Eps²`, `MinPts`).
    pub params: DbscanParams,
    /// Agreed bound on coordinate magnitude: every attribute value lies in
    /// `[-coord_bound, coord_bound]`. Determines the Yao comparison domain.
    pub coord_bound: i64,
    /// Paillier modulus size in bits. 256 keeps tests fast; use ≥ 2048 for
    /// anything resembling deployment.
    pub key_bits: usize,
    /// Secure-comparison backend (faithful Yao vs ideal-functionality with
    /// modeled accounting; see `ppds-smc::compare`).
    pub comparator: Comparator,
    /// k-th-order-statistic algorithm for the enhanced protocol.
    pub selection: SelectionMethod,
    /// Statistical-hiding exponent σ: masks are drawn from ranges scaled by
    /// `2^σ` above the values they hide. Larger σ hides better but inflates
    /// the share-comparison domain by the same factor (which the faithful
    /// Yao backend cannot afford — `validate` enforces the cap).
    pub mask_bits: u32,
    /// Round batching: when `true`, every chunk of up to 1,024 candidate
    /// pairs packs all of its comparisons (and their multiplication stages)
    /// into one wire frame per protocol message instead of one round-trip
    /// per comparison, collapsing wire rounds from `O(pairs)` to `O(1)` per
    /// chunk. Outputs, leakage, and comparison counts are identical to
    /// the unbatched run under the same seeds (pinned by the
    /// `batching_parity` integration tests); only the framing changes. See
    /// DESIGN.md §7.
    pub batching: bool,
    /// Plaintext-slot packing: when `true`, the ciphertext-heavy *response*
    /// legs ride packed Paillier words (`ppds_paillier::SlotLayout`)
    /// instead of one ciphertext per value — the DGK masked verdict vector
    /// ships `⌈ℓ/capacity⌉` words per comparison, masked-product and
    /// masked-distance replies pack `capacity` slots per word, and the
    /// Ideal comparator pads its verdict-sized message to the packed
    /// transcript size — cutting response bytes and the keyholder's
    /// decryption count by roughly the packing factor (~20× at 1024-bit
    /// keys with 48-bit slots). Orthogonal to `batching` (any of the four
    /// combinations runs); labels, leakage, and the Yao ledger are
    /// byte-identical to unpacked runs under the same seeds (pinned by the
    /// `packing_parity` integration tests). Both parties must agree — the
    /// handshake rejects a mismatch by name. See DESIGN.md §10.
    pub packing: bool,
    /// Cryptographic substrate for the three SMC workhorses (comparison /
    /// share-comparison, masked multiplication folds, masked dot products):
    /// [`BackendKind::Paillier`] runs the paper's homomorphic protocols;
    /// [`BackendKind::Sharing`] substitutes additive-sharing equivalents
    /// over `Z_2^64` (Beaver triples, masked opens) with the same driver
    /// dataflow and byte-identical labels/leakage, trading ciphertexts for
    /// 8-byte field elements. Both parties must agree — the handshake
    /// rejects a mismatch by name. See DESIGN.md §14.
    pub backend: BackendKind,
    /// Candidate-generation policy: [`Pruning::Exhaustive`] runs the
    /// paper's all-pairs neighborhood evaluation; [`Pruning::Grid`]
    /// restricts secure comparisons to grid-derived candidate sets
    /// (ε-cell + 3^d neighbors on locally held coordinates, coarse public
    /// bands on shared ones), producing byte-identical labels with
    /// strictly fewer secure comparisons, at the price of explicitly
    /// ledgered band/cardinality disclosures (`pruning_*` leakage
    /// events). Both parties must agree — the handshake rejects a
    /// mismatch by name. See DESIGN.md §15.
    pub pruning: Pruning,
}

impl ProtocolConfig {
    /// A config with the defaults used throughout the examples: 256-bit
    /// keys, the Ideal comparator, repeated-minimum selection, σ = 20.
    pub fn new(params: DbscanParams, coord_bound: i64) -> Self {
        ProtocolConfig {
            params,
            coord_bound,
            key_bits: 256,
            comparator: Comparator::Ideal,
            selection: SelectionMethod::RepeatedMin,
            mask_bits: 20,
            batching: false,
            packing: false,
            backend: BackendKind::Paillier,
            pruning: Pruning::Exhaustive,
        }
    }

    /// Returns a copy with round batching switched on or off (both parties
    /// must agree; the handshake rejects a mismatch).
    pub fn with_batching(self, batching: bool) -> Self {
        ProtocolConfig { batching, ..self }
    }

    /// Returns a copy with plaintext-slot packing switched on or off (both
    /// parties must agree; the handshake rejects a mismatch). See
    /// [`ProtocolConfig::packing`].
    pub fn with_packing(self, packing: bool) -> Self {
        ProtocolConfig { packing, ..self }
    }

    /// Returns a copy running on the given SMC substrate (both parties must
    /// agree; the handshake rejects a mismatch). See
    /// [`ProtocolConfig::backend`].
    pub fn with_backend(self, backend: BackendKind) -> Self {
        ProtocolConfig { backend, ..self }
    }

    /// Returns a copy with the given candidate-generation policy (both
    /// parties must agree; the handshake rejects a mismatch). See
    /// [`ProtocolConfig::pruning`].
    pub fn with_pruning(self, pruning: Pruning) -> Self {
        ProtocolConfig { pruning, ..self }
    }

    /// Same defaults but with the faithful Yao comparator and σ = 2 (the
    /// comparator's O(n0) cost forces small domains; see DESIGN.md §3).
    pub fn new_with_yao(params: DbscanParams, coord_bound: i64) -> Self {
        ProtocolConfig {
            comparator: Comparator::Yao,
            mask_bits: 2,
            ..Self::new(params, coord_bound)
        }
    }

    /// Same defaults but with the `O(log n0)` bitwise DGK comparator — a
    /// fully cryptographic backend that stays tractable even on the
    /// enhanced protocol's `2^σ`-wide share domains.
    pub fn new_with_dgk(params: DbscanParams, coord_bound: i64) -> Self {
        ProtocolConfig {
            comparator: Comparator::Dgk,
            ..Self::new(params, coord_bound)
        }
    }

    /// Checks internal consistency for data of dimension `dim`.
    pub fn validate(&self, dim: usize) -> Result<(), CoreError> {
        if self.params.min_pts == 0 {
            return Err(CoreError::config("MinPts must be at least 1"));
        }
        if self.coord_bound <= 0 {
            return Err(CoreError::config("coordinate bound must be positive"));
        }
        if dim == 0 {
            return Err(CoreError::config("points need at least one dimension"));
        }
        if let Pruning::Grid { coarseness } = self.pruning {
            if coarseness == 0 {
                return Err(CoreError::config(
                    "grid pruning needs a band coarseness of at least 1",
                ));
            }
            if self.params.eps_sq == 0 {
                return Err(CoreError::config(
                    "grid pruning needs a positive Eps (band width would be zero)",
                ));
            }
        }
        let max_d = self.max_dist_sq(dim);
        if self.params.eps_sq > max_d {
            return Err(CoreError::config(format!(
                "Eps² = {} exceeds the maximum possible squared distance {max_d}",
                self.params.eps_sq
            )));
        }
        // Share values u = dist² + v must fit i64 with headroom for the
        // comparison domain (|diff| ≤ D + 2V).
        let v_bound = self.enhanced_mask_bound(dim);
        let span = (max_d as i128) + 2 * (v_bound as i128) + self.params.eps_sq as i128 + 2;
        if span > i64::MAX as i128 / 2 {
            return Err(CoreError::config(format!(
                "mask_bits = {} overflows the i64 share domain (span 2^{:.0})",
                self.mask_bits,
                (span as f64).log2()
            )));
        }
        if self.comparator == Comparator::Yao {
            let n0 = crate::domain::enhanced_share_domain(self, dim).n0();
            if n0 > millionaires::MAX_YAO_DOMAIN {
                return Err(CoreError::config(format!(
                    "faithful Yao comparator cannot handle n0 = {n0} (cap {}); \
                     lower mask_bits/coord_bound or use Comparator::Ideal",
                    millionaires::MAX_YAO_DOMAIN
                )));
            }
        }
        if self.packing
            && (crate::domain::mul_response_packing(self, dim).is_none()
                || crate::domain::dot_response_packing(self, dim).is_none())
        {
            return Err(CoreError::config(format!(
                "key_bits = {} cannot fit one packed response slot for this \
                 coord_bound/mask_bits; raise key_bits or disable packing",
                self.key_bits
            )));
        }
        Ok(())
    }

    /// Maximum possible squared distance on this config's lattice.
    pub fn max_dist_sq(&self, dim: usize) -> u64 {
        ppds_dbscan::point::max_dist_sq(dim, self.coord_bound)
    }

    /// Mask bound `V = Dmax · 2^σ` for the enhanced protocol's distance
    /// shares.
    pub fn enhanced_mask_bound(&self, dim: usize) -> u64 {
        self.max_dist_sq(dim)
            .saturating_mul(1u64 << self.mask_bits.min(40))
    }
}

/// Running account of the faithful-Yao cost of every secure comparison a
/// party performed, whether it ran the real protocol (bytes also appear in
/// the channel metrics) or the Ideal backend (bytes are modeled).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct YaoLedger {
    /// Number of secure comparisons executed.
    pub comparisons: u64,
    /// Total modeled YMPP traffic (payload + framing) in bytes.
    pub modeled_bytes: u64,
    /// Total Paillier decryptions the faithful protocol performs (n0 each).
    pub modeled_decryptions: u64,
}

impl YaoLedger {
    /// Records one comparison over a domain of size `n0` under `key_bits`.
    pub fn record(&mut self, key_bits: usize, n0: u64) {
        self.record_many(key_bits, n0, 1);
    }

    /// Records `count` comparisons over one domain: a whole slice at once.
    pub fn record_many(&mut self, key_bits: usize, n0: u64, count: u64) {
        let (m1, m2, m3) = millionaires::modeled_message_sizes(key_bits, n0);
        self.comparisons += count;
        self.modeled_bytes += count * (m1 + m2 + m3 + 3 * ppds_transport::FRAME_OVERHEAD_BYTES);
        self.modeled_decryptions += count * n0;
    }

    /// Merges another ledger into this one.
    pub fn absorb(&mut self, other: YaoLedger) {
        self.comparisons += other.comparisons;
        self.modeled_bytes += other.modeled_bytes;
        self.modeled_decryptions += other.modeled_decryptions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eps_sq: u64, min_pts: usize) -> DbscanParams {
        DbscanParams { eps_sq, min_pts }
    }

    #[test]
    fn default_config_validates() {
        let cfg = ProtocolConfig::new(params(25, 4), 100);
        assert!(cfg.validate(2).is_ok());
        assert!(!cfg.batching, "batching defaults off (reference mode)");
        assert!(cfg.with_batching(true).batching);
        assert!(cfg.with_batching(true).validate(2).is_ok());
        assert_eq!(
            cfg.backend,
            BackendKind::Paillier,
            "Paillier is the default"
        );
        let sharing = cfg.with_backend(BackendKind::Sharing);
        assert_eq!(sharing.backend, BackendKind::Sharing);
        assert!(sharing.validate(2).is_ok());
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(ProtocolConfig::new(params(25, 0), 100).validate(2).is_err());
        assert!(ProtocolConfig::new(params(25, 4), 0).validate(2).is_err());
        assert!(ProtocolConfig::new(params(25, 4), 100).validate(0).is_err());
    }

    #[test]
    fn pruning_knob_validates() {
        let cfg = ProtocolConfig::new(params(25, 4), 100);
        assert_eq!(
            cfg.pruning,
            Pruning::Exhaustive,
            "exhaustive is the default"
        );
        let pruned = cfg.with_pruning(Pruning::Grid { coarseness: 1 });
        assert_eq!(pruned.pruning, Pruning::Grid { coarseness: 1 });
        assert!(pruned.validate(2).is_ok());
        assert!(
            cfg.with_pruning(Pruning::Grid { coarseness: 0 })
                .validate(2)
                .is_err(),
            "zero coarseness must be rejected"
        );
        let mut zero_eps = pruned;
        zero_eps.params.eps_sq = 0;
        assert!(zero_eps.validate(2).is_err(), "zero radius cannot band");
    }

    #[test]
    fn rejects_eps_beyond_lattice() {
        let cfg = ProtocolConfig::new(params(1_000_000, 4), 10);
        // max dist² in 2-D with bound 10 is 800.
        assert!(cfg.validate(2).is_err());
    }

    #[test]
    fn yao_comparator_rejects_big_mask_domains() {
        let mut cfg = ProtocolConfig::new_with_yao(params(25, 4), 50);
        assert!(cfg.validate(2).is_ok());
        cfg.mask_bits = 24;
        assert!(cfg.validate(2).is_err());
    }

    #[test]
    fn huge_masks_rejected_for_share_overflow() {
        let mut cfg = ProtocolConfig::new(params(25, 4), 1 << 20);
        cfg.mask_bits = 40;
        assert!(cfg.validate(8).is_err());
    }

    #[test]
    fn ledger_accumulates() {
        let mut ledger = YaoLedger::default();
        ledger.record(256, 100);
        ledger.record(256, 100);
        assert_eq!(ledger.comparisons, 2);
        assert_eq!(ledger.modeled_decryptions, 200);
        assert!(ledger.modeled_bytes > 2 * 100 * (256 / 2 / 8) as u64);
        let mut other = YaoLedger::default();
        other.record(256, 10);
        ledger.absorb(other);
        assert_eq!(ledger.comparisons, 3);
        let mut many = YaoLedger::default();
        many.record_many(256, 100, 2);
        many.record_many(256, 10, 1);
        many.record_many(256, 10, 0);
        assert_eq!(many, ledger, "a slice is its comparisons, one by one");
    }
}
