//! The progressive-quantization controller (paper §III-D, Fig. 6).
//!
//! The Q-K-V fetcher eagerly brings in only the MSB planes. After the
//! softmax, the max attention probability is compared with a threshold;
//! below it (flat distribution → large quantization error), the LSB planes
//! are fetched and the attention probabilities recomputed — once. The
//! controller tracks how often that happens (paper: ≈ 5.9 % of inputs).

use spatten_workloads::QuantPolicy;

/// Per-query decision statistics for progressive quantization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressiveStats {
    /// Queries evaluated.
    pub queries: u64,
    /// Queries that required the LSB refetch + recompute.
    pub lsb_fetches: u64,
}

impl ProgressiveStats {
    /// Fraction of queries that needed LSBs.
    pub fn lsb_fraction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.lsb_fetches as f64 / self.queries as f64
        }
    }
}

/// The controller: policy + statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressiveController {
    policy: QuantPolicy,
    stats: ProgressiveStats,
}

impl ProgressiveController {
    /// A controller for one task's policy.
    pub fn new(policy: QuantPolicy) -> Self {
        Self {
            policy,
            stats: ProgressiveStats::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> QuantPolicy {
        self.policy
    }

    /// Decision statistics so far.
    pub fn stats(&self) -> ProgressiveStats {
        self.stats
    }

    /// Bits fetched per element on the *eager* pass (MSB plane only).
    pub fn eager_bits(&self) -> u32 {
        self.policy.scheme.msb_bits()
    }

    /// Decides one query: given the max attention probability computed from
    /// MSBs, returns `true` if LSBs must be fetched and the query
    /// recomputed.
    pub fn decide(&mut self, max_prob: f32) -> bool {
        self.stats.queries += 1;
        let refetch = self.policy.progressive && max_prob < self.policy.lsb_threshold;
        if refetch {
            self.stats.lsb_fetches += 1;
        }
        refetch
    }

    /// Average bits per fetched element given the decisions so far:
    /// `msb + lsb·fraction` under progressive, plain MSB width under static.
    pub fn effective_bits(&self) -> f64 {
        let msb = f64::from(self.policy.scheme.msb_bits());
        if !self.policy.progressive {
            return msb;
        }
        msb + f64::from(self.policy.scheme.lsb_bits()) * self.stats.lsb_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_quant::BitwidthScheme;
    use spatten_workloads::QuantPolicy;

    #[test]
    fn static_policy_never_fetches_lsb() {
        let mut c = ProgressiveController::new(QuantPolicy::static_msb(BitwidthScheme::Msb8Lsb4));
        assert!(!c.decide(0.01));
        assert!(!c.decide(0.99));
        assert_eq!(c.stats().lsb_fetches, 0);
        assert_eq!(c.effective_bits(), 8.0);
    }

    #[test]
    fn progressive_fetches_on_flat_rows_only() {
        let mut c = ProgressiveController::new(QuantPolicy::progressive(BitwidthScheme::Msb6Lsb4));
        assert!(c.decide(0.05)); // flat
        assert!(!c.decide(0.5)); // dominated
        assert!(!c.decide(0.11));
        assert_eq!(c.stats().queries, 3);
        assert_eq!(c.stats().lsb_fetches, 1);
    }

    #[test]
    fn effective_bits_interpolate_with_fraction() {
        let mut c = ProgressiveController::new(QuantPolicy::progressive(BitwidthScheme::Msb6Lsb4));
        for i in 0..100 {
            // 6% of rows flat.
            c.decide(if i % 100 < 6 { 0.01 } else { 0.9 });
        }
        let bits = c.effective_bits();
        assert!((bits - (6.0 + 4.0 * 0.06)).abs() < 1e-9, "bits {bits}");
    }

    #[test]
    fn empty_stats_are_sane() {
        let c = ProgressiveController::new(QuantPolicy::progressive(BitwidthScheme::Msb8Lsb4));
        assert_eq!(c.stats().lsb_fraction(), 0.0);
        assert_eq!(c.effective_bits(), 8.0);
    }
}
