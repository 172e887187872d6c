//! Probe-level instrumentation reported with every search.

/// Counters accumulated during one search.
///
/// Bucket counting is uniform across strategies: one *probe unit* is one
/// hash-bucket lookup issued before the search terminated. For the ranking
/// strategies (HR/GHR/QR/GQR) that is one full-code bucket; for MIH it is
/// one substring-bucket lookup (each radius expansion issues many). This is
/// the unit the recall bench and the adaptive controller compare across
/// strategies — "buckets" never means MIH radius shells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Probe units issued by the prober, occupied or not: full-code bucket
    /// codes for the ranking strategies, substring-bucket lookups for MIH.
    pub buckets_probed: usize,
    /// Probe units that found no bucket in the table. Only strategies that
    /// generate codes can miss — GHR/GQR generated codes and MIH substring
    /// probes; HR/QR sort occupied buckets only and always report 0.
    pub empty_buckets: usize,
    /// Item ids collected from probed buckets (before dedup).
    pub items_collected: usize,
    /// Items whose exact distance was computed.
    pub items_evaluated: usize,
    /// Candidates skipped because another table already produced them
    /// (multi-table search only).
    pub duplicates_skipped: usize,
}

impl ProbeStats {
    /// Probed buckets that actually contained items.
    pub fn buckets_nonempty(&self) -> usize {
        self.buckets_probed.saturating_sub(self.empty_buckets)
    }

    /// Assert the cross-counter invariants that hold at the end of every
    /// search: a bucket can't be empty without being probed, and an item
    /// can't be evaluated without being collected first. Debug builds call
    /// this after every search; call it yourself when aggregating stats from
    /// an untrusted source.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn checked_invariants(&self) {
        assert!(
            self.items_evaluated <= self.items_collected,
            "ProbeStats invariant violated: items_evaluated ({}) > items_collected ({})",
            self.items_evaluated,
            self.items_collected
        );
        assert!(
            self.empty_buckets <= self.buckets_probed,
            "ProbeStats invariant violated: empty_buckets ({}) > buckets_probed ({})",
            self.empty_buckets,
            self.buckets_probed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_nonempty_subtracts_empty() {
        let s = ProbeStats {
            buckets_probed: 7,
            empty_buckets: 3,
            ..Default::default()
        };
        assert_eq!(s.buckets_nonempty(), 4);
        assert_eq!(ProbeStats::default().buckets_nonempty(), 0);
    }

    #[test]
    fn valid_stats_pass_invariants() {
        let s = ProbeStats {
            buckets_probed: 5,
            empty_buckets: 2,
            items_collected: 40,
            items_evaluated: 30,
            duplicates_skipped: 10,
        };
        s.checked_invariants();
    }

    #[test]
    #[should_panic(expected = "items_evaluated")]
    fn evaluated_more_than_collected_panics() {
        let s = ProbeStats {
            items_collected: 1,
            items_evaluated: 2,
            ..Default::default()
        };
        s.checked_invariants();
    }

    #[test]
    #[should_panic(expected = "empty_buckets")]
    fn more_empty_than_probed_panics() {
        let s = ProbeStats {
            buckets_probed: 1,
            empty_buckets: 2,
            ..Default::default()
        };
        s.checked_invariants();
    }
}
