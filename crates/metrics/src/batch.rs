//! Counters for the batched write plane (DESIGN.md §18).
//!
//! The sharded engine's `*_many` entry points group operations per
//! destination shard and apply each group under one lock acquisition,
//! draining pending journal records as contiguous generation runs.
//! This block is the attribution story for that plane:
//! `batched_ops / lock_acquisitions` is the amortization actually
//! achieved and `journal_appends` counts scratch drains (batch
//! appends). Scalar get/put/flush run the same group code as groups of
//! one but are never counted here.

/// Counters for the batched write plane: the sharded engine keeps one
/// block per shard (plain words under the shard's lock) and reports
/// their sum.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchCounters {
    /// Operations applied through the batched (`*_many`) entry points.
    pub batched_ops: u64,
    /// Shard-lock acquisitions charged to those entry points (group
    /// entries plus mid-group re-locks around eviction/compaction).
    pub lock_acquisitions: u64,
    /// Scratch drains — journal batch appends, each claiming one
    /// contiguous generation run.
    pub journal_appends: u64,
}

crate::counter_snapshot!(BatchCounters, "batch", {
    batched_ops,
    lock_acquisitions,
    journal_appends,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{snapshot_from_json, snapshot_json, CounterSnapshot};

    #[test]
    fn batch_counters_roundtrip_and_absorb() {
        let mut a = BatchCounters {
            batched_ops: 10,
            lock_acquisitions: 2,
            journal_appends: 1,
        };
        let json = snapshot_json(&a);
        let back: BatchCounters = snapshot_from_json(&json).expect("roundtrip");
        assert_eq!(back, a);
        a.absorb(&back);
        assert_eq!(a.batched_ops, 20);
        assert_eq!(a.journal_appends, 2);
    }
}
