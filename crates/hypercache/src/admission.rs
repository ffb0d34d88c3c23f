//! Selective SSD admission: the ghost filter and TTL demotion config.
//!
//! An exclusive second-chance cache spills *every* page evicted from the
//! memory tier to the SSD tier, which burns flash endurance on pages
//! that are touched once and never again (scan pollution). Following
//! the admission-control line of work around the paper (ECI-Cache,
//! ETICA — see PAPERS.md), the spill path is gated by a **ghost
//! filter**: a spilled page is admitted to the SSD tier only on its
//! *second* spill attempt within a sliding window of recent attempts.
//! The first attempt records the address in a ghost table (no data is
//! written) and the page falls through fail-open — dropped from the
//! cache, exactly as if the SSD tier were full. Pages with reuse come
//! back, hit the ghost entry, and are admitted; one-touch scan traffic
//! never earns SSD writes.
//!
//! # Determinism
//!
//! The filter is deliberately *per pool* and counts **spill attempts**,
//! not wall time: a pool homes on exactly one shard of the sharded
//! engine and sees the same attempt sequence the serial engine sees, so
//! admission decisions are byte-identical across engines and worker
//! counts, with no cross-shard state. There is no randomness — the
//! "seeded" part of the plane is the workload, not the filter.

use std::collections::VecDeque;

use ddc_sim::FxHashMap;
use ddc_storage::BlockAddr;

/// Admission-plane knobs, carried by
/// [`CacheConfig`](crate::CacheConfig). The default (`off()`) disables
/// both mechanisms, preserving the admit-everything behaviour byte for
/// byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Ghost-filter window, in spill attempts per pool. `0` disables
    /// the filter (every spill is admitted).
    pub ghost_window: u32,
    /// TTL for SSD residency, in per-pool insert distance. An
    /// SSD-resident entry older than this many subsequent inserts into
    /// its pool is demoted (dropped) by the explicit TTL sweep. `0`
    /// disables demotion.
    pub ssd_ttl: u64,
}

impl AdmissionConfig {
    /// Everything off: spills admit unconditionally, nothing is demoted.
    pub const fn off() -> AdmissionConfig {
        AdmissionConfig {
            ghost_window: 0,
            ssd_ttl: 0,
        }
    }

    /// Ghost filter on with the given attempt window, TTL off.
    pub const fn ghost(window: u32) -> AdmissionConfig {
        AdmissionConfig {
            ghost_window: window,
            ssd_ttl: 0,
        }
    }

    /// Whether the ghost filter gates the spill path.
    pub fn filters_spills(&self) -> bool {
        self.ghost_window > 0
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig::off()
    }
}

/// Per-pool ghost table: remembers recently rejected spill attempts so
/// the second attempt within the window is admitted. Holds addresses
/// only — no page data — so its footprint is a few words per remembered
/// attempt, bounded by the window.
#[derive(Clone, Debug, Default)]
pub struct GhostFilter {
    /// Monotone count of spill attempts evaluated by this filter.
    attempts: u64,
    /// Address → attempt index of its remembered (rejected) spill.
    table: FxHashMap<BlockAddr, u64>,
    /// Remembered attempts in arrival order, for window pruning.
    order: VecDeque<(u64, BlockAddr)>,
}

impl GhostFilter {
    /// Heap bytes of the table and the arrival queue, from their
    /// capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        crate::index::map_bytes::<BlockAddr, u64>(self.table.capacity())
            + crate::index::vec_bytes::<(u64, BlockAddr)>(self.order.capacity())
    }

    /// Evaluates one spill attempt for `addr` under a window of
    /// `window` attempts. Returns `true` to admit (a remembered attempt
    /// for the same address lies within the window — the entry is
    /// consumed), `false` to reject (first sighting; remembered).
    pub fn admit(&mut self, addr: BlockAddr, window: u32) -> bool {
        self.attempts += 1;
        let horizon = self.attempts.saturating_sub(u64::from(window));
        while let Some(&(at, old)) = self.order.front() {
            if at >= horizon {
                break;
            }
            self.order.pop_front();
            // Only erase if the table still points at this attempt — a
            // re-recorded address owns a younger queue entry.
            if self.table.get(&old) == Some(&at) {
                self.table.remove(&old);
            }
        }
        match self.table.remove(&addr) {
            Some(at) if at >= horizon => true,
            _ => {
                self.table.insert(addr, self.attempts);
                self.order.push_back((self.attempts, addr));
                false
            }
        }
    }

    /// Re-arms `addr` as if it had just been sighted, without counting
    /// a spill attempt. The engines call this when a cache *hit*
    /// consumes an SSD-resident block of a filtered pool: the hit is
    /// proven reuse, so the block's next spill is admitted immediately
    /// instead of serving a second probation pass it already earned out
    /// of.
    pub fn note(&mut self, addr: BlockAddr) {
        self.table.insert(addr, self.attempts);
        self.order.push_back((self.attempts, addr));
    }

    /// Spill attempts evaluated so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Addresses currently remembered (diagnostics/tests).
    pub fn ghost_entries(&self) -> usize {
        self.table.len()
    }

    /// Forgets everything (pool drain/recovery — advisory state only).
    pub fn clear(&mut self) {
        self.attempts = 0;
        self.table.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_storage::FileId;

    fn addr(b: u64) -> BlockAddr {
        BlockAddr::new(FileId(1), b)
    }

    #[test]
    fn second_attempt_within_window_admits() {
        let mut g = GhostFilter::default();
        assert!(!g.admit(addr(0), 4), "first sighting rejected");
        assert!(g.admit(addr(0), 4), "second sighting admitted");
        // The ghost entry was consumed: a third attempt starts over.
        assert!(!g.admit(addr(0), 4));
    }

    #[test]
    fn window_expires_old_attempts() {
        let mut g = GhostFilter::default();
        assert!(!g.admit(addr(0), 2));
        assert!(!g.admit(addr(1), 2));
        assert!(!g.admit(addr(2), 2)); // pushes addr(0) out of the window
        assert!(!g.admit(addr(0), 2), "expired ghost: treated as first");
        assert!(g.admit(addr(0), 2), "fresh ghost admits");
    }

    #[test]
    fn scan_traffic_never_admits() {
        let mut g = GhostFilter::default();
        for b in 0..100 {
            assert!(!g.admit(addr(b), 8), "one-touch addresses all reject");
        }
        assert!(g.ghost_entries() <= 8 + 1, "table bounded by the window");
    }

    #[test]
    fn rerecorded_address_survives_stale_queue_entry() {
        let mut g = GhostFilter::default();
        assert!(!g.admit(addr(0), 2)); // attempt 1 records addr 0
        assert!(g.admit(addr(0), 2)); // attempt 2 consumes it
        assert!(!g.admit(addr(0), 2)); // attempt 3 re-records addr 0
        assert!(!g.admit(addr(9), 2)); // attempt 4: prunes attempt-1 queue
                                       // entry, which must not erase the
                                       // younger attempt-3 record
        assert!(g.admit(addr(0), 2), "attempt 5 still sees attempt 3");
    }

    #[test]
    fn hit_note_rearms_without_probation() {
        let mut g = GhostFilter::default();
        assert!(!g.admit(addr(0), 4)); // probation
        assert!(g.admit(addr(0), 4)); // admitted; entry consumed
        g.note(addr(0)); // hit consumed the block: proven reuse
        assert!(g.admit(addr(0), 4), "next spill readmits immediately");
        assert!(!g.admit(addr(0), 4), "note does not persist past one admit");
    }

    #[test]
    fn clear_resets_everything() {
        let mut g = GhostFilter::default();
        g.admit(addr(0), 4);
        g.clear();
        assert_eq!(g.attempts(), 0);
        assert_eq!(g.ghost_entries(), 0);
        assert!(!g.admit(addr(0), 4), "no memory survives clear");
    }

    #[test]
    fn config_helpers() {
        assert!(!AdmissionConfig::off().filters_spills());
        assert!(AdmissionConfig::ghost(16).filters_spills());
        assert_eq!(AdmissionConfig::default(), AdmissionConfig::off());
        assert_eq!(AdmissionConfig::ghost(16).ssd_ttl, 0);
    }
}
