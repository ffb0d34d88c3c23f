//! Cache-wide configuration.

use ddc_cleancache::StoreKind;
use ddc_storage::PAGE_SIZE;

use crate::admission::AdmissionConfig;

/// Eviction batch size: the paper evicts "a small batch (2 MB)" when a
/// store request cannot be serviced because of limit violations (§4.3).
pub const EVICTION_BATCH_PAGES: u64 = 2 * 1024 * 1024 / PAGE_SIZE;

/// Journal records per live entry before live compaction kicks in
/// (`records > max(JOURNAL_COMPACT_MIN_RECORDS, FACTOR × live)`). Every
/// engine must trigger at the same operation, or the checkpoint rewrite
/// consumes generations at a different point and flush epochs diverge.
pub const JOURNAL_COMPACT_FACTOR: u64 = 8;

/// Journals shorter than this are never compacted — replaying them is
/// already cheap, and the floor keeps tiny caches from re-checkpointing
/// on every handful of ops.
pub const JOURNAL_COMPACT_MIN_RECORDS: u64 = 1024;

/// [`StoreKind`] wire discriminant for journal records.
pub fn store_kind_code(kind: StoreKind) -> u8 {
    match kind {
        StoreKind::Mem => 0,
        StoreKind::Ssd => 1,
        StoreKind::Hybrid => 2,
    }
}

/// Inverse of [`store_kind_code`]; `None` for a code no version wrote.
pub fn store_kind_from_code(code: u8) -> Option<StoreKind> {
    match code {
        0 => Some(StoreKind::Mem),
        1 => Some(StoreKind::Ssd),
        2 => Some(StoreKind::Hybrid),
        _ => None,
    }
}

/// How the cache distributes capacity among its users.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionMode {
    /// DoubleDecker: two-level weighted entitlements with slack
    /// redistribution and Algorithm 1 victim selection.
    #[default]
    DoubleDecker,
    /// Global (tmem-like baseline): container-agnostic, single FIFO per
    /// store, first-come-first-served occupancy.
    Global,
    /// Strict partitions (Morai-like comparator): entitlements are hard
    /// caps; a pool at its cap evicts from itself, and unused entitlement
    /// is never lent out.
    Strict,
}

impl PartitionMode {
    /// Wire discriminant for journal records.
    pub fn code(self) -> u8 {
        match self {
            PartitionMode::DoubleDecker => 0,
            PartitionMode::Global => 1,
            PartitionMode::Strict => 2,
        }
    }

    /// Inverse of [`Self::code`]; `None` for a code no version wrote.
    pub fn from_code(code: u8) -> Option<PartitionMode> {
        match code {
            0 => Some(PartitionMode::DoubleDecker),
            1 => Some(PartitionMode::Global),
            2 => Some(PartitionMode::Strict),
            _ => None,
        }
    }
}

impl std::fmt::Display for PartitionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PartitionMode::DoubleDecker => "doubledecker",
            PartitionMode::Global => "global",
            PartitionMode::Strict => "strict",
        };
        f.write_str(s)
    }
}

/// Construction-time configuration of a [`crate::DoubleDeckerCache`].
///
/// Capacities are in 4 KiB pages and may be changed later at runtime via
/// [`crate::DoubleDeckerCache::set_mem_capacity`] /
/// [`crate::DoubleDeckerCache::set_ssd_capacity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Memory store capacity in pages (0 disables the store).
    pub mem_capacity_pages: u64,
    /// SSD store capacity in pages (0 disables the store).
    pub ssd_capacity_pages: u64,
    /// Partitioning/eviction mode.
    pub mode: PartitionMode,
    /// SSD admission plane (ghost filter + TTL demotion). Defaults to
    /// [`AdmissionConfig::off`], which admits every spill — the
    /// behaviour every pre-existing baseline was recorded under.
    pub admission: AdmissionConfig,
}

impl CacheConfig {
    /// A memory-only DoubleDecker cache.
    pub fn mem_only(mem_capacity_pages: u64) -> CacheConfig {
        CacheConfig {
            mem_capacity_pages,
            ssd_capacity_pages: 0,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        }
    }

    /// A memory + SSD DoubleDecker cache.
    pub fn mem_and_ssd(mem_capacity_pages: u64, ssd_capacity_pages: u64) -> CacheConfig {
        CacheConfig {
            mem_capacity_pages,
            ssd_capacity_pages,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        }
    }

    /// Helper: capacity from mebibytes.
    pub fn pages_from_mb(mb: u64) -> u64 {
        mb * 1024 * 1024 / PAGE_SIZE
    }

    /// Helper: capacity from gibibytes.
    pub fn pages_from_gb(gb: u64) -> u64 {
        Self::pages_from_mb(gb * 1024)
    }

    /// Returns the same configuration with a different mode.
    pub fn with_mode(mut self, mode: PartitionMode) -> CacheConfig {
        self.mode = mode;
        self
    }

    /// Returns the same configuration with the given admission plane.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> CacheConfig {
        self.admission = admission;
        self
    }
}

impl Default for CacheConfig {
    /// A 1 GiB memory-only DoubleDecker cache.
    fn default() -> CacheConfig {
        CacheConfig::mem_only(Self::pages_from_gb(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_batch_is_2mb() {
        assert_eq!(EVICTION_BATCH_PAGES * PAGE_SIZE, 2 * 1024 * 1024);
    }

    #[test]
    fn page_helpers() {
        assert_eq!(CacheConfig::pages_from_mb(1), 1024 * 1024 / PAGE_SIZE);
        assert_eq!(
            CacheConfig::pages_from_gb(1),
            1024 * 1024 * 1024 / PAGE_SIZE
        );
    }

    #[test]
    fn constructors() {
        let c = CacheConfig::mem_only(100);
        assert_eq!(c.mem_capacity_pages, 100);
        assert_eq!(c.ssd_capacity_pages, 0);
        assert_eq!(c.mode, PartitionMode::DoubleDecker);
        let c2 = CacheConfig::mem_and_ssd(10, 20).with_mode(PartitionMode::Global);
        assert_eq!(c2.ssd_capacity_pages, 20);
        assert_eq!(c2.mode, PartitionMode::Global);
        let d = CacheConfig::default();
        assert_eq!(d.mem_capacity_pages, CacheConfig::pages_from_gb(1));
        assert_eq!(d.admission, AdmissionConfig::off());
        let a = CacheConfig::mem_and_ssd(10, 20).with_admission(AdmissionConfig::ghost(8));
        assert_eq!(a.admission.ghost_window, 8);
    }

    #[test]
    fn journal_codes_roundtrip_and_reject_unknown() {
        use crate::index::Placement;
        for kind in [StoreKind::Mem, StoreKind::Ssd, StoreKind::Hybrid] {
            assert_eq!(store_kind_from_code(store_kind_code(kind)), Some(kind));
        }
        for mode in [
            PartitionMode::DoubleDecker,
            PartitionMode::Global,
            PartitionMode::Strict,
        ] {
            assert_eq!(PartitionMode::from_code(mode.code()), Some(mode));
        }
        for placement in [Placement::Mem, Placement::Ssd] {
            assert_eq!(Placement::from_code(placement.code()), Some(placement));
        }
        for code in 3..=u8::MAX {
            assert_eq!(store_kind_from_code(code), None);
            assert_eq!(PartitionMode::from_code(code), None);
            assert_eq!(Placement::from_code(code), None);
        }
        assert_eq!(Placement::from_code(2), None);
    }

    #[test]
    fn mode_display() {
        assert_eq!(PartitionMode::DoubleDecker.to_string(), "doubledecker");
        assert_eq!(PartitionMode::Global.to_string(), "global");
        assert_eq!(PartitionMode::Strict.to_string(), "strict");
    }
}
