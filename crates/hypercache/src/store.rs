//! The storage module: backend-independent page storage services.
//!
//! Per the paper (§4.2), the storage module provides "backend independent
//! services to read storage blocks, allocate new storage blocks and free
//! storage blocks". Two backends exist: host memory (kernel page
//! allocation + memcpy) and a raw SSD block layer where reads are
//! synchronous and writes asynchronous.

use ddc_sim::{FaultSchedule, SimDuration, SimTime};
use ddc_storage::{BlockAddr, Device, IoError};

/// One backing store (memory or SSD) of the hypervisor cache.
///
/// Tracks page-granularity occupancy against a capacity limit and charges
/// device time for transfers.
///
/// # Example
///
/// ```
/// use ddc_hypercache::store::BackingStore;
/// use ddc_sim::SimTime;
/// use ddc_storage::{BlockAddr, FileId};
///
/// let mut s = BackingStore::mem(16);
/// assert!(s.try_alloc());
/// let finish = s.try_write(SimTime::ZERO, BlockAddr::new(FileId(1), 0)).unwrap();
/// assert!(finish > SimTime::ZERO);
/// s.free(1);
/// assert_eq!(s.used_pages(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct BackingStore {
    device: Device,
    capacity_pages: u64,
    used_pages: u64,
    /// Fixed CPU-side cost of staging an asynchronous write (the caller
    /// pays this instead of the device time).
    async_stage_cost: SimDuration,
    sync_writes: bool,
}

impl BackingStore {
    /// A memory-backed store: synchronous page copies.
    pub fn mem(capacity_pages: u64) -> BackingStore {
        BackingStore {
            device: Device::ram(),
            capacity_pages,
            used_pages: 0,
            async_stage_cost: SimDuration::ZERO,
            sync_writes: true,
        }
    }

    /// An SSD-backed store: synchronous reads, asynchronous writes staged
    /// through a bounce buffer (paper §4.2).
    pub fn ssd(capacity_pages: u64) -> BackingStore {
        BackingStore {
            device: Device::ssd_sata(),
            capacity_pages,
            used_pages: 0,
            // Staging a page for async write costs about a RAM copy.
            async_stage_cost: SimDuration::from_micros(1),
            sync_writes: false,
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Updates the capacity. Shrinking below current usage is allowed; the
    /// caller (policy module) is responsible for evicting the excess.
    pub fn set_capacity_pages(&mut self, capacity_pages: u64) {
        self.capacity_pages = capacity_pages;
    }

    /// Pages currently allocated.
    pub fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Whether the store has no capacity at all (disabled).
    pub fn is_disabled(&self) -> bool {
        self.capacity_pages == 0
    }

    /// Whether an allocation would currently succeed.
    pub fn has_room(&self) -> bool {
        self.used_pages < self.capacity_pages
    }

    /// Attempts to allocate one page of accounting space.
    pub fn try_alloc(&mut self) -> bool {
        if self.has_room() {
            self.used_pages += 1;
            true
        } else {
            false
        }
    }

    /// Releases `pages` pages of accounting space.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more pages are freed than are in use.
    pub fn free(&mut self, pages: u64) {
        debug_assert!(pages <= self.used_pages, "store accounting underflow");
        self.used_pages = self.used_pages.saturating_sub(pages);
    }

    /// Attaches (or clears) a fault schedule on the store's device,
    /// consulted by every read and write.
    pub fn set_fault_schedule(&mut self, faults: Option<FaultSchedule>) {
        self.device.set_fault_schedule(faults);
    }

    /// Reads one page synchronously, returning the completion instant,
    /// or the IO error the device fault schedule injected.
    pub fn try_read(&mut self, now: SimTime, addr: BlockAddr) -> Result<SimTime, IoError> {
        Ok(self.device.try_read(now, addr)?.finish)
    }

    /// Writes one page, returning when the *caller* may proceed: the
    /// device completion for synchronous (memory) stores, or the staging
    /// cost for asynchronous (SSD) stores. For the asynchronous path an
    /// injected failure is reported immediately, modelling an
    /// IO-completion error on the staged write.
    pub fn try_write(&mut self, now: SimTime, addr: BlockAddr) -> Result<SimTime, IoError> {
        if self.sync_writes {
            Ok(self.device.try_write(now, addr)?.finish)
        } else {
            self.device.try_write(now, addr)?;
            Ok(now + self.async_stage_cost)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_storage::FileId;

    fn addr(b: u64) -> BlockAddr {
        BlockAddr::new(FileId(9), b)
    }

    #[test]
    fn alloc_respects_capacity() {
        let mut s = BackingStore::mem(2);
        assert!(s.try_alloc());
        assert!(s.try_alloc());
        assert!(!s.try_alloc());
        assert_eq!(s.used_pages(), 2);
        assert!(!s.has_room());
        s.free(1);
        assert!(s.has_room());
        assert!(s.try_alloc());
    }

    #[test]
    fn zero_capacity_store_is_disabled() {
        let mut s = BackingStore::ssd(0);
        assert!(s.is_disabled());
        assert!(!s.try_alloc());
    }

    #[test]
    fn mem_writes_are_synchronous_and_fast() {
        let mut s = BackingStore::mem(16);
        let f = s.try_write(SimTime::ZERO, addr(0)).unwrap();
        let elapsed = f.saturating_since(SimTime::ZERO);
        assert!(elapsed > SimDuration::ZERO);
        assert!(elapsed < SimDuration::from_micros(100));
    }

    #[test]
    fn ssd_writes_are_async() {
        let mut s = BackingStore::ssd(16);
        // Caller returns after staging, far sooner than the device time.
        let f = s.try_write(SimTime::ZERO, addr(0)).unwrap();
        assert_eq!(f, SimTime::ZERO + SimDuration::from_micros(1));
        // But the device is actually occupied: a subsequent synchronous
        // read queues behind the async write.
        let r = s.try_read(SimTime::ZERO, addr(1)).unwrap();
        assert!(r.saturating_since(SimTime::ZERO) > SimDuration::from_micros(50));
    }

    #[test]
    fn ssd_reads_slower_than_mem_reads() {
        let mut mem = BackingStore::mem(16);
        let mut ssd = BackingStore::ssd(16);
        let m = mem.try_read(SimTime::ZERO, addr(0)).unwrap();
        let s = ssd.try_read(SimTime::ZERO, addr(0)).unwrap();
        assert!(m < s);
    }

    #[test]
    fn capacity_resize() {
        let mut s = BackingStore::mem(4);
        for _ in 0..4 {
            assert!(s.try_alloc());
        }
        s.set_capacity_pages(2);
        assert_eq!(s.capacity_pages(), 2);
        assert_eq!(s.used_pages(), 4, "shrink does not evict by itself");
        assert!(!s.has_room());
        s.set_capacity_pages(8);
        assert!(s.has_room());
    }

    #[test]
    fn try_paths_surface_injected_faults() {
        use ddc_sim::{FaultKind, FaultSchedule};
        let mut s = BackingStore::ssd(16);
        s.set_fault_schedule(Some(FaultSchedule::new(1).with_window(
            SimTime::ZERO,
            None,
            FaultKind::TransientErrors { rate: 1.0 },
        )));
        assert!(s.try_write(SimTime::ZERO, addr(1)).is_err());
        assert!(s.try_read(SimTime::ZERO, addr(1)).is_err());
        s.set_fault_schedule(None);
        assert!(s.try_write(SimTime::ZERO, addr(1)).is_ok());
        assert!(s.try_read(SimTime::ZERO, addr(1)).is_ok());
    }
}
