//! The storage module: backend-independent page storage services.
//!
//! Per the paper (§4.2), the storage module provides "backend independent
//! services to read storage blocks, allocate new storage blocks and free
//! storage blocks". Two backends exist: host memory (kernel page
//! allocation + memcpy) and a raw SSD block layer where reads are
//! synchronous and writes asynchronous.

use ddc_sim::{FaultSchedule, SimDuration, SimTime};
use ddc_storage::{BlockAddr, Device, DeviceKind, IoError};

use crate::StoreKind;

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
/// let finish = s.write(SimTime::ZERO, BlockAddr::new(FileId(1), 0));
/// assert!(finish > SimTime::ZERO);
/// s.free(1);
/// assert_eq!(s.used_pages(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct BackingStore {
    kind: StoreKind,
    device: Device,
    capacity_pages: u64,
    /// `capacity_pages * 1000 / object_millipages`, kept by the two
    /// setters that move either: `has_room` runs on every put and a
    /// 64-bit divide is most of it.
    capacity_objects: u64,
    used_pages: u64,
    /// Fixed CPU-side cost of staging an asynchronous write (the caller
    /// pays this instead of the device time).
    async_stage_cost: SimDuration,
    sync_writes: bool,
    /// zcache-style in-band compression: per-object footprint in
    /// millipages (1000 = uncompressed). A ratio of 500 doubles the
    /// effective object capacity.
    object_millipages: u64,
    /// CPU cost of compressing on store / decompressing on load.
    codec_cost: SimDuration,
}

impl BackingStore {
    /// A memory-backed store: synchronous page copies.
    pub fn mem(capacity_pages: u64) -> BackingStore {
        BackingStore {
            kind: StoreKind::Mem,
            device: Device::ram(),
            capacity_pages,
            capacity_objects: capacity_pages,
            used_pages: 0,
            async_stage_cost: SimDuration::ZERO,
            sync_writes: true,
            object_millipages: 1000,
            codec_cost: SimDuration::ZERO,
        }
    }

    /// An SSD-backed store: synchronous reads, asynchronous writes staged
    /// through a bounce buffer (paper §4.2).
    pub fn ssd(capacity_pages: u64) -> BackingStore {
        BackingStore {
            kind: StoreKind::Ssd,
            device: Device::ssd_sata(),
            capacity_pages,
            capacity_objects: capacity_pages,
            used_pages: 0,
            // Staging a page for async write costs about a RAM copy.
            async_stage_cost: SimDuration::from_micros(1),
            sync_writes: false,
            object_millipages: 1000,
            codec_cost: SimDuration::ZERO,
        }
    }

    /// Enables zcache-style in-band compression: each object occupies
    /// `object_millipages`/1000 of a page (e.g. 500 halves the footprint
    /// and doubles effective capacity) and every store/load pays
    /// `codec_cost` of CPU time. Only meaningful for the memory store.
    ///
    /// # Panics
    ///
    /// Panics if `object_millipages` is zero or above 1000.
    pub fn set_compression(&mut self, object_millipages: u64, codec_cost: SimDuration) {
        assert!(
            (1..=1000).contains(&object_millipages),
            "compression ratio must be in (0, 1]"
        );
        self.object_millipages = object_millipages;
        self.codec_cost = codec_cost;
        self.capacity_objects = self.capacity_pages * 1000 / object_millipages;
    }

    /// Effective capacity in objects, accounting for compression.
    pub fn capacity_objects(&self) -> u64 {
        self.capacity_objects
    }

    /// The store kind (`Mem` or `Ssd`).
    pub fn kind(&self) -> StoreKind {
        self.kind
    }

    /// The underlying device class.
    pub fn device_kind(&self) -> DeviceKind {
        self.device.kind()
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Updates the capacity. Shrinking below current usage is allowed; the
    /// caller (policy module) is responsible for evicting the excess.
    pub fn set_capacity_pages(&mut self, capacity_pages: u64) {
        self.capacity_pages = capacity_pages;
        self.capacity_objects = capacity_pages * 1000 / self.object_millipages;
    }

    /// Pages currently allocated.
    pub fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Objects still allocatable.
    pub fn free_pages(&self) -> u64 {
        self.capacity_objects().saturating_sub(self.used_pages)
    }

    /// Whether the store has no capacity at all (disabled).
    pub fn is_disabled(&self) -> bool {
        self.capacity_pages == 0
    }

    /// Whether an allocation would currently succeed.
    pub fn has_room(&self) -> bool {
        self.used_pages < self.capacity_objects()
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

    /// Reads one page synchronously, returning the completion instant
    /// (including decompression when compression is on).
    pub fn read(&mut self, now: SimTime, addr: BlockAddr) -> SimTime {
        self.device.read(now, addr).finish + self.codec_cost
    }

    /// Writes one page, returning when the *caller* may proceed: the
    /// device completion for synchronous (memory) stores, or the staging
    /// cost for asynchronous (SSD) stores.
    pub fn write(&mut self, now: SimTime, addr: BlockAddr) -> SimTime {
        let start = now + self.codec_cost;
        if self.sync_writes {
            self.device.write(start, addr).finish
        } else {
            self.device.write_async(start, addr);
            start + self.async_stage_cost
        }
    }

    /// Attaches (or clears) a fault schedule on the store's device. Only
    /// the fallible [`try_read`](BackingStore::try_read) /
    /// [`try_write`](BackingStore::try_write) paths consult it.
    pub fn set_fault_schedule(&mut self, faults: Option<FaultSchedule>) {
        self.device.set_fault_schedule(faults);
    }

    /// Whether the store's device has died permanently.
    pub fn is_dead(&self) -> bool {
        self.device.is_dead()
    }

    /// IOs failed by the device fault schedule.
    pub fn io_errors(&self) -> u64 {
        self.device.io_errors()
    }

    /// Fallible variant of [`read`](BackingStore::read): consults the
    /// device fault schedule and surfaces injected IO errors.
    pub fn try_read(&mut self, now: SimTime, addr: BlockAddr) -> Result<SimTime, IoError> {
        let io = self.device.try_read(now, addr)?;
        Ok(io.finish + self.codec_cost)
    }

    /// Fallible variant of [`write`](BackingStore::write). For the
    /// asynchronous (SSD) path an injected failure is reported
    /// immediately, modelling an IO-completion error on the staged write.
    pub fn try_write(&mut self, now: SimTime, addr: BlockAddr) -> Result<SimTime, IoError> {
        let start = now + self.codec_cost;
        if self.sync_writes {
            Ok(self.device.try_write(start, addr)?.finish)
        } else {
            self.device.try_write_async(start, addr)?;
            Ok(start + self.async_stage_cost)
        }
    }

    /// Device utilization over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.device.utilization(now)
    }

    /// Total device reads performed.
    pub fn device_reads(&self) -> u64 {
        self.device.reads()
    }

    /// Total device writes performed.
    pub fn device_writes(&self) -> u64 {
        self.device.writes()
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
        assert_eq!(s.free_pages(), 0);
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
        let f = s.write(SimTime::ZERO, addr(0));
        let elapsed = f.saturating_since(SimTime::ZERO);
        assert!(elapsed > SimDuration::ZERO);
        assert!(elapsed < SimDuration::from_micros(100));
        assert_eq!(s.device_writes(), 1);
    }

    #[test]
    fn ssd_writes_are_async() {
        let mut s = BackingStore::ssd(16);
        // Caller returns after staging, far sooner than the device time.
        let f = s.write(SimTime::ZERO, addr(0));
        assert_eq!(f, SimTime::ZERO + SimDuration::from_micros(1));
        // But the device is actually occupied: a subsequent synchronous
        // read queues behind the async write.
        let r = s.read(SimTime::ZERO, addr(1));
        assert!(r.saturating_since(SimTime::ZERO) > SimDuration::from_micros(50));
    }

    #[test]
    fn ssd_reads_slower_than_mem_reads() {
        let mut mem = BackingStore::mem(16);
        let mut ssd = BackingStore::ssd(16);
        let m = mem.read(SimTime::ZERO, addr(0));
        let s = ssd.read(SimTime::ZERO, addr(0));
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
    fn compression_expands_capacity() {
        let mut s = BackingStore::mem(4);
        assert_eq!(s.capacity_objects(), 4);
        s.set_compression(500, SimDuration::from_micros(2));
        assert_eq!(s.capacity_objects(), 8, "2:1 compression doubles objects");
        for _ in 0..8 {
            assert!(s.try_alloc());
        }
        assert!(!s.try_alloc(), "effective capacity enforced");
        assert_eq!(s.capacity_pages(), 4, "raw capacity unchanged");
        // The object capacity follows whichever of the two moves, in
        // either order.
        s.set_capacity_pages(7);
        assert_eq!(s.capacity_objects(), 14);
        s.set_compression(300, SimDuration::ZERO);
        assert_eq!(s.capacity_objects(), 7 * 1000 / 300);
        s.set_compression(1000, SimDuration::ZERO);
        assert_eq!(s.capacity_objects(), 7);
        assert_eq!(s.free_pages(), 0, "8 objects in use");
    }

    #[test]
    fn compression_charges_codec_time() {
        let mut plain = BackingStore::mem(16);
        let mut compressed = BackingStore::mem(16);
        compressed.set_compression(500, SimDuration::from_micros(5));
        let p = plain.read(SimTime::ZERO, addr(0));
        let c = compressed.read(SimTime::ZERO, addr(0));
        assert_eq!(c.saturating_since(p), SimDuration::from_micros(5));
        let pw = plain.write(SimTime::ZERO, addr(1));
        let cw = compressed.write(SimTime::ZERO, addr(1));
        assert!(cw > pw, "compression adds CPU time on store");
    }

    #[test]
    #[should_panic(expected = "compression ratio")]
    fn compression_rejects_expansion() {
        BackingStore::mem(4).set_compression(1500, SimDuration::ZERO);
    }

    #[test]
    fn try_paths_surface_injected_faults() {
        use ddc_sim::{FaultKind, FaultSchedule};
        let mut s = BackingStore::ssd(16);
        assert_eq!(
            s.try_write(SimTime::ZERO, addr(0)),
            Ok(SimTime::ZERO + SimDuration::from_micros(1)),
            "no schedule: identical to the infallible async path"
        );
        s.set_fault_schedule(Some(FaultSchedule::new(1).with_window(
            SimTime::ZERO,
            None,
            FaultKind::TransientErrors { rate: 1.0 },
        )));
        assert!(s.try_write(SimTime::ZERO, addr(1)).is_err());
        assert!(s.try_read(SimTime::ZERO, addr(1)).is_err());
        assert_eq!(s.io_errors(), 2);
        assert!(!s.is_dead());
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(BackingStore::mem(1).kind(), StoreKind::Mem);
        assert_eq!(BackingStore::ssd(1).kind(), StoreKind::Ssd);
        assert_eq!(BackingStore::mem(1).device_kind(), DeviceKind::Ram);
        assert_eq!(BackingStore::ssd(1).device_kind(), DeviceKind::Ssd);
    }
}
