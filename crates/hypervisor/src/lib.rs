//! Host / VM / container topology for the DoubleDecker reproduction.
//!
//! A [`Host`] owns the physical resources of the paper's testbed: the
//! DoubleDecker hypervisor cache (memory + SSD stores), the shared
//! spinning disk behind every VM's virtual disk, and the set of guest VMs.
//! It exposes:
//!
//! * **lifecycle** — boot/shutdown VMs (with cache weights), create and
//!   destroy containers inside them (which performs the CREATE_CGROUP /
//!   DESTROY_CGROUP pool handshakes),
//! * **the two policy control points** (paper §3) — the hypervisor-level
//!   controller (VM weights, memory-store capacity) and the per-VM controller
//!   (container `<T, W>` policies, cgroup limits), the latter routed
//!   through the guest so every control action crosses the same interface
//!   the paper modifies,
//! * **the data path** — container reads/writes/fsyncs and anonymous
//!   memory touches, each flowing page cache → cleancache hypercall →
//!   DoubleDecker store → disk,
//! * **introspection** — per-container cache occupancy and per-VM usage,
//!   used by the benchmark harness to regenerate the paper's occupancy
//!   figures.
//!
//! # Example
//!
//! ```
//! use ddc_hypercache::{CacheConfig, CachePolicy};
//! use ddc_hypervisor::{Host, HostConfig};
//! use ddc_sim::SimTime;
//! use ddc_storage::{BlockAddr, FileId};
//!
//! let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(1024)));
//! let vm = host.boot_vm(256, 100); // 256 MiB guest, cache weight 100
//! let web = host.create_container(vm, "web", 1024, CachePolicy::mem(100));
//! let addr = BlockAddr::new(ddc_hypervisor::vm_file(vm, 1), 0);
//! let r = host.read(SimTime::ZERO, vm, web, addr);
//! assert_eq!(r.level, ddc_guest::HitLevel::Disk);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use ddc_cleancache::{CachePolicy, PoolStats, SecondChanceCache, VmId};
use ddc_guest::{
    CgroupId, CgroupMemStats, GuestConfig, GuestEnv, GuestOs, ReadResult, WriteResult,
};
use ddc_hypercache::{CacheConfig, CacheTotals, DoubleDeckerCache, RecoveryReport, VmUsage};
use ddc_sim::{FaultSchedule, SimTime};
use ddc_storage::{BlockAddr, Device, FileId};

/// Builds a [`FileId`] namespaced to one VM, so that two VMs' virtual
/// disks never alias blocks on the shared physical device.
pub fn vm_file(vm: VmId, local_inode: u64) -> FileId {
    debug_assert!(local_inode < 1 << 32, "local inode space is 32-bit");
    FileId(((vm.0 as u64) << 32) | local_inode)
}

/// Host-level configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostConfig {
    /// Hypervisor cache configuration.
    pub cache: CacheConfig,
}

impl HostConfig {
    /// Creates a host configuration around a cache configuration.
    pub fn new(cache: CacheConfig) -> HostConfig {
        HostConfig { cache }
    }
}

/// The physical host: hypervisor cache, shared disk, and guest VMs.
#[derive(Debug)]
pub struct Host {
    cache: DoubleDeckerCache,
    disk: Device,
    vms: BTreeMap<VmId, GuestOs>,
    next_vm: u32,
}

impl Host {
    /// Creates a host with an empty VM set.
    pub fn new(config: HostConfig) -> Host {
        Host {
            cache: DoubleDeckerCache::new(config.cache),
            disk: Device::hdd(),
            vms: BTreeMap::new(),
            next_vm: 1,
        }
    }

    // ------------------------------------------------------------------
    // VM lifecycle and the hypervisor-level policy controller.
    // ------------------------------------------------------------------

    /// Boots a VM with `mem_mb` MiB of guest RAM and the given hypervisor
    /// cache weight. Returns its id.
    pub fn boot_vm(&mut self, mem_mb: u64, cache_weight: u64) -> VmId {
        let vm = VmId(self.next_vm);
        let booted = self.boot_vm_with_id(vm, mem_mb, cache_weight);
        debug_assert!(booted, "no VM holds an id at or past next_vm");
        vm
    }

    /// Shuts a VM down, dropping all its cache objects. The guest goes
    /// without any cgroup or pool teardown handshake, so an abrupt crash
    /// is this same call. Cached copies are clean, so nothing is lost,
    /// and a guest later booted under the id ([`Host::boot_vm_with_id`])
    /// never observes stale cache state.
    ///
    /// Returns `false` (without side effects) if the VM does not exist,
    /// so teardown paths can run after a partial failure.
    pub fn shutdown_vm(&mut self, vm: VmId) -> bool {
        if self.vms.remove(&vm).is_none() {
            return false;
        }
        self.cache.remove_vm(vm);
        true
    }

    /// Boots a VM under a caller-chosen id — the reboot half of a
    /// crash/reboot cycle, where the platform reassigns the same domain
    /// id. Returns `false` if a VM with this id is already running.
    pub fn boot_vm_with_id(&mut self, vm: VmId, mem_mb: u64, cache_weight: u64) -> bool {
        if self.vms.contains_key(&vm) {
            return false;
        }
        self.next_vm = self.next_vm.max(vm.0 + 1);
        self.cache.add_vm(vm, cache_weight);
        self.vms
            .insert(vm, GuestOs::new(vm, GuestConfig::with_mem_mb(mem_mb)));
        true
    }

    /// Reboots a VM in place: a shutdown followed by a boot under the
    /// same domain id. All cache objects and guest state are
    /// dropped, so the rebooted guest starts cold and can never observe
    /// stale pre-reboot cache pages. Returns `false` (no side effects)
    /// if the VM does not exist.
    pub fn reboot_vm(&mut self, vm: VmId, mem_mb: u64, cache_weight: u64) -> bool {
        if !self.shutdown_vm(vm) {
            return false;
        }
        let booted = self.boot_vm_with_id(vm, mem_mb, cache_weight);
        debug_assert!(booted, "id was just freed by shutdown_vm");
        booted
    }

    /// Updates a VM's hypervisor cache weight (dynamic provisioning).
    pub fn set_vm_cache_weight(&mut self, vm: VmId, weight: u64) {
        self.cache.set_vm_weight(vm, weight);
    }

    /// Resizes the memory store of the hypervisor cache.
    pub fn set_mem_cache_capacity(&mut self, now: SimTime, pages: u64) {
        self.cache.set_mem_capacity(now, pages);
    }

    /// Ids of running VMs.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Fault plane.
    // ------------------------------------------------------------------

    /// Installs a fault schedule on the cache's SSD store. Faulted SSD IO
    /// quarantines the tier (all SSD pages invalidated); until a recovery
    /// probe succeeds, SSD-bound puts go to the memory store, or are
    /// turned away if it has no capacity. Pass `None` to clear.
    pub fn set_ssd_fault_schedule(&mut self, faults: Option<FaultSchedule>) {
        self.cache.set_ssd_fault_schedule(faults);
    }

    /// Installs (or clears) a fault schedule on one VM's hypercall
    /// channel (dropped or slowed get/put calls; flushes stay reliable).
    /// Returns `false` if the VM does not exist.
    pub fn set_channel_fault_schedule(&mut self, vm: VmId, faults: Option<FaultSchedule>) -> bool {
        match self.vms.get_mut(&vm) {
            Some(guest) => {
                guest.set_channel_fault_schedule(faults);
                true
            }
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Crash-and-recovery plane.
    // ------------------------------------------------------------------

    /// Turns on write-ahead journaling of every hypervisor cache state
    /// transition. Idempotent. Must be called before the operations that
    /// a later [`Host::crash_and_recover`] should be able to replay.
    pub fn enable_cache_journal(&mut self) {
        self.cache.enable_journal();
    }

    /// The cache's full journal image so far (`None` if journaling is
    /// off). A crash harness snapshots this, cuts or corrupts a suffix,
    /// and feeds the damaged prefix to [`Host::crash_and_recover`].
    pub fn cache_journal_image(&self) -> Option<Vec<u8>> {
        self.cache.journal_bytes().map(<[u8]>::to_vec)
    }

    /// Simulates a crash of the hypervisor caching layer followed by a
    /// warm restart from `journal_image` — typically a truncated or
    /// corrupted prefix of [`Host::cache_journal_image`]. The guests and
    /// their virtual disks are untouched (in a derivative cloud the
    /// caching daemon can die independently of the VMs it serves); only
    /// the second-chance cache state is rebuilt.
    ///
    /// Each guest's flush epoch is snapshotted before the swap and fed to
    /// [`DoubleDeckerCache::recover`], which discards any replayed entry
    /// an acknowledged invalidation may have covered — recovery can lose
    /// entries, never resurrect stale ones. The fresh epochs minted by
    /// the recovery checkpoint are redistributed to the running guests.
    pub fn crash_and_recover(&mut self, journal_image: &[u8]) -> RecoveryReport {
        let epochs: Vec<(VmId, u64)> = self
            .vms
            .iter()
            .map(|(&vm, guest)| (vm, guest.flush_epoch()))
            .collect();
        let (cache, report) =
            DoubleDeckerCache::recover(self.cache.current_config(), journal_image, &epochs);
        self.cache = cache;
        for &(vm, epoch) in &report.new_epochs {
            if let Some(guest) = self.vms.get_mut(&vm) {
                guest.note_recovery_epoch(epoch);
            }
        }
        report
    }

    /// Flips one recovered cache entry's stored bits (bit-rot injection
    /// for the chaos harness). Returns `false` if the entry is absent.
    /// The damage is detected lazily by verify-on-read, which fails the
    /// get and (for SSD entries) quarantines the tier.
    pub fn corrupt_cache_entry(
        &mut self,
        vm: VmId,
        pool: ddc_cleancache::PoolId,
        addr: BlockAddr,
    ) -> bool {
        self.cache.corrupt_entry(vm, pool, addr)
    }

    // ------------------------------------------------------------------
    // Container lifecycle and the VM-level policy controller.
    // ------------------------------------------------------------------

    /// Creates a container in `vm` with a cgroup memory limit (pages) and
    /// a hypervisor-cache `<T, W>` policy.
    ///
    /// # Panics
    ///
    /// Panics if the VM does not exist.
    pub fn create_container(
        &mut self,
        vm: VmId,
        name: &str,
        mem_limit_pages: u64,
        policy: CachePolicy,
    ) -> CgroupId {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.create_cgroup(&mut env, name, mem_limit_pages, policy)
    }

    /// Destroys a container, freeing its guest memory and cache pool.
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn destroy_container(&mut self, vm: VmId, cg: CgroupId) {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.destroy_cgroup(&mut env, cg);
    }

    /// Updates a container's `<T, W>` policy from inside the VM
    /// (SET_CG_WEIGHT).
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn set_container_policy(&mut self, vm: VmId, cg: CgroupId, policy: CachePolicy) {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.set_cg_policy(&mut env, cg, policy);
    }

    /// Updates a container's cgroup memory limit.
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn set_container_mem_limit(
        &mut self,
        now: SimTime,
        vm: VmId,
        cg: CgroupId,
        mem_limit_pages: u64,
    ) {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.set_cg_mem_limit(&mut env, now, cg, mem_limit_pages);
    }

    // ------------------------------------------------------------------
    // Data path.
    // ------------------------------------------------------------------

    /// Reads one block on behalf of a container.
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn read(&mut self, now: SimTime, vm: VmId, cg: CgroupId, addr: BlockAddr) -> ReadResult {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.read(&mut env, now, cg, addr)
    }

    /// Writes one block on behalf of a container.
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn write(&mut self, now: SimTime, vm: VmId, cg: CgroupId, addr: BlockAddr) -> WriteResult {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.write(&mut env, now, cg, addr)
    }

    /// Fsyncs one file of a container.
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn fsync(&mut self, now: SimTime, vm: VmId, cg: CgroupId, file: FileId) -> SimTime {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.fsync(&mut env, now, cg, file)
    }

    /// Deletes a container file everywhere (page cache + cleancache).
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn delete_file(&mut self, vm: VmId, cg: CgroupId, file: FileId) {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.delete_file(&mut env, cg, file)
    }

    /// Drops a container's clean page-cache pages into the second-chance
    /// cache (the `drop_caches` administrative knob).
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn drop_caches(&mut self, now: SimTime, vm: VmId, cg: CgroupId) {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.drop_caches(&mut env, now, cg);
    }

    /// Reserves anonymous memory for a container.
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn anon_reserve(&mut self, vm: VmId, cg: CgroupId, pages: u64) {
        self.guest_mut(vm).anon_reserve(cg, pages);
    }

    /// Touches one anonymous page of a container.
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn anon_touch(&mut self, now: SimTime, vm: VmId, cg: CgroupId, page: u64) -> SimTime {
        let (guest, mut env) = Self::split(&mut self.vms, &mut self.cache, &mut self.disk, vm);
        guest.anon_touch(&mut env, now, cg, page)
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// Host-side view of one container's cache pool statistics.
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn container_cache_stats(&self, vm: VmId, cg: CgroupId) -> Option<PoolStats> {
        let pool = self.guest(vm).cgroup(cg).pool()?;
        self.cache.pool_stats(vm, pool)
    }

    /// Guest-side memory statistics of one container.
    ///
    /// # Panics
    ///
    /// Panics if the VM or container does not exist.
    pub fn container_mem_stats(&self, vm: VmId, cg: CgroupId) -> CgroupMemStats {
        self.guest(vm).cgroup_mem_stats(cg)
    }

    /// Aggregate cache usage of one VM.
    pub fn vm_cache_usage(&self, vm: VmId) -> VmUsage {
        self.cache.vm_usage(vm)
    }

    /// Cache-wide totals (occupancy, capacities, evictions).
    pub fn cache_totals(&self) -> CacheTotals {
        self.cache.totals()
    }

    /// Immutable access to the hypervisor cache (for benches/tests).
    pub fn cache(&self) -> &DoubleDeckerCache {
        &self.cache
    }

    /// Immutable access to a guest.
    ///
    /// # Panics
    ///
    /// Panics if the VM does not exist; use [`Host::try_guest`] for a
    /// non-panicking variant.
    pub fn guest(&self, vm: VmId) -> &GuestOs {
        self.vms.get(&vm).unwrap_or_else(|| panic!("unknown {vm}"))
    }

    /// Immutable access to a guest, or `None` if the VM does not exist
    /// (e.g. it crashed).
    pub fn try_guest(&self, vm: VmId) -> Option<&GuestOs> {
        self.vms.get(&vm)
    }

    /// Mutable access to a guest (for configuration not involving the
    /// hypervisor, e.g. disabling cleancache).
    ///
    /// # Panics
    ///
    /// Panics if the VM does not exist.
    pub fn guest_mut(&mut self, vm: VmId) -> &mut GuestOs {
        self.vms
            .get_mut(&vm)
            .unwrap_or_else(|| panic!("unknown {vm}"))
    }

    /// Shared-disk utilization over `[0, now]`.
    pub fn disk_utilization(&self, now: SimTime) -> f64 {
        self.disk.utilization(now)
    }

    /// Splits the host into one guest plus the environment it needs,
    /// keeping the borrows disjoint.
    fn split<'a>(
        vms: &'a mut BTreeMap<VmId, GuestOs>,
        cache: &'a mut DoubleDeckerCache,
        disk: &'a mut Device,
        vm: VmId,
    ) -> (&'a mut GuestOs, GuestEnv<'a>) {
        let guest = vms.get_mut(&vm).unwrap_or_else(|| panic!("unknown {vm}"));
        let env = GuestEnv {
            backend: cache as &mut dyn SecondChanceCache,
            disk,
        };
        (guest, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_guest::HitLevel;
    use ddc_hypercache::{PartitionMode, StoreKind, EVICTION_BATCH_PAGES};

    fn host_with_cache(pages: u64) -> Host {
        Host::new(HostConfig::new(CacheConfig::mem_only(pages)))
    }

    fn a(vm: VmId, inode: u64, block: u64) -> BlockAddr {
        BlockAddr::new(vm_file(vm, inode), block)
    }

    #[test]
    fn full_stack_read_path() {
        let mut host = host_with_cache(1024);
        let vm = host.boot_vm(1, 100); // 1 MiB guest: 16 blocks
        let cg = host.create_container(vm, "c", 8, CachePolicy::mem(100));
        let mut now = SimTime::ZERO;
        // Working set larger than the cgroup limit: pages cycle through
        // the page cache into the hypervisor cache.
        for b in 0..16 {
            now = host.read(now, vm, cg, a(vm, 1, b)).finish;
        }
        let r = host.read(now, vm, cg, a(vm, 1, 0));
        assert_eq!(r.level, HitLevel::Cleancache, "second-chance hit");
        let stats = host.container_cache_stats(vm, cg).unwrap();
        assert!(stats.puts > 0);
        assert!(stats.hits > 0);
    }

    /// GET_STATS from inside the guest answers what the host reads for
    /// the same container, for one control hypercall.
    #[test]
    fn guest_get_stats_is_the_host_view_for_one_control_call() {
        let mut host = host_with_cache(1024);
        let vm = host.boot_vm(1, 100);
        let cg = host.create_container(vm, "c", 4, CachePolicy::mem(100));
        let mut now = SimTime::ZERO;
        for b in 0..12 {
            now = host.read(now, vm, cg, a(vm, 1, b)).finish;
        }
        let want = host.container_cache_stats(vm, cg);
        assert!(want.is_some_and(|s| s.mem_pages > 0 && s.puts > 0));
        let before = host.guest(vm).channel().counters();
        let (guest, mut env) = Host::split(&mut host.vms, &mut host.cache, &mut host.disk, vm);
        assert_eq!(guest.hypercache_stats(&mut env, cg), want);
        let after = host.guest(vm).channel().counters();
        assert_eq!(after.calls - before.calls, 1);
        assert_eq!(after.control_ops - before.control_ops, 1);
    }

    #[test]
    fn two_vms_share_cache_with_isolation() {
        let mut host = host_with_cache(2 * EVICTION_BATCH_PAGES);
        let vm1 = host.boot_vm(1, 60);
        let vm2 = host.boot_vm(1, 40);
        let c1 = host.create_container(vm1, "a", 4, CachePolicy::mem(100));
        let c2 = host.create_container(vm2, "b", 4, CachePolicy::mem(100));
        let mut now = SimTime::ZERO;
        // Both fill well beyond capacity.
        for b in 0..(3 * EVICTION_BATCH_PAGES) {
            now = host.read(now, vm1, c1, a(vm1, 1, b)).finish;
            now = host.read(now, vm2, c2, a(vm2, 1, b)).finish;
        }
        let u1 = host.vm_cache_usage(vm1);
        let u2 = host.vm_cache_usage(vm2);
        let total = u1.mem_pages + u2.mem_pages;
        assert!(total <= 2 * EVICTION_BATCH_PAGES);
        // The 60-weight VM should end up with more cache than the 40.
        assert!(
            u1.mem_pages >= u2.mem_pages,
            "weight 60 ({}) should hold at least as much as weight 40 ({})",
            u1.mem_pages,
            u2.mem_pages
        );
    }

    #[test]
    fn shutdown_vm_releases_cache() {
        let mut host = host_with_cache(1024);
        let vm = host.boot_vm(1, 100);
        let cg = host.create_container(vm, "c", 4, CachePolicy::mem(100));
        let mut now = SimTime::ZERO;
        for b in 0..12 {
            now = host.read(now, vm, cg, a(vm, 1, b)).finish;
        }
        assert!(host.cache_totals().mem_used_pages > 0);
        host.shutdown_vm(vm);
        assert_eq!(host.cache_totals().mem_used_pages, 0);
        assert!(host.vm_ids().is_empty());
        assert!(!host.shutdown_vm(vm), "second shutdown is a safe no-op");
    }

    #[test]
    fn crash_and_reboot_with_same_id_sees_no_stale_data() {
        let mut host = host_with_cache(1024);
        let vm = host.boot_vm(1, 100);
        let cg = host.create_container(vm, "c", 4, CachePolicy::mem(100));
        let mut now = SimTime::ZERO;
        // Write then cycle through the page cache so versioned copies
        // land in the hypervisor cache.
        for b in 0..12 {
            now = host.write(now, vm, cg, a(vm, 1, b)).finish;
        }
        now = host.fsync(now, vm, cg, vm_file(vm, 1));
        for b in 0..12 {
            now = host.read(now, vm, cg, a(vm, 1, b)).finish;
        }
        assert!(host.cache_totals().mem_used_pages > 0);
        assert!(host.shutdown_vm(vm));
        assert_eq!(
            host.cache_totals().mem_used_pages,
            0,
            "crash reclaims every page the VM owned"
        );
        assert!(host.try_guest(vm).is_none());
        // Reboot under the same domain id and re-read the same blocks:
        // everything must come from the virtual disk, never from a
        // pre-crash cached copy. GuestOs::read asserts version coherence
        // internally, so a stale hit would abort the test.
        assert!(host.boot_vm_with_id(vm, 1, 100));
        assert!(!host.boot_vm_with_id(vm, 1, 100), "already running");
        let cg2 = host.create_container(vm, "c", 4, CachePolicy::mem(100));
        let r = host.read(now, vm, cg2, a(vm, 1, 0));
        assert_eq!(r.level, HitLevel::Disk, "cold after reboot");
        // Fresh ids from boot_vm never collide with the rebooted id.
        let other = host.boot_vm(1, 100);
        assert_ne!(other, vm);
    }

    #[test]
    fn fault_plane_reaches_cache_and_channel() {
        use ddc_sim::{FaultKind, FaultSchedule};
        let mut host = Host::new(HostConfig::new(CacheConfig::mem_and_ssd(64, 256)));
        host.set_ssd_fault_schedule(Some(FaultSchedule::new(7).with_window(
            SimTime::ZERO,
            None,
            FaultKind::TransientErrors { rate: 1.0 },
        )));
        assert!(
            !host.cache().ssd_quarantined(),
            "quarantine waits for real IO"
        );
        let vm = host.boot_vm(1, 100);
        assert!(host.set_channel_fault_schedule(
            vm,
            Some(FaultSchedule::new(8).with_window(
                SimTime::ZERO,
                None,
                FaultKind::TransientErrors { rate: 1.0 },
            ))
        ));
        assert!(!host.set_channel_fault_schedule(VmId(99), None));
        let cg = host.create_container(vm, "c", 4, CachePolicy::ssd(100));
        let mut now = SimTime::ZERO;
        for b in 0..12 {
            now = host.read(now, vm, cg, a(vm, 1, b)).finish;
        }
        let counters = host.guest(vm).channel().counters();
        assert!(
            counters.dropped_calls > 0,
            "channel schedule drops hypercalls"
        );
        let _ = now;
    }

    #[test]
    fn policy_change_propagates_to_cache() {
        let mut host = Host::new(HostConfig::new(CacheConfig::mem_and_ssd(1024, 1024)));
        let vm = host.boot_vm(1, 100);
        let cg = host.create_container(vm, "c", 4, CachePolicy::mem(100));
        let mut now = SimTime::ZERO;
        for b in 0..12 {
            now = host.read(now, vm, cg, a(vm, 1, b)).finish;
        }
        let before = host.container_cache_stats(vm, cg).unwrap();
        assert!(before.mem_pages > 0);
        assert_eq!(before.ssd_pages, 0);
        host.set_container_policy(vm, cg, CachePolicy::ssd(100));
        let after = host.container_cache_stats(vm, cg).unwrap();
        assert_eq!(after.mem_pages, 0, "objects re-homed to SSD");
        assert_eq!(after.ssd_pages, before.mem_pages);
        let _ = now;
    }

    #[test]
    fn container_mem_limit_change() {
        let mut host = host_with_cache(1024);
        let vm = host.boot_vm(4, 100);
        let cg = host.create_container(vm, "c", 32, CachePolicy::mem(100));
        let mut now = SimTime::ZERO;
        for b in 0..32 {
            now = host.read(now, vm, cg, a(vm, 1, b)).finish;
        }
        host.set_container_mem_limit(now, vm, cg, 4);
        assert!(host.container_mem_stats(vm, cg).page_cache_pages <= 4);
    }

    #[test]
    fn write_fsync_delete_cycle() {
        let mut host = host_with_cache(1024);
        let vm = host.boot_vm(4, 100);
        let cg = host.create_container(vm, "mail", 32, CachePolicy::mem(100));
        let file = vm_file(vm, 7);
        let mut now = SimTime::ZERO;
        for b in 0..4 {
            now = host.write(now, vm, cg, BlockAddr::new(file, b)).finish;
        }
        now = host.fsync(now, vm, cg, file);
        assert_eq!(host.container_mem_stats(vm, cg).dirty_pages, 0);
        host.delete_file(vm, cg, file);
        let r = host.read(now, vm, cg, BlockAddr::new(file, 0));
        assert_eq!(r.level, HitLevel::Disk);
    }

    #[test]
    fn anon_path_through_host() {
        let mut host = host_with_cache(1024);
        let vm = host.boot_vm(1, 100); // 16 blocks of RAM
        let cg = host.create_container(vm, "redis", 64, CachePolicy::mem(100));
        host.anon_reserve(vm, cg, 32);
        let mut now = SimTime::ZERO;
        for p in 0..32 {
            now = host.anon_touch(now, vm, cg, p);
        }
        let stats = host.container_mem_stats(vm, cg);
        assert!(stats.swap_out_total > 0, "guest RAM too small, must swap");
        assert!(stats.anon_resident_pages < 32);
    }

    #[test]
    fn dynamic_vm_weight_and_capacity() {
        let mut host = host_with_cache(512);
        let vm1 = host.boot_vm(1, 100);
        host.set_vm_cache_weight(vm1, 60);
        host.set_mem_cache_capacity(SimTime::ZERO, 1024);
        assert_eq!(host.cache_totals().mem_capacity_pages, 1024);
        assert_eq!(host.cache().mode(), PartitionMode::DoubleDecker);
    }

    #[test]
    fn vm_file_namespacing() {
        let f1 = vm_file(VmId(1), 7);
        let f2 = vm_file(VmId(2), 7);
        assert_ne!(f1, f2);
        let f3 = vm_file(VmId(1), 8);
        assert_ne!(f1, f3);
    }

    #[test]
    fn disk_is_shared_across_vms() {
        let mut host = host_with_cache(0); // no hypervisor cache at all
        let vm1 = host.boot_vm(1, 100);
        let vm2 = host.boot_vm(1, 100);
        let c1 = host.create_container(vm1, "a", 8, CachePolicy::disabled());
        let c2 = host.create_container(vm2, "b", 8, CachePolicy::disabled());
        // Two simultaneous cold reads contend on the single spindle.
        let r1 = host.read(SimTime::ZERO, vm1, c1, a(vm1, 1, 0));
        let r2 = host.read(SimTime::ZERO, vm2, c2, a(vm2, 1, 0));
        assert!(r2.finish > r1.finish, "second read queues behind first");
        assert!(host.disk_utilization(r2.finish) > 0.5);
    }

    #[test]
    fn store_kind_is_exposed() {
        // Cheap compile-surface check that hypercache types re-export
        // cleanly through this crate's public deps.
        assert_eq!(StoreKind::Mem.to_string(), "Mem");
    }

    #[test]
    fn cache_crash_recover_continue() {
        let mut host = Host::new(HostConfig::new(CacheConfig::mem_and_ssd(256, 256)));
        host.enable_cache_journal();
        let vm1 = host.boot_vm(1, 100);
        let vm2 = host.boot_vm(1, 100);
        let c1 = host.create_container(vm1, "a", 4, CachePolicy::mem(100));
        let c2 = host.create_container(vm2, "b", 4, CachePolicy::ssd(100));
        let mut now = SimTime::ZERO;
        // Writes create versions; fsync + re-reads churn copies into the
        // second-chance cache; more writes open invalidation windows.
        for round in 0..3 {
            for b in 0..12 {
                now = host.write(now, vm1, c1, a(vm1, 1, b)).finish;
                now = host.write(now, vm2, c2, a(vm2, 1, b)).finish;
            }
            now = host.fsync(now, vm1, c1, vm_file(vm1, 1));
            now = host.fsync(now, vm2, c2, vm_file(vm2, 1));
            for b in 0..12 {
                now = host.read(now, vm1, c1, a(vm1, 1, b)).finish;
                now = host.read(now, vm2, c2, a(vm2, 1, b)).finish;
            }
            let _ = round;
        }
        let image = host.cache_journal_image().expect("journaling on");
        let durable = host.cache().journal_durable_len().unwrap();
        assert!(durable <= image.len());
        // Crash the caching layer, losing everything past the durable
        // watermark plus a torn half-record.
        let cut = durable.saturating_sub(5);
        let report = host.crash_and_recover(&image[..cut]);
        assert!(report.records_replayed > 0);
        assert!(ddc_hypercache::audit(host.cache()).is_empty());
        // The recovered cache journals a checkpoint of its own.
        assert!(!host.cache_journal_image().unwrap().is_empty());
        // Guests keep running against the recovered cache; GuestOs::read
        // asserts version coherence, and the release-mode counter must
        // stay zero — recovery may lose entries, never serve stale ones.
        for b in 0..12 {
            now = host.read(now, vm1, c1, a(vm1, 1, b)).finish;
            now = host.read(now, vm2, c2, a(vm2, 1, b)).finish;
        }
        assert_eq!(host.guest(vm1).counters().stale_cleancache_hits, 0);
        assert_eq!(host.guest(vm2).counters().stale_cleancache_hits, 0);
        assert!(ddc_hypercache::audit(host.cache()).is_empty());
    }

    #[test]
    fn corrupt_recovered_entry_is_quarantined_not_served() {
        let mut host = Host::new(HostConfig::new(CacheConfig::mem_and_ssd(128, 128)));
        host.enable_cache_journal();
        let vm = host.boot_vm(1, 100);
        let cg = host.create_container(vm, "c", 4, CachePolicy::ssd(100));
        let mut now = SimTime::ZERO;
        for b in 0..12 {
            now = host.read(now, vm, cg, a(vm, 1, b)).finish;
        }
        let image = host.cache_journal_image().unwrap();
        host.crash_and_recover(&image);
        // Bit-rot one recovered SSD entry; the damage must surface as a
        // failed get + quarantine, never as served data.
        let entries = host.cache().entries();
        assert!(!entries.is_empty(), "recovery restored SSD entries");
        let (evm, pool, addr, _) = entries[0];
        assert!(host.corrupt_cache_entry(evm, pool, addr));
        let r = host.read(now, evm, cg, addr);
        assert_eq!(r.level, HitLevel::Disk, "corrupt slot falls through");
        assert!(
            host.cache().ssd_quarantined(),
            "verify-on-read quarantined SSD"
        );
        assert_eq!(host.guest(evm).counters().stale_cleancache_hits, 0);
    }

    #[test]
    #[should_panic(expected = "unknown vm9")]
    fn unknown_vm_panics() {
        let host = host_with_cache(16);
        host.guest(VmId(9));
    }
}
