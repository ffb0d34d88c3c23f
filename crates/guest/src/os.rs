//! The guest OS: memory accounting, reclaim, and the file-IO path with the
//! cleancache second-chance lookup.

use ddc_cleancache::{
    CachePolicy, GetOutcome, HypercallChannel, PageVersion, PoolStats, SecondChanceCache, VmId,
};
use ddc_sim::{FaultSchedule, FxHashMap, SimDuration, SimTime};
use ddc_storage::{BlockAddr, Device, FileId, PAGE_SIZE};

use std::collections::BTreeMap;

use crate::{Cgroup, CgroupId, CgroupMemStats};

/// File-id namespace reserved for the swap area (one virtual "swap file"
/// per cgroup, far above any workload inode).
const SWAP_FILE_BASE: u64 = 1 << 40;

/// CPU cost of entering the kernel for one IO request.
const SYSCALL_COST: SimDuration = SimDuration::from_micros(1);

/// CPU cost of copying one cached block to user space (~8 GB/s).
fn copy_cost() -> SimDuration {
    SimDuration::from_nanos(PAGE_SIZE * 1_000_000_000 / 8_000_000_000)
}

/// Background writeback trigger: fraction of a cgroup's limit that may be
/// dirty before the write path starts flushing (Linux's dirty_ratio is
/// 20% by default).
const DIRTY_RATIO_PERCENT: u64 = 20;

/// Pages flushed per background-writeback round.
const WRITEBACK_CHUNK: usize = 32;

/// Writer throttling (`balance_dirty_pages`): when the disk's writeback
/// backlog exceeds this bound, writers wait until it drains back under
/// it, pinning aggregate dirtying rate to device write bandwidth.
const MAX_WRITEBACK_BACKLOG: SimDuration = SimDuration::from_millis(100);

/// Static configuration of a guest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuestConfig {
    /// Total VM memory, in pages.
    pub total_mem_pages: u64,
    /// Pages reserved for the kernel and unreclaimable slab.
    pub kernel_reserved_pages: u64,
}

impl GuestConfig {
    /// A guest with `mb` MiB of RAM, reserving ~3% for the kernel.
    pub fn with_mem_mb(mb: u64) -> GuestConfig {
        let total = mb * 1024 * 1024 / PAGE_SIZE;
        GuestConfig {
            total_mem_pages: total,
            kernel_reserved_pages: total / 32,
        }
    }
}

/// Mutable host-side resources a guest operation may need: the hypervisor
/// cache backend and the VM's virtual disk. Owned by the host; lent to the
/// guest per call.
pub struct GuestEnv<'a> {
    /// The second-chance cache backend (hypervisor cache).
    pub backend: &'a mut dyn SecondChanceCache,
    /// The virtual disk (shared physical device).
    pub disk: &'a mut Device,
}

impl std::fmt::Debug for GuestEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestEnv").finish_non_exhaustive()
    }
}

/// Which tier served a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// First-chance hit in the guest page cache.
    PageCache,
    /// Second-chance hit in the hypervisor cache.
    Cleancache,
    /// Miss everywhere; read from the virtual disk.
    Disk,
}

/// Outcome of a read operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadResult {
    /// When the data was available to the application.
    pub finish: SimTime,
    /// The tier that served it.
    pub level: HitLevel,
}

/// Outcome of a write operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteResult {
    /// When the write call returned (data in page cache, not yet durable).
    pub finish: SimTime,
}

/// Cumulative reclaim/IO counters for the whole guest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuestCounters {
    /// Clean pages evicted to the second-chance cache.
    pub cleancache_puts: u64,
    /// Dirty pages written back by reclaim or background writeback.
    pub writebacks: u64,
    /// Anonymous pages swapped out.
    pub swap_outs: u64,
    /// Anonymous pages swapped in.
    pub swap_ins: u64,
    /// Second-chance hits whose version disagreed with the on-disk
    /// version — the stale-read oracle. Must stay zero: the clean-cache
    /// contract says losing entries is safe, serving stale ones never is.
    pub stale_cleancache_hits: u64,
}

/// A guest operating system: cgroups, memory accounting, reclaim, and the
/// IO path. See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct GuestOs {
    vm: VmId,
    config: GuestConfig,
    channel: HypercallChannel,
    cgroups: BTreeMap<CgroupId, Cgroup>,
    next_cg: u32,
    /// Content version currently on the virtual disk, per block. Blocks
    /// never written have `PageVersion::INITIAL`.
    disk_versions: FxHashMap<BlockAddr, PageVersion>,
    counters: GuestCounters,
}

impl GuestOs {
    /// Boots a guest.
    pub fn new(vm: VmId, config: GuestConfig) -> GuestOs {
        GuestOs {
            vm,
            config,
            channel: HypercallChannel::new(vm),
            cgroups: BTreeMap::new(),
            next_cg: 1,
            disk_versions: FxHashMap::default(),
            counters: GuestCounters::default(),
        }
    }

    /// The VM identity of this guest.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The static configuration.
    pub fn config(&self) -> GuestConfig {
        self.config
    }

    /// The hypercall channel (for counter inspection).
    pub fn channel(&self) -> &HypercallChannel {
        &self.channel
    }

    /// The guest's flush epoch: the highest journal generation the
    /// hypervisor has acknowledged as durably covering our invalidations.
    /// Snapshot this before a simulated crash and feed it to
    /// warm-restart recovery so stale entries are provably discarded.
    pub fn flush_epoch(&self) -> u64 {
        self.channel.flush_epoch()
    }

    /// Installs a new flush epoch after warm-restart recovery. The
    /// recovered cache re-issues epochs so the guest's view stays ahead
    /// of every entry the rebuilt cache may hold.
    pub fn note_recovery_epoch(&mut self, epoch: u64) {
        self.channel.set_flush_epoch(epoch);
    }

    /// Cumulative reclaim/IO counters.
    pub fn counters(&self) -> GuestCounters {
        self.counters
    }

    /// Installs (or clears) a fault schedule on the hypercall channel
    /// (dropped or slowed get/put calls). Flush and control hypercalls
    /// stay reliable; see [`HypercallChannel::set_fault_schedule`].
    pub fn set_channel_fault_schedule(&mut self, faults: Option<FaultSchedule>) {
        self.channel.set_fault_schedule(faults);
    }

    // ------------------------------------------------------------------
    // Cgroup lifecycle (the paper's CREATE_CGROUP / SET_CG_WEIGHT /
    // DESTROY_CGROUP events).
    // ------------------------------------------------------------------

    /// Creates a container cgroup with a hard memory limit (pages) and a
    /// hypervisor-cache policy; performs the CREATE_CGROUP handshake to
    /// obtain the container's pool id.
    pub fn create_cgroup(
        &mut self,
        env: &mut GuestEnv<'_>,
        name: &str,
        mem_limit_pages: u64,
        policy: CachePolicy,
    ) -> CgroupId {
        let id = CgroupId(self.next_cg);
        self.next_cg += 1;
        let mut cg = Cgroup::new(name, mem_limit_pages, policy);
        let pool = self.channel.create_pool(env.backend, policy);
        cg.set_pool(Some(pool));
        self.cgroups.insert(id, cg);
        id
    }

    /// Updates a cgroup's `<T, W>` policy and propagates SET_CG_WEIGHT to
    /// the hypervisor cache.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn set_cg_policy(&mut self, env: &mut GuestEnv<'_>, cg: CgroupId, policy: CachePolicy) {
        let cgroup = self.cgroup_mut(cg);
        cgroup.set_policy(policy);
        if let Some(pool) = cgroup.pool() {
            self.channel.set_policy(env.backend, pool, policy);
        }
    }

    /// Updates a cgroup's hard memory limit, reclaiming immediately if the
    /// cgroup is now over it.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn set_cg_mem_limit(
        &mut self,
        env: &mut GuestEnv<'_>,
        now: SimTime,
        cg: CgroupId,
        mem_limit_pages: u64,
    ) {
        self.cgroup_mut(cg).set_mem_limit_pages(mem_limit_pages);
        while self.cgroup(cg).charged_pages() > mem_limit_pages {
            if !self.reclaim_from(env, now, cg) {
                break;
            }
        }
    }

    /// Destroys a cgroup: notifies the hypervisor cache (DESTROY_CGROUP)
    /// and frees all guest memory charged to it.
    ///
    /// Returns `false` (without side effects) if the cgroup does not
    /// exist, so teardown paths can be retried safely after a partial
    /// failure.
    pub fn destroy_cgroup(&mut self, env: &mut GuestEnv<'_>, cg: CgroupId) -> bool {
        let Some(cgroup) = self.cgroups.remove(&cg) else {
            return false;
        };
        if let Some(pool) = cgroup.pool() {
            self.channel.destroy_pool(env.backend, pool);
        }
        true
    }

    /// GET_STATS for one container's hypervisor cache pool.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn hypercache_stats(&mut self, env: &mut GuestEnv<'_>, cg: CgroupId) -> Option<PoolStats> {
        let pool = self.cgroup(cg).pool()?;
        self.channel.pool_stats(env.backend, pool)
    }

    /// Guest-side memory statistics of one cgroup (Table 1's columns).
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn cgroup_mem_stats(&self, cg: CgroupId) -> CgroupMemStats {
        self.cgroup(cg).mem_stats()
    }

    /// Ids of all live cgroups.
    pub fn cgroup_ids(&self) -> Vec<CgroupId> {
        self.cgroups.keys().copied().collect()
    }

    /// Immutable access to a cgroup.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn cgroup(&self, cg: CgroupId) -> &Cgroup {
        self.cgroups
            .get(&cg)
            .unwrap_or_else(|| panic!("unknown {cg}"))
    }

    fn cgroup_mut(&mut self, cg: CgroupId) -> &mut Cgroup {
        self.cgroups
            .get_mut(&cg)
            .unwrap_or_else(|| panic!("unknown {cg}"))
    }

    // ------------------------------------------------------------------
    // Memory accounting.
    // ------------------------------------------------------------------

    /// Pages in use VM-wide (kernel + all cgroups).
    pub fn used_pages(&self) -> u64 {
        self.config.kernel_reserved_pages
            + self
                .cgroups
                .values()
                .map(Cgroup::charged_pages)
                .sum::<u64>()
    }

    /// Free pages VM-wide.
    pub fn free_pages(&self) -> u64 {
        self.config
            .total_mem_pages
            .saturating_sub(self.used_pages())
    }

    /// Makes room to charge one more page to `cg`: reclaims from the
    /// cgroup while it is at its hard limit, then from the VM while memory
    /// is exhausted. Returns `false` if no progress was possible.
    fn ensure_room(&mut self, env: &mut GuestEnv<'_>, now: SimTime, cg: CgroupId) -> bool {
        let mut guard = 0u32;
        while self.cgroup(cg).at_limit() {
            if !self.reclaim_from(env, now, cg) {
                return false;
            }
            guard += 1;
            if guard > 1_000_000 {
                return false;
            }
        }
        while self.free_pages() == 0 {
            if !self.reclaim_global(env, now) {
                return false;
            }
            guard += 1;
            if guard > 1_000_000 {
                return false;
            }
        }
        true
    }

    /// Reclaims one page from `cg` in Linux order: clean page-cache LRU
    /// first (→ cleancache put), dirty page-cache (writeback, then put),
    /// anonymous LRU to swap last. Returns whether a page was freed.
    fn reclaim_from(&mut self, env: &mut GuestEnv<'_>, now: SimTime, cg: CgroupId) -> bool {
        let pool = self.cgroup(cg).pool();
        if let Some((addr, state)) = self.cgroup_mut(cg).page_cache.pop_lru() {
            if state.dirty {
                // Clustered writeback: flush every dirty block of the
                // file in one (mostly sequential) async burst, as the
                // kernel's writeback clustering does. The popped block's
                // content now matches the disk and may enter the
                // second-chance cache.
                env.disk.write(now, addr);
                self.disk_versions.insert(addr, state.version);
                self.counters.writebacks += 1;
                let siblings: Vec<(BlockAddr, PageVersion)> = {
                    let pc = &self.cgroup(cg).page_cache;
                    pc.dirty_blocks_of(addr.file)
                        .into_iter()
                        .map(|sib| (sib, pc.peek(sib).expect("dirty page resident").version))
                        .collect()
                };
                for (sib, version) in siblings {
                    env.disk.write(now, sib);
                    self.cgroup_mut(cg).page_cache.mark_clean(sib);
                    self.disk_versions.insert(sib, version);
                    self.counters.writebacks += 1;
                }
            }
            if let Some(pool) = pool {
                let out = self
                    .channel
                    .put(env.backend, now, pool, addr, state.version);
                if out.is_stored() {
                    self.counters.cleancache_puts += 1;
                }
            }
            return true;
        }
        // No file pages left: swap anonymous memory.
        if let Some(page) = self.cgroup_mut(cg).anon.swap_out_lru() {
            let swap_addr = BlockAddr::new(FileId(SWAP_FILE_BASE + cg.0 as u64), page);
            env.disk.write(now, swap_addr);
            self.counters.swap_outs += 1;
            return true;
        }
        false
    }

    /// VM-level reclaim victim: the cgroup charging the most memory in
    /// total (page cache + resident anonymous). This approximates global
    /// LRU across all memory: the dominant consumer loses pages first,
    /// and once its file pages are gone its anonymous memory goes to swap
    /// — the squeeze the paper's §5.2.1 observes when an unconstrained
    /// webserver page cache starves Redis.
    fn reclaim_global(&mut self, env: &mut GuestEnv<'_>, now: SimTime) -> bool {
        let victim = self
            .cgroups
            .iter()
            .max_by_key(|(_, c)| c.charged_pages())
            .map(|(id, _)| *id);
        match victim {
            Some(cg) => self.reclaim_from(env, now, cg),
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // File IO path.
    // ------------------------------------------------------------------

    /// Reads one block on behalf of `cg`.
    ///
    /// Lookup order (paper Fig. 1): page cache → second-chance cache
    /// (hypercall `get`) → virtual disk. The block is inserted clean into
    /// the page cache on a miss.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn read(
        &mut self,
        env: &mut GuestEnv<'_>,
        now: SimTime,
        cg: CgroupId,
        addr: BlockAddr,
    ) -> ReadResult {
        let t = now + SYSCALL_COST;
        // Feed the (optional) MRC estimator with the raw access stream.
        if let Some(mrc) = &mut self.cgroup_mut(cg).mrc {
            mrc.record(addr);
        }
        // First chance: page cache.
        if self.cgroup_mut(cg).page_cache.touch(addr).is_some() {
            self.cgroup_mut(cg).reads_by_level[0] += 1;
            return ReadResult {
                finish: t + copy_cost(),
                level: HitLevel::PageCache,
            };
        }
        // Shared files: a real guest has one page cache, so a block
        // resident under another cgroup is visible to this one. Ownership
        // follows the accessor ("the cgroup owner is deduced from the
        // page" — paper §4.1), so the page transfers to this cgroup.
        let shared_owner = self
            .cgroups
            .iter()
            .find(|(id, c)| **id != cg && c.page_cache.contains(addr))
            .map(|(id, _)| *id);
        if let Some(owner) = shared_owner {
            let state = self
                .cgroup_mut(owner)
                .page_cache
                .remove(addr)
                .expect("presence checked");
            self.ensure_room(env, t, cg);
            let cgroup = self.cgroup_mut(cg);
            cgroup.page_cache.insert(addr, state.dirty, state.version);
            cgroup.reads_by_level[0] += 1;
            return ReadResult {
                finish: t + copy_cost(),
                level: HitLevel::PageCache,
            };
        }
        // Second chance: hypervisor cache. A miss in this container's
        // pool triggers MIGRATE_OBJECT probes of the VM's other pools —
        // the paper's mechanism for shared files whose cache ownership
        // changed — before falling through to the disk.
        if let Some(pool) = self.cgroup(cg).pool() {
            let mut outcome = self.channel.get(env.backend, t, pool, addr);
            if outcome == GetOutcome::Miss {
                let others: Vec<ddc_cleancache::PoolId> = self
                    .cgroups
                    .values()
                    .filter_map(Cgroup::pool)
                    .filter(|p| *p != pool)
                    .collect();
                for other in others {
                    self.channel.migrate_object(env.backend, other, pool, addr);
                }
                outcome = self.channel.get(env.backend, t, pool, addr);
            }
            if let GetOutcome::Hit { finish, version } = outcome {
                if version != self.disk_version(addr) {
                    // Counted (not just asserted) so release-mode chaos
                    // runs observe violations too.
                    self.counters.stale_cleancache_hits += 1;
                }
                debug_assert_eq!(
                    version,
                    self.disk_version(addr),
                    "second-chance cache returned stale content for {addr}"
                );
                self.ensure_room(env, finish, cg);
                let cgroup = self.cgroup_mut(cg);
                cgroup.page_cache.insert(addr, false, version);
                cgroup.reads_by_level[1] += 1;
                return ReadResult {
                    finish: finish + copy_cost(),
                    level: HitLevel::Cleancache,
                };
            }
        }
        // Third: the virtual disk.
        let io = env.disk.read(t, addr);
        self.ensure_room(env, io.finish, cg);
        let version = self.disk_version(addr);
        let cgroup = self.cgroup_mut(cg);
        cgroup.page_cache.insert(addr, false, version);
        cgroup.reads_by_level[2] += 1;
        ReadResult {
            finish: io.finish + copy_cost(),
            level: HitLevel::Disk,
        }
    }

    /// Writes one whole block on behalf of `cg`: the page enters the page
    /// cache dirty with a bumped version, and any stale second-chance copy
    /// is invalidated (`flush`). Durability requires [`fsync`](Self::fsync).
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn write(
        &mut self,
        env: &mut GuestEnv<'_>,
        now: SimTime,
        cg: CgroupId,
        addr: BlockAddr,
    ) -> WriteResult {
        let t = now + SYSCALL_COST;
        // Shared-file coherence: a real guest has ONE page cache, so a
        // write invalidates every other container's copy of the block
        // (last-writer-wins; see DESIGN.md). Without this, another
        // container's later clean eviction could resurrect a stale
        // version in the second-chance cache.
        let other_cgs: Vec<CgroupId> = self
            .cgroups
            .iter()
            .filter(|(id, c)| **id != cg && c.page_cache.contains(addr))
            .map(|(id, _)| *id)
            .collect();
        for other in other_cgs {
            self.cgroup_mut(other).page_cache.remove(addr);
        }
        let resident = self.cgroup(cg).page_cache.contains(addr);
        if resident {
            self.cgroup_mut(cg).page_cache.mark_dirty(addr);
        } else {
            self.ensure_room(env, t, cg);
            let version = self.disk_version(addr).bump();
            self.cgroup_mut(cg).page_cache.insert(addr, true, version);
        }
        // Invalidate stale copies in the second-chance cache — in every
        // pool of the VM, since shared files may have been migrated or
        // cached under another container's pool.
        let pools: Vec<ddc_cleancache::PoolId> =
            self.cgroups.values().filter_map(Cgroup::pool).collect();
        for pool in pools {
            self.channel.flush(env.backend, pool, addr);
        }
        let mut finish = t + copy_cost();
        self.maybe_background_writeback(env, finish, cg);
        // balance_dirty_pages: throttle the writer while the device's
        // writeback backlog is deeper than the allowed bound.
        let backlog_limit = finish + MAX_WRITEBACK_BACKLOG;
        if env.disk.busy_until() > backlog_limit {
            finish = env.disk.busy_until() - MAX_WRITEBACK_BACKLOG;
        }
        WriteResult { finish }
    }

    /// Synchronously writes back every dirty page of `file` (fsync).
    /// Returns when the last block is durable.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn fsync(
        &mut self,
        env: &mut GuestEnv<'_>,
        now: SimTime,
        cg: CgroupId,
        file: FileId,
    ) -> SimTime {
        let t = now + SYSCALL_COST;
        let blocks = self.cgroup(cg).page_cache.dirty_blocks_of(file);
        let mut finish = t;
        for addr in blocks {
            let version = self
                .cgroup(cg)
                .page_cache
                .peek(addr)
                .expect("dirty page resident")
                .version;
            let io = env.disk.write(finish, addr);
            finish = io.finish;
            self.disk_versions.insert(addr, version);
            self.cgroup_mut(cg).page_cache.mark_clean(addr);
            self.counters.writebacks += 1;
        }
        finish
    }

    /// Deletes a file: drops its pages from the page cache (dirty pages
    /// are discarded — the file is going away) and invalidates its blocks
    /// in the second-chance cache.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn delete_file(&mut self, env: &mut GuestEnv<'_>, cg: CgroupId, file: FileId) {
        // Drop the file everywhere: every container's page cache and
        // every pool of the second-chance cache (shared-file coherence).
        let ids: Vec<CgroupId> = self.cgroups.keys().copied().collect();
        for id in ids {
            let removed = self.cgroup_mut(id).page_cache.remove_file(file);
            for (addr, _) in &removed {
                self.disk_versions.remove(addr);
            }
        }
        let pools: Vec<ddc_cleancache::PoolId> =
            self.cgroups.values().filter_map(Cgroup::pool).collect();
        for pool in pools {
            self.channel.flush_file(env.backend, pool, file);
        }
        let _ = cg;
    }

    /// Background writeback: if the cgroup's dirty set exceeds the dirty
    /// ratio, flush a chunk asynchronously.
    fn maybe_background_writeback(&mut self, env: &mut GuestEnv<'_>, now: SimTime, cg: CgroupId) {
        let cgroup = self.cgroup(cg);
        let threshold = cgroup.mem_limit_pages() * DIRTY_RATIO_PERCENT / 100;
        if cgroup.page_cache.dirty_len() <= threshold.max(WRITEBACK_CHUNK as u64) {
            return;
        }
        let victims = self.cgroup(cg).page_cache.collect_dirty(WRITEBACK_CHUNK);
        for addr in victims {
            let version = match self.cgroup(cg).page_cache.peek(addr) {
                Some(s) => s.version,
                None => continue,
            };
            env.disk.write(now, addr);
            self.disk_versions.insert(addr, version);
            self.cgroup_mut(cg).page_cache.mark_clean(addr);
            self.counters.writebacks += 1;
        }
    }

    // ------------------------------------------------------------------
    // Anonymous memory path.
    // ------------------------------------------------------------------

    /// Reserves `pages` of anonymous address space for `cg` (not resident
    /// until touched).
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn anon_reserve(&mut self, cg: CgroupId, pages: u64) {
        self.cgroup_mut(cg).anon.grow(pages);
    }

    /// Touches one anonymous page: a resident touch is a cache-speed
    /// access; a first touch demand-zeroes the page; a touch of a
    /// swapped-out page performs a synchronous swap-in read.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist or `page` is out of range.
    pub fn anon_touch(
        &mut self,
        env: &mut GuestEnv<'_>,
        now: SimTime,
        cg: CgroupId,
        page: u64,
    ) -> SimTime {
        let resident = self.cgroup(cg).anon.is_resident(page);
        if resident {
            self.cgroup_mut(cg).anon.touch(page);
            return now + SimDuration::from_nanos(200);
        }
        let was_touched = self.cgroup(cg).anon.was_ever_touched(page);
        self.ensure_room(env, now, cg);
        let mut finish = now + SimDuration::from_micros(2); // fault entry
        if was_touched {
            // Major fault: synchronous swap-in from the disk swap area.
            let swap_addr = BlockAddr::new(FileId(SWAP_FILE_BASE + cg.0 as u64), page);
            finish = env.disk.read(finish, swap_addr).finish;
            self.cgroup_mut(cg).anon.note_swap_in();
            self.counters.swap_ins += 1;
        }
        self.cgroup_mut(cg).anon.touch(page);
        finish
    }

    /// Drops every *clean* page-cache page of a cgroup (the
    /// `drop_caches` administrative knob). Clean pages flow to the
    /// second-chance cache exactly as reclaim would send them; dirty
    /// pages are left in place.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn drop_caches(&mut self, env: &mut GuestEnv<'_>, now: SimTime, cg: CgroupId) {
        let pool = self.cgroup(cg).pool();
        let clean: Vec<BlockAddr> = self.cgroup(cg).page_cache.iter_addrs_clean().collect();
        // The whole sweep is one batched put hypercall: `drop_caches`
        // evicts an entire cgroup's clean set in one administrative
        // action, the canonical case for coalescing the VMCALLs.
        let mut pages = Vec::with_capacity(clean.len());
        for addr in clean {
            let Some(state) = self.cgroup_mut(cg).page_cache.remove(addr) else {
                continue;
            };
            pages.push((addr, state.version));
        }
        if let Some(pool) = pool {
            for out in self.channel.put_many(env.backend, now, pool, &pages) {
                if out.is_stored() {
                    self.counters.cleancache_puts += 1;
                }
            }
        }
    }

    /// Enables in-guest MRC estimation for a container (sampling one in
    /// `sample_rate` addresses).
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist or `sample_rate` is zero.
    pub fn enable_mrc(&mut self, cg: CgroupId, sample_rate: u64) {
        self.cgroup_mut(cg).mrc = Some(crate::MrcEstimator::with_sample_rate(sample_rate));
    }

    /// The container's current miss-ratio curve, if estimation is on.
    ///
    /// # Panics
    ///
    /// Panics if the cgroup does not exist.
    pub fn mrc_curve(&self, cg: CgroupId) -> Option<crate::MissRatioCurve> {
        self.cgroup(cg).mrc.as_ref().map(|m| m.curve())
    }

    /// The authoritative on-disk version of a block. Public so crash
    /// harnesses can sweep recovered cache entries against ground truth.
    pub fn disk_version(&self, addr: BlockAddr) -> PageVersion {
        self.disk_versions
            .get(&addr)
            .copied()
            .unwrap_or(PageVersion::INITIAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_cleancache::{NullCache, PutOutcome};
    use ddc_hypercache_test_shim::new_dd_cache;

    /// A tiny local shim so guest tests exercise a *real* second-chance
    /// backend without a circular crate dependency: we re-implement the
    /// minimum store-everything backend here.
    mod ddc_hypercache_test_shim {
        use super::*;
        use std::collections::HashMap;

        #[derive(Default)]
        pub struct MapCache {
            pools: u32,
            map: HashMap<(VmId, ddc_cleancache::PoolId, BlockAddr), PageVersion>,
            pub capacity: usize,
        }

        pub fn new_dd_cache(capacity: usize) -> MapCache {
            MapCache {
                capacity,
                ..MapCache::default()
            }
        }

        impl SecondChanceCache for MapCache {
            fn create_pool(&mut self, _vm: VmId, _p: CachePolicy) -> ddc_cleancache::PoolId {
                self.pools += 1;
                ddc_cleancache::PoolId(self.pools)
            }
            fn destroy_pool(&mut self, vm: VmId, pool: ddc_cleancache::PoolId) {
                self.map.retain(|(v, p, _), _| !(*v == vm && *p == pool));
            }
            fn set_policy(&mut self, _: VmId, _: ddc_cleancache::PoolId, _: CachePolicy) {}
            fn migrate_object(
                &mut self,
                vm: VmId,
                from: ddc_cleancache::PoolId,
                to: ddc_cleancache::PoolId,
                addr: BlockAddr,
            ) {
                if let Some(v) = self.map.remove(&(vm, from, addr)) {
                    self.map.insert((vm, to, addr), v);
                }
            }
            fn pool_stats(&self, _: VmId, _: ddc_cleancache::PoolId) -> Option<PoolStats> {
                Some(PoolStats::default())
            }
            fn get(
                &mut self,
                now: SimTime,
                vm: VmId,
                pool: ddc_cleancache::PoolId,
                addr: BlockAddr,
            ) -> GetOutcome {
                match self.map.remove(&(vm, pool, addr)) {
                    Some(version) => GetOutcome::Hit {
                        finish: now + SimDuration::from_micros(8),
                        version,
                    },
                    None => GetOutcome::Miss,
                }
            }
            fn put(
                &mut self,
                now: SimTime,
                vm: VmId,
                pool: ddc_cleancache::PoolId,
                addr: BlockAddr,
                version: PageVersion,
            ) -> PutOutcome {
                if self.map.len() >= self.capacity {
                    return PutOutcome::Rejected;
                }
                self.map.insert((vm, pool, addr), version);
                PutOutcome::Stored {
                    finish: now + SimDuration::from_micros(8),
                }
            }
            fn flush(&mut self, vm: VmId, pool: ddc_cleancache::PoolId, addr: BlockAddr) -> u64 {
                self.map.remove(&(vm, pool, addr));
                0
            }
            fn flush_file(&mut self, vm: VmId, pool: ddc_cleancache::PoolId, file: FileId) -> u64 {
                self.map
                    .retain(|(v, p, a), _| !(*v == vm && *p == pool && a.file == file));
                0
            }
        }
    }

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr::new(FileId(f), b)
    }

    fn tiny_guest(mem_pages: u64) -> GuestOs {
        GuestOs::new(
            VmId(0),
            GuestConfig {
                total_mem_pages: mem_pages,
                kernel_reserved_pages: 0,
            },
        )
    }

    #[test]
    fn read_miss_then_hit() {
        let mut guest = tiny_guest(64);
        let mut backend = NullCache::new();
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "c", 32, CachePolicy::default());
        let r1 = guest.read(&mut env, SimTime::ZERO, cg, addr(1, 0));
        assert_eq!(r1.level, HitLevel::Disk);
        let r2 = guest.read(&mut env, r1.finish, cg, addr(1, 0));
        assert_eq!(r2.level, HitLevel::PageCache);
        assert!(r2.finish.saturating_since(r1.finish) < SimDuration::from_micros(100));
    }

    #[test]
    fn eviction_feeds_cleancache_and_get_returns() {
        // Page cache of 4 pages; read 8 distinct blocks, then re-read the
        // first ones: they must come from the second-chance cache.
        let mut guest = tiny_guest(4);
        let mut backend = new_dd_cache(1000);
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "c", 4, CachePolicy::default());
        let mut now = SimTime::ZERO;
        for b in 0..8 {
            now = guest.read(&mut env, now, cg, addr(1, b)).finish;
        }
        assert!(guest.counters().cleancache_puts >= 4);
        let r = guest.read(&mut env, now, cg, addr(1, 0));
        assert_eq!(r.level, HitLevel::Cleancache);
    }

    #[test]
    fn exclusivity_no_stale_reads_after_write() {
        let mut guest = tiny_guest(4);
        let mut backend = new_dd_cache(1000);
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "c", 4, CachePolicy::default());
        let mut now = SimTime::ZERO;
        // Fill, evict (clean copy of (1,0) enters the hypervisor cache),
        // then rewrite (1,0): the flush must invalidate the stale copy.
        for b in 0..8 {
            now = guest.read(&mut env, now, cg, addr(1, b)).finish;
        }
        now = guest.write(&mut env, now, cg, addr(1, 0)).finish;
        now = guest.fsync(&mut env, now, cg, FileId(1));
        // Evict the fresh page too.
        for b in 8..16 {
            now = guest.read(&mut env, now, cg, addr(1, b)).finish;
        }
        // Reading (1,0) again must return the *new* version. The debug
        // assertion in read() enforces this; reaching here without a panic
        // plus the level check is the test.
        let r = guest.read(&mut env, now, cg, addr(1, 0));
        assert!(r.level == HitLevel::Cleancache || r.level == HitLevel::Disk);
    }

    #[test]
    fn cgroup_limit_forces_local_reclaim() {
        let mut guest = tiny_guest(1000);
        let mut backend = NullCache::new();
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "small", 8, CachePolicy::default());
        let mut now = SimTime::ZERO;
        for b in 0..32 {
            now = guest.read(&mut env, now, cg, addr(1, b)).finish;
        }
        let stats = guest.cgroup_mem_stats(cg);
        assert!(
            stats.page_cache_pages <= 8,
            "cgroup must stay at its {}-page limit (got {})",
            8,
            stats.page_cache_pages
        );
        assert!(guest.free_pages() > 900, "VM memory mostly free");
    }

    #[test]
    fn vm_pressure_reclaims_biggest_consumer() {
        let mut guest = tiny_guest(16);
        let mut backend = NullCache::new();
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        // Two cgroups with generous limits; VM memory is the bottleneck.
        let big = guest.create_cgroup(&mut env, "big", 100, CachePolicy::default());
        let small = guest.create_cgroup(&mut env, "small", 100, CachePolicy::default());
        let mut now = SimTime::ZERO;
        for b in 0..12 {
            now = guest.read(&mut env, now, big, addr(1, b)).finish;
        }
        for b in 0..8 {
            now = guest.read(&mut env, now, small, addr(2, b)).finish;
        }
        assert!(guest.used_pages() <= 16);
        let sb = guest.cgroup_mem_stats(big);
        let ss = guest.cgroup_mem_stats(small);
        assert!(
            sb.page_cache_pages + ss.page_cache_pages <= 16,
            "total fits VM memory"
        );
        assert!(ss.page_cache_pages == 8, "small cgroup kept its pages");
    }

    #[test]
    fn write_dirty_then_fsync_durable() {
        let mut guest = tiny_guest(64);
        let mut backend = NullCache::new();
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "c", 32, CachePolicy::default());
        let w = guest.write(&mut env, SimTime::ZERO, cg, addr(1, 0));
        assert_eq!(guest.cgroup_mem_stats(cg).dirty_pages, 1);
        let fin = guest.fsync(&mut env, w.finish, cg, FileId(1));
        assert!(fin > w.finish, "fsync waits for the disk");
        assert_eq!(guest.cgroup_mem_stats(cg).dirty_pages, 0);
        assert_eq!(guest.counters().writebacks, 1);
        // fsync with nothing dirty is fast.
        let fin2 = guest.fsync(&mut env, fin, cg, FileId(1));
        assert!(fin2.saturating_since(fin) <= SimDuration::from_micros(2));
    }

    #[test]
    fn anon_pressure_swaps_and_faults_back() {
        let mut guest = tiny_guest(8);
        let mut backend = NullCache::new();
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "redis", 8, CachePolicy::default());
        guest.anon_reserve(cg, 16);
        let mut now = SimTime::ZERO;
        for p in 0..16 {
            now = guest.anon_touch(&mut env, now, cg, p);
        }
        let stats = guest.cgroup_mem_stats(cg);
        assert!(stats.anon_resident_pages <= 8);
        assert!(stats.swap_out_total >= 8, "pressure must swap");
        // Touch a swapped page: major fault, slow.
        let before = now;
        let after = guest.anon_touch(&mut env, now, cg, 0);
        assert!(
            after.saturating_since(before) > SimDuration::from_millis(1),
            "swap-in pays disk latency"
        );
        assert!(guest.counters().swap_ins >= 1);
    }

    #[test]
    fn anon_wins_over_nothing_but_file_pages_go_first() {
        let mut guest = tiny_guest(8);
        let mut backend = NullCache::new();
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "c", 8, CachePolicy::default());
        let mut now = SimTime::ZERO;
        // 4 file pages + fill the rest with anon.
        for b in 0..4 {
            now = guest.read(&mut env, now, cg, addr(1, b)).finish;
        }
        guest.anon_reserve(cg, 8);
        for p in 0..8 {
            now = guest.anon_touch(&mut env, now, cg, p);
        }
        let stats = guest.cgroup_mem_stats(cg);
        assert_eq!(
            stats.page_cache_pages, 0,
            "file pages are reclaimed before anon is swapped"
        );
        assert_eq!(stats.anon_resident_pages, 8);
    }

    #[test]
    fn delete_file_invalidates_everywhere() {
        let mut guest = tiny_guest(4);
        let mut backend = new_dd_cache(1000);
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "mail", 4, CachePolicy::default());
        let mut now = SimTime::ZERO;
        for b in 0..8 {
            now = guest.read(&mut env, now, cg, addr(1, b)).finish;
        }
        guest.delete_file(&mut env, cg, FileId(1));
        let r = guest.read(&mut env, now, cg, addr(1, 0));
        assert_eq!(r.level, HitLevel::Disk, "deleted file cannot hit caches");
    }

    #[test]
    fn set_cg_mem_limit_reclaims_immediately() {
        let mut guest = tiny_guest(64);
        let mut backend = NullCache::new();
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "c", 32, CachePolicy::default());
        let mut now = SimTime::ZERO;
        for b in 0..20 {
            now = guest.read(&mut env, now, cg, addr(1, b)).finish;
        }
        guest.set_cg_mem_limit(&mut env, now, cg, 5);
        assert!(guest.cgroup_mem_stats(cg).page_cache_pages <= 5);
    }

    #[test]
    fn destroy_cgroup_frees_memory_and_pool() {
        let mut guest = tiny_guest(64);
        let mut backend = new_dd_cache(1000);
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "c", 32, CachePolicy::default());
        let mut now = SimTime::ZERO;
        for b in 0..8 {
            now = guest.read(&mut env, now, cg, addr(1, b)).finish;
        }
        let used_before = guest.used_pages();
        assert!(used_before > 0);
        assert!(guest.destroy_cgroup(&mut env, cg));
        assert_eq!(guest.used_pages(), 0);
        assert!(guest.cgroup_ids().is_empty());
        assert!(
            !guest.destroy_cgroup(&mut env, cg),
            "double destroy is a safe no-op"
        );
    }

    #[test]
    fn background_writeback_bounds_dirty_set() {
        let mut guest = tiny_guest(2048);
        let mut backend = NullCache::new();
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "c", 1024, CachePolicy::default());
        let mut now = SimTime::ZERO;
        for b in 0..600 {
            now = guest.write(&mut env, now, cg, addr(1, b)).finish;
        }
        let stats = guest.cgroup_mem_stats(cg);
        assert!(
            stats.dirty_pages < 600,
            "background writeback must have flushed some of the dirty set (dirty={})",
            stats.dirty_pages
        );
        assert!(guest.counters().writebacks > 0);
    }

    #[test]
    fn drop_caches_moves_clean_pages_to_second_chance() {
        let mut guest = tiny_guest(64);
        let mut backend = new_dd_cache(1000);
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend: &mut backend,
            disk: &mut disk,
        };
        let cg = guest.create_cgroup(&mut env, "c", 32, CachePolicy::default());
        let mut now = SimTime::ZERO;
        for b in 0..8 {
            now = guest.read(&mut env, now, cg, addr(1, b)).finish;
        }
        // Dirty one page; it must survive the drop.
        now = guest.write(&mut env, now, cg, addr(1, 0)).finish;
        guest.drop_caches(&mut env, now, cg);
        let stats = guest.cgroup_mem_stats(cg);
        assert_eq!(stats.page_cache_pages, 1, "only the dirty page remains");
        assert_eq!(stats.dirty_pages, 1);
        assert_eq!(guest.counters().cleancache_puts, 7, "clean pages were put");
        // Dropped pages come back from the second chance, not the disk.
        let r = guest.read(&mut env, now, cg, addr(1, 3));
        assert_eq!(r.level, HitLevel::Cleancache);
    }

    #[test]
    fn guest_accessors() {
        let guest = tiny_guest(64);
        assert_eq!(guest.vm(), VmId(0));
        assert_eq!(guest.config().total_mem_pages, 64);
        assert_eq!(guest.free_pages(), 64);
        assert_eq!(guest.channel().vm(), VmId(0));
    }

    #[test]
    #[should_panic(expected = "unknown cg9")]
    fn unknown_cgroup_panics() {
        let guest = tiny_guest(64);
        guest.cgroup(CgroupId(9));
    }
}
