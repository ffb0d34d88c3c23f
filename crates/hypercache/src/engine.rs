//! The one engine trait the harnesses drive both engines through.

use ddc_cleancache::{PageVersion, PoolId, SecondChanceCache, VmId};
use ddc_sim::SimTime;
use ddc_storage::{
    BlockAddr, ChunkStore, RemoteCounters, RemoteError, RemoteFetchConfig, RemoteId, WearCounters,
};

use crate::{AuditFinding, CacheConfig, DoubleDeckerCache};

/// A cache engine as the harnesses drive it: the verbs a driver, a
/// scenario or a test suite needs beyond [`SecondChanceCache`], so each
/// is written once, generically, for the serial [`DoubleDeckerCache`] and
/// the sharded engine alike. Each engine implements it with its own
/// inherent methods of the same names.
pub trait Engine: SecondChanceCache + Sized {
    /// A fresh engine over `config`, with `shards` index shards where the
    /// engine has shards.
    fn build(config: CacheConfig, shards: usize) -> Self;
    /// Turns on the write-ahead journal.
    fn enable_journal(&mut self);
    /// Registers a VM (or re-weighs it) with one weight for both stores.
    fn add_vm(&mut self, vm: VmId, weight: u64) {
        self.add_vm_with_store_weights(vm, weight, weight);
    }
    /// Registers a VM (or re-weighs it) with a weight per store.
    fn add_vm_with_store_weights(&mut self, vm: VmId, mem_weight: u64, ssd_weight: u64);
    /// Re-weighs a registered VM; an unknown one is ignored.
    fn set_vm_weight(&mut self, vm: VmId, weight: u64);
    /// Removes a VM and every page of its pools; an unknown one is
    /// ignored.
    fn remove_vm(&mut self, vm: VmId);
    /// Resizes the memory store, evicting the excess if it shrinks.
    fn set_mem_capacity(&mut self, now: SimTime, pages: u64);
    /// Every resident entry as `(vm, pool, addr, version)`, sorted.
    fn entries(&self) -> Vec<(VmId, PoolId, BlockAddr, PageVersion)>;
    /// Pages resident across both stores.
    fn live_pages(&self) -> u64;
    /// Closes a virtual-time tick: the sharded engine's group commit (the
    /// serial engine syncs every flush). Returns the durable watermark.
    fn commit_tick(&mut self) -> u64 {
        0
    }
    /// Live journal compactions so far.
    fn journal_compactions(&self) -> u64;
    /// Journal records since the last compaction, if journaling is on.
    fn journal_records(&self) -> Option<u64>;
    /// Registers a remote chunk store.
    fn register_remote(&mut self, store: ChunkStore) -> Result<RemoteId, RemoteError>;
    /// Binds a pool to a registered remote.
    fn bind_remote(
        &mut self,
        vm: VmId,
        pool: PoolId,
        remote: RemoteId,
        fetch: RemoteFetchConfig,
    ) -> Result<(), RemoteError>;
    /// Remote-tier counters summed over every binding.
    fn remote_totals(&self) -> RemoteCounters;
    /// One VM's cumulative wear.
    fn vm_wear(&self, vm: VmId) -> WearCounters;
    /// Device-level wear totals.
    fn wear_totals(&self) -> WearCounters;
    /// The TTL sweep; returns the pages demoted.
    fn ttl_sweep(&mut self) -> u64;
    /// The engine's invariant auditor: empty when healthy.
    fn audit(&self) -> Vec<AuditFinding>;
}

impl Engine for DoubleDeckerCache {
    fn build(config: CacheConfig, _shards: usize) -> Self {
        DoubleDeckerCache::new(config)
    }
    fn enable_journal(&mut self) {
        DoubleDeckerCache::enable_journal(self);
    }
    fn add_vm_with_store_weights(&mut self, vm: VmId, mem_weight: u64, ssd_weight: u64) {
        DoubleDeckerCache::add_vm_with_store_weights(self, vm, mem_weight, ssd_weight);
    }
    fn set_vm_weight(&mut self, vm: VmId, weight: u64) {
        DoubleDeckerCache::set_vm_weight(self, vm, weight);
    }
    fn remove_vm(&mut self, vm: VmId) {
        DoubleDeckerCache::remove_vm(self, vm);
    }
    fn set_mem_capacity(&mut self, now: SimTime, pages: u64) {
        DoubleDeckerCache::set_mem_capacity(self, now, pages);
    }
    fn entries(&self) -> Vec<(VmId, PoolId, BlockAddr, PageVersion)> {
        DoubleDeckerCache::entries(self)
    }
    fn live_pages(&self) -> u64 {
        let totals = self.totals();
        totals.mem_used_pages + totals.ssd_used_pages
    }
    fn journal_compactions(&self) -> u64 {
        DoubleDeckerCache::journal_compactions(self)
    }
    fn journal_records(&self) -> Option<u64> {
        DoubleDeckerCache::journal_records(self)
    }
    fn register_remote(&mut self, store: ChunkStore) -> Result<RemoteId, RemoteError> {
        DoubleDeckerCache::register_remote(self, store)
    }
    fn bind_remote(
        &mut self,
        vm: VmId,
        pool: PoolId,
        remote: RemoteId,
        fetch: RemoteFetchConfig,
    ) -> Result<(), RemoteError> {
        DoubleDeckerCache::bind_remote(self, vm, pool, remote, fetch)
    }
    fn remote_totals(&self) -> RemoteCounters {
        DoubleDeckerCache::remote_totals(self)
    }
    fn vm_wear(&self, vm: VmId) -> WearCounters {
        DoubleDeckerCache::vm_wear(self, vm)
    }
    fn wear_totals(&self) -> WearCounters {
        DoubleDeckerCache::wear_totals(self)
    }
    fn ttl_sweep(&mut self) -> u64 {
        DoubleDeckerCache::ttl_sweep(self)
    }
    fn audit(&self) -> Vec<AuditFinding> {
        crate::audit(self)
    }
}
