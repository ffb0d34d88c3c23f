//! The sharded engine behind the harnesses' one engine trait
//! ([`Engine`]): each verb is the inherent method of the same name.

use ddc_cleancache::{PageVersion, PoolId, VmId};
use ddc_hypercache::{AuditFinding, CacheConfig, Engine};
use ddc_sim::SimTime;
use ddc_storage::{
    BlockAddr, ChunkStore, RemoteCounters, RemoteError, RemoteFetchConfig, RemoteId, WearCounters,
};

use crate::ShardedCache;

impl Engine for ShardedCache {
    fn build(config: CacheConfig, shards: usize) -> Self {
        ShardedCache::new(config, shards)
    }
    fn enable_journal(&mut self) {
        ShardedCache::enable_journal(self);
    }
    fn add_vm_with_store_weights(&mut self, vm: VmId, mem_weight: u64, ssd_weight: u64) {
        ShardedCache::add_vm_with_store_weights(self, vm, mem_weight, ssd_weight);
    }
    fn set_vm_weight(&mut self, vm: VmId, weight: u64) {
        ShardedCache::set_vm_weight(self, vm, weight);
    }
    fn remove_vm(&mut self, vm: VmId) {
        ShardedCache::remove_vm(self, vm);
    }
    fn set_mem_capacity(&mut self, now: SimTime, pages: u64) {
        ShardedCache::set_mem_capacity(self, now, pages);
    }
    fn entries(&self) -> Vec<(VmId, PoolId, BlockAddr, PageVersion)> {
        ShardedCache::entries(self)
    }
    fn live_pages(&self) -> u64 {
        self.mem_used_pages() + self.ssd_used_pages()
    }
    fn commit_tick(&mut self) -> u64 {
        ShardedCache::commit_tick(self)
    }
    fn journal_compactions(&self) -> u64 {
        ShardedCache::journal_compactions(self)
    }
    fn journal_records(&self) -> Option<u64> {
        ShardedCache::journal_records(self)
    }
    fn register_remote(&mut self, store: ChunkStore) -> Result<RemoteId, RemoteError> {
        ShardedCache::register_remote(self, store)
    }
    fn bind_remote(
        &mut self,
        vm: VmId,
        pool: PoolId,
        remote: RemoteId,
        fetch: RemoteFetchConfig,
    ) -> Result<(), RemoteError> {
        ShardedCache::bind_remote(self, vm, pool, remote, fetch)
    }
    fn remote_totals(&self) -> RemoteCounters {
        ShardedCache::remote_totals(self)
    }
    fn vm_wear(&self, vm: VmId) -> WearCounters {
        ShardedCache::vm_wear(self, vm)
    }
    fn wear_totals(&self) -> WearCounters {
        ShardedCache::wear_totals(self)
    }
    fn ttl_sweep(&mut self) -> u64 {
        ShardedCache::ttl_sweep(self)
    }
    fn audit(&self) -> Vec<AuditFinding> {
        crate::audit(self)
    }
}
