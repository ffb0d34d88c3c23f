//! The DoubleDecker hypervisor cache front-end.
//!
//! Wires the indexing module, the two backing stores and the policy module
//! into a [`SecondChanceCache`] backend, with dynamic reconfiguration of
//! weights, policies and capacities, and the Global/Strict comparator
//! modes (fixed at construction).

use std::cell::RefCell;

use ddc_cleancache::{
    CachePolicy, GetOutcome, PageVersion, PoolId, PoolStats, PutOutcome, SecondChanceCache,
    StoreKind, VmId,
};
use ddc_sim::{BreakerConfig, CircuitBreaker, FaultSchedule, SimDuration, SimTime};
use ddc_storage::{
    BlockAddr, ChunkStore, FileId, Journal, JournalRecord, RemoteBinding, RemoteCounters,
    RemoteError, RemoteFetchConfig, RemoteId, RemoteRegistry, WearCounters,
};

use crate::admission::AdmissionConfig;
use crate::index::Placement;
use crate::policy::ShareTable;
use crate::registry::{Registry, ShareMemo};
use crate::shard::{
    self, Cut, IoResult, OldestFirst, Placed, RecoveryReport, ReplayLog, ShardState, SsdHealth,
    StoreBackend,
};
use crate::store::BackingStore;
use crate::{store_kind_code, CacheConfig, PartitionMode, EVICTION_BATCH_PAGES};

/// Aggregate usage of one VM across both stores, in pages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmUsage {
    /// Pages held in the memory store by all pools of the VM.
    pub mem_pages: u64,
    /// Pages held in the SSD store by all pools of the VM.
    pub ssd_pages: u64,
}

/// Cache-wide occupancy and counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Memory store pages in use.
    pub mem_used_pages: u64,
    /// Memory store capacity.
    pub mem_capacity_pages: u64,
    /// SSD store pages in use.
    pub ssd_used_pages: u64,
    /// SSD store capacity.
    pub ssd_capacity_pages: u64,
    /// Objects evicted since construction (all pools).
    pub evictions: u64,
    /// Objects trickled down from the memory to the SSD store (hybrid
    /// pools only).
    pub trickle_downs: u64,
    /// Times the SSD tier was quarantined after a store fault.
    pub ssd_quarantines: u64,
    /// Times a quarantined SSD tier recovered (a probe write succeeded).
    pub ssd_recoveries: u64,
    /// Pages invalidated wholesale when the SSD tier was quarantined.
    pub quarantine_invalidated_pages: u64,
    /// Lookups that failed on a store fault (all pools).
    pub failed_gets: u64,
    /// Stores that failed on a store fault (all pools).
    pub failed_puts: u64,
}

/// The serial engine's [`StoreBackend`]: its two stores addressed by
/// placement, the insertion sequence, and the SSD tier's health — a
/// quarantine breaker over the SSD device and the faults counted.
#[derive(Debug)]
pub(crate) struct Stores {
    pub(crate) mem: BackingStore,
    pub(crate) ssd: BackingStore,
    pub(crate) next_seq: u64,
    /// SSD-tier health as a threshold-1 [`CircuitBreaker`]: a single
    /// store fault quarantines (opens) the tier, `allows` gates the
    /// recovery-probe put, and failed probes double the backoff. Shares
    /// the state machine with the hypercall put breaker and the remote
    /// client.
    ssd_breaker: CircuitBreaker,
    /// A fault just opened the breaker: the engine drains the tier
    /// ([`DoubleDeckerCache::drain_tripped_ssd`]).
    tripped: bool,
    /// Reads and writes that failed on a store fault (a rotten copy is a
    /// failed read).
    failed_gets: u64,
    failed_puts: u64,
}

impl Stores {
    pub(crate) fn new(config: &CacheConfig) -> Stores {
        Stores {
            mem: BackingStore::mem(config.mem_capacity_pages),
            ssd: BackingStore::ssd(config.ssd_capacity_pages),
            next_seq: 1,
            ssd_breaker: CircuitBreaker::new(BreakerConfig {
                threshold: 1,
                initial_backoff: DoubleDeckerCache::SSD_PROBE_INITIAL_BACKOFF,
                max_backoff: DoubleDeckerCache::SSD_PROBE_MAX_BACKOFF,
            }),
            tripped: false,
            failed_gets: 0,
            failed_puts: 0,
        }
    }

    pub(crate) fn of(&self, placement: Placement) -> &BackingStore {
        match placement {
            Placement::Mem => &self.mem,
            Placement::Ssd => &self.ssd,
        }
    }

    fn of_mut(&mut self, placement: Placement) -> &mut BackingStore {
        match placement {
            Placement::Mem => &mut self.mem,
            Placement::Ssd => &mut self.ssd,
        }
    }

    /// A fault of `placement`'s store at `now`; one of the SSD tier may
    /// trip its breaker.
    fn fault(&mut self, now: SimTime, placement: Placement) {
        if placement == Placement::Ssd {
            self.tripped |= self.ssd_breaker.note_failure(now);
        }
    }
}

impl StoreBackend for Stores {
    #[inline]
    fn try_alloc(&mut self, placement: Placement) -> bool {
        self.of_mut(placement).try_alloc()
    }

    #[inline]
    fn free(&mut self, placement: Placement, pages: u64) {
        self.of_mut(placement).free(pages);
    }

    #[inline]
    fn is_disabled(&self, placement: Placement) -> bool {
        self.of(placement).is_disabled()
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn set_capacity(&mut self, placement: Placement, pages: u64) {
        self.of_mut(placement).set_capacity_pages(pages);
    }

    #[inline]
    fn read(&mut self, now: SimTime, placement: Placement, addr: BlockAddr) -> IoResult {
        let read = self.of_mut(placement).try_read(now, addr);
        if read.is_err() {
            self.failed_gets += 1;
            self.fault(now, placement);
        }
        read
    }

    /// A write that succeeds on the SSD closes its breaker: while the
    /// tier is quarantined only a put's recovery probe writes there.
    #[inline]
    fn write(&mut self, now: SimTime, placement: Placement, addr: BlockAddr) -> IoResult {
        let written = self.of_mut(placement).try_write(now, addr);
        if written.is_err() {
            self.failed_puts += 1;
            self.fault(now, placement);
        } else if placement == Placement::Ssd {
            self.ssd_breaker.note_success();
        }
        written
    }

    fn note_rot(&mut self, now: SimTime, placement: Placement) {
        self.failed_gets += 1;
        self.fault(now, placement);
    }

    /// While the tier is quarantined an SSD-bound put goes to the
    /// memory store if it has capacity, and is turned away if not.
    #[inline]
    fn ssd_health(&self, now: SimTime) -> SsdHealth {
        if self.ssd_breaker.allows(now) {
            SsdHealth::Through
        } else if !self.mem.is_disabled() {
            SsdHealth::ToMem
        } else {
            SsdHealth::Reject
        }
    }

    #[inline]
    fn ssd_quarantined(&self) -> bool {
        self.ssd_breaker.is_open()
    }
}

/// Appends a record lazily (not yet durable). Returns the record's
/// generation, or 0 when journaling is off.
fn append(journal: &mut Option<Journal>, rec: &JournalRecord) -> u64 {
    journal.as_mut().map_or(0, |j| j.append(rec))
}

/// The DoubleDecker hypervisor cache store.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug)]
pub struct DoubleDeckerCache {
    mode: PartitionMode,
    pub(crate) stores: Stores,
    /// Registered VMs and pools ([`crate::registry`]).
    pub(crate) registry: Registry<()>,
    /// Every pool and the retired wear: the one shard of this engine
    /// (see [`crate::shard`]).
    pub(crate) state: ShardState,
    // Interior mutability because readers (`pool_stats`) fill it behind
    // `&self`.
    pub(crate) share_memo: RefCell<ShareMemo<()>>,
    quarantine_invalidated: u64,
    /// How many times live compaction rewrote the journal as a
    /// checkpoint (see [`DoubleDeckerCache::maybe_compact_journal`]).
    journal_compactions: u64,
    /// Write-ahead journal of every state transition; `None` until
    /// [`DoubleDeckerCache::enable_journal`]. Flush records are synced
    /// before the hypercall returns (see `ddc_storage::Journal`).
    journal: Option<Journal>,
    /// Remote chunk stores registered with this host.
    remote_registry: RemoteRegistry,
    /// SSD admission plane (ghost filter window + TTL), from the config.
    admission: AdmissionConfig,
}

impl DoubleDeckerCache {
    /// Creates a cache from a configuration.
    pub fn new(config: CacheConfig) -> DoubleDeckerCache {
        DoubleDeckerCache {
            mode: config.mode,
            stores: Stores::new(&config),
            registry: Registry::default(),
            state: ShardState::default(),
            share_memo: RefCell::default(),
            quarantine_invalidated: 0,
            journal_compactions: 0,
            journal: None,
            remote_registry: RemoteRegistry::new(),
            admission: config.admission,
        }
    }

    /// First recovery-probe delay after the SSD tier is quarantined.
    pub const SSD_PROBE_INITIAL_BACKOFF: SimDuration = SimDuration::from_millis(100);

    /// Backoff ceiling for repeated failed recovery probes.
    pub const SSD_PROBE_MAX_BACKOFF: SimDuration = SimDuration::from_secs(10);

    /// The partitioning mode.
    pub fn mode(&self) -> PartitionMode {
        self.mode
    }

    /// The construction-time configuration the cache currently reflects
    /// (capacities follow runtime resizes).
    pub fn current_config(&self) -> CacheConfig {
        CacheConfig {
            mem_capacity_pages: self.stores.mem.capacity_pages(),
            ssd_capacity_pages: self.stores.ssd.capacity_pages(),
            mode: self.mode,
            admission: self.admission,
        }
    }

    // ------------------------------------------------------------------
    // Write-ahead journal (crash-and-recovery plane).
    // ------------------------------------------------------------------

    /// Turns on journaling: from here on every state transition appends a
    /// [`JournalRecord`], and `flush`/`flush_file` return their synced
    /// generation (the flush epoch). Enabling on a non-empty cache is
    /// allowed but only transitions after this call are recorded, so
    /// callers normally enable right after construction.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Journal::new());
        }
    }

    /// Whether journaling is on.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// The raw journal image (including unsynced bytes), if journaling is
    /// on. Crash harnesses snapshot this and hand a (possibly truncated
    /// or corrupted) copy to [`DoubleDeckerCache::recover`].
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.journal.as_ref().map(|j| j.bytes())
    }

    /// Bytes of the journal guaranteed durable (at or below the last
    /// sync), if journaling is on. A clean or torn crash never loses
    /// bytes below this watermark.
    pub fn journal_durable_len(&self) -> Option<usize> {
        self.journal.as_ref().map(|j| j.durable_len())
    }

    /// Appends a record lazily ([`append`]).
    fn log(&mut self, rec: JournalRecord) -> u64 {
        append(&mut self.journal, &rec)
    }

    /// Appends a record and syncs the journal (flush hypercalls are
    /// acknowledged only once durable). Returns the generation, or 0
    /// when journaling is off.
    fn log_synced(&mut self, rec: JournalRecord) -> u64 {
        match self.journal.as_mut() {
            Some(j) => {
                let gen = j.append(&rec);
                j.sync();
                gen
            }
            None => 0,
        }
    }

    /// Records appended to the journal since it was (re)started, if
    /// journaling is on. Drops back after a live compaction.
    pub fn journal_records(&self) -> Option<u64> {
        self.journal.as_ref().map(|j| j.records())
    }

    /// How many times live compaction rewrote the journal.
    pub fn journal_compactions(&self) -> u64 {
        self.journal_compactions
    }

    /// Live journal compaction: when the journal has accumulated far
    /// more records than there are live entries (`records > max(1024,
    /// 8 × live)`), rewrite it as a checkpoint of the current state so
    /// replay time after a crash stays proportional to cache size, not
    /// history length.
    ///
    /// Safety: the checkpoint continues generations from the old
    /// journal's `next_gen`, so its `Epoch` records carry generations
    /// strictly above every flush epoch acknowledged so far. Recovery's
    /// `replayed >= guest_epoch` check therefore still holds for every
    /// guest without redistributing epochs — distributing the fresh
    /// epochs is an optimization, never a correctness requirement.
    fn maybe_compact_journal(&mut self) {
        let Some(j) = self.journal.as_ref() else {
            return;
        };
        let live = self.stores.mem.used_pages() + self.stores.ssd.used_pages();
        if !shard::compaction_due(j.records(), live) {
            return;
        }
        let start_gen = j.next_gen();
        self.write_checkpoint(start_gen);
        self.journal_compactions += 1;
    }

    // ------------------------------------------------------------------
    // Host-administrator control plane (the hypervisor-level policy
    // controller of §3).
    // ------------------------------------------------------------------

    /// Registers a VM with a cache weight applied to both stores (the
    /// paper's base design). Re-registering updates the weights.
    pub fn add_vm(&mut self, vm: VmId, weight: u64) {
        self.add_vm_with_store_weights(vm, weight, weight);
    }

    /// Registers a VM with *different* weights for the memory and SSD
    /// stores — the generalized setup the paper's footnote 1 describes as
    /// "a straightforward extension".
    pub fn add_vm_with_store_weights(&mut self, vm: VmId, mem_weight: u64, ssd_weight: u64) {
        self.control(JournalRecord::AddVm {
            vm: vm.0,
            mem_weight,
            ssd_weight,
        });
    }

    /// A control-plane verb: applies `rec` exactly as replay will and
    /// journals it, unless the registry ignored it.
    fn control(&mut self, rec: JournalRecord) {
        let state = &mut [&mut self.state];
        if shard::replay_record(&mut self.registry, state, &mut self.stores, 0, &rec) {
            self.log(rec);
        }
    }

    /// Updates a VM's weight in both stores (dynamic provisioning,
    /// Fig. 13). Unknown VMs are ignored: the control plane takes
    /// caller-supplied ids and must not bring the host down over a stale
    /// one (the VM may have been shut down concurrently).
    pub fn set_vm_weight(&mut self, vm: VmId, weight: u64) {
        if self.registry.vm(vm).is_some() {
            self.control(JournalRecord::SetVmWeights {
                vm: vm.0,
                mem_weight: weight,
                ssd_weight: weight,
            });
        }
    }

    /// Removes a VM, dropping every object of all its pools; an unknown
    /// VM is ignored.
    pub fn remove_vm(&mut self, vm: VmId) {
        self.control(JournalRecord::RemoveVm { vm: vm.0 });
    }

    /// Registered VM ids.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.registry.vms().map(|(vm, _)| vm).collect()
    }

    /// Resizes the memory store, evicting the excess if shrinking
    /// (capacity growth — paper Fig. 13 — takes effect immediately).
    pub fn set_mem_capacity(&mut self, now: SimTime, pages: u64) {
        // Logged before the shrink so replay sees the evictions it
        // caused in causal order.
        self.control(JournalRecord::SetMemCapacity { pages });
        self.shrink_to_capacity(now, Placement::Mem);
    }

    // ------------------------------------------------------------------
    // Fault plane: SSD tier health.
    // ------------------------------------------------------------------

    /// Attaches (or clears) a fault schedule on the SSD store's device.
    pub fn set_ssd_fault_schedule(&mut self, faults: Option<FaultSchedule>) {
        self.stores.ssd.set_fault_schedule(faults);
    }

    // ------------------------------------------------------------------
    // Remote chunk-store tier.
    // ------------------------------------------------------------------

    /// Registers a remote chunk store with this host. Duplicate ids are
    /// rejected with a typed error rather than a panic.
    ///
    /// Registrations and bindings are *not* journaled — a recovered host
    /// must re-register and re-bind its remotes before serving traffic
    /// (flush localization replayed from the journal is preserved and
    /// handed to the new bindings).
    pub fn register_remote(&mut self, store: ChunkStore) -> Result<RemoteId, RemoteError> {
        let id = store.id();
        self.remote_registry.register(store)?;
        Ok(id)
    }

    /// Binds `pool` of `vm` to a registered remote: misses in the pool
    /// fall through to the remote's fault-tolerance stack. Unknown ids
    /// and double bindings return typed errors.
    pub fn bind_remote(
        &mut self,
        vm: VmId,
        pool: PoolId,
        remote: RemoteId,
        fetch: RemoteFetchConfig,
    ) -> Result<(), RemoteError> {
        let store = self.remote_registry.get(remote)?;
        self.registry.bind_target(vm, pool)?;
        self.state
            .bind_remote(vm, pool, RemoteBinding::new(store, fetch))
    }

    /// The remote binding of `pool`, if any (for audits and reports).
    pub fn remote_binding(&self, vm: VmId, pool: PoolId) -> Option<&RemoteBinding> {
        self.state.remote_bindings.get(&(vm, pool))
    }

    /// Aggregate remote-tier counters across all bindings.
    pub fn remote_totals(&self) -> RemoteCounters {
        self.cut().remote_totals()
    }

    /// Whether the SSD tier is currently quarantined.
    pub fn ssd_quarantined(&self) -> bool {
        self.stores.ssd_quarantined()
    }

    /// Quarantines the SSD tier if a store fault just tripped its
    /// breaker ([`Stores`]): every SSD-resident page of every pool is
    /// invalidated (a failed store must never serve a potentially-corrupt
    /// hit), and placements are redirected until a recovery probe
    /// succeeds. A fault while already quarantined (a failed probe) only
    /// doubled the breaker's backoff: the tier is already empty. Runs
    /// after every shared transition that can charge the SSD.
    fn drain_tripped_ssd(&mut self) {
        if !std::mem::take(&mut self.stores.tripped) {
            return;
        }
        self.quarantine_invalidated += self.state.drain_ssd(&mut self.stores);
        self.log(JournalRecord::SsdDrain);
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// Aggregate pages used by all pools of `vm`.
    pub fn vm_usage(&self, vm: VmId) -> VmUsage {
        let mut usage = VmUsage::default();
        for pid in self.pool_ids(vm) {
            usage.mem_pages += self.state.used(vm, pid, Placement::Mem);
            usage.ssd_pages += self.state.used(vm, pid, Placement::Ssd);
        }
        usage
    }

    /// Cache-wide totals.
    pub fn totals(&self) -> CacheTotals {
        CacheTotals {
            mem_used_pages: self.stores.mem.used_pages(),
            mem_capacity_pages: self.stores.mem.capacity_pages(),
            ssd_used_pages: self.stores.ssd.used_pages(),
            ssd_capacity_pages: self.stores.ssd.capacity_pages(),
            evictions: self.state.evicted.pages,
            trickle_downs: self.state.evicted.trickled,
            ssd_quarantines: self.stores.ssd_breaker.trips(),
            ssd_recoveries: self.stores.ssd_breaker.recoveries(),
            quarantine_invalidated_pages: self.quarantine_invalidated,
            failed_gets: self.stores.failed_gets,
            failed_puts: self.stores.failed_puts,
        }
    }

    /// The pool ids currently registered for `vm`, in `PoolId` order.
    pub fn pool_ids(&self, vm: VmId) -> Vec<PoolId> {
        let row = self.registry.vm(vm);
        row.map_or_else(Vec::new, |row| row.pools.iter().map(|r| r.0).collect())
    }

    /// The entitlement of one pool in its primary store, in pages
    /// (recomputed on demand; exposed for GET_STATS and tests).
    pub fn pool_entitlement(&self, vm: VmId, pool: PoolId) -> u64 {
        let Some(p) = self.state.pools.get(&(vm, pool)) else {
            return 0;
        };
        self.pool_entitlement_in(vm, pool, p.primary_placement())
    }

    // ------------------------------------------------------------------
    // Entitlement computation (policy module, §4.2: "On any configuration
    // change, the policy module recalculates cache store entitlements at
    // two levels — per-VM level and container (pool) level").
    //
    // The share split is memoized per store and revalidated on every
    // use ([`ShareMemo`]); usage itself is always read fresh.
    // ------------------------------------------------------------------

    /// Runs `f` against the share table for one store, through the memo.
    fn with_share_table<R>(&self, placement: Placement, f: impl FnOnce(&ShareTable) -> R) -> R {
        self.share_memo.borrow_mut().with(
            &self.registry,
            self.registry.version(),
            self.stores.of(placement).capacity_pages(),
            placement,
            |vm, pool, ()| self.state.used(vm, pool, placement),
            f,
        )
    }

    /// The current entitlement of one pool in one store (two binary
    /// searches into the cached table).
    fn pool_entitlement_in(&self, vm: VmId, pool: PoolId, placement: Placement) -> u64 {
        self.with_share_table(placement, |table| table.pool_entitlement(vm, pool))
    }

    // ------------------------------------------------------------------
    // Eviction (policy module + Algorithm 1).
    // ------------------------------------------------------------------

    /// Frees up to one eviction batch in the given store. Returns pages
    /// freed.
    fn evict_batch(&mut self, now: SimTime, placement: Placement) -> u64 {
        match self.mode {
            PartitionMode::Global => self.evict_batch_global(placement),
            PartitionMode::DoubleDecker | PartitionMode::Strict => {
                self.evict_batch_weighted(now, placement)
            }
        }
    }

    /// Global-mode eviction: oldest objects store-wide, container- and
    /// VM-agnostic (the paper's "FIFO-based global eviction policy"),
    /// merged over the pools' queues ([`OldestFirst`]).
    fn evict_batch_global(&mut self, placement: Placement) -> u64 {
        let mut order = OldestFirst::new(placement, [&self.state]);
        let mut freed = 0;
        while freed < EVICTION_BATCH_PAGES && order.shard().is_some() {
            let (vm, pool, addr) = order.evict(&mut self.state, &mut self.stores);
            self.log(shard::evict_record(vm, pool, addr));
            freed += 1;
        }
        freed
    }

    /// Two-level weighted eviction: the policy module's victim walk
    /// ([`ShareTable::select_victim`]) over fresh usage, then one batch
    /// evicted FIFO from the victim container's pool. Hybrid pools
    /// trickle evicted memory objects down to their SSD share.
    fn evict_batch_weighted(&mut self, now: SimTime, placement: Placement) -> u64 {
        let strict = self.mode == PartitionMode::Strict;
        let victim = self.with_share_table(placement, |table| {
            table.select_victim(strict, EVICTION_BATCH_PAGES, |vm, pool| {
                self.state.pools[&(vm, pool)].used(placement)
            })
        });
        let Some(mut visit) = victim.and_then(|(vm, pool)| self.state.visit(vm, pool)) else {
            return 0;
        };
        let journal = &mut self.journal;
        let (freed, _) = visit.evict_batch(
            &mut self.stores,
            now,
            placement,
            EVICTION_BATCH_PAGES,
            self.admission,
            |rec| {
                append(journal, &rec);
            },
        );
        self.drain_tripped_ssd();
        freed
    }

    /// After a capacity shrink, evicts batches until usage fits again.
    fn shrink_to_capacity(&mut self, now: SimTime, placement: Placement) {
        while self.stores.of(placement).used_pages() > self.stores.of(placement).capacity_pages() {
            // Every batch frees at least a page or ends the loop.
            if self.evict_batch(now, placement) == 0 {
                break;
            }
        }
    }

    /// What [`shard::PoolVisit::place`] may ask for one put, read before the
    /// visit holds the pool (this engine's share memo reads every pool's
    /// usage): a hybrid pool's memory entitlement, and in Strict mode
    /// the partition in either store.
    fn put_entitlements(&self, vm: VmId, pool: PoolId) -> [u64; 2] {
        let strict = self.mode == PartitionMode::Strict;
        let policy = self.state.pools.get(&(vm, pool)).map(|p| p.policy());
        let hybrid = policy.is_some_and(|p| p.store == StoreKind::Hybrid);
        [Placement::Mem, Placement::Ssd].map(|placement| {
            if strict || hybrid && placement == Placement::Mem {
                self.pool_entitlement_in(vm, pool, placement)
            } else {
                0
            }
        })
    }

    // ------------------------------------------------------------------
    // Crash recovery (warm restart from a journal image).
    // ------------------------------------------------------------------

    /// The whole cache as a one-shard [`Cut`].
    pub(crate) fn cut(&self) -> Cut<'_> {
        Cut::new(&self.registry, vec![&self.state])
    }

    /// Heap bytes of the index, every pool's
    /// ([`ShardState::heap_bytes`]).
    pub fn index_heap_bytes(&self) -> usize {
        self.state.heap_bytes()
    }

    /// Every resident entry as `(vm, pool, addr, version)`, sorted.
    /// Chaos harnesses sweep this against the guests' authoritative disk
    /// versions as the stale-read oracle.
    pub fn entries(&self) -> Vec<(VmId, PoolId, BlockAddr, PageVersion)> {
        self.cut().entries()
    }

    /// Corrupts the stored checksum of one resident entry (chaos testing:
    /// models bit rot in the backing store that verify-on-read must
    /// catch). Returns `false` if the entry is not resident.
    pub fn corrupt_entry(&mut self, vm: VmId, pool: PoolId, addr: BlockAddr) -> bool {
        self.state
            .pools
            .get_mut(&(vm, pool))
            .is_some_and(|p| p.corrupt(addr))
    }

    /// Warm-restarts a cache from a (possibly damaged) journal image, in
    /// the journal's mode if it recorded one: [`ReplayLog`] over one
    /// segment, the shrink, and a fresh checkpointed journal whose new
    /// epochs the report carries (DESIGN.md §11.2). Flushes are synced,
    /// so the epoch discard only fires on bit rot below the durable mark.
    pub fn recover(
        config: CacheConfig,
        journal_image: &[u8],
        guest_epochs: &[(VmId, u64)],
    ) -> (DoubleDeckerCache, RecoveryReport) {
        let log = ReplayLog::decode(&[journal_image]);
        let mode = log.mode.unwrap_or(config.mode);
        let mut cache = DoubleDeckerCache::new(CacheConfig { mode, ..config });
        let state = &mut [&mut cache.state];
        let mut report = log.replay(&mut cache.registry, state, &mut cache.stores, guest_epochs);
        cache.stores.next_seq = log.next_gen;
        cache.shrink_to_capacity(SimTime::ZERO, Placement::Mem);
        cache.shrink_to_capacity(SimTime::ZERO, Placement::Ssd);
        report.recovered_entries = cache.cut().resident();
        report.new_epochs = cache.write_checkpoint(log.next_gen);
        (cache, report)
    }

    /// Replaces the journal with a checkpoint of the current state
    /// ([`Cut::write_checkpoint`] over one segment), generations
    /// continuing from `start_gen`. Returns the freshly minted per-VM
    /// epochs.
    fn write_checkpoint(&mut self, start_gen: u64) -> Vec<(VmId, u64)> {
        let mut checkpoint = self.cut().write_checkpoint(
            self.mode,
            self.stores.mem.capacity_pages(),
            self.stores.ssd.capacity_pages(),
            start_gen,
        );
        let mut journal = checkpoint.segments.pop().expect("one shard, one segment");
        journal.sync();
        self.journal = Some(journal);
        checkpoint.new_epochs
    }

    // ------------------------------------------------------------------
    // Endurance plane: wear accounting and TTL demotion.
    // ------------------------------------------------------------------

    /// Every VM with wear on the books: live VMs plus VMs that were
    /// removed but whose retired wear persists. Sorted.
    pub fn wear_vm_ids(&self) -> Vec<VmId> {
        self.cut().wear_vm_ids()
    }

    /// Cumulative wear charged to one VM: its live pools plus everything
    /// retired when pools were destroyed. Never decreases.
    pub fn vm_wear(&self, vm: VmId) -> WearCounters {
        self.cut().vm_wear(vm)
    }

    /// Device-level wear totals across every VM ever seen.
    pub fn wear_totals(&self) -> WearCounters {
        self.cut().wear_totals()
    }

    /// TTL staleness sweep: demotes (drops) SSD-resident entries older
    /// than the configured `ssd_ttl`, measured in per-pool insert
    /// distance. Demotions are journaled as evictions, so replay and the
    /// sharded engine agree byte for byte. Returns pages demoted. A
    /// no-op when `ssd_ttl` is 0.
    ///
    /// Deliberately *not* called from any internal path: the driver
    /// invokes it at deterministic points (tick boundaries), which keeps
    /// the sweep out of the threaded fast path.
    pub fn ttl_sweep(&mut self) -> u64 {
        let ttl = self.admission.ssd_ttl;
        if ttl == 0 {
            return 0;
        }
        let mut demoted = 0;
        for pool in self.registry.pool_ids() {
            demoted += self
                .state
                .ttl_sweep_pool(&mut self.stores, pool, ttl, |rec| {
                    append(&mut self.journal, &rec);
                });
        }
        demoted
    }
}

impl SecondChanceCache for DoubleDeckerCache {
    fn create_pool(&mut self, vm: VmId, policy: CachePolicy) -> PoolId {
        // Unknown VMs are auto-registered with a default weight, so
        // single-VM setups need no explicit add_vm call.
        let id = self.registry.next_pool();
        self.control(JournalRecord::CreatePool {
            vm: vm.0,
            pool: id.0,
            store: store_kind_code(policy.store),
            weight: policy.weight,
        });
        id
    }

    fn destroy_pool(&mut self, vm: VmId, pool: PoolId) {
        self.control(JournalRecord::DestroyPool {
            vm: vm.0,
            pool: pool.0,
        });
    }

    fn set_policy(&mut self, vm: VmId, pool: PoolId, policy: CachePolicy) {
        // Journaled before the re-homing: replay applies the policy raw
        // and then the re-homing's logged evictions and puts in order.
        self.control(JournalRecord::SetPolicy {
            vm: vm.0,
            pool: pool.0,
            store: store_kind_code(policy.store),
            weight: policy.weight,
        });
        // What the new policy no longer allows where it is moves or goes
        // (e.g. a container switched from `Mem` to `SSD`, Fig. 12's
        // third phase).
        for (addr, version, to) in self.state.misplaced(vm, pool) {
            let mut visit = self
                .state
                .visit(vm, pool)
                .expect("re-homing keeps the pool");
            let moved = visit.rehome(&mut self.stores, SimTime::ZERO, addr, to);
            self.log(shard::evict_record(vm, pool, addr));
            if moved {
                self.log(shard::put_record(vm, pool, addr, version, to));
            }
            self.drain_tripped_ssd();
        }
    }

    fn migrate_object(&mut self, vm: VmId, from: PoolId, to: PoolId, addr: BlockAddr) {
        let Some(slot) = self.state.remove(&mut self.stores, vm, from, addr) else {
            return;
        };
        self.log(shard::take_record(vm, from, addr));
        // The page the source just gave back carries the object over.
        if self.state.adopt(&mut self.stores, vm, to, addr, slot) {
            let (version, placement) = (slot.version, slot.placement);
            self.log(shard::put_record(vm, to, addr, version, placement));
        }
    }

    fn pool_stats(&self, vm: VmId, pool: PoolId) -> Option<PoolStats> {
        let p = self.state.pools.get(&(vm, pool))?;
        Some(p.stats(self.pool_entitlement(vm, pool)))
    }

    fn get(&mut self, now: SimTime, vm: VmId, pool: PoolId, addr: BlockAddr) -> GetOutcome {
        let Some(mut visit) = self.state.visit(vm, pool) else {
            return GetOutcome::Miss;
        };
        // Exclusive semantics remove the object on a hit, and with it its
        // queue entry.
        let Some(got) = visit.take(&mut self.stores, now, addr, self.admission) else {
            // Miss in both local tiers: fall through to the pool's remote
            // binding (if any), which fails open back to a miss.
            return visit.remote_get(now, addr);
        };
        self.log(shard::take_record(vm, pool, addr));
        if got.is_hit() {
            self.maybe_compact_journal();
        } else {
            // A failed read or a rotten SSD copy quarantines the tier, so
            // SSD-bound puts fall back to memory (or are turned away).
            self.drain_tripped_ssd();
        }
        got
    }

    fn put(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        addr: BlockAddr,
        version: PageVersion,
    ) -> PutOutcome {
        let entitled = self.put_entitlements(vm, pool);
        let (mode, admission) = (self.mode, self.admission);
        let Some(mut visit) = self.state.visit(vm, pool) else {
            return PutOutcome::Rejected;
        };
        let journal = &mut self.journal;
        let placed = visit.place(
            &mut self.stores,
            now,
            addr,
            visit.pool.policy(),
            mode,
            admission,
            |placement| entitled[placement.idx()],
            |visit, stores, placement| {
                let batch = EVICTION_BATCH_PAGES;
                let log = |rec| {
                    append(journal, &rec);
                };
                visit
                    .evict_batch(stores, now, placement, batch, admission, log)
                    .0
            },
        );
        self.drain_tripped_ssd();
        let placement = match placed {
            Placed::At(placement) => placement,
            Placed::Rejected => return PutOutcome::Rejected,
            // Resource-conservative enforcement: evict only when the
            // store itself is full (§4.3).
            Placed::Full(placement) => {
                if self.evict_batch(now, placement) == 0 || !self.stores.try_alloc(placement) {
                    return PutOutcome::Rejected;
                }
                placement
            }
        };
        let mut visit = self.state.visit(vm, pool).expect("eviction keeps the pool");
        let stored = visit.store(&mut self.stores, now, addr, placement, version);
        match stored {
            Ok(finish) => {
                self.log(shard::put_record(vm, pool, addr, version, placement));
                self.maybe_compact_journal();
                PutOutcome::Stored { finish }
            }
            Err(err) => {
                self.drain_tripped_ssd();
                PutOutcome::Failed { finish: err.finish }
            }
        }
    }

    fn flush(&mut self, vm: VmId, pool: PoolId, addr: BlockAddr) -> u64 {
        self.state.remove(&mut self.stores, vm, pool, addr);
        // A flush means the guest is writing the backing block: the
        // remote's copy of it is stale forever after.
        let remotes = !self.remote_registry.is_empty();
        self.state.note_flush(vm, pool, addr, remotes);
        // Logged (and synced) even when the block was absent: the returned
        // epoch must cover this flush regardless, since a crash may lose
        // the unsynced put that would have made the block present. Live
        // compaction is NOT checked here: flushes compact at batch
        // boundaries (`flush_many`), not per op — the sharded engine
        // hoists identically, which keeps the checkpoint rewrite firing
        // at the same operation on both planes.
        self.log_synced(shard::flush_record(vm, pool, addr))
    }

    fn flush_file(&mut self, vm: VmId, pool: PoolId, file: FileId) -> u64 {
        self.state.remove_file(&mut self.stores, vm, pool, file);
        let remotes = !self.remote_registry.is_empty();
        self.state.note_flush_file(vm, pool, file, remotes);
        // Compaction hoisted to batch boundaries, like `flush`.
        self.log_synced(shard::flush_file_record(vm, pool, file))
    }

    // The serial engine has no locks to amortize: `get_many` and
    // `put_many` are the trait's per-op loops. `flush_many` owns the
    // batch-boundary compaction check that the per-op `flush` does not
    // run — the sharded engine's batch plane does the same, which is
    // what keeps journal generations byte-identical across engines.

    fn flush_many(&mut self, vm: VmId, pool: PoolId, addrs: &[BlockAddr]) -> u64 {
        if addrs.is_empty() {
            return 0;
        }
        let mut epoch = 0;
        for &addr in addrs {
            epoch = epoch.max(self.flush(vm, pool, addr));
        }
        self.maybe_compact_journal();
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VM: VmId = VmId(0);

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr::new(FileId(f), b)
    }

    fn small_cache(mode: PartitionMode) -> DoubleDeckerCache {
        // Capacity of exactly two eviction batches so limits are easy to hit.
        let config = CacheConfig {
            mem_capacity_pages: 2 * EVICTION_BATCH_PAGES,
            ssd_capacity_pages: 0,
            mode,
            admission: AdmissionConfig::off(),
        };
        DoubleDeckerCache::new(config)
    }

    fn fill(cache: &mut DoubleDeckerCache, pool: PoolId, file: u64, pages: u64) {
        for b in 0..pages {
            let out = cache.put(SimTime::ZERO, VM, pool, addr(file, b), PageVersion(1));
            assert!(out.is_stored(), "page {b} of file {file} rejected");
        }
    }

    #[test]
    fn put_get_exclusive_roundtrip() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        let a = addr(1, 0);
        assert!(cache
            .put(SimTime::ZERO, VM, pool, a, PageVersion(5))
            .is_stored());
        match cache.get(SimTime::ZERO, VM, pool, a) {
            GetOutcome::Hit { version, .. } => assert_eq!(version, PageVersion(5)),
            _ => panic!("expected hit"),
        }
        assert!(!cache.get(SimTime::ZERO, VM, pool, a).is_hit(), "exclusive");
        assert_eq!(cache.totals().mem_used_pages, 0);
    }

    #[test]
    fn put_overwrites_stale_copy() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        let a = addr(1, 0);
        cache.put(SimTime::ZERO, VM, pool, a, PageVersion(1));
        cache.put(SimTime::ZERO, VM, pool, a, PageVersion(2));
        assert_eq!(cache.totals().mem_used_pages, 1);
        match cache.get(SimTime::ZERO, VM, pool, a) {
            GetOutcome::Hit { version, .. } => assert_eq!(version, PageVersion(2)),
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn flush_invalidates() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        cache.put(SimTime::ZERO, VM, pool, addr(1, 0), PageVersion(1));
        cache.flush(VM, pool, addr(1, 0));
        assert!(!cache.get(SimTime::ZERO, VM, pool, addr(1, 0)).is_hit());
        assert_eq!(cache.totals().mem_used_pages, 0);
        // Flushing a missing block is a no-op.
        cache.flush(VM, pool, addr(9, 9));
    }

    #[test]
    fn flush_file_drops_whole_file() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        fill(&mut cache, pool, 1, 10);
        fill(&mut cache, pool, 2, 5);
        cache.flush_file(VM, pool, FileId(1));
        assert_eq!(cache.totals().mem_used_pages, 5);
        assert!(!cache.get(SimTime::ZERO, VM, pool, addr(1, 3)).is_hit());
        assert!(cache.get(SimTime::ZERO, VM, pool, addr(2, 3)).is_hit());
    }

    #[test]
    fn unknown_pool_rejects() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        assert_eq!(
            cache.put(SimTime::ZERO, VM, PoolId(99), addr(1, 0), PageVersion(0)),
            PutOutcome::Rejected
        );
        assert_eq!(
            cache.get(SimTime::ZERO, VM, PoolId(99), addr(1, 0)),
            GetOutcome::Miss
        );
        assert_eq!(cache.pool_stats(VM, PoolId(99)), None);
    }

    #[test]
    fn disabled_policy_rejects() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::disabled());
        assert_eq!(
            cache.put(SimTime::ZERO, VM, pool, addr(1, 0), PageVersion(0)),
            PutOutcome::Rejected
        );
    }

    #[test]
    fn ssd_policy_uses_ssd_store() {
        let config = CacheConfig::mem_and_ssd(EVICTION_BATCH_PAGES, EVICTION_BATCH_PAGES);
        let mut cache = DoubleDeckerCache::new(config);
        let pool = cache.create_pool(VM, CachePolicy::ssd(100));
        cache.put(SimTime::ZERO, VM, pool, addr(1, 0), PageVersion(0));
        let t = cache.totals();
        assert_eq!(t.mem_used_pages, 0);
        assert_eq!(t.ssd_used_pages, 1);
    }

    #[test]
    fn ssd_only_policy_with_no_ssd_rejects() {
        let mut cache = small_cache(PartitionMode::DoubleDecker); // no SSD
        let pool = cache.create_pool(VM, CachePolicy::ssd(100));
        assert_eq!(
            cache.put(SimTime::ZERO, VM, pool, addr(1, 0), PageVersion(0)),
            PutOutcome::Rejected
        );
    }

    #[test]
    fn eviction_on_full_store_dd_mode() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let p1 = cache.create_pool(VM, CachePolicy::mem(50));
        let p2 = cache.create_pool(VM, CachePolicy::mem(50));
        let cap = 2 * EVICTION_BATCH_PAGES;
        // p1 greedily fills the whole cache.
        fill(&mut cache, p1, 1, cap);
        assert_eq!(cache.totals().mem_used_pages, cap);
        // p2 now stores: p1 (the over-entitlement entity) must be victimized.
        assert!(cache
            .put(SimTime::ZERO, VM, p2, addr(2, 0), PageVersion(0))
            .is_stored());
        let s1 = cache.pool_stats(VM, p1).unwrap();
        let s2 = cache.pool_stats(VM, p2).unwrap();
        assert!(s1.evictions >= EVICTION_BATCH_PAGES);
        assert_eq!(s2.evictions, 0);
        assert_eq!(s2.mem_pages, 1);
        assert!(cache.totals().evictions >= EVICTION_BATCH_PAGES);
    }

    #[test]
    fn global_mode_evicts_oldest_regardless_of_owner() {
        let mut cache = small_cache(PartitionMode::Global);
        assert_eq!(cache.mode(), PartitionMode::Global);
        let p1 = cache.create_pool(VM, CachePolicy::mem(50));
        let p2 = cache.create_pool(VM, CachePolicy::mem(50));
        let cap = 2 * EVICTION_BATCH_PAGES;
        // Interleave: p1's objects are older overall.
        fill(&mut cache, p1, 1, cap / 2);
        fill(&mut cache, p2, 2, cap / 2);
        // One more put evicts a batch of the *oldest* objects — p1's.
        cache.put(SimTime::ZERO, VM, p2, addr(3, 0), PageVersion(0));
        let s1 = cache.pool_stats(VM, p1).unwrap();
        let s2 = cache.pool_stats(VM, p2).unwrap();
        assert_eq!(s1.evictions, EVICTION_BATCH_PAGES);
        assert_eq!(s2.evictions, 0);
    }

    #[test]
    fn weighted_eviction_respects_weights() {
        // Two pools with weights 75/25; both over-filled; the one further
        // over its entitlement (the light one) gets evicted.
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let heavy = cache.create_pool(VM, CachePolicy::mem(75));
        let light = cache.create_pool(VM, CachePolicy::mem(25));
        let cap = 2 * EVICTION_BATCH_PAGES;
        fill(&mut cache, heavy, 1, cap / 2);
        fill(&mut cache, light, 2, cap / 2);
        // Store is full; heavy pool stores one more page.
        cache.put(SimTime::ZERO, VM, heavy, addr(3, 0), PageVersion(0));
        let s_light = cache.pool_stats(VM, light).unwrap();
        let s_heavy = cache.pool_stats(VM, heavy).unwrap();
        assert!(
            s_light.evictions > 0,
            "light pool (over its 25% share) must be the victim"
        );
        assert_eq!(s_heavy.evictions, 0);
    }

    #[test]
    fn two_level_eviction_picks_victim_vm_first() {
        let config = CacheConfig {
            mem_capacity_pages: 2 * EVICTION_BATCH_PAGES,
            ssd_capacity_pages: 0,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        };
        let mut cache = DoubleDeckerCache::new(config);
        let vm1 = VmId(1);
        let vm2 = VmId(2);
        cache.add_vm(vm1, 50);
        cache.add_vm(vm2, 50);
        let p1 = cache.create_pool(vm1, CachePolicy::mem(100));
        let p2 = cache.create_pool(vm2, CachePolicy::mem(100));
        let cap = 2 * EVICTION_BATCH_PAGES;
        // VM1 takes everything; then VM2 starts storing.
        for b in 0..cap {
            cache.put(SimTime::ZERO, vm1, p1, addr(1, b), PageVersion(0));
        }
        cache.put(SimTime::ZERO, vm2, p2, addr(2, 0), PageVersion(0));
        assert!(cache.pool_stats(vm1, p1).unwrap().evictions > 0);
        assert_eq!(cache.pool_stats(vm2, p2).unwrap().evictions, 0);
        let u1 = cache.vm_usage(vm1);
        assert!(u1.mem_pages < cap);
    }

    #[test]
    fn destroy_pool_frees_space() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        let n = EVICTION_BATCH_PAGES; // comfortably under capacity
        fill(&mut cache, pool, 1, n);
        assert_eq!(cache.totals().mem_used_pages, n);
        cache.destroy_pool(VM, pool);
        assert_eq!(cache.totals().mem_used_pages, 0);
        assert_eq!(cache.pool_stats(VM, pool), None);
    }

    #[test]
    fn remove_vm_frees_all_pools() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        cache.add_vm(VmId(1), 100);
        let p1 = cache.create_pool(VmId(1), CachePolicy::mem(50));
        let p2 = cache.create_pool(VmId(1), CachePolicy::mem(50));
        for b in 0..10 {
            cache.put(SimTime::ZERO, VmId(1), p1, addr(1, b), PageVersion(0));
            cache.put(SimTime::ZERO, VmId(1), p2, addr(2, b), PageVersion(0));
        }
        cache.remove_vm(VmId(1));
        assert_eq!(cache.totals().mem_used_pages, 0);
        assert!(cache.pool_ids(VmId(1)).is_empty());
    }

    #[test]
    fn migrate_object_moves_ownership() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let p1 = cache.create_pool(VM, CachePolicy::mem(50));
        let p2 = cache.create_pool(VM, CachePolicy::mem(50));
        cache.put(SimTime::ZERO, VM, p1, addr(1, 0), PageVersion(7));
        cache.migrate_object(VM, p1, p2, addr(1, 0));
        assert!(!cache.get(SimTime::ZERO, VM, p1, addr(1, 0)).is_hit());
        match cache.get(SimTime::ZERO, VM, p2, addr(1, 0)) {
            GetOutcome::Hit { version, .. } => assert_eq!(version, PageVersion(7)),
            _ => panic!("object should have migrated"),
        }
        // Migrating a missing object is a no-op.
        cache.migrate_object(VM, p1, p2, addr(9, 9));
    }

    #[test]
    fn migrate_to_unknown_pool_drops_object() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let p1 = cache.create_pool(VM, CachePolicy::mem(100));
        cache.put(SimTime::ZERO, VM, p1, addr(1, 0), PageVersion(0));
        cache.migrate_object(VM, p1, PoolId(99), addr(1, 0));
        assert_eq!(cache.totals().mem_used_pages, 0);
    }

    #[test]
    fn set_policy_mem_to_ssd_rehomes_objects() {
        let config = CacheConfig::mem_and_ssd(EVICTION_BATCH_PAGES, EVICTION_BATCH_PAGES);
        let mut cache = DoubleDeckerCache::new(config);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        fill(&mut cache, pool, 1, 20);
        cache.set_policy(VM, pool, CachePolicy::ssd(100));
        let t = cache.totals();
        assert_eq!(t.mem_used_pages, 0, "memory share released immediately");
        assert_eq!(t.ssd_used_pages, 20, "objects moved to the SSD store");
        // Objects remain readable.
        assert!(cache.get(SimTime::ZERO, VM, pool, addr(1, 3)).is_hit());
    }

    #[test]
    fn set_policy_to_ssd_without_ssd_drops_objects() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        fill(&mut cache, pool, 1, 20);
        cache.set_policy(VM, pool, CachePolicy::ssd(100));
        assert_eq!(cache.totals().mem_used_pages, 0);
        assert_eq!(cache.totals().ssd_used_pages, 0);
    }

    #[test]
    fn capacity_shrink_evicts_excess() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        let cap = 2 * EVICTION_BATCH_PAGES;
        fill(&mut cache, pool, 1, cap);
        cache.set_mem_capacity(SimTime::ZERO, cap / 2);
        assert!(cache.totals().mem_used_pages <= cap / 2);
        assert_eq!(cache.totals().mem_capacity_pages, cap / 2);
    }

    #[test]
    fn capacity_growth_accepts_more() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        let cap = 2 * EVICTION_BATCH_PAGES;
        fill(&mut cache, pool, 1, cap);
        cache.set_mem_capacity(SimTime::ZERO, 2 * cap);
        assert!(cache
            .put(SimTime::ZERO, VM, pool, addr(2, 0), PageVersion(0))
            .is_stored());
        assert_eq!(cache.totals().mem_used_pages, cap + 1);
        assert_eq!(cache.totals().evictions, 0);
    }

    #[test]
    fn hybrid_pool_spills_to_ssd() {
        // Hybrid pool: memory entitlement of one batch, then spill.
        let config = CacheConfig::mem_and_ssd(EVICTION_BATCH_PAGES, 4 * EVICTION_BATCH_PAGES);
        let mut cache = DoubleDeckerCache::new(config);
        let pool = cache.create_pool(VM, CachePolicy::hybrid(100));
        let total = 2 * EVICTION_BATCH_PAGES;
        fill(&mut cache, pool, 1, total);
        let s = cache.pool_stats(VM, pool).unwrap();
        assert_eq!(s.mem_pages, EVICTION_BATCH_PAGES, "memory share filled");
        assert_eq!(s.ssd_pages, total - EVICTION_BATCH_PAGES, "rest spilled");
        assert_eq!(s.evictions, 0, "spilling is not eviction");
    }

    #[test]
    fn strict_mode_caps_pool_at_entitlement() {
        let mut cache = small_cache(PartitionMode::Strict);
        let p1 = cache.create_pool(VM, CachePolicy::mem(50));
        let _p2 = cache.create_pool(VM, CachePolicy::mem(50));
        let cap = 2 * EVICTION_BATCH_PAGES;
        // p1 tries to take everything but is capped at its 50% partition.
        fill(&mut cache, p1, 1, cap);
        let s1 = cache.pool_stats(VM, p1).unwrap();
        assert!(
            s1.mem_pages <= cap / 2,
            "strict partition must cap p1 at {} (got {})",
            cap / 2,
            s1.mem_pages
        );
        assert!(s1.evictions > 0, "p1 must self-evict at its cap");
    }

    #[test]
    fn dd_mode_lends_slack_unlike_strict() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let p1 = cache.create_pool(VM, CachePolicy::mem(50));
        let _p2 = cache.create_pool(VM, CachePolicy::mem(50));
        let cap = 2 * EVICTION_BATCH_PAGES;
        fill(&mut cache, p1, 1, cap);
        let s1 = cache.pool_stats(VM, p1).unwrap();
        assert_eq!(
            s1.mem_pages, cap,
            "resource-conservative DD lets p1 use idle capacity"
        );
        assert_eq!(s1.evictions, 0);
    }

    #[test]
    fn pool_stats_counters() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        cache.put(SimTime::ZERO, VM, pool, addr(1, 0), PageVersion(0));
        cache.put(SimTime::ZERO, VM, pool, addr(1, 1), PageVersion(0));
        cache.get(SimTime::ZERO, VM, pool, addr(1, 0)); // hit
        cache.get(SimTime::ZERO, VM, pool, addr(1, 9)); // miss
        let s = cache.pool_stats(VM, pool).unwrap();
        assert_eq!(s.puts, 2);
        assert_eq!(s.gets, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.mem_pages, 1);
        assert!(s.entitlement_pages > 0);
        assert!((s.hit_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn entitlements_follow_vm_weights() {
        let config = CacheConfig {
            mem_capacity_pages: 3000,
            ssd_capacity_pages: 0,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        };
        let mut cache = DoubleDeckerCache::new(config);
        cache.add_vm(VmId(1), 33);
        cache.add_vm(VmId(2), 67);
        let p1 = cache.create_pool(VmId(1), CachePolicy::mem(100));
        let p2 = cache.create_pool(VmId(2), CachePolicy::mem(100));
        let e1 = cache.pool_entitlement(VmId(1), p1);
        let e2 = cache.pool_entitlement(VmId(2), p2);
        assert_eq!(e1 + e2, 3000);
        assert!((e1 as f64 / 3000.0 - 0.33).abs() < 0.01);
        assert!((e2 as f64 / 3000.0 - 0.67).abs() < 0.01);
    }

    #[test]
    fn container_entitlements_within_vm() {
        let config = CacheConfig {
            mem_capacity_pages: 4000,
            ssd_capacity_pages: 4000,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        };
        let mut cache = DoubleDeckerCache::new(config);
        cache.add_vm(VmId(1), 100);
        // Paper Fig. 4 example (VM2): memory split 25/75 between two
        // containers, third container on SSD.
        let c1 = cache.create_pool(VmId(1), CachePolicy::mem(25));
        let c2 = cache.create_pool(VmId(1), CachePolicy::mem(75));
        let c3 = cache.create_pool(VmId(1), CachePolicy::ssd(100));
        assert_eq!(cache.pool_entitlement(VmId(1), c1), 1000);
        assert_eq!(cache.pool_entitlement(VmId(1), c2), 3000);
        assert_eq!(cache.pool_entitlement(VmId(1), c3), 4000);
    }

    #[test]
    fn ssd_only_vm_does_not_dilute_mem_entitlements() {
        // Fig. 13: VM3 (SSD-only) must not disturb the memory-store split
        // between VM1 and VM2.
        let config = CacheConfig {
            mem_capacity_pages: 1000,
            ssd_capacity_pages: 1000,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        };
        let mut cache = DoubleDeckerCache::new(config);
        cache.add_vm(VmId(1), 60);
        cache.add_vm(VmId(2), 40);
        cache.add_vm(VmId(3), 100);
        let p1 = cache.create_pool(VmId(1), CachePolicy::mem(100));
        let p2 = cache.create_pool(VmId(2), CachePolicy::mem(100));
        let _p3 = cache.create_pool(VmId(3), CachePolicy::ssd(100));
        assert_eq!(cache.pool_entitlement(VmId(1), p1), 600);
        assert_eq!(cache.pool_entitlement(VmId(2), p2), 400);
    }

    #[test]
    fn get_latency_mem_faster_than_ssd() {
        let config = CacheConfig::mem_and_ssd(1000, 1000);
        let mut cache = DoubleDeckerCache::new(config);
        let pm = cache.create_pool(VM, CachePolicy::mem(50));
        let ps = cache.create_pool(VM, CachePolicy::ssd(50));
        cache.put(SimTime::ZERO, VM, pm, addr(1, 0), PageVersion(0));
        cache.put(SimTime::ZERO, VM, ps, addr(2, 0), PageVersion(0));
        let t0 = SimTime::from_secs(1);
        let m = match cache.get(t0, VM, pm, addr(1, 0)) {
            GetOutcome::Hit { finish, .. } => finish,
            _ => panic!(),
        };
        let s = match cache.get(t0, VM, ps, addr(2, 0)) {
            GetOutcome::Hit { finish, .. } => finish,
            _ => panic!(),
        };
        assert!(m < s, "memory hit must be faster than SSD hit");
    }

    #[test]
    fn accounting_invariant_under_churn() {
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        let p1 = cache.create_pool(VM, CachePolicy::mem(60));
        let p2 = cache.create_pool(VM, CachePolicy::mem(40));
        let mut rng = ddc_sim::SimRng::new(99);
        for i in 0..5000u64 {
            let pool = if rng.chance(0.5) { p1 } else { p2 };
            let a = addr(rng.range_u64(1, 5), rng.range_u64(0, 2000));
            match rng.range_u64(0, 10) {
                0..=5 => {
                    cache.put(SimTime::from_nanos(i), VM, pool, a, PageVersion(i));
                }
                6..=8 => {
                    cache.get(SimTime::from_nanos(i), VM, pool, a);
                }
                _ => {
                    cache.flush(VM, pool, a);
                }
            }
            let t = cache.totals();
            let s1 = cache.pool_stats(VM, p1).unwrap();
            let s2 = cache.pool_stats(VM, p2).unwrap();
            assert_eq!(
                t.mem_used_pages,
                s1.mem_pages + s2.mem_pages,
                "store accounting must equal pool accounting at step {i}"
            );
            assert!(t.mem_used_pages <= t.mem_capacity_pages);
        }
    }

    /// A pool that only exclusive gets drain — nothing evicts, so
    /// nothing pops its queues — holds exactly its live pages on each
    /// store's queue after every put.
    #[test]
    fn exclusive_gets_alone_keep_a_pools_queues_at_its_live_set() {
        let mut cache = DoubleDeckerCache::new(CacheConfig::mem_and_ssd(256, 256));
        cache.add_vm(VM, 100);
        let mem = cache.create_pool(VM, CachePolicy::mem(100));
        let ssd = cache.create_pool(VM, CachePolicy::ssd(100));
        let mut rng = ddc_sim::SimRng::new(0xF1F0);
        let mut resident = [Vec::new(), Vec::new()];
        for b in 0..4_000 {
            for (file, pool) in [mem, ssd].into_iter().enumerate() {
                let put = addr(file as u64 + 1, b);
                let out = cache.put(SimTime::ZERO, VM, pool, put, PageVersion(1));
                assert!(out.is_stored());
                let p = &cache.state.pools[&(VM, pool)];
                for placement in [Placement::Mem, Placement::Ssd] {
                    let len = p.fifo_entries(placement).count() as u64;
                    let used = p.used(placement);
                    assert_eq!(len, used, "put {b}: {placement:?} queue");
                }
                // Zero, one or two takes a put: the live set wanders,
                // held under 64.
                let resident = &mut resident[file];
                resident.push(put);
                let takes = rng.range_u64(0, 3).max(u64::from(resident.len() > 64));
                for _ in 0..takes.min(resident.len() as u64) {
                    let taken = resident.swap_remove(rng.range_usize(0, resident.len()));
                    assert!(cache.get(SimTime::ZERO, VM, pool, taken).is_hit());
                    let p = &cache.state.pools[&(VM, pool)];
                    let queued = Placement::ALL.map(|s| p.fifo_entries(s).count() as u64);
                    assert_eq!(queued, Placement::ALL.map(|s| p.used(s)), "take {taken:?}");
                }
            }
        }
        assert_eq!(cache.totals().evictions, 0, "only gets drained the pools");
    }

    #[test]
    fn set_weight_of_unknown_vm_is_a_noop() {
        // The control plane takes caller-supplied ids; a stale id (e.g. a
        // VM shut down concurrently) must not bring the host down.
        let mut cache = small_cache(PartitionMode::DoubleDecker);
        cache.set_vm_weight(VmId(9), 10);
        assert!(cache.vm_ids().is_empty());
    }

    #[test]
    fn per_store_vm_weights_footnote1() {
        let config = CacheConfig {
            mem_capacity_pages: 1000,
            ssd_capacity_pages: 1000,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        };
        let mut cache = DoubleDeckerCache::new(config);
        // VM1 favours memory (75/25); VM2 the reverse.
        cache.add_vm_with_store_weights(VmId(1), 75, 25);
        cache.add_vm_with_store_weights(VmId(2), 25, 75);
        let m1 = cache.create_pool(VmId(1), CachePolicy::mem(100));
        let s1 = cache.create_pool(VmId(1), CachePolicy::ssd(100));
        let m2 = cache.create_pool(VmId(2), CachePolicy::mem(100));
        let s2 = cache.create_pool(VmId(2), CachePolicy::ssd(100));
        assert_eq!(cache.pool_entitlement(VmId(1), m1), 750);
        assert_eq!(cache.pool_entitlement(VmId(2), m2), 250);
        assert_eq!(cache.pool_entitlement(VmId(1), s1), 250);
        assert_eq!(cache.pool_entitlement(VmId(2), s2), 750);
        // Re-registering flips the split.
        cache.add_vm_with_store_weights(VmId(1), 10, 90);
        cache.add_vm_with_store_weights(VmId(2), 90, 10);
        assert_eq!(cache.pool_entitlement(VmId(1), m1), 100);
        assert_eq!(cache.pool_entitlement(VmId(1), s1), 900);
        // The uniform setter still applies to both stores.
        cache.set_vm_weight(VmId(1), 50);
        cache.set_vm_weight(VmId(2), 50);
        assert_eq!(cache.pool_entitlement(VmId(1), m1), 500);
        assert_eq!(cache.pool_entitlement(VmId(1), s1), 500);
    }

    /// SSD-tier fault handling: quarantine, fallback and recovery.
    mod faults {
        use super::*;
        use ddc_sim::{FaultKind, FaultSchedule};

        fn ssd_cache() -> (DoubleDeckerCache, PoolId) {
            let mut cache = DoubleDeckerCache::new(CacheConfig::mem_and_ssd(64, 64));
            let pool = cache.create_pool(VM, CachePolicy::ssd(100));
            (cache, pool)
        }

        /// A schedule that fails every SSD IO from `from` to `until`.
        fn outage(from: SimTime, until: Option<SimTime>) -> FaultSchedule {
            FaultSchedule::new(0xFA).with_window(
                from,
                until,
                FaultKind::TransientErrors { rate: 1.0 },
            )
        }

        #[test]
        fn read_fault_quarantines_tier_and_never_serves_stale() {
            let (mut cache, pool) = ssd_cache();
            for b in 0..8 {
                assert!(cache
                    .put(SimTime::ZERO, VM, pool, addr(1, b), PageVersion(1))
                    .is_stored());
            }
            cache.set_ssd_fault_schedule(Some(outage(SimTime::from_secs(1), None)));
            let t = SimTime::from_secs(1);
            let out = cache.get(t, VM, pool, addr(1, 0));
            assert!(out.is_failed(), "failed read surfaces as Failed, not Hit");
            let totals = cache.totals();
            assert_eq!(totals.ssd_quarantines, 1);
            assert_eq!(totals.failed_gets, 1);
            assert_eq!(
                totals.quarantine_invalidated_pages, 7,
                "the 7 remaining pages were invalidated wholesale"
            );
            assert_eq!(totals.ssd_used_pages, 0, "the tier was emptied");
            assert!(cache.ssd_quarantined());
            // Every subsequent lookup is a clean miss — nothing stale.
            for b in 0..8 {
                assert_eq!(cache.get(t, VM, pool, addr(1, b)), GetOutcome::Miss);
            }
            let s = cache.pool_stats(VM, pool).unwrap();
            assert_eq!(s.failed_gets, 1);
            assert_eq!(s.ssd_pages, 0);
        }

        #[test]
        fn put_fault_quarantines_and_falls_back_to_mem() {
            let (mut cache, pool) = ssd_cache();
            cache.set_ssd_fault_schedule(Some(outage(SimTime::ZERO, None)));
            let out = cache.put(SimTime::ZERO, VM, pool, addr(1, 0), PageVersion(1));
            assert!(out.is_failed());
            assert!(cache.ssd_quarantined());
            assert_eq!(cache.totals().failed_puts, 1);
            // Before the probe time, <SSD> puts are re-pointed at memory.
            let out = cache.put(SimTime::ZERO, VM, pool, addr(1, 1), PageVersion(1));
            assert!(out.is_stored());
            let s = cache.pool_stats(VM, pool).unwrap();
            assert_eq!(
                s.mem_pages, 1,
                "fallback placement went to the memory store"
            );
            assert_eq!(s.ssd_pages, 0);
            assert_eq!(s.failed_puts, 1);
        }

        /// With the SSD tier out and no memory store to fall back on, an
        /// SSD-bound put is turned away and nothing is stored.
        #[test]
        fn a_quarantined_ssd_with_no_memory_store_turns_puts_away() {
            let mut cache = DoubleDeckerCache::new(CacheConfig::mem_and_ssd(0, 64));
            let pool = cache.create_pool(VM, CachePolicy::ssd(100));
            cache.set_ssd_fault_schedule(Some(outage(SimTime::ZERO, None)));
            assert!(cache
                .put(SimTime::ZERO, VM, pool, addr(1, 0), PageVersion(1))
                .is_failed());
            assert!(cache.ssd_quarantined());
            assert_eq!(
                cache.put(SimTime::ZERO, VM, pool, addr(1, 1), PageVersion(1)),
                PutOutcome::Rejected
            );
            let t = cache.totals();
            assert_eq!((t.mem_used_pages, t.ssd_used_pages), (0, 0));
            assert_eq!(
                cache.get(SimTime::ZERO, VM, pool, addr(1, 1)),
                GetOutcome::Miss
            );
        }

        #[test]
        fn recovery_probe_restores_ssd_placement() {
            let (mut cache, pool) = ssd_cache();
            // SSD IO fails during [1s, 2s).
            cache.set_ssd_fault_schedule(Some(outage(
                SimTime::from_secs(1),
                Some(SimTime::from_secs(2)),
            )));
            let t_fault = SimTime::from_secs(1);
            assert!(cache
                .put(t_fault, VM, pool, addr(1, 0), PageVersion(1))
                .is_failed());
            assert!(cache.ssd_quarantined());
            // A probe inside the outage window fails and doubles the
            // backoff; the tier stays quarantined.
            let t_probe1 = t_fault + DoubleDeckerCache::SSD_PROBE_INITIAL_BACKOFF;
            assert!(cache
                .put(t_probe1, VM, pool, addr(1, 1), PageVersion(1))
                .is_failed());
            assert!(cache.ssd_quarantined());
            assert_eq!(cache.totals().ssd_quarantines, 1, "one quarantine episode");
            // After the outage clears, the next probe succeeds and the
            // original <SSD> placement resumes automatically.
            let t_ok = SimTime::from_secs(3);
            assert!(cache
                .put(t_ok, VM, pool, addr(1, 2), PageVersion(1))
                .is_stored());
            assert!(!cache.ssd_quarantined());
            assert_eq!(cache.totals().ssd_recoveries, 1);
            let s = cache.pool_stats(VM, pool).unwrap();
            assert_eq!(s.ssd_pages, 1);
            assert_eq!(s.mem_pages, 0);
            // And the stored page reads back fine.
            assert!(cache.get(t_ok, VM, pool, addr(1, 2)).is_hit());
        }

        #[test]
        fn accounting_stays_consistent_through_quarantine() {
            let (mut cache, pool) = ssd_cache();
            let mem_pool = cache.create_pool(VM, CachePolicy::mem(100));
            for b in 0..10 {
                cache.put(SimTime::ZERO, VM, pool, addr(1, b), PageVersion(1));
                cache.put(SimTime::ZERO, VM, mem_pool, addr(2, b), PageVersion(1));
            }
            cache.set_ssd_fault_schedule(Some(outage(SimTime::from_secs(1), None)));
            cache.get(SimTime::from_secs(1), VM, pool, addr(1, 0));
            let totals = cache.totals();
            let s_ssd = cache.pool_stats(VM, pool).unwrap();
            let s_mem = cache.pool_stats(VM, mem_pool).unwrap();
            assert_eq!(totals.ssd_used_pages, s_ssd.ssd_pages + s_mem.ssd_pages);
            assert_eq!(totals.mem_used_pages, s_ssd.mem_pages + s_mem.mem_pages);
            assert_eq!(
                s_mem.mem_pages, 10,
                "the memory tier is untouched by SSD quarantine"
            );
        }
    }

    /// Seeded randomized schedules over the full control + data API
    /// surface (in-tree replacement for proptest, which is unavailable
    /// offline).
    mod randomized {
        use super::*;
        use ddc_sim::SimRng;

        /// Accounting invariants hold across the full control + data API
        /// surface, including VM/pool lifecycle and capacity changes.
        #[test]
        fn full_lifecycle_invariants() {
            let mut rng = SimRng::new(0xDDCACE);
            for case in 0..96 {
                let mut r = rng.fork(case);
                let config = CacheConfig {
                    mem_capacity_pages: 64,
                    ssd_capacity_pages: 64,
                    mode: PartitionMode::DoubleDecker,
                    admission: AdmissionConfig::off(),
                };
                let mut cache = DoubleDeckerCache::new(config);
                // pools[vm] = live pool ids of that VM
                let mut pools: Vec<Vec<PoolId>> = vec![Vec::new(); 3];
                let mut live_vm = [false; 3];
                let a = |f: u64, b: u64| BlockAddr::new(FileId(f), b);
                let pool_of = |pools: &Vec<Vec<PoolId>>, vm: u64, pool: u64| -> Option<PoolId> {
                    pools[vm as usize].get(pool as usize).copied()
                };
                let mut version = 0u64;
                for _ in 0..r.range_u64(1, 250) {
                    let vm = r.range_u64(0, 3);
                    let pool = r.range_u64(0, 4);
                    let file = r.range_u64(0, 3);
                    let block = r.range_u64(0, 24);
                    let weight = r.range_u64(1, 100);
                    let ssd = r.chance(0.5);
                    // Weighted op mix mirroring the original strategy
                    // (puts and gets dominate).
                    match r.range_u64(0, 29) {
                        0..=9 => {
                            if let Some(p) = pool_of(&pools, vm, pool) {
                                version += 1;
                                cache.put(
                                    SimTime::ZERO,
                                    VmId(vm as u32),
                                    p,
                                    a(file, block),
                                    PageVersion(version),
                                );
                            }
                        }
                        10..=15 => {
                            if let Some(p) = pool_of(&pools, vm, pool) {
                                cache.get(SimTime::ZERO, VmId(vm as u32), p, a(file, block));
                            }
                        }
                        16..=17 => {
                            if let Some(p) = pool_of(&pools, vm, pool) {
                                cache.flush(VmId(vm as u32), p, a(file, block));
                            }
                        }
                        18 => {
                            if let Some(p) = pool_of(&pools, vm, pool) {
                                cache.flush_file(VmId(vm as u32), p, FileId(file));
                            }
                        }
                        19..=20 => {
                            let policy = if ssd {
                                CachePolicy::ssd(weight as u32)
                            } else {
                                CachePolicy::mem(weight as u32)
                            };
                            let id = cache.create_pool(VmId(vm as u32), policy);
                            pools[vm as usize].push(id);
                            live_vm[vm as usize] = true;
                        }
                        21 => {
                            if let Some(p) = pool_of(&pools, vm, pool) {
                                cache.destroy_pool(VmId(vm as u32), p);
                                pools[vm as usize].retain(|&x| x != p);
                            }
                        }
                        22..=23 => {
                            if let Some(p) = pool_of(&pools, vm, pool) {
                                let policy = if ssd {
                                    CachePolicy::ssd(weight as u32)
                                } else {
                                    CachePolicy::mem(weight as u32)
                                };
                                cache.set_policy(VmId(vm as u32), p, policy);
                            }
                        }
                        24 => {
                            let to = r.range_u64(0, 4);
                            if let (Some(f), Some(t)) =
                                (pool_of(&pools, vm, pool), pool_of(&pools, vm, to))
                            {
                                cache.migrate_object(VmId(vm as u32), f, t, a(file, block));
                            }
                        }
                        25 => {
                            if live_vm[vm as usize] {
                                cache.set_vm_weight(VmId(vm as u32), weight);
                            }
                        }
                        26 => {
                            if live_vm[vm as usize] {
                                cache.remove_vm(VmId(vm as u32));
                                pools[vm as usize].clear();
                                live_vm[vm as usize] = false;
                            }
                        }
                        _ => {
                            cache.set_mem_capacity(SimTime::ZERO, r.range_u64(8, 128));
                        }
                    }
                    // Invariants after every operation.
                    let totals = cache.totals();
                    assert!(totals.mem_used_pages <= totals.mem_capacity_pages);
                    assert!(totals.ssd_used_pages <= totals.ssd_capacity_pages);
                    let mut mem_sum = 0;
                    let mut ssd_sum = 0;
                    for (vm, vm_pools) in pools.iter().enumerate() {
                        for &p in vm_pools {
                            let s = cache
                                .pool_stats(VmId(vm as u32), p)
                                .expect("live pool has stats");
                            mem_sum += s.mem_pages;
                            ssd_sum += s.ssd_pages;
                        }
                    }
                    assert_eq!(totals.mem_used_pages, mem_sum);
                    assert_eq!(totals.ssd_used_pages, ssd_sum);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Crash-and-recovery plane.
    // ------------------------------------------------------------------

    /// A journaled cache with two VMs, mixed mem/SSD pools, and a spread
    /// of churn (puts, exclusive gets, flushes, a capacity change), plus
    /// the flush epochs a guest would have accumulated.
    fn journaled_fixture() -> (DoubleDeckerCache, Vec<(VmId, u64)>) {
        let config = CacheConfig {
            mem_capacity_pages: 64,
            ssd_capacity_pages: 64,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        };
        let mut cache = DoubleDeckerCache::new(config);
        cache.enable_journal();
        cache.add_vm(VmId(1), 100);
        cache.add_vm(VmId(2), 50);
        let p1 = cache.create_pool(VmId(1), CachePolicy::mem(100));
        let p2 = cache.create_pool(VmId(2), CachePolicy::ssd(100));
        let mut epochs = vec![(VmId(1), 0u64), (VmId(2), 0u64)];
        for b in 0..40 {
            cache.put(SimTime::ZERO, VmId(1), p1, addr(1, b), PageVersion(1));
            cache.put(SimTime::ZERO, VmId(2), p2, addr(2, b), PageVersion(1));
        }
        for b in 0..10 {
            cache.get(SimTime::ZERO, VmId(1), p1, addr(1, b));
            epochs[1].1 = epochs[1].1.max(cache.flush(VmId(2), p2, addr(2, b)));
        }
        cache.set_mem_capacity(SimTime::ZERO, 48);
        epochs[0].1 = epochs[0].1.max(cache.flush(VmId(1), p1, addr(1, 39)));
        (cache, epochs)
    }

    #[test]
    fn recovery_from_full_image_is_exact() {
        let (cache, epochs) = journaled_fixture();
        let image = cache.journal_bytes().unwrap().to_vec();
        let (recovered, report) =
            DoubleDeckerCache::recover(cache.current_config(), &image, &epochs);
        assert_eq!(recovered.entries(), cache.entries(), "lossless replay");
        assert_eq!(report.discarded_stale, 0, "full image has no stale tail");
        assert_eq!(report.dropped_no_room, 0);
        assert!(!report.segments[0].torn_tail && !report.segments[0].corrupt);
        assert_eq!(report.recovered_entries as usize, recovered.entries().len());
        assert!(
            crate::audit(&recovered).is_empty(),
            "recovered cache audits clean"
        );
        // Recovered entries are usable through the normal data path.
        let (vm, pool, a, v) = recovered.entries()[0];
        let mut recovered = recovered;
        match recovered.get(SimTime::ZERO, vm, pool, a) {
            GetOutcome::Hit { version, .. } => assert_eq!(version, v),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn recovery_tolerates_torn_and_garbage_tails() {
        let (cache, epochs) = journaled_fixture();
        let image = cache.journal_bytes().unwrap().to_vec();
        let baseline = cache.entries();
        // Torn tail: chop the image mid-record.
        let torn = &image[..image.len() - 3];
        let (rec_torn, rep_torn) =
            DoubleDeckerCache::recover(cache.current_config(), torn, &epochs);
        assert!(
            rep_torn.segments[0].torn_tail,
            "partial trailing record detected"
        );
        assert!(crate::audit(&rec_torn).is_empty());
        // Garbage appended past the real records: replay stops there.
        let mut noisy = image.clone();
        noisy.extend_from_slice(&[0xAB; 40]);
        let (rec_noisy, rep_noisy) =
            DoubleDeckerCache::recover(cache.current_config(), &noisy, &epochs);
        assert!(rep_noisy.segments[0].corrupt || rep_noisy.segments[0].torn_tail);
        assert_eq!(
            rec_noisy.entries(),
            baseline,
            "garbage tail loses nothing real"
        );
        assert!(crate::audit(&rec_noisy).is_empty());
    }

    #[test]
    fn live_compaction_bounds_replay_after_long_runs() {
        let config = CacheConfig {
            mem_capacity_pages: 64,
            ssd_capacity_pages: 0,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        };
        let mut cache = DoubleDeckerCache::new(config);
        cache.enable_journal();
        let pool = cache.create_pool(VM, CachePolicy::mem(100));
        // A long steady workload over a tiny working set: history grows
        // without bound while live entries stay under the capacity, so
        // an uncompacted journal would accumulate ~30k records.
        let mut last_epoch = 0;
        for i in 0..20_000u64 {
            let a = addr(1, i % 32);
            cache.put(SimTime::ZERO, VM, pool, a, PageVersion(i));
            if i % 3 == 0 {
                cache.get(SimTime::ZERO, VM, pool, a);
            }
            if i % 7 == 0 {
                let e = cache.flush(VM, pool, a);
                assert!(e >= last_epoch, "flush epochs stay monotone");
                last_epoch = e;
            }
        }
        assert!(
            cache.journal_compactions() > 0,
            "a long run must trigger live compaction"
        );
        // Replay cost is bounded by the compaction threshold (plus one
        // op's worth of eviction records), not by history length.
        let records = cache.journal_records().unwrap();
        assert!(
            records <= 1200,
            "journal stays short after 30k+ appends, got {records}"
        );
        // A crash right now recovers from the short journal, loses
        // nothing, and honours the guest's pre-compaction flush epoch.
        let image = cache.journal_bytes().unwrap().to_vec();
        let (recovered, report) =
            DoubleDeckerCache::recover(cache.current_config(), &image, &[(VM, last_epoch)]);
        assert!(!report.segments[0].torn_tail && !report.segments[0].corrupt);
        assert!(report.records_replayed <= 1200);
        assert_eq!(report.discarded_stale, 0, "compaction never loses flushes");
        assert_eq!(
            recovered.entries(),
            cache.entries(),
            "state survives intact"
        );
        assert!(crate::audit(&recovered).is_empty());
    }

    #[test]
    fn epoch_discard_drops_entry_covered_by_lost_flush() {
        let config = CacheConfig {
            mem_capacity_pages: 16,
            ssd_capacity_pages: 0,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        };
        let mut cache = DoubleDeckerCache::new(config);
        cache.enable_journal();
        cache.add_vm(VmId(1), 100);
        let p = cache.create_pool(VmId(1), CachePolicy::mem(100));
        let a = addr(7, 0);
        cache.put(SimTime::ZERO, VmId(1), p, a, PageVersion(1));
        // Sync the journal so the v1 put is durable (flush of an absent
        // block still logs + syncs).
        cache.flush(VmId(1), p, addr(9, 9));
        let durable = cache.journal_durable_len().unwrap();
        // The guest now overwrites the block: its invalidating flush is
        // acknowledged (epoch advances), but the crash cuts the journal
        // before that flush record — the classic lost-invalidation window.
        let epoch = cache.flush(VmId(1), p, a);
        assert!(epoch > 0);
        let image = cache.journal_bytes().unwrap()[..durable].to_vec();
        let (recovered, report) =
            DoubleDeckerCache::recover(cache.current_config(), &image, &[(VmId(1), epoch)]);
        assert_eq!(report.discarded_stale, 1, "stale v1 copy dropped by epoch");
        assert!(recovered.entries().is_empty());
        assert!(crate::audit(&recovered).is_empty());
        // Without the guest epoch the stale copy WOULD be replayed — the
        // discard is doing real work above.
        let (naive, _) = DoubleDeckerCache::recover(cache.current_config(), &image, &[]);
        assert_eq!(naive.entries().len(), 1);
    }

    #[test]
    fn recovery_checkpoint_supports_second_recovery() {
        let (cache, epochs) = journaled_fixture();
        let image = cache.journal_bytes().unwrap().to_vec();
        let (first, report) = DoubleDeckerCache::recover(cache.current_config(), &image, &epochs);
        // The recovered cache re-journals its state as a checkpoint; a
        // second crash straight after recovers the same contents.
        let checkpoint = first.journal_bytes().unwrap().to_vec();
        assert!(
            checkpoint.len() < image.len(),
            "checkpoint compacts history"
        );
        let (second, rep2) =
            DoubleDeckerCache::recover(first.current_config(), &checkpoint, &report.new_epochs);
        assert_eq!(second.entries(), first.entries());
        assert_eq!(
            rep2.discarded_stale, 0,
            "checkpoint gens outrun every epoch"
        );
        assert!(crate::audit(&second).is_empty());
        // New epochs cover every VM so guests can be re-armed.
        let vms: Vec<VmId> = report.new_epochs.iter().map(|&(vm, _)| vm).collect();
        assert!(vms.contains(&VmId(1)) && vms.contains(&VmId(2)));
    }

    #[test]
    fn recovery_from_every_prefix_never_serves_stale() {
        use ddc_sim::SimRng;
        use std::collections::BTreeMap;
        let config = CacheConfig {
            mem_capacity_pages: 24,
            ssd_capacity_pages: 24,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        };
        let mut cache = DoubleDeckerCache::new(config);
        cache.enable_journal();
        cache.add_vm(VmId(1), 100);
        let pm = cache.create_pool(VmId(1), CachePolicy::mem(100));
        let ps = cache.create_pool(VmId(1), CachePolicy::ssd(100));
        // Ground truth a guest would hold: the authoritative version of
        // every block, and the highest acknowledged flush epoch.
        let mut disk: BTreeMap<BlockAddr, u64> = BTreeMap::new();
        let mut epoch = 0u64;
        let mut rng = SimRng::new(0xC4A5);
        for _ in 0..400 {
            let a = addr(rng.range_u64(1, 4), rng.range_u64(0, 16));
            // One owning pool per block — the guest keeps second-chance
            // copies exclusive, so the op stream must too.
            let p = if a.block.is_multiple_of(2) { pm } else { ps };
            match rng.range_u64(0, 10) {
                // Reclaim: put the current clean version.
                0..=4 => {
                    let v = disk.get(&a).copied().unwrap_or(0);
                    cache.put(SimTime::ZERO, VmId(1), p, a, PageVersion(v));
                }
                5..=6 => {
                    cache.get(SimTime::ZERO, VmId(1), p, a);
                }
                // Overwrite: bump the disk version, invalidate both pools
                // (a guest flushes every pool of the VM on write).
                _ => {
                    *disk.entry(a).or_insert(0) += 1;
                    epoch = epoch.max(cache.flush(VmId(1), pm, a));
                    epoch = epoch.max(cache.flush(VmId(1), ps, a));
                }
            }
        }
        let image = cache.journal_bytes().unwrap().to_vec();
        let cuts = ddc_storage::Journal::record_boundaries(&image);
        assert!(cuts.len() > 400, "one boundary per record");
        // Sample prefixes (every 13th boundary plus the extremes) and a
        // torn variant of each; recovery must never resurrect a version
        // older than the disk's.
        let mut sampled = 0;
        for (i, &cut) in cuts.iter().enumerate() {
            if i % 13 != 0 && i + 1 != cuts.len() {
                continue;
            }
            sampled += 1;
            for torn in [false, true] {
                let end = if torn { cut.saturating_sub(2) } else { cut };
                let (recovered, _) = DoubleDeckerCache::recover(
                    cache.current_config(),
                    &image[..end],
                    &[(VmId(1), epoch)],
                );
                for (_, _, a, v) in recovered.entries() {
                    let truth = disk.get(&a).copied().unwrap_or(0);
                    assert_eq!(v.0, truth, "stale {a} recovered at cut {cut} torn={torn}");
                }
                let findings = crate::audit(&recovered);
                assert!(findings.is_empty(), "cut {cut} torn={torn}: {findings:?}");
            }
        }
        assert!(sampled >= 30, "swept enough crash points ({sampled})");
    }
}
