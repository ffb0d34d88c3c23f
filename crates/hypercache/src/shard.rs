//! The shard state machine: what a put, take, evict, flush or destroy
//! *does* to the index, the page accounting and the wear ledger —
//! written once and called by both engines, live and on replay
//! (DESIGN.md §11.5).
//!
//! A [`ShardState`] is the pools that hash to one shard. The serial
//! [`DoubleDeckerCache`](crate::DoubleDeckerCache) holds one; the
//! sharded engine holds one per shard lock. Every journal record kind
//! has one transition here; a live path decides (placement, victim,
//! admission), calls the transition, and journals the record, and
//! [`ShardState::replay`] calls the same transition when the record
//! comes back — so replay cannot drift from the live path.
//!
//! The decisions a put, get, eviction batch or policy change makes on
//! its pool are here too, once ([`PoolVisit::place`],
//! [`PoolVisit::take`], [`PoolVisit::evict_batch`],
//! [`PoolVisit::rehome`]): an engine supplies what is its own — the
//! share table an entitlement is read from, its victim choice, its
//! journal — and runs them over its [`StoreBackend`], which owns the
//! pages, the sequence, the device and the SSD tier's health: the serial
//! pair of [`BackingStore`](crate::store::BackingStore)s, or the sharded
//! engine's cache-global atomic ledgers. On top of the transitions sit
//! the whole-cache procedures both engines run under their consistent
//! cut: Global mode's eviction order ([`OldestFirst`]), the checkpoint
//! writer ([`Cut::write_checkpoint`]), the live-compaction threshold
//! ([`compaction_due`]) and recovery, one driver for both engines
//! ([`ReplayLog::replay`]: `replay_record` per record, which the
//! serial engine's control verbs run too, then the epoch discard).
//!
//! The per-operation transitions and the record builders are
//! `#[inline]`: they used to be statements of the engines' own get, put
//! and flush, and from a codegen unit of their own each is a call (a
//! serial miss-get: 25.5 ns without the attribute, 22 ns with it).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use ddc_cleancache::{GetOutcome, PageVersion, PoolId, StoreKind, VmId};
use ddc_metrics::CounterSnapshot;
use ddc_sim::{FxHashMap, SimTime};
use ddc_storage::{
    BlockAddr, FileId, IoError, Journal, JournalRecord, RemoteBinding, RemoteCounters, RemoteError,
    RemoteLookup, ReplayStats, WearCounters,
};

use crate::index::{Placement, Pool, Slot, SlotId};
use crate::registry::{Control, Registry};
use crate::{
    store_kind_code, AdmissionConfig, CachePolicy, PartitionMode, JOURNAL_COMPACT_FACTOR,
    JOURNAL_COMPACT_MIN_RECORDS,
};

/// The stores under the transitions, the seam between the one data plane
/// and an engine's devices (DESIGN.md §11.5): page accounting, the
/// insertion sequence, the device charge and the SSD tier's health. The
/// provided methods are a backend with no device (the sharded engine's):
/// every I/O finishes at `now` and succeeds, the SSD tier always admits.
pub trait StoreBackend {
    /// Reserves one page in `placement`'s store if it has room.
    fn try_alloc(&mut self, placement: Placement) -> bool;
    /// Gives `pages` pages of `placement`'s store back.
    fn free(&mut self, placement: Placement, pages: u64);
    /// Whether `placement`'s store has no capacity at all.
    fn is_disabled(&self, placement: Placement) -> bool;
    /// The next insertion sequence stamp: FIFO order across the cache.
    fn next_seq(&mut self) -> u64;
    /// Resizes `placement`'s store without touching its pages (a
    /// replayed capacity record; recovery shrinks what no longer fits).
    fn set_capacity(&mut self, placement: Placement, pages: u64);

    /// Charges one page read from `placement`'s store at `now`: when it
    /// finishes, or the I/O error.
    #[inline]
    fn read(&mut self, now: SimTime, _placement: Placement, _addr: BlockAddr) -> IoResult {
        Ok(now)
    }

    /// Charges one page write into `placement`'s store at `now`.
    #[inline]
    fn write(&mut self, now: SimTime, _placement: Placement, _addr: BlockAddr) -> IoResult {
        Ok(now)
    }

    /// A copy in `placement`'s store failed verify-on-read at `now`: a
    /// fault of that store with no I/O error behind it.
    #[inline]
    fn note_rot(&mut self, _now: SimTime, _placement: Placement) {}

    /// What an SSD-bound put at `now` may do.
    #[inline]
    fn ssd_health(&self, _now: SimTime) -> SsdHealth {
        SsdHealth::Through
    }

    /// Whether the SSD tier is quarantined: no trickle-down or re-homed
    /// page goes there until a put's probe brings it back.
    #[inline]
    fn ssd_quarantined(&self) -> bool {
        false
    }
}

/// A device charge: when the I/O finishes, or its error.
pub type IoResult = Result<SimTime, IoError>;

/// The SSD tier's answer to an SSD-bound put.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SsdHealth {
    /// Healthy, or quarantined and this put is the recovery probe.
    Through,
    /// Quarantined: the page goes to the memory store.
    ToMem,
    /// Quarantined: the put is turned away.
    Reject,
}

/// Where [`PoolVisit::place`] sends a put.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placed {
    /// To a page of this store, taken for it.
    At(Placement),
    /// To this store, full: the engine evicts, then takes the page.
    Full(Placement),
    /// Nowhere.
    Rejected,
}

/// [`ShardState::note_flush`] on an already resolved binding.
#[inline]
fn localize_or_stash(
    binding: Option<&mut RemoteBinding>,
    stash: &mut RemoteStash,
    key: (VmId, PoolId),
    addr: BlockAddr,
    stash_unbound: bool,
) {
    if let Some(binding) = binding {
        binding.localize(addr);
    } else if stash_unbound {
        stash.entry(key).or_default().0.push(addr);
    }
}

/// Flush localization waiting for a binding, per pool.
type RemoteStash = FxHashMap<(VmId, PoolId), (Vec<BlockAddr>, Vec<FileId>)>;

/// What one shard's eviction transitions did over its life: pages
/// evicted (pool batches, Global-order evictions, TTL demotions) and pages of
/// those trickled down to the SSD store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Evicted {
    /// Pages evicted.
    pub pages: u64,
    /// Evicted pages trickled down.
    pub trickled: u64,
}

/// The pools of one shard and everything that must change with them.
///
/// `pools` is public because the engines' drivers read usage and bump
/// per-pool counters in place; *membership* (insert, remove, drain) goes
/// through the transitions, which keep the backend's pages equal to the
/// pools' usage.
#[derive(Debug, Default)]
pub struct ShardState {
    /// The pools homed here.
    pub pools: FxHashMap<(VmId, PoolId), Pool>,
    /// Wear of pools that no longer exist, folded in when a pool is
    /// drained for good so device totals never decrease. Keyed
    /// independently of the registry: a removed VM's wear persists.
    retired_wear: BTreeMap<VmId, WearCounters>,
    /// Remote bindings of the pools homed here: the third tier consulted
    /// on the miss path, each carrying its own fault-tolerance stack.
    /// Not journaled — a recovered host re-binds.
    pub remote_bindings: FxHashMap<(VmId, PoolId), RemoteBinding>,
    /// Flush localization waiting for a binding: replayed flushes and
    /// runtime flushes of unbound pools while remotes are registered.
    /// The engine's `bind_remote` consumes it, so a rebound pool never
    /// serves a block the guest invalidated; [`Self::drain_pool`] drops
    /// it, and the binding, with the pool.
    pub remote_stash: RemoteStash,
    /// What the eviction transitions did: the engines' totals.
    pub evicted: Evicted,
}

impl ShardState {
    /// Heap bytes of the shard's index: every pool's
    /// ([`Pool::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.pools.values().map(Pool::heap_bytes).sum()
    }

    /// Pages one pool holds in one store (0 for an unknown pool).
    #[inline]
    pub fn used(&self, vm: VmId, pool: PoolId, placement: Placement) -> u64 {
        self.pools.get(&(vm, pool)).map_or(0, |p| p.used(placement))
    }

    /// Resolves one pool for a run of transitions: the one probe of the
    /// pool map (and of the binding map) that every transition of the
    /// run then shares. `None` if there is no such pool. The keyed
    /// transitions below are runs of one.
    #[inline]
    pub fn visit(&mut self, vm: VmId, pool: PoolId) -> Option<PoolVisit<'_>> {
        Some(PoolVisit {
            vm,
            id: pool,
            pool: self.pools.get_mut(&(vm, pool))?,
            binding: self.remote_bindings.get_mut(&(vm, pool)),
            stash: &mut self.remote_stash,
            evicted: &mut self.evicted,
        })
    }

    /// Removes one object (if resident): the body of `Take`, `Evict` and
    /// `Flush`, of the exclusive overwrite, the migration source and the
    /// re-homing of a policy change.
    #[inline]
    pub fn remove(
        &mut self,
        backend: &mut impl StoreBackend,
        vm: VmId,
        pool: PoolId,
        addr: BlockAddr,
    ) -> Option<Slot> {
        self.visit(vm, pool)?.remove(backend, addr)
    }

    /// Inserts one object whose page the caller already holds
    /// ([`PoolVisit::insert`]). `false` — and nothing changed, the page
    /// still the caller's — if the pool does not exist.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        backend: &mut impl StoreBackend,
        vm: VmId,
        pool: PoolId,
        addr: BlockAddr,
        placement: Placement,
        version: PageVersion,
        seq: u64,
    ) -> bool {
        let Some(mut visit) = self.visit(vm, pool) else {
            return false;
        };
        visit.insert(backend, addr, placement, version, seq);
        true
    }

    /// The target half of a migration: an object another pool of the
    /// VM gave up ([`Self::remove`]) joins `pool` in the store it was in,
    /// under a fresh stamp, if the pool exists and that store has a page
    /// for it (on one thread, the one the source just gave back).
    /// `false` otherwise: the object is dropped, which is safe, it is
    /// clean. The engine journals the `Put` on `true`.
    pub fn adopt(
        &mut self,
        backend: &mut impl StoreBackend,
        vm: VmId,
        pool: PoolId,
        addr: BlockAddr,
        slot: Slot,
    ) -> bool {
        if !self.pools.contains_key(&(vm, pool)) || !backend.try_alloc(slot.placement) {
            return false;
        }
        let seq = backend.next_seq();
        self.insert(backend, vm, pool, addr, slot.placement, slot.version, seq)
    }

    /// The objects of one pool that its (just changed) policy no longer
    /// allows where they are, each with the store it should move to, in
    /// address order: the slab's own order depends on free-list history,
    /// and the re-homing sequence (and the fresh stamps it mints) must
    /// be a pure function of the visible cache state. A disabled policy
    /// displaces nothing.
    pub fn misplaced(&self, vm: VmId, pool: PoolId) -> Vec<(BlockAddr, PageVersion, Placement)> {
        let Some(p) = self.pools.get(&(vm, pool)) else {
            return Vec::new();
        };
        let store = p.policy().store;
        let mut moves: Vec<_> = p
            .iter()
            .filter_map(|(addr, slot)| match slot.placement {
                Placement::Mem if !store.uses_mem() => Some((addr, slot.version, Placement::Ssd)),
                Placement::Ssd if !store.uses_ssd() => Some((addr, slot.version, Placement::Mem)),
                _ => None,
            })
            .collect();
        if !p.policy().is_enabled() {
            moves.clear();
        }
        moves.sort_unstable_by_key(|&(addr, _, _)| addr);
        moves
    }

    /// Removes every object of `file` from one pool (`FlushFile`),
    /// returning the pages freed as `(mem, ssd)`.
    pub fn remove_file(
        &mut self,
        backend: &mut impl StoreBackend,
        vm: VmId,
        pool: PoolId,
        file: FileId,
    ) -> (u64, u64) {
        let Some(p) = self.pools.get_mut(&(vm, pool)) else {
            return (0, 0);
        };
        let (mem, ssd) = p.remove_file(file);
        backend.free(Placement::Mem, mem);
        backend.free(Placement::Ssd, ssd);
        (mem, ssd)
    }

    /// Destroys one pool (`DestroyPool`, and `RemoveVm` per pool): its
    /// remote binding and stashed flushes dropped, its objects drained,
    /// its wear retired into the VM's accumulator and its pages freed.
    /// `false` if there was no such pool.
    pub fn drain_pool(&mut self, backend: &mut impl StoreBackend, vm: VmId, pool: PoolId) -> bool {
        self.remote_bindings.remove(&(vm, pool));
        self.remote_stash.remove(&(vm, pool));
        let Some(mut p) = self.pools.remove(&(vm, pool)) else {
            return false;
        };
        let (mem, ssd) = p.drain();
        let worn = p.wear.retire();
        self.retired_wear.entry(vm).or_default().absorb(&worn);
        backend.free(Placement::Mem, mem);
        backend.free(Placement::Ssd, ssd);
        true
    }

    /// Invalidates every SSD-resident object wholesale (`SsdDrain`: a
    /// failed store must never serve a potentially-corrupt hit).
    /// Returns the pages invalidated.
    pub fn drain_ssd(&mut self, backend: &mut impl StoreBackend) -> u64 {
        let freed = self
            .pools
            .values_mut()
            .map(|p| p.drain_placement(Placement::Ssd))
            .sum();
        backend.free(Placement::Ssd, freed);
        freed
    }

    /// Epoch discard: drops every object of one pool whose sequence
    /// stamp predates `epoch`, in address order (the slab's own order
    /// depends on free-list history). Returns how many went.
    pub fn discard_older_than(
        &mut self,
        backend: &mut impl StoreBackend,
        vm: VmId,
        pool: PoolId,
        epoch: u64,
    ) -> u64 {
        let Some(p) = self.pools.get(&(vm, pool)) else {
            return 0;
        };
        let mut suspects: Vec<BlockAddr> = p
            .iter()
            .filter(|(_, slot)| slot.seq < epoch)
            .map(|(addr, _)| addr)
            .collect();
        suspects.sort_unstable();
        let mut discarded = 0;
        for addr in suspects {
            discarded += u64::from(self.remove(backend, vm, pool, addr).is_some());
        }
        discarded
    }

    /// One pool's share of the TTL sweep: demotes (drops) its
    /// SSD-resident objects older than `ttl` inserts, in slab order,
    /// journaling each as an eviction. Returns how many went.
    pub fn ttl_sweep_pool(
        &mut self,
        backend: &mut impl StoreBackend,
        (vm, pool): (VmId, PoolId),
        ttl: u64,
        mut journal: impl FnMut(JournalRecord),
    ) -> u64 {
        let stale = self
            .pools
            .get(&(vm, pool))
            .map(|p| p.stale_ssd_entries(ttl));
        let mut demoted = 0;
        for addr in stale.unwrap_or_default() {
            if self.remove(backend, vm, pool, addr).is_some() {
                demoted += 1;
                journal(evict_record(vm, pool, addr));
            }
        }
        if let Some(p) = self.pools.get_mut(&(vm, pool)) {
            p.counters.evictions += demoted;
            p.wear.ttl_demotions += demoted;
        }
        self.evicted.pages += demoted;
        demoted
    }

    /// The remote half of a flush: the guest is writing the backing
    /// block, so the remote's copy is stale forever after. A bound pool
    /// localizes it; an unbound one stashes it for a future binding if
    /// `stash_unbound` (remotes are registered, or this is a replay).
    #[inline]
    pub fn note_flush(&mut self, vm: VmId, pool: PoolId, addr: BlockAddr, stash_unbound: bool) {
        let binding = self.remote_bindings.get_mut(&(vm, pool));
        localize_or_stash(
            binding,
            &mut self.remote_stash,
            (vm, pool),
            addr,
            stash_unbound,
        );
    }

    /// File-granularity variant of [`Self::note_flush`].
    pub fn note_flush_file(&mut self, vm: VmId, pool: PoolId, file: FileId, stash_unbound: bool) {
        if let Some(binding) = self.remote_bindings.get_mut(&(vm, pool)) {
            binding.localize_file(file);
        } else if stash_unbound {
            self.remote_stash
                .entry((vm, pool))
                .or_default()
                .1
                .push(file);
        }
    }

    /// Binds `pool` to a remote (once), handing it the flushes that
    /// predate the binding (runtime or replayed): the remote must never
    /// serve those blocks.
    pub fn bind_remote(
        &mut self,
        vm: VmId,
        pool: PoolId,
        mut binding: RemoteBinding,
    ) -> Result<(), RemoteError> {
        if self.remote_bindings.contains_key(&(vm, pool)) {
            let (vm, pool) = (vm.0, pool.0);
            return Err(RemoteError::AlreadyBound { vm, pool });
        }
        if let Some((addrs, files)) = self.remote_stash.remove(&(vm, pool)) {
            binding.preload_localized(addrs, files);
        }
        self.remote_bindings.insert((vm, pool), binding);
        Ok(())
    }

    /// Checkpoint wear carry-over (`WearTotals`): a checkpoint's puts
    /// re-accrue only the *live* entries' wear, the record holds the
    /// VM's true cumulative totals. Applied as a max-correction against
    /// `current` (the VM's wear across the whole cache right now) into
    /// this state's retired accumulator — monotone and idempotent, so a
    /// replayed prefix never exceeds and never loses wear.
    pub fn correct_wear(
        &mut self,
        vm: VmId,
        current: WearCounters,
        ssd_pages_written: u64,
        pages_admitted: u64,
    ) {
        let retired = self.retired_wear.entry(vm).or_default();
        retired.ssd_pages_written += ssd_pages_written.saturating_sub(current.ssd_pages_written);
        retired.pages_admitted += pages_admitted.saturating_sub(current.pages_admitted);
    }

    /// Applies one replayed data record (`Put`, `Take`, `Evict`, `Flush`
    /// or `FlushFile`; any other kind is a no-op here) through the
    /// transitions the live paths use. No side effects beyond the
    /// record's own: re-homing, shrinking and trickle-down were
    /// themselves journaled and replay in order. `false` only for a
    /// `Put` that had to be dropped (pool gone or store full).
    pub fn replay(
        &mut self,
        backend: &mut impl StoreBackend,
        gen: u64,
        rec: &JournalRecord,
    ) -> bool {
        match *rec {
            JournalRecord::Put {
                vm,
                pool,
                addr,
                version,
                placement,
            } => {
                let (vm, pool, version) = (VmId(vm), PoolId(pool), PageVersion(version));
                // The older copy goes first, as in `PoolVisit::place`:
                // a put that is then dropped must not leave it behind.
                self.remove(backend, vm, pool, addr);
                let Some(placement) = Placement::from_code(placement) else {
                    return true;
                };
                // Pool before page, so a put into a missing pool never
                // leaks a page.
                if !self.pools.contains_key(&(vm, pool)) || !backend.try_alloc(placement) {
                    // The flash write physically happened before the
                    // crash: losing the *entry* must not lose the *wear*.
                    let worn = self.retired_wear.entry(vm).or_default();
                    worn.pages_admitted += 1;
                    worn.ssd_pages_written += u64::from(placement == Placement::Ssd);
                    return false;
                }
                // The record's generation becomes the sequence stamp:
                // generations are monotone, so replay preserves FIFO
                // order.
                self.insert(backend, vm, pool, addr, placement, version, gen);
            }
            JournalRecord::Take { vm, pool, addr } | JournalRecord::Evict { vm, pool, addr } => {
                self.remove(backend, VmId(vm), PoolId(pool), addr);
            }
            JournalRecord::Flush { vm, pool, addr } => {
                let (vm, pool) = (VmId(vm), PoolId(pool));
                self.remove(backend, vm, pool, addr);
                self.note_flush(vm, pool, addr, true);
            }
            JournalRecord::FlushFile { vm, pool, file } => {
                let (vm, pool) = (VmId(vm), PoolId(pool));
                self.remove_file(backend, vm, pool, file);
                self.note_flush_file(vm, pool, file, true);
            }
            _ => {}
        }
        true
    }
}

/// One pool of a [`ShardState`], resolved once ([`ShardState::visit`])
/// for a run of transitions: what a group of puts, gets or flushes that
/// names one pool runs through while it holds the shard. Every
/// transition here is the whole of the keyed one of the same name.
#[derive(Debug)]
pub struct PoolVisit<'a> {
    vm: VmId,
    id: PoolId,
    /// The pool itself: the engines' drivers read its usage and bump
    /// its counters in place, as they do through `ShardState::pools`.
    pub pool: &'a mut Pool,
    binding: Option<&'a mut RemoteBinding>,
    stash: &'a mut RemoteStash,
    evicted: &'a mut Evicted,
}

impl PoolVisit<'_> {
    /// Removes one object (if resident): see [`ShardState::remove`].
    #[inline]
    pub fn remove(&mut self, backend: &mut impl StoreBackend, addr: BlockAddr) -> Option<Slot> {
        let slot = self.pool.remove(addr)?;
        backend.free(slot.placement, 1);
        Some(slot)
    }

    /// The exclusive lookup of a `get`, counted against the pool: a hit
    /// is taken out like [`Self::remove`], then verified and read. A
    /// copy whose checksum no longer matches its key rotted in its store,
    /// and it fails like one whose read faults: never served. `None` if
    /// nothing was resident (the remote tier is next); otherwise the
    /// object is gone, and the engine journals a `Take`.
    #[inline]
    pub fn take<B: StoreBackend>(
        &mut self,
        backend: &mut B,
        now: SimTime,
        addr: BlockAddr,
        admission: AdmissionConfig,
    ) -> Option<GetOutcome> {
        self.pool.counters.gets += 1;
        let slot = self.remove(backend, addr)?;
        let read = if slot.verifies(addr) {
            backend
                .read(now, slot.placement, addr)
                .map_err(|err| err.finish)
        } else {
            backend.note_rot(now, slot.placement);
            Err(now)
        };
        Some(match read {
            Ok(finish) => {
                let rearm = admission.filters_spills();
                self.pool.note_hit(addr, slot.placement, rearm);
                GetOutcome::Hit {
                    finish,
                    version: slot.version,
                }
            }
            Err(finish) => {
                self.pool.counters.failed_gets += 1;
                GetOutcome::Failed { finish }
            }
        })
    }

    /// Where a put of `addr` under `policy` (the one the engine routes
    /// it by) goes, and the way cleared for it, in one order for both
    /// engines: the store from the policy, a hybrid pool's memory share
    /// first (its entitlement from `entitlement`, the engine's share
    /// table); the SSD tier's health; ghost admission of a hybrid spill;
    /// the exclusive overwrite; in Strict mode the hard partition, where
    /// a pool at its entitlement evicts from itself through `evict` (the
    /// engine's half of [`Self::evict_batch`]) and a batch that frees
    /// nothing rejects; then the page.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn place<B: StoreBackend>(
        &mut self,
        backend: &mut B,
        now: SimTime,
        addr: BlockAddr,
        policy: CachePolicy,
        mode: PartitionMode,
        admission: AdmissionConfig,
        mut entitlement: impl FnMut(Placement) -> u64,
        evict: impl FnOnce(&mut Self, &mut B, Placement) -> u64,
    ) -> Placed {
        if !policy.is_enabled() {
            return Placed::Rejected;
        }
        let hybrid = policy.store == StoreKind::Hybrid;
        let mut placement = match policy.store {
            StoreKind::Mem => Placement::Mem,
            StoreKind::Ssd => Placement::Ssd,
            StoreKind::Hybrid if self.pool.used(Placement::Mem) < entitlement(Placement::Mem) => {
                Placement::Mem
            }
            StoreKind::Hybrid => Placement::Ssd,
        };
        if backend.is_disabled(placement) {
            return Placed::Rejected;
        }
        if placement == Placement::Ssd {
            match backend.ssd_health(now) {
                SsdHealth::Through => {}
                SsdHealth::ToMem => placement = Placement::Mem,
                SsdHealth::Reject => return Placed::Rejected,
            }
        }
        // A hybrid spill must earn its flash write: the first sighting
        // is remembered and turned away, a second within the window
        // admits. Turning away is oracle-safe: a new version always
        // travels through a flush first, so the overwrite below never
        // had to happen for a rejected put.
        if placement == Placement::Ssd
            && hybrid
            && admission.filters_spills()
            && !self.pool.admit_spill(addr, admission.ghost_window)
        {
            return Placed::Rejected;
        }
        self.remove(backend, addr);
        let partition = mode == PartitionMode::Strict;
        if partition
            && self.pool.used(placement) + 1 > entitlement(placement)
            && evict(self, backend, placement) == 0
        {
            return Placed::Rejected;
        }
        if backend.try_alloc(placement) {
            Placed::At(placement)
        } else {
            Placed::Full(placement)
        }
    }

    /// Stores a placed put ([`Placed::At`]) and counts it, a success or
    /// a fault (`write_page`). The engine journals the `Put` on
    /// `Ok`.
    #[inline]
    pub fn store<B: StoreBackend>(
        &mut self,
        backend: &mut B,
        now: SimTime,
        addr: BlockAddr,
        placement: Placement,
        version: PageVersion,
    ) -> IoResult {
        let written = self.write_page(backend, now, addr, placement, version);
        match written {
            Ok(_) => self.pool.counters.puts += 1,
            Err(_) => self.pool.counters.failed_puts += 1,
        }
        written
    }

    /// Re-homes one object a policy change displaced
    /// ([`ShardState::misplaced`]): taken out (the engine journals an
    /// `Evict`), then written into `to` if that is not a quarantined SSD
    /// tier and has a page. `true` if it moved (the engine journals the
    /// `Put`); one that does not is dropped, which is safe: it is clean.
    pub fn rehome(
        &mut self,
        backend: &mut impl StoreBackend,
        now: SimTime,
        addr: BlockAddr,
        to: Placement,
    ) -> bool {
        let Some(slot) = self.remove(backend, addr) else {
            return false;
        };
        !(to == Placement::Ssd && backend.ssd_quarantined())
            && backend.try_alloc(to)
            && self
                .write_page(backend, now, addr, to, slot.version)
                .is_ok()
    }

    /// Writes one object into a page of `placement`'s store the caller
    /// holds: a fresh stamp, the write charged at `now`, the insert; on
    /// a write fault the page goes back instead.
    #[inline]
    fn write_page(
        &mut self,
        backend: &mut impl StoreBackend,
        now: SimTime,
        addr: BlockAddr,
        placement: Placement,
        version: PageVersion,
    ) -> IoResult {
        let seq = backend.next_seq();
        let written = backend.write(now, placement, addr);
        if written.is_ok() {
            self.insert(backend, addr, placement, version, seq);
        } else {
            backend.free(placement, 1);
        }
        written
    }

    /// Inserts one object whose page the caller already holds: the
    /// index insert (which queues it at the young end of its store's
    /// queue) and the displaced older copy's page freed.
    #[inline]
    pub fn insert(
        &mut self,
        backend: &mut impl StoreBackend,
        addr: BlockAddr,
        placement: Placement,
        version: PageVersion,
        seq: u64,
    ) {
        let (_, displaced) = self.pool.insert(addr, placement, version, seq);
        if let Some(displaced) = displaced {
            backend.free(displaced, 1);
        }
    }

    /// Evicts up to `max_pages` of the pool's oldest objects from one
    /// store, oldest first, journaling an `Evict` for each.
    ///
    /// Trickle-down: a hybrid pool keeps evicted *memory* objects alive
    /// in its SSD share while room remains (paper §3.3), unless the SSD
    /// tier is quarantined. Each must earn its flash write from the
    /// ghost filter like any other spill (when the admission plane
    /// filters spills), then takes an SSD page and is written there
    /// (`write_page`) and journaled as a `Put`; the first that
    /// finds no page or faults ends the trickling. What does not trickle is dropped — its
    /// `Evict` is already journaled, and it is clean. Global mode evicts
    /// no pool batch, so nothing trickles there.
    ///
    /// Returns `(evicted, trickled)`.
    pub fn evict_batch(
        &mut self,
        backend: &mut impl StoreBackend,
        now: SimTime,
        placement: Placement,
        max_pages: u64,
        admission: AdmissionConfig,
        mut journal: impl FnMut(JournalRecord),
    ) -> (u64, u64) {
        let (vm, pool) = (self.vm, self.id);
        let mut evicted = Vec::with_capacity(max_pages as usize);
        while (evicted.len() as u64) < max_pages {
            let Some((addr, slot)) = self.pool.pop_oldest(placement) else {
                break;
            };
            self.pool.counters.evictions += 1;
            evicted.push((addr, slot.version));
            journal(evict_record(vm, pool, addr));
            // Page by page, not once at the end: on the sharded engine a
            // put waiting for room takes this page while the rest of the
            // batch is still being popped.
            backend.free(placement, 1);
        }
        let freed = evicted.len() as u64;
        self.evicted.pages += freed;

        let hybrid = self.pool.policy().store == StoreKind::Hybrid;
        if !hybrid || placement != Placement::Mem || backend.ssd_quarantined() {
            return (freed, 0);
        }
        let window = admission.filters_spills().then_some(admission.ghost_window);
        let mut trickled = 0;
        for (addr, version) in evicted {
            if window.is_some_and(|w| !self.pool.admit_spill(addr, w)) {
                continue;
            }
            if !backend.try_alloc(Placement::Ssd)
                || self
                    .write_page(backend, now, addr, Placement::Ssd, version)
                    .is_err()
            {
                break;
            }
            trickled += 1;
            journal(put_record(vm, pool, addr, version, Placement::Ssd));
        }
        self.evicted.trickled += trickled;
        (freed, trickled)
    }

    /// The remote half of a flush: see [`ShardState::note_flush`].
    #[inline]
    pub fn note_flush(&mut self, addr: BlockAddr, stash_unbound: bool) {
        let key = (self.vm, self.id);
        localize_or_stash(
            self.binding.as_deref_mut(),
            self.stash,
            key,
            addr,
            stash_unbound,
        );
    }

    /// The miss path's remote consultation: serves the image's initial
    /// contents through the pool's binding (if any), failing open to a
    /// plain miss. Remote serves do not touch the pool's hit/miss
    /// counters — the remote's own counters carry the tier's story.
    #[inline]
    pub fn remote_get(&mut self, now: SimTime, addr: BlockAddr) -> GetOutcome {
        match self.binding.as_deref_mut().map(|b| b.lookup(now, addr)) {
            Some(RemoteLookup::Served { finish }) => GetOutcome::Hit {
                finish,
                version: PageVersion::INITIAL,
            },
            Some(RemoteLookup::Miss) | None => GetOutcome::Miss,
        }
    }
}

/// The store-wide stamp order over the queues of a cut, one walk for
/// Global mode's eviction and the checkpoint's `Put`s. A pool's queue
/// holds exactly its live pages of one store in stamp order (a pool's
/// inserts take their stamps in order, under its shard), so the next
/// page is the smallest of the queues' next pages. A head carries its
/// queue's next page and, once that is taken, the page after it: one
/// head per queue, nothing allocated per page.
#[derive(Debug, Default)]
pub struct OldestFirst {
    /// `(stamp, vm, pool, page)` of each queue's next page, smallest
    /// stamp first.
    heads: BinaryHeap<Reverse<(u64, VmId, PoolId, SlotId)>>,
}

impl OldestFirst {
    /// The walk over `placement`'s queue of every pool of `shards`.
    pub fn new<'a>(
        placement: Placement,
        shards: impl IntoIterator<Item = &'a ShardState>,
    ) -> OldestFirst {
        let mut order = OldestFirst::default();
        for shard in shards {
            for (&(vm, pool), p) in &shard.pools {
                order.join(vm, pool, p, p.fifo_ends(placement).0);
            }
        }
        order
    }

    /// Makes `page` of `p`, pool `pool` of `vm`, the head of its queue
    /// (`None`: the queue is walked).
    #[inline]
    fn join(&mut self, vm: VmId, pool: PoolId, p: &Pool, page: Option<SlotId>) {
        if let Some(id) = page {
            let (_, slot) = p.slot_by_id(id).expect("a queued page is live");
            self.heads.push(Reverse((slot.seq, vm, pool, id)));
        }
    }

    /// The pool holding the next page; `None` once every queue is
    /// walked.
    #[inline]
    pub fn head(&self) -> Option<(VmId, PoolId)> {
        let &Reverse((_, vm, pool, _)) = self.heads.peek()?;
        Some((vm, pool))
    }

    /// Takes the next page off the walk, `p` being its pool, and puts
    /// the page after it on its queue in its place.
    #[inline]
    fn advance(&mut self, p: &Pool) -> SlotId {
        let Reverse((_, vm, pool, id)) = self.heads.pop().expect("a page is left");
        let younger = p.fifo_links(id).and_then(|(_, younger)| younger);
        self.join(vm, pool, p, younger);
        id
    }

    /// Evicts the next page out of `state`, the home shard of the pool
    /// [`Self::head`] named: the pool counts the eviction and its page
    /// goes back to `backend`. The engine journals an `Evict`.
    ///
    /// # Panics
    ///
    /// If every queue is walked, or `state` does not hold the pool.
    #[inline]
    pub fn evict(
        &mut self,
        state: &mut ShardState,
        backend: &mut impl StoreBackend,
    ) -> (VmId, PoolId, BlockAddr) {
        let (vm, pool) = self.head().expect("the store holds a page");
        let p = state.pools.get_mut(&(vm, pool)).expect("the pool read");
        let id = self.advance(p);
        let (addr, slot) = p.remove_by_id(id).expect("a queued page is live");
        p.counters.evictions += 1;
        state.evicted.pages += 1;
        backend.free(slot.placement, 1);
        (vm, pool, addr)
    }
}

/// The data records in engine terms: the inverse of the decoding in
/// [`ShardState::replay`].
#[inline]
pub fn put_record(
    vm: VmId,
    pool: PoolId,
    addr: BlockAddr,
    version: PageVersion,
    placement: Placement,
) -> JournalRecord {
    JournalRecord::Put {
        vm: vm.0,
        pool: pool.0,
        addr,
        version: version.0,
        placement: placement.code(),
    }
}

/// A pool's `<T, W>` policy: its `CreatePool` record with `create`, else
/// its `SetPolicy`.
pub fn policy_record(vm: VmId, pool: PoolId, policy: CachePolicy, create: bool) -> JournalRecord {
    let (vm, pool) = (vm.0, pool.0);
    let (store, weight) = (store_kind_code(policy.store), policy.weight);
    if create {
        JournalRecord::CreatePool {
            vm,
            pool,
            store,
            weight,
        }
    } else {
        JournalRecord::SetPolicy {
            vm,
            pool,
            store,
            weight,
        }
    }
}

/// An exclusive hit (or a migration) took the object out.
#[inline]
pub fn take_record(vm: VmId, pool: PoolId, addr: BlockAddr) -> JournalRecord {
    let (vm, pool) = (vm.0, pool.0);
    JournalRecord::Take { vm, pool, addr }
}

/// The policy module evicted, demoted or re-homed the object.
#[inline]
pub fn evict_record(vm: VmId, pool: PoolId, addr: BlockAddr) -> JournalRecord {
    let (vm, pool) = (vm.0, pool.0);
    JournalRecord::Evict { vm, pool, addr }
}

/// The guest invalidated the block.
#[inline]
pub fn flush_record(vm: VmId, pool: PoolId, addr: BlockAddr) -> JournalRecord {
    let (vm, pool) = (vm.0, pool.0);
    JournalRecord::Flush { vm, pool, addr }
}

/// The guest invalidated the whole file.
#[inline]
pub fn flush_file_record(vm: VmId, pool: PoolId, file: FileId) -> JournalRecord {
    let (vm, pool) = (vm.0, pool.0);
    JournalRecord::FlushFile { vm, pool, file }
}

/// The live-compaction trigger: a journal (all segments together) of
/// `records` records over `live_pages` live entries is worth rewriting
/// as a checkpoint. Every engine must trigger at the same operation, or
/// the rewrite consumes generations at a different point and flush
/// epochs diverge.
pub fn compaction_due(records: u64, live_pages: u64) -> bool {
    records > compaction_threshold(live_pages)
}

/// The most records a journal over `live_pages` live entries may hold
/// before [`compaction_due`].
pub fn compaction_threshold(live_pages: u64) -> u64 {
    (live_pages * JOURNAL_COMPACT_FACTOR).max(JOURNAL_COMPACT_MIN_RECORDS)
}

/// A fresh set of journal segments holding a checkpoint.
#[derive(Debug)]
pub struct Checkpoint {
    /// One synced-on-install segment per shard.
    pub segments: Vec<Journal>,
    /// The per-VM flush epochs the checkpoint minted.
    pub new_epochs: Vec<(VmId, u64)>,
    /// The generation after the checkpoint's last record.
    pub next_gen: u64,
}

impl Checkpoint {
    fn emit(&mut self, si: usize, rec: &JournalRecord) -> u64 {
        let gen = self.next_gen;
        self.segments[si].append_with_gen(rec, gen);
        self.next_gen += 1;
        gen
    }
}

/// The home shard of a pool among `shards` shards: a dependency-free
/// integer mix of the `(vm, pool)` key, deterministic across runs and
/// processes. Every object of the pool (index slots, FIFO entries,
/// journal records) lives with it.
pub fn home_shard(vm: VmId, pool: PoolId, shards: usize) -> usize {
    let mixed = (vm.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        ^ (pool.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    (mixed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as usize % shards
}

/// The segment `rec` goes to among `shards`: a pool's data and control
/// records to its home segment (a page's whole history lives in one),
/// every VM and store record to segment 0.
pub fn segment_of(rec: &JournalRecord, shards: usize) -> usize {
    match *rec {
        JournalRecord::Put { vm, pool, .. }
        | JournalRecord::Take { vm, pool, .. }
        | JournalRecord::Evict { vm, pool, .. }
        | JournalRecord::Flush { vm, pool, .. }
        | JournalRecord::FlushFile { vm, pool, .. }
        | JournalRecord::CreatePool { vm, pool, .. }
        | JournalRecord::DestroyPool { vm, pool }
        | JournalRecord::SetPolicy { vm, pool, .. } => home_shard(VmId(vm), PoolId(pool), shards),
        _ => 0,
    }
}

/// One consistent cut of an engine, held still by the caller (the
/// serial engine's `&self`; the sharded engine's registry read lock plus
/// every shard lock): what the whole-cache readers walk.
pub struct Cut<'a> {
    /// `(vm, mem weight, ssd weight)`, in registry order.
    vms: Vec<(VmId, u64, u64)>,
    /// Every registered pool its home shard holds, in registry order,
    /// with the home's index.
    pub(crate) pools: Vec<(VmId, PoolId, usize, &'a Pool)>,
    pub(crate) shards: Vec<&'a ShardState>,
}

impl<'a> Cut<'a> {
    /// Resolves the registry against every shard's state, in shard
    /// order.
    pub fn new(registry: &Registry, shards: Vec<&'a ShardState>) -> Cut<'a> {
        let (mut vms, mut pools) = (Vec::new(), Vec::new());
        for (vm, row) in registry.vms() {
            vms.push((vm, row.mem_weight, row.ssd_weight));
            for &(pid, _, _) in &row.pools {
                let si = home_shard(vm, pid, shards.len());
                if let Some(pool) = shards[si].pools.get(&(vm, pid)) {
                    pools.push((vm, pid, si, pool));
                }
            }
        }
        Cut { vms, pools, shards }
    }

    /// Every resident entry as `(vm, pool, addr, version)`, sorted.
    pub fn entries(&self) -> Vec<(VmId, PoolId, BlockAddr, PageVersion)> {
        let mut out = Vec::new();
        for &(vm, pid, _, pool) in &self.pools {
            out.extend(
                pool.iter()
                    .map(|(addr, slot)| (vm, pid, addr, slot.version)),
            );
        }
        out.sort_unstable();
        out
    }

    /// Entries resident across every pool.
    pub fn resident(&self) -> u64 {
        self.pools.iter().map(|p| p.3.total_used()).sum()
    }

    /// Aggregate remote-tier counters across every binding.
    pub fn remote_totals(&self) -> RemoteCounters {
        let mut totals = RemoteCounters::default();
        for binding in self.shards.iter().flat_map(|s| s.remote_bindings.values()) {
            totals.absorb(&binding.counters());
        }
        totals
    }

    /// Every VM with wear on the books: live VMs plus VMs whose pools
    /// are gone but whose retired wear persists. Sorted.
    pub fn wear_vm_ids(&self) -> Vec<VmId> {
        let mut ids: Vec<VmId> = self.vms.iter().map(|row| row.0).collect();
        for shard in &self.shards {
            for &vm in shard.retired_wear.keys() {
                if let Err(i) = ids.binary_search(&vm) {
                    ids.insert(i, vm);
                }
            }
        }
        ids
    }

    /// Cumulative wear charged to one VM: everything retired on any
    /// shard plus its live pools. Never decreases.
    pub fn vm_wear(&self, vm: VmId) -> WearCounters {
        let mut total = WearCounters::default();
        for shard in &self.shards {
            if let Some(retired) = shard.retired_wear.get(&vm) {
                total.absorb(retired);
            }
        }
        for (_, _, _, pool) in self.pools.iter().filter(|p| p.0 == vm) {
            total.absorb(&pool.wear.totals());
        }
        total
    }

    /// Device-level wear totals across every VM ever seen.
    pub fn wear_totals(&self) -> WearCounters {
        let mut total = WearCounters::default();
        for vm in self.wear_vm_ids() {
            total.absorb(&self.vm_wear(vm));
        }
        total
    }

    /// Writes a checkpoint of the cut across fresh segments, continuing
    /// generations from `start_gen` so they stay monotone across the
    /// rewrite. Control records go to segment 0, pool-scoped records to
    /// the pool's home segment; with one shard that is one journal.
    ///
    /// Record order matters: mode, capacities, `AddVm` + `Epoch` per VM,
    /// `CreatePool` per pool, then every `Put` in stamp order over both
    /// stores ([`OldestFirst`]) so replay reproduces eviction order, then
    /// the wear carry-over.
    /// Each VM's `Epoch` precedes every `Put`, so a corrupted checkpoint
    /// prefix can never make the epoch-discard pass resurrect state —
    /// puts carry generations above every distributed epoch.
    pub fn write_checkpoint(
        &self,
        mode: PartitionMode,
        mem_capacity: u64,
        ssd_capacity: u64,
        start_gen: u64,
    ) -> Checkpoint {
        let mut w = Checkpoint {
            segments: vec![Journal::with_start_gen(start_gen); self.shards.len()],
            new_epochs: Vec::with_capacity(self.vms.len()),
            next_gen: start_gen,
        };
        w.emit(0, &JournalRecord::SetMode { mode: mode.code() });
        w.emit(
            0,
            &JournalRecord::SetMemCapacity {
                pages: mem_capacity,
            },
        );
        w.emit(
            0,
            &JournalRecord::SetSsdCapacity {
                pages: ssd_capacity,
            },
        );
        for &(vm, mem_weight, ssd_weight) in &self.vms {
            w.emit(
                0,
                &JournalRecord::AddVm {
                    vm: vm.0,
                    mem_weight,
                    ssd_weight,
                },
            );
            let epoch = w.emit(0, &JournalRecord::Epoch { vm: vm.0 });
            w.new_epochs.push((vm, epoch));
        }
        // A live rewrite stalls every client: each segment is sized from
        // the bytes its puts encode to, so none regrows mid-rewrite.
        let mut order = OldestFirst::default();
        let mut put_bytes = vec![0usize; self.shards.len()];
        for &(vm, pid, si, pool) in &self.pools {
            w.emit(si, &policy_record(vm, pid, pool.policy(), true));
            put_bytes[si] += pool.total_used() as usize * JournalRecord::PUT_LEN;
            for placement in Placement::ALL {
                order.join(vm, pid, pool, pool.fifo_ends(placement).0);
            }
        }
        for (seg, bytes) in w.segments.iter_mut().zip(put_bytes) {
            seg.reserve(bytes);
        }
        while let Some((vm, pid)) = order.head() {
            let si = home_shard(vm, pid, self.shards.len());
            let pool = &self.shards[si].pools[&(vm, pid)];
            let (addr, slot) = pool.slot_by_id(order.advance(pool)).expect("a queued page");
            w.emit(si, &put_record(vm, pid, addr, slot.version, slot.placement));
        }
        // Wear carry-over, AFTER the puts: replaying the checkpoint
        // re-accrues the live entries' wear through the puts, then each
        // VM's record tops the totals up to the true cumulative value
        // (see [`ShardState::correct_wear`]).
        for vm in self.wear_vm_ids() {
            let wear = self.vm_wear(vm);
            w.emit(
                0,
                &JournalRecord::WearTotals {
                    vm: vm.0,
                    ssd_pages_written: wear.ssd_pages_written,
                    pages_admitted: wear.pages_admitted,
                },
            );
        }
        w
    }
}

/// What a warm restart rebuilt and dropped, on either engine: the cache
/// may forget, never lie.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records applied: the kept prefix of the merged segments.
    pub records_replayed: u64,
    /// Decoded records past the kept prefix (the gap barrier).
    pub gap_discarded: u64,
    /// How each segment's decoding ended, in shard order.
    pub segments: Vec<ReplayStats>,
    /// Entries resident after replay, epoch discard and shrink.
    pub recovered_entries: u64,
    /// Entries the epoch discard dropped (lose, don't resurrect).
    pub discarded_stale: u64,
    /// Replayed puts dropped: their pool was gone or their store full.
    pub dropped_no_room: u64,
    /// Per-VM flush epochs the recovery checkpoint minted for the guests.
    pub new_epochs: Vec<(VmId, u64)>,
}

/// The journal a crash left behind, decoded: the recovery core both
/// engines replay from (`segments[i]` is shard `i`'s; the serial engine
/// has one).
///
/// Each segment replays independently and tolerates its own torn or
/// corrupt tail. The decoded records are merged by generation and
/// truncated at the first generation *gap*: generations are dense across
/// all segments, so a gap proves some segment lost a suffix, and
/// everything after it is a possibly-inconsistent future (a later flush
/// could otherwise survive while the earlier flush it depends on was
/// lost). No engine writes a generation twice, so a repeat ends the
/// prefix too, before its first copy. What remains is an exact prefix
/// of the record sequence.
#[derive(Debug)]
pub struct ReplayLog {
    /// How each segment's decoding terminated, in shard order.
    segments: Vec<ReplayStats>,
    /// The kept prefix, in generation order.
    records: Vec<(u64, JournalRecord)>,
    /// Decoded records discarded by the gap barrier.
    gap_discarded: u64,
    /// The mode of the last `SetMode` in the kept prefix: the journal's
    /// mode wins over the recovery config's.
    pub mode: Option<PartitionMode>,
    /// One past the last kept generation, where the sequence (replayed
    /// entries are stamped with their generation), the generations and
    /// the recovery checkpoint resume.
    pub next_gen: u64,
    /// The highest epoch-bearing generation each VM got back (flushes
    /// and epoch markers are what guests ack).
    replayed_epochs: BTreeMap<u32, u64>,
}

impl ReplayLog {
    /// Decodes, merges and gap-truncates `segments`.
    pub fn decode(segments: &[impl AsRef<[u8]>]) -> ReplayLog {
        let mut stats = Vec::with_capacity(segments.len());
        let mut records: Vec<(u64, JournalRecord)> = Vec::new();
        for seg in segments {
            let (decoded, seg_stats) = Journal::replay(seg.as_ref());
            stats.push(seg_stats);
            records.extend(decoded);
        }
        records.sort_unstable_by_key(|&(gen, _)| gen);
        let keep = (1..records.len())
            .find(|&i| records[i].0 != records[i - 1].0 + 1)
            .map_or(records.len(), |i| {
                i - usize::from(records[i].0 == records[i - 1].0)
            });
        let gap_discarded = (records.len() - keep) as u64;
        records.truncate(keep);

        let (mut mode, mut replayed_epochs) = (None, BTreeMap::new());
        for (gen, rec) in &records {
            match *rec {
                JournalRecord::Flush { vm, .. }
                | JournalRecord::FlushFile { vm, .. }
                | JournalRecord::Epoch { vm } => {
                    replayed_epochs.insert(vm, *gen);
                }
                JournalRecord::SetMode { mode: code } => {
                    mode = PartitionMode::from_code(code).or(mode);
                }
                _ => {}
            }
        }
        ReplayLog {
            segments: stats,
            next_gen: records.last().map_or(0, |&(gen, _)| gen) + 1,
            records,
            gap_discarded,
            mode,
            replayed_epochs,
        }
    }

    /// Replays the kept prefix into a fresh engine (its registry, every
    /// shard's state in shard order, its stores), one `replay_record`
    /// each, then the **lose-don't-resurrect rule**: a prefix whose last
    /// epoch-bearing generation for a VM is below the guest's flush epoch
    /// (`guest_epochs`: the largest generation any acked flush returned)
    /// lost acked flushes, so that VM's entries stamped before the epoch
    /// are discarded; later ones are clean, as a write superseding one
    /// would have flushed later still. The engine then resumes its
    /// counters at [`Self::next_gen`] and shrinks.
    pub fn replay(
        &self,
        registry: &mut Registry,
        shards: &mut [&mut ShardState],
        backend: &mut impl StoreBackend,
        guest_epochs: &[(VmId, u64)],
    ) -> RecoveryReport {
        let mut report = RecoveryReport {
            records_replayed: self.records.len() as u64,
            gap_discarded: self.gap_discarded,
            segments: self.segments.clone(),
            ..RecoveryReport::default()
        };
        for &(gen, rec) in &self.records {
            let applied = replay_record(registry, shards, backend, gen, &rec);
            report.dropped_no_room +=
                u64::from(!applied && matches!(rec, JournalRecord::Put { .. }));
        }
        let n = shards.len();
        for &(vm, epoch) in guest_epochs {
            if self.replayed_epochs.get(&vm.0).copied().unwrap_or(0) >= epoch {
                continue;
            }
            for &(pid, _, _) in registry.vm(vm).map_or(&[][..], |row| &row.pools) {
                let shard = &mut shards[home_shard(vm, pid, n)];
                report.discarded_stale += shard.discard_older_than(backend, vm, pid, epoch);
            }
        }
        report
    }
}

/// Applies one record to an engine's raw state, replayed or live (both
/// engines' control verbs, `gen` 0): a pool record through its pool's
/// home shard ([`ShardState::replay`]), a `Put` once its block left the
/// VM's other pools; capacities to the backend; `SsdDrain` to every
/// shard; `WearTotals` into shard 0 (device totals sum the shards);
/// control records to the registry, the pools acting on its answer (the
/// one copy of that). No journaling and no side effects: those were
/// journaled too. `false` for a dropped `Put` and for a record the
/// registry ignored, which a live verb does not journal.
pub fn replay_record(
    registry: &mut Registry,
    shards: &mut [&mut ShardState],
    backend: &mut impl StoreBackend,
    gen: u64,
    rec: &JournalRecord,
) -> bool {
    let n = shards.len();
    match *rec {
        JournalRecord::Put { vm, pool, .. }
        | JournalRecord::Take { vm, pool, .. }
        | JournalRecord::Evict { vm, pool, .. }
        | JournalRecord::Flush { vm, pool, .. }
        | JournalRecord::FlushFile { vm, pool, .. } => {
            let (vm, pool) = (VmId(vm), PoolId(pool));
            // One pool of a VM caches a block (exclusive caching): a put
            // takes it from the others, where no live put finds it.
            if let JournalRecord::Put { addr, .. } = *rec {
                for &(sib, _, _) in registry.vm(vm).map_or(&[][..], |row| &row.pools) {
                    if sib != pool {
                        shards[home_shard(vm, sib, n)].remove(backend, vm, sib, addr);
                    }
                }
            }
            return shards[home_shard(vm, pool, n)].replay(backend, gen, rec);
        }
        // `SetMode`: the mode was picked before the engine was built.
        JournalRecord::Epoch { .. } | JournalRecord::SetMode { .. } => {}
        JournalRecord::SetMemCapacity { pages } => backend.set_capacity(Placement::Mem, pages),
        JournalRecord::SetSsdCapacity { pages } => backend.set_capacity(Placement::Ssd, pages),
        JournalRecord::SsdDrain => {
            for shard in shards.iter_mut() {
                shard.drain_ssd(backend);
            }
        }
        JournalRecord::WearTotals {
            vm,
            ssd_pages_written,
            pages_admitted,
        } => {
            let vm = VmId(vm);
            let current = Cut::new(registry, shards.iter().map(|s| &**s).collect()).vm_wear(vm);
            shards[0].correct_wear(vm, current, ssd_pages_written, pages_admitted);
        }
        // Every other record is the registry's.
        _ => match registry.apply(rec) {
            Control::Ignored => return false,
            Control::Weights => {}
            Control::Drain(vm, pools) => {
                for pid in pools {
                    shards[home_shard(vm, pid, n)].drain_pool(backend, vm, pid);
                }
            }
            Control::Install(vm, pid, policy, usage) => {
                let pool = Pool::on(vm, policy, usage);
                shards[home_shard(vm, pid, n)].pools.insert((vm, pid), pool);
            }
            Control::Swap(vm, pid, policy) => {
                if let Some(p) = shards[home_shard(vm, pid, n)].pools.get_mut(&(vm, pid)) {
                    p.set_policy(policy);
                }
            }
        },
    }
    true
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    use ddc_cleancache::CachePolicy;
    use ddc_sim::SimRng;

    use super::*;
    use crate::ddcache::Stores;
    use crate::CacheConfig;

    const CAPACITY: [u64; 2] = [40, 60];
    const POOLS: [(VmId, PoolId); 3] = [
        (VmId(1), PoolId(1)),
        (VmId(1), PoolId(2)),
        (VmId(2), PoolId(3)),
    ];
    const PLACEMENTS: [Placement; 2] = [Placement::Mem, Placement::Ssd];

    /// The shape of the sharded engine's backend: shared counters behind
    /// `&self`, allocation by compare-and-swap, no device.
    #[derive(Default)]
    struct AtomicPair {
        used: [AtomicU64; 2],
        seq: AtomicU64,
    }

    impl StoreBackend for &AtomicPair {
        fn try_alloc(&mut self, placement: Placement) -> bool {
            let i = placement.idx();
            self.used[i]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                    (used < CAPACITY[i]).then_some(used + 1)
                })
                .is_ok()
        }

        fn free(&mut self, placement: Placement, pages: u64) {
            self.used[placement.idx()].fetch_sub(pages, Ordering::Relaxed);
        }

        fn is_disabled(&self, placement: Placement) -> bool {
            CAPACITY[placement.idx()] == 0
        }

        fn next_seq(&mut self) -> u64 {
            self.seq.fetch_add(1, Ordering::Relaxed)
        }

        fn set_capacity(&mut self, _: Placement, _: u64) {
            unreachable!("the capacities are constants");
        }
    }

    /// What the checks read off a backend besides the transitions'
    /// verbs: the pages in use in one store, and the stamp it hands out
    /// next.
    trait Occupancy: StoreBackend {
        fn used_pages(&self, placement: Placement) -> u64;
        fn peek_seq(&self) -> u64;
    }

    impl Occupancy for Stores {
        fn used_pages(&self, placement: Placement) -> u64 {
            self.of(placement).used_pages()
        }
        fn peek_seq(&self) -> u64 {
            self.next_seq
        }
    }

    impl Occupancy for &AtomicPair {
        fn used_pages(&self, placement: Placement) -> u64 {
            self.used[placement.idx()].load(Ordering::Relaxed)
        }
        fn peek_seq(&self) -> u64 {
            self.seq.load(Ordering::Relaxed)
        }
    }

    type Key = (VmId, PoolId, BlockAddr);

    /// The brute-force model: every resident entry, and from it the
    /// pages each store must hold.
    #[derive(Default)]
    struct Model {
        /// `(placement, version, seq, birth)` of every resident entry.
        entries: BTreeMap<Key, (Placement, PageVersion, u64, u64)>,
        /// Inserts per pool since its last drain (the TTL clock).
        inserts: BTreeMap<(VmId, PoolId), u64>,
    }

    impl Model {
        fn pages(&self, placement: Placement) -> u64 {
            self.entries.values().filter(|e| e.0 == placement).count() as u64
        }

        fn insert(
            &mut self,
            key: (VmId, PoolId, BlockAddr),
            placement: Placement,
            version: PageVersion,
            seq: u64,
        ) {
            let birth = self.inserts.entry((key.0, key.1)).or_default();
            *birth += 1;
            self.entries.insert(key, (placement, version, seq, *birth));
        }

        /// Keys of one pool in one store, oldest first.
        fn oldest(
            &self,
            vm: VmId,
            pool: PoolId,
            placement: Placement,
        ) -> Vec<(VmId, PoolId, BlockAddr)> {
            let mut keys: Vec<_> = self
                .entries
                .iter()
                .filter(|(k, e)| (k.0, k.1) == (vm, pool) && e.0 == placement)
                .map(|(k, e)| (e.2, *k))
                .collect();
            keys.sort_unstable();
            keys.into_iter().map(|(_, k)| k).collect()
        }

        fn drop_pool(&mut self, vm: VmId, pool: PoolId) {
            self.entries.retain(|k, _| (k.0, k.1) != (vm, pool));
            self.inserts.remove(&(vm, pool));
        }
    }

    fn vm_wear(state: &ShardState, vm: VmId) -> WearCounters {
        let mut registry = Registry::default();
        for &(vm, pool) in &POOLS {
            let (vm, pool, store, weight) = (vm.0, pool.0, 0, 100);
            registry.apply(&JournalRecord::CreatePool {
                vm,
                pool,
                store,
                weight,
            });
        }
        Cut::new(&registry, vec![state]).vm_wear(vm)
    }

    /// Holds the state against the model after a step, each pool's
    /// eviction queues included: exactly its live pages of the store,
    /// oldest first.
    fn check(state: &ShardState, ledger: &impl Occupancy, model: &Model, step: &str) {
        let mut resident = BTreeMap::new();
        for (&(vm, pool), p) in &state.pools {
            for (addr, slot) in p.iter() {
                resident.insert((vm, pool, addr), (slot.placement, slot.version, slot.seq));
            }
        }
        let expected: BTreeMap<_, _> = model
            .entries
            .iter()
            .map(|(k, e)| (*k, (e.0, e.1, e.2)))
            .collect();
        assert_eq!(resident, expected, "{step}: resident entries");
        for placement in PLACEMENTS {
            let pooled: u64 = state.pools.values().map(|p| p.used(placement)).sum();
            assert_eq!(pooled, model.pages(placement), "{step}: pool usage");
            assert_eq!(
                ledger.used_pages(placement),
                pooled,
                "{step}: ledger vs pool usage in {placement:?}"
            );
            for (&(vm, pool), p) in &state.pools {
                assert_eq!(
                    p.fifo_entries(placement).count() as u64,
                    p.used(placement),
                    "{step}: {vm} {pool} {placement:?} queue length"
                );
                let queued = p.fifo_entries(placement).map(|(id, seq)| {
                    let (addr, _) = p.slot_by_id(id).expect("a queued slot is live");
                    (vm, pool, addr, seq)
                });
                let oldest = model.oldest(vm, pool, placement).into_iter();
                let oldest = oldest.map(|k| (k.0, k.1, k.2, model.entries[&k].2));
                assert!(queued.eq(oldest), "{step}: {vm} {pool} {placement:?} queue");
            }
        }
    }

    /// A pool whose memory evictions trickle down if `trickle`.
    fn create_pool(state: &mut ShardState, vm: VmId, pool: PoolId, trickle: bool) {
        let policy = if trickle {
            CachePolicy::hybrid(100)
        } else {
            CachePolicy::mem(100)
        };
        state.pools.insert((vm, pool), Pool::new(vm, policy));
    }

    /// Drives every transition in a seeded random order on one shard.
    fn run(mut ledger: impl Occupancy, seed: u64, trickle: bool) {
        let mut rng = SimRng::new(seed);
        let mut state = ShardState::default();
        let mut model = Model::default();
        for (vm, pool) in POOLS {
            create_pool(&mut state, vm, pool, trickle);
        }
        let mut seq = 0u64;
        let mut wear_floor = [WearCounters::default(); 2];
        for step in 0..6_000 {
            let (vm, pool) = *rng.pick(&POOLS);
            let file = FileId(rng.range_u64(1, 4));
            let addr = BlockAddr::new(file, rng.range_u64(0, 12));
            let placement = *rng.pick(&PLACEMENTS);
            let op = rng.range_u64(0, 16);
            let what = format!("seed {seed:#x} step {step} op {op}");
            match op {
                0..=5 => {
                    // A put, live (0..=3) or replayed.
                    seq = ledger.next_seq();
                    let version = PageVersion(rng.range_u64(1, 9));
                    let key = (vm, pool, addr);
                    let exists = state.pools.contains_key(&(vm, pool));
                    if op <= 3 {
                        if !ledger.try_alloc(placement) {
                            continue;
                        }
                        let inserted =
                            state.insert(&mut ledger, vm, pool, addr, placement, version, seq);
                        assert_eq!(inserted, exists, "{what}");
                        if inserted {
                            model.insert(key, placement, version, seq);
                        } else {
                            ledger.free(placement, 1);
                        }
                    } else {
                        let full = ledger.used_pages(placement) >= CAPACITY[placement.idx()];
                        let before = vm_wear(&state, vm);
                        let applied = state.replay(
                            &mut ledger,
                            seq,
                            &JournalRecord::Put {
                                vm: vm.0,
                                pool: pool.0,
                                addr,
                                version: version.0,
                                placement: placement.code(),
                            },
                        );
                        assert_eq!(applied, exists && !full, "{what}");
                        if applied {
                            model.insert(key, placement, version, seq);
                        }
                        // Kept or dropped, the write's wear is on the books.
                        let after = vm_wear(&state, vm);
                        assert_eq!(after.pages_admitted, before.pages_admitted + 1, "{what}");
                    }
                }
                6 => {
                    let removed = state.remove(&mut ledger, vm, pool, addr);
                    let expected = model.entries.remove(&(vm, pool, addr));
                    assert_eq!(
                        removed.map(|s| (s.placement, s.version, s.seq)),
                        expected.map(|e| (e.0, e.1, e.2)),
                        "{what}"
                    );
                }
                7 => {
                    let rec = match rng.range_u64(0, 3) {
                        0 => JournalRecord::Take {
                            vm: vm.0,
                            pool: pool.0,
                            addr,
                        },
                        1 => JournalRecord::Evict {
                            vm: vm.0,
                            pool: pool.0,
                            addr,
                        },
                        _ => JournalRecord::Flush {
                            vm: vm.0,
                            pool: pool.0,
                            addr,
                        },
                    };
                    assert!(state.replay(&mut ledger, 0, &rec), "{what}");
                    model.entries.remove(&(vm, pool, addr));
                }
                8 => {
                    let expected = |p| {
                        model
                            .entries
                            .iter()
                            .filter(|(k, e)| (k.0, k.1, k.2.file) == (vm, pool, file) && e.0 == p)
                            .count() as u64
                    };
                    let expected = (expected(Placement::Mem), expected(Placement::Ssd));
                    let freed = if rng.chance(0.5) {
                        state.remove_file(&mut ledger, vm, pool, file)
                    } else {
                        let rec = JournalRecord::FlushFile {
                            vm: vm.0,
                            pool: pool.0,
                            file,
                        };
                        assert!(state.replay(&mut ledger, 0, &rec), "{what}");
                        expected
                    };
                    assert_eq!(freed, expected, "{what}");
                    model
                        .entries
                        .retain(|k, _| (k.0, k.1, k.2.file) != (vm, pool, file));
                }
                9 => {
                    // The Global order evicts the oldest entry of the
                    // store, whichever pool holds it.
                    let oldest = model
                        .entries
                        .iter()
                        .filter(|(_, e)| e.0 == placement)
                        .min_by_key(|(_, e)| e.2)
                        .map(|(k, _)| *k);
                    let mut order = OldestFirst::new(placement, [&state]);
                    let shard = order.head();
                    assert_eq!(shard.is_some(), oldest.is_some(), "{what}");
                    let evicted = shard.map(|_| order.evict(&mut state, &mut ledger));
                    assert_eq!(evicted, oldest, "{what}");
                    if let Some(key) = oldest {
                        model.entries.remove(&key);
                    }
                }
                10 => {
                    // A pool's eviction batch; with `trickle`, memory
                    // objects move to the SSD share while it has room,
                    // under the stamps the backend hands out next.
                    let max = rng.range_u64(0, 6);
                    let mut expected: Vec<JournalRecord> = Vec::new();
                    let victims: Vec<_> = model
                        .oldest(vm, pool, placement)
                        .into_iter()
                        .take(max as usize)
                        .collect();
                    let versions: Vec<_> = victims.iter().map(|k| model.entries[k].1).collect();
                    for key in &victims {
                        model.entries.remove(key);
                        expected.push(evict_record(vm, pool, key.2));
                    }
                    let mut trickled = 0;
                    if trickle && placement == Placement::Mem {
                        let next = ledger.peek_seq();
                        for (key, version) in victims.iter().zip(versions) {
                            if model.pages(Placement::Ssd) >= CAPACITY[1] {
                                break;
                            }
                            model.insert(*key, Placement::Ssd, version, next + trickled);
                            trickled += 1;
                            expected.push(put_record(vm, pool, key.2, version, Placement::Ssd));
                        }
                    }
                    let mut journaled = Vec::new();
                    let counts = state.visit(vm, pool).map_or((0, 0), |mut visit| {
                        let admit_all = AdmissionConfig::off();
                        let log = |rec| journaled.push(rec);
                        visit.evict_batch(
                            &mut ledger,
                            SimTime::ZERO,
                            placement,
                            max,
                            admit_all,
                            log,
                        )
                    });
                    assert_eq!(counts, (victims.len() as u64, trickled), "{what}");
                    assert!(journaled == expected, "{what}: journaled records");
                }
                11 => {
                    let epoch = seq.saturating_sub(rng.range_u64(0, 40));
                    let suspects: BTreeSet<_> = model
                        .entries
                        .iter()
                        .filter(|(k, e)| (k.0, k.1) == (vm, pool) && e.2 < epoch)
                        .map(|(k, _)| *k)
                        .collect();
                    let discarded = state.discard_older_than(&mut ledger, vm, pool, epoch);
                    assert_eq!(discarded, suspects.len() as u64, "{what}");
                    model.entries.retain(|k, _| !suspects.contains(k));
                }
                12 => {
                    let ttl = rng.range_u64(1, 30);
                    let clock = model.inserts.get(&(vm, pool)).copied().unwrap_or(0);
                    let stale: BTreeSet<_> = model
                        .entries
                        .iter()
                        .filter(|(k, e)| {
                            (k.0, k.1) == (vm, pool) && e.0 == Placement::Ssd && clock - e.3 > ttl
                        })
                        .map(|(k, _)| k.2)
                        .collect();
                    let mut gone = Vec::new();
                    let demoted = state.ttl_sweep_pool(&mut ledger, (vm, pool), ttl, |rec| {
                        gone.push(rec);
                    });
                    let gone: Vec<_> = (gone.into_iter())
                        .map(|rec| match rec {
                            JournalRecord::Evict { addr, .. } => addr,
                            other => panic!("{what}: {other:?}"),
                        })
                        .collect();
                    assert_eq!(demoted, gone.len() as u64, "{what}");
                    assert_eq!(
                        gone.iter().copied().collect::<BTreeSet<_>>(),
                        stale,
                        "{what}"
                    );
                    assert_eq!(gone.len(), stale.len(), "{what}: a block demoted twice");
                    model
                        .entries
                        .retain(|k, _| (k.0, k.1) != (vm, pool) || !stale.contains(&k.2));
                }
                13 => {
                    // Where the Global order starts on a pool: the stamp
                    // of its oldest page in the store.
                    let oldest = model.oldest(vm, pool, placement).first().copied();
                    let oldest = oldest.map(|k| model.entries[&k].2);
                    let read = (state.pools.get(&(vm, pool)))
                        .and_then(|p| p.fifo_entries(placement).next())
                        .map(|(_, seq)| seq);
                    assert_eq!(read, oldest, "{what}");
                }
                14 if step % 7 == 0 => {
                    let live = state.pools.get(&(vm, pool)).map(|p| p.wear.totals());
                    let retired = state.retired_wear.get(&vm).copied().unwrap_or_default();
                    assert_eq!(
                        state.drain_pool(&mut ledger, vm, pool),
                        live.is_some(),
                        "{what}"
                    );
                    model.drop_pool(vm, pool);
                    if let Some(live) = live {
                        let mut moved = retired;
                        moved.absorb(&live);
                        assert_eq!(state.retired_wear[&vm], moved, "{what}: retired wear");
                    }
                    if rng.chance(0.7) {
                        create_pool(&mut state, vm, pool, trickle);
                    }
                }
                15 if step % 11 == 0 => {
                    let freed = state.drain_ssd(&mut ledger);
                    assert_eq!(freed, model.pages(Placement::Ssd), "{what}");
                    model.entries.retain(|_, e| e.0 != Placement::Ssd);
                }
                _ => {
                    if !state.pools.contains_key(&(vm, pool)) {
                        create_pool(&mut state, vm, pool, trickle);
                    }
                    // A checkpoint's carry-over: tops the totals up,
                    // never takes them down, and twice is once.
                    let current = vm_wear(&state, vm);
                    let target = current.ssd_pages_written + rng.range_u64(0, 3);
                    state.correct_wear(vm, current, target, 0);
                    let current = vm_wear(&state, vm);
                    state.correct_wear(vm, current, target, 0);
                    assert_eq!(vm_wear(&state, vm).ssd_pages_written, target, "{what}");
                }
            }
            check(&state, &ledger, &model, &what);
            for (floor, vm) in wear_floor.iter_mut().zip([VmId(1), VmId(2)]) {
                let now = vm_wear(&state, vm);
                assert!(
                    now.pages_admitted >= floor.pages_admitted
                        && now.ssd_pages_written >= floor.ssd_pages_written,
                    "{what}: {vm} wear went down"
                );
                *floor = now;
            }
        }
        assert!(seq > 1_000, "the run never stored anything");
    }

    fn stores() -> Stores {
        Stores::new(&CacheConfig::mem_and_ssd(CAPACITY[0], CAPACITY[1]))
    }

    #[test]
    fn transitions_match_the_model_with_the_serial_stores() {
        run(stores(), 0x5A01, false);
        run(stores(), 0x5A02, true);
    }

    #[test]
    fn transitions_match_the_model_with_an_atomic_ledger() {
        run(&AtomicPair::default(), 0x5A01, false);
        run(&AtomicPair::default(), 0x5A03, true);
    }

    /// Runs of transitions through one [`PoolVisit`] each — the pool
    /// resolved once, as a `*_many` group holds it — against the same
    /// model, with whole-pool transitions (a destroy, an SSD drain)
    /// landing between the runs the way they land between a group's
    /// shard visits: the next visit re-resolves, and finds its pool gone
    /// when it is.
    fn run_visits(mut ledger: impl Occupancy, seed: u64) {
        let mut rng = SimRng::new(seed);
        let mut state = ShardState::default();
        let mut model = Model::default();
        for (vm, pool) in POOLS {
            create_pool(&mut state, vm, pool, false);
        }
        let (mut seq, mut gone) = (0u64, 0);
        // Each pool's flushes since its last drain: what its stash holds
        // for a future binding.
        let mut stash: BTreeMap<(VmId, PoolId), Vec<BlockAddr>> = BTreeMap::new();
        let mut stashes_dropped = 0;
        for step in 0..3_000 {
            let (vm, pool) = *rng.pick(&POOLS);
            let what = format!("seed {seed:#x} step {step}");
            let exists = state.pools.contains_key(&(vm, pool));
            let Some(mut visit) = state.visit(vm, pool) else {
                assert!(!exists, "{what}: a live pool did not resolve");
                gone += 1;
                create_pool(&mut state, vm, pool, false);
                continue;
            };
            assert!(exists, "{what}");
            for _ in 0..rng.range_u64(1, 33) {
                let addr = BlockAddr::new(FileId(rng.range_u64(1, 4)), rng.range_u64(0, 12));
                let key = (vm, pool, addr);
                let placement = *rng.pick(&PLACEMENTS);
                match rng.range_u64(0, 8) {
                    0..=3 => {
                        if !ledger.try_alloc(placement) {
                            continue;
                        }
                        seq += 1;
                        let version = PageVersion(rng.range_u64(1, 9));
                        visit.insert(&mut ledger, addr, placement, version, seq);
                        model.insert(key, placement, version, seq);
                        assert_eq!(visit.pool.used(placement), {
                            let in_store = |(k, e): (&Key, &(Placement, _, _, _))| {
                                (k.0, k.1) == (vm, pool) && e.0 == placement
                            };
                            model.entries.iter().filter(|&e| in_store(e)).count() as u64
                        });
                    }
                    4 => {
                        let removed = visit.remove(&mut ledger, addr);
                        let expected = model.entries.remove(&key);
                        assert_eq!(
                            removed.map(|s| (s.placement, s.version, s.seq)),
                            expected.map(|e| (e.0, e.1, e.2)),
                            "{what}"
                        );
                    }
                    5 => {
                        let gets = visit.pool.counters.gets;
                        let admit_all = AdmissionConfig::off();
                        let taken = visit.take(&mut ledger, SimTime::ZERO, addr, admit_all);
                        let taken = taken.map(|got| match got {
                            GetOutcome::Hit { version, .. } => version,
                            other => panic!("{what}: {other:?}"),
                        });
                        let expected = model.entries.remove(&key);
                        assert_eq!(taken, expected.map(|e| e.1), "{what}");
                        assert_eq!(visit.pool.counters.gets, gets + 1, "{what}");
                    }
                    6 => {
                        let max = rng.range_u64(0, 6);
                        let victims: Vec<_> = model
                            .oldest(vm, pool, placement)
                            .into_iter()
                            .take(max as usize)
                            .collect();
                        let mut journaled = Vec::new();
                        let admit_all = AdmissionConfig::off();
                        let counts = visit.evict_batch(
                            &mut ledger,
                            SimTime::ZERO,
                            placement,
                            max,
                            admit_all,
                            |rec| journaled.push(rec),
                        );
                        assert_eq!(counts, (victims.len() as u64, 0), "{what}");
                        let expected: Vec<_> = victims
                            .iter()
                            .map(|k| evict_record(vm, pool, k.2))
                            .collect();
                        assert!(journaled == expected, "{what}: journaled records");
                        for key in &victims {
                            model.entries.remove(key);
                        }
                    }
                    _ => {
                        visit.note_flush(addr, true);
                        stash.entry((vm, pool)).or_default().push(addr);
                        assert!(matches!(
                            visit.remote_get(SimTime::ZERO, addr),
                            GetOutcome::Miss
                        ));
                    }
                }
            }
            // What the visit did is what the keyed transitions would
            // have left, eviction queues included.
            check(&state, &ledger, &model, &what);
            match rng.range_u64(0, 40) {
                0 => {
                    assert!(state.drain_pool(&mut ledger, vm, pool), "{what}");
                    model.drop_pool(vm, pool);
                    stashes_dropped += u64::from(stash.remove(&(vm, pool)).is_some());
                }
                1 => {
                    state.drain_ssd(&mut ledger);
                    model.entries.retain(|_, e| e.0 != Placement::Ssd);
                }
                _ => {}
            }
            let held = state.remote_stash.iter().map(|(&k, s)| (k, s.0.clone()));
            assert!(held.collect::<BTreeMap<_, _>>() == stash, "{what}: stash");
        }
        assert!(seq > 1_000, "the run never stored anything");
        assert!(gone > 10, "no visit ever found its pool destroyed");
        assert!(stashes_dropped > 10, "no drain ever dropped a stash");
    }

    #[test]
    fn a_visit_runs_the_keyed_transitions_on_a_pool_resolved_once() {
        run_visits(stores(), 0x5A04);
        run_visits(&AtomicPair::default(), 0x5A05);
    }

    #[test]
    fn a_block_overwritten_over_and_over_holds_one_queue_entry() {
        let mut ledger = stores();
        let mut state = ShardState::default();
        let (vm, pool) = POOLS[0];
        create_pool(&mut state, vm, pool, true);
        let addr = BlockAddr::new(FileId(1), 0);
        // One block overwritten over and over, from store to store.
        for seq in 1..=1_024 {
            let placement = PLACEMENTS[seq as usize % 3 / 2];
            assert!(ledger.try_alloc(placement));
            state.insert(&mut ledger, vm, pool, addr, placement, PageVersion(1), seq);
            let p = &state.pools[&(vm, pool)];
            assert!(p.fifo_entries(placement).eq([(SlotId(0), seq)]), "{seq}");
            assert_eq!(p.fifo_entries(PLACEMENTS[1 - placement.idx()]).count(), 0);
            // The overwrite gave the old copy's page back.
            assert_eq!(ledger.used_pages(placement), 1);
        }
    }

    /// What one `evict_batch` did to its ledger and its journal, in
    /// call order.
    #[derive(Debug)]
    enum Event {
        Alloc(Placement, bool),
        /// Pages given back, and the store's `used` right after.
        Free(Placement, u64, u64),
        Journal(JournalRecord),
    }

    /// An atomic backend that logs every page it hands out or takes back
    /// into the log the journal callback writes too.
    struct Recording<'a>(&'a AtomicPair, &'a RefCell<Vec<Event>>);

    impl StoreBackend for Recording<'_> {
        fn try_alloc(&mut self, placement: Placement) -> bool {
            let mut pair = self.0;
            let ok = pair.try_alloc(placement);
            self.1.borrow_mut().push(Event::Alloc(placement, ok));
            ok
        }

        fn free(&mut self, placement: Placement, pages: u64) {
            let mut pair = self.0;
            pair.free(placement, pages);
            let used = pair.used_pages(placement);
            self.1
                .borrow_mut()
                .push(Event::Free(placement, pages, used));
        }

        fn is_disabled(&self, placement: Placement) -> bool {
            (&self.0).is_disabled(placement)
        }

        fn next_seq(&mut self) -> u64 {
            let mut pair = self.0;
            pair.next_seq()
        }

        fn set_capacity(&mut self, _: Placement, _: u64) {
            unreachable!("the capacities are constants");
        }
    }

    /// One pool of `resident` pages in `placement`, the SSD otherwise
    /// filled to `ssd_free` pages of room, then one `evict_batch` of
    /// `max_pages`: what it returned, what it did, and what it should
    /// have journaled.
    fn recorded_batch(
        policy: CachePolicy,
        placement: Placement,
        resident: u64,
        max_pages: u64,
        ssd_free: u64,
    ) -> ((u64, u64), Vec<Event>, Vec<JournalRecord>) {
        let pair = AtomicPair::default();
        let log = RefCell::new(Vec::new());
        let mut state = ShardState::default();
        let (vm, pool) = POOLS[0];
        state.pools.insert((vm, pool), Pool::new(vm, policy));
        let mut ledger = &pair;
        for seq in 1..=resident {
            assert!(ledger.try_alloc(placement));
            let addr = BlockAddr::new(FileId(1), 100 - seq);
            state.insert(
                &mut ledger,
                vm,
                pool,
                addr,
                placement,
                PageVersion(seq),
                seq,
            );
        }
        while ledger.used_pages(Placement::Ssd) + ssd_free < CAPACITY[1] {
            assert!(ledger.try_alloc(Placement::Ssd));
        }

        let evicted = resident.min(max_pages);
        let trickles = policy.store == StoreKind::Hybrid && placement == Placement::Mem;
        let trickled = if trickles { evicted.min(ssd_free) } else { 0 };
        let oldest = |n: u64| (1..=n).map(|seq| (BlockAddr::new(FileId(1), 100 - seq), seq));
        let mut expected: Vec<_> = oldest(evicted)
            .map(|(addr, _)| evict_record(vm, pool, addr))
            .collect();
        expected.extend(
            oldest(trickled)
                .map(|(addr, v)| put_record(vm, pool, addr, PageVersion(v), Placement::Ssd)),
        );

        // Trickles are stamped after every resident.
        pair.seq.store(resident + 1, Ordering::Relaxed);
        let counts = state.visit(vm, pool).expect("the pool").evict_batch(
            &mut Recording(&pair, &log),
            SimTime::ZERO,
            placement,
            max_pages,
            AdmissionConfig::off(),
            |rec| log.borrow_mut().push(Event::Journal(rec)),
        );
        assert_eq!(counts, (evicted, trickled));
        assert_eq!(state.used(vm, pool, placement), resident - evicted);
        assert_eq!(ledger.used_pages(placement), {
            let kept = if placement == Placement::Ssd {
                CAPACITY[1] - ssd_free
            } else {
                resident
            };
            kept - evicted
        });
        (counts, log.into_inner(), expected)
    }

    #[test]
    fn an_eviction_batch_pays_its_pages_back_in_pop_order() {
        let cases = [
            (CachePolicy::mem(100), Placement::Mem, 10, 6, 0),
            (CachePolicy::ssd(100), Placement::Ssd, 10, 6, 50),
            // Trickle-down into a full SSD, one with room for two, and
            // one that takes the whole batch.
            (CachePolicy::hybrid(100), Placement::Mem, 10, 6, 0),
            (CachePolicy::hybrid(100), Placement::Mem, 10, 6, 2),
            (CachePolicy::hybrid(100), Placement::Mem, 10, 6, 20),
            (CachePolicy::hybrid(100), Placement::Ssd, 10, 6, 50),
            // A batch larger than the pool ends short.
            (CachePolicy::mem(100), Placement::Mem, 3, 32, 0),
            (CachePolicy::mem(100), Placement::Mem, 0, 32, 0),
        ];
        for (policy, placement, resident, max_pages, ssd_free) in cases {
            let what = format!("{policy:?} {placement:?} {resident}/{max_pages}/{ssd_free}");
            let ((evicted, trickled), events, expected) =
                recorded_batch(policy, placement, resident, max_pages, ssd_free);

            // Journal order: the evictions oldest first, then the
            // trickled puts in the same order.
            let journaled: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Journal(rec) => Some(*rec),
                    _ => None,
                })
                .collect();
            assert!(journaled == expected, "{what}: {journaled:?}");

            // Pops and frees alternate one for one — a put waiting for
            // room gets each page as it is popped, not the batch at its
            // end — and the evicted store's occupancy only falls.
            let (mut popped, mut freed, mut last_used) = (0, 0, u64::MAX);
            for (i, event) in events.iter().enumerate() {
                match *event {
                    Event::Journal(JournalRecord::Evict { .. }) => {
                        popped += 1;
                        assert!(
                            matches!(events.get(i + 1), Some(&Event::Free(store, 1, _)) if store == placement),
                            "{what}: pop {popped} not paid back at once: {events:?}"
                        );
                    }
                    Event::Free(store, pages, used) if store == placement => {
                        freed += pages;
                        assert_eq!(freed, popped, "{what}: a page freed that no pop paid for");
                        assert!(used <= last_used, "{what}: occupancy rose to {used}");
                        last_used = used;
                    }
                    _ => {}
                }
            }
            assert_eq!((popped, freed), (evicted, evicted), "{what}");

            // A trickle takes one SSD page each, and the first refusal
            // ends the trickling.
            let asked = |granted| {
                let hit =
                    |e: &&Event| matches!(**e, Event::Alloc(Placement::Ssd, ok) if ok == granted);
                events.iter().filter(hit).count() as u64
            };
            assert_eq!(asked(true), trickled, "{what}");
            assert!(asked(false) <= 1, "{what}: {events:?}");
        }
    }

    #[test]
    fn evicting_from_a_pool_that_is_not_there_touches_nothing() {
        let pair = AtomicPair::default();
        let log = RefCell::new(Vec::new());
        let mut state = ShardState::default();
        // An engine's batch resolves its victim first: a pool that is not
        // there gives it no visit. Nor does a migration adopt into one:
        // no page moves.
        assert!(state.visit(VmId(9), PoolId(9)).is_none());
        let slot = Slot {
            placement: Placement::Mem,
            version: PageVersion(1),
            seq: 1,
            checksum: 0,
        };
        let addr = BlockAddr::new(FileId(1), 0);
        let mut ledger = Recording(&pair, &log);
        assert!(!state.adopt(&mut ledger, VmId(9), PoolId(9), addr, slot));
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn the_compaction_threshold_has_a_floor_and_a_slope() {
        assert!(!compaction_due(JOURNAL_COMPACT_MIN_RECORDS, 0));
        assert!(compaction_due(JOURNAL_COMPACT_MIN_RECORDS + 1, 0));
        let live = 1_000;
        assert!(!compaction_due(live * JOURNAL_COMPACT_FACTOR, live));
        assert!(compaction_due(live * JOURNAL_COMPACT_FACTOR + 1, live));
    }

    /// Pools homed on several of four shards take stamps interleaved
    /// across every pool and both stores, with overwrites (which move a
    /// block to its new store's young end) and removals between them:
    /// the checkpoint writes one `Put` per live page, in ascending stamp
    /// order over every segment, the store-wide FIFO order replay
    /// stamps its pages in.
    #[test]
    fn a_checkpoint_writes_its_puts_in_stamp_order_across_pools_shards_and_stores() {
        const SHARDS: usize = 4;
        let mut registry = Registry::default();
        let mut shards: Vec<ShardState> = (0..SHARDS).map(|_| ShardState::default()).collect();
        let mut pools = Vec::new();
        for vm in 1..=3 {
            for pool in 1..=3 {
                let (vm, pool) = (VmId(vm), PoolId(10 * vm + pool));
                registry.apply(&JournalRecord::CreatePool {
                    vm: vm.0,
                    pool: pool.0,
                    store: store_kind_code(StoreKind::Hybrid),
                    weight: 100,
                });
                let home = &mut shards[home_shard(vm, pool, SHARDS)];
                home.pools
                    .insert((vm, pool), Pool::new(vm, CachePolicy::hybrid(100)));
                pools.push((vm, pool));
            }
        }
        let homes: BTreeSet<_> = pools
            .iter()
            .map(|&(vm, pool)| home_shard(vm, pool, SHARDS))
            .collect();
        assert!(homes.len() > 1, "every pool is homed on one shard");

        // Each stamp goes to a random pool, block and store; every
        // eighth takes a random block out instead.
        let mut rng = SimRng::new(0xC4EC);
        let mut live: BTreeMap<(VmId, PoolId, BlockAddr), (u64, Placement)> = BTreeMap::new();
        for seq in 1..=800 {
            let (vm, pool) = pools[rng.range_usize(0, pools.len())];
            let addr = BlockAddr::new(FileId(rng.range_u64(0, 3)), rng.range_u64(0, 24));
            let p = shards[home_shard(vm, pool, SHARDS)]
                .pools
                .get_mut(&(vm, pool))
                .expect("created");
            if seq % 8 == 0 {
                p.remove(addr);
                live.remove(&(vm, pool, addr));
            } else {
                let placement = PLACEMENTS[rng.range_usize(0, 2)];
                p.insert(addr, placement, PageVersion(seq), seq);
                live.insert((vm, pool, addr), (seq, placement));
            }
        }
        for placement in PLACEMENTS {
            assert!(live.values().filter(|e| e.1 == placement).count() > 100);
        }

        let cut = Cut::new(&registry, shards.iter().collect());
        let checkpoint = cut.write_checkpoint(PartitionMode::Global, 1_000, 1_000, 7);
        let mut records: Vec<(u64, JournalRecord)> = (checkpoint.segments.iter())
            .flat_map(|seg| Journal::replay(seg.bytes()).0)
            .collect();
        records.sort_unstable_by_key(|&(gen, _)| gen);
        let mut stamps = Vec::new();
        for (_, rec) in records {
            if let JournalRecord::Put {
                vm,
                pool,
                addr,
                version,
                placement,
            } = rec
            {
                let page = live.get(&(VmId(vm), PoolId(pool), addr));
                assert_eq!(
                    page,
                    Some(&(version, Placement::from_code(placement).unwrap()))
                );
                stamps.push(version);
            }
        }
        assert_eq!(stamps.len(), live.len(), "one put per live page");
        assert!(
            stamps.windows(2).all(|w| w[0] < w[1]),
            "puts out of stamp order: {stamps:?}"
        );
    }

    #[test]
    fn one_shard_is_everyones_home() {
        for (vm, pool) in POOLS {
            assert_eq!(home_shard(vm, pool, 1), 0);
            assert!(home_shard(vm, pool, 16) < 16);
        }
    }
}
