//! The shard state machine: what a put, take, evict, flush or destroy
//! *does* to the index, the page accounting, the FIFO tombstones and the
//! wear ledger — written once and called by both engines, live and on
//! replay (DESIGN.md §11.5).
//!
//! A [`ShardState`] is the pools that hash to one shard plus, in Global
//! mode, their share of the Global FIFOs ([`GlobalFifos`]). The serial
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
//! the three whole-cache procedures both engines run under their
//! consistent cut: the checkpoint writer ([`Cut::write_checkpoint`]),
//! the recovery core ([`ReplayLog`]) and the live-compaction threshold
//! ([`compaction_due`]).
//!
//! The per-operation transitions and the record builders are
//! `#[inline]`: they used to be statements of the engines' own get, put
//! and flush, and from a codegen unit of their own each is a call (a
//! serial miss-get: 25.5 ns without the attribute, 22 ns with it).

use std::collections::{BTreeMap, VecDeque};

use ddc_cleancache::{GetOutcome, PageVersion, PoolId, StoreKind, VmId};
use ddc_metrics::CounterSnapshot;
use ddc_sim::{FxHashMap, SimTime};
use ddc_storage::{
    BlockAddr, FileId, IoError, Journal, JournalRecord, RemoteBinding, RemoteCounters, RemoteError,
    RemoteLookup, ReplayStats, WearCounters,
};

use crate::index::{fifo_compaction_due, Placement, Pool, Slot, SlotId};
use crate::registry::Registry;
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

/// A Global-mode FIFO entry: the object's pool, its slab handle and the
/// sequence stamp it was queued under. Deleted lazily — an entry whose
/// slot no longer carries the stamp is a tombstone.
pub type FifoEntry = (VmId, PoolId, SlotId, u64);

/// The Global-mode eviction order of one shard: a seq-stamped FIFO per
/// store, `[mem, ssd]`, deleted lazily, with a count of each queue's
/// dead entries (its tombstones). Only a Global-mode [`ShardState`]
/// holds one: no other mode pops these queues, so no other mode feeds
/// them.
#[derive(Debug, Default)]
pub struct GlobalFifos {
    fifo: [VecDeque<FifoEntry>; 2],
    /// How many entries of each FIFO are dead: exact, since every
    /// removal of a queued object counts one, and what
    /// [`fifo_compaction_due`] judges the queue by.
    stale: [u64; 2],
}

impl GlobalFifos {
    /// One store's FIFO, oldest first.
    pub fn fifo(&self, placement: Placement) -> &VecDeque<FifoEntry> {
        &self.fifo[placement.idx()]
    }

    /// One store's tombstone counter.
    pub fn stale(&self, placement: Placement) -> u64 {
        self.stale[placement.idx()]
    }

    /// Queues one object; `true` if the queue now wants a compaction
    /// ([`ShardState::scrub`]).
    #[inline]
    fn push(&mut self, placement: Placement, entry: FifoEntry) -> bool {
        let i = placement.idx();
        self.fifo[i].push_back(entry);
        fifo_compaction_due(self.fifo[i].len() as u64, self.stale[i])
    }
}

/// Whether a FIFO entry still names the object it was queued for.
#[inline]
fn is_live(
    pools: &FxHashMap<(VmId, PoolId), Pool>,
    &(vm, pool, sid, seq): &FifoEntry,
    placement: Placement,
) -> bool {
    let probe = pools.get(&(vm, pool));
    probe.is_some_and(|p| p.fifo_probe(sid, seq, placement).is_some())
}

/// `pages` objects of one store just left their pools: their pages go
/// back to the backend and their Global FIFO entries, if the shard keeps
/// any, count as tombstones.
#[inline]
fn release(
    backend: &mut impl StoreBackend,
    global: Option<&mut GlobalFifos>,
    placement: Placement,
    pages: u64,
) {
    backend.free(placement, pages);
    if let Some(global) = global {
        global.stale[placement.idx()] += pages;
    }
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
/// evicted (pool batches, Global fronts, TTL demotions) and pages of
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
/// through the transitions, which keep the backend's pages equal to the pools'
/// usage and the tombstone counters at or above the dead FIFO entries.
///
/// The default state is a DoubleDecker- or Strict-mode one: it keeps
/// no Global FIFOs ([`ShardState::new`]).
#[derive(Debug, Default)]
pub struct ShardState {
    /// The pools homed here.
    pub pools: FxHashMap<(VmId, PoolId), Pool>,
    /// The Global-mode eviction order: `Some` exactly in Global mode.
    global: Option<GlobalFifos>,
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
    /// An empty shard of a cache in `mode`: Global FIFOs in Global mode,
    /// none in the others.
    pub fn new(mode: PartitionMode) -> ShardState {
        let global = (mode == PartitionMode::Global).then(GlobalFifos::default);
        ShardState {
            global,
            ..ShardState::default()
        }
    }

    /// The Global FIFOs, in Global mode.
    pub fn global_fifos(&self) -> Option<&GlobalFifos> {
        self.global.as_ref()
    }

    /// The sequence stamp at the front of one Global FIFO, dead or live;
    /// `None` for an empty queue, or outside Global mode.
    #[inline]
    pub fn front_seq(&self, placement: Placement) -> Option<u64> {
        let front = self.global.as_ref()?.fifo(placement).front();
        front.map(|&(_, _, _, seq)| seq)
    }

    /// The entries of one Global FIFO that are dead right now, counted
    /// the slow way: what the auditors hold [`GlobalFifos::stale`]
    /// against (0 outside Global mode).
    pub fn dead_fifo_entries(&self, placement: Placement) -> u64 {
        let Some(global) = &self.global else {
            return 0;
        };
        let dead = |entry: &&FifoEntry| !is_live(&self.pools, entry, placement);
        global.fifo(placement).iter().filter(dead).count() as u64
    }

    /// Pages one pool holds in one store (0 for an unknown pool).
    #[inline]
    pub fn used(&self, vm: VmId, pool: PoolId, placement: Placement) -> u64 {
        self.pools.get(&(vm, pool)).map_or(0, |p| p.used(placement))
    }

    /// Resolves one pool for a run of transitions: the one probe of the
    /// pool map (and of the binding map) that every transition of the
    /// run then shares. `None` if there is no such pool. The caller ends
    /// the run with [`PoolVisit::end`] and hands what it returns to
    /// [`Self::scrub`]; the keyed transitions below are runs of one.
    #[inline]
    pub fn visit(&mut self, vm: VmId, pool: PoolId) -> Option<PoolVisit<'_>> {
        Some(PoolVisit {
            vm,
            id: pool,
            pool: self.pools.get_mut(&(vm, pool))?,
            global: self.global.as_mut(),
            binding: self.remote_bindings.get_mut(&(vm, pool)),
            stash: &mut self.remote_stash,
            evicted: &mut self.evicted,
            scrub: FifoScrub::default(),
        })
    }

    /// Compacts the Global FIFOs a finished visit found dominated by
    /// tombstones: the scrub asks every queued entry's pool whether the
    /// entry is still live, so it cannot run while a visit holds one of
    /// them.
    #[inline]
    pub fn scrub(&mut self, due: FifoScrub) {
        let Some(global) = self.global.as_mut() else {
            return;
        };
        for placement in [Placement::Mem, Placement::Ssd] {
            let i = placement.idx();
            if due.0[i] {
                let pools = &self.pools;
                global.fifo[i].retain(|entry| is_live(pools, entry, placement));
                global.stale[i] = 0;
            }
        }
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
        let due = visit.end();
        self.scrub(due);
        true
    }

    /// Pops lazily-dead entries off one Global FIFO's front. On return
    /// the front is live or the queue is empty. A tombstone consumed
    /// this way no longer needs a compaction pass.
    pub fn pop_dead_fronts(&mut self, placement: Placement) {
        let Some(global) = self.global.as_mut() else {
            return;
        };
        let i = placement.idx();
        while let Some(front) = global.fifo[i].front() {
            if is_live(&self.pools, front, placement) {
                break;
            }
            global.fifo[i].pop_front();
            global.stale[i] = global.stale[i].saturating_sub(1);
        }
    }

    /// Evicts the oldest live object of one Global FIFO: the entry is
    /// consumed, so no tombstone is left behind. `None` once the queue
    /// is empty, and always outside Global mode.
    pub fn evict_front(
        &mut self,
        backend: &mut impl StoreBackend,
        placement: Placement,
    ) -> Option<(VmId, PoolId, BlockAddr)> {
        self.pop_dead_fronts(placement);
        let (vm, pool, sid, _) = self.global.as_mut()?.fifo[placement.idx()].pop_front()?;
        let p = self
            .pools
            .get_mut(&(vm, pool))
            .expect("front verified live");
        let (addr, _) = p.remove_by_id(sid).expect("front verified live");
        p.counters.evictions += 1;
        self.evicted.pages += 1;
        backend.free(placement, 1);
        Some((vm, pool, addr))
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
        release(backend, self.global.as_mut(), Placement::Mem, mem);
        release(backend, self.global.as_mut(), Placement::Ssd, ssd);
        (mem, ssd)
    }

    /// Destroys one pool (`DestroyPool`, and `RemoveVm` per pool): its
    /// remote binding and stashed flushes dropped, its objects drained,
    /// its wear retired into the VM's accumulator, its pages freed and its
    /// Global FIFO entries left as tombstones. `false` if there was no
    /// such pool.
    pub fn drain_pool(&mut self, backend: &mut impl StoreBackend, vm: VmId, pool: PoolId) -> bool {
        self.remote_bindings.remove(&(vm, pool));
        self.remote_stash.remove(&(vm, pool));
        let Some(mut p) = self.pools.remove(&(vm, pool)) else {
            return false;
        };
        let (mem, ssd) = p.drain();
        let worn = p.wear.retire();
        self.retired_wear.entry(vm).or_default().absorb(&worn);
        release(backend, self.global.as_mut(), Placement::Mem, mem);
        release(backend, self.global.as_mut(), Placement::Ssd, ssd);
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
        if let Some(global) = self.global.as_mut() {
            let i = Placement::Ssd.idx();
            global.fifo[i].clear();
            global.stale[i] = 0;
        }
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
                let (vm, pool) = (VmId(vm), PoolId(pool));
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
                self.insert(
                    backend,
                    vm,
                    pool,
                    addr,
                    placement,
                    PageVersion(version),
                    gen,
                );
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

#[cfg(test)]
impl ShardState {
    /// Queues a dead entry on one Global FIFO behind the transitions'
    /// back, counted as a tombstone if `counted`, so tests can show the
    /// auditor notices. Outside Global mode there is no FIFO to skew.
    pub(crate) fn skew_global_fifo(&mut self, placement: Placement, counted: bool) {
        if let Some(global) = self.global.as_mut() {
            let i = placement.idx();
            global.fifo[i].push_back((VmId(u32::MAX), PoolId(0), SlotId(0), 0));
            global.stale[i] += u64::from(counted);
        }
    }
}

/// The Global FIFOs a [`PoolVisit`] left wanting a compaction
/// ([`ShardState::scrub`]).
#[derive(Clone, Copy, Debug, Default)]
#[must_use = "hand it to ShardState::scrub, or the FIFOs keep their tombstones"]
pub struct FifoScrub([bool; 2]);

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
    global: Option<&'a mut GlobalFifos>,
    binding: Option<&'a mut RemoteBinding>,
    stash: &'a mut RemoteStash,
    evicted: &'a mut Evicted,
    scrub: FifoScrub,
}

impl PoolVisit<'_> {
    /// Ends the visit: which Global FIFOs its inserts left dominated by
    /// tombstones, for [`ShardState::scrub`].
    #[inline]
    pub fn end(self) -> FifoScrub {
        self.scrub
    }

    /// Removes one object (if resident): see [`ShardState::remove`].
    #[inline]
    pub fn remove(&mut self, backend: &mut impl StoreBackend, addr: BlockAddr) -> Option<Slot> {
        let slot = self.pool.remove(addr)?;
        release(backend, self.global.as_deref_mut(), slot.placement, 1);
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

    /// Inserts one object whose page the caller already holds: index
    /// insert (which compacts the pool's own queue when it is due), the
    /// displaced older copy's page freed, and in Global mode a Global
    /// FIFO entry pushed. A Global FIFO that tombstones now dominate
    /// (`fifo_compaction_due`, the pool queues' rule) is marked for
    /// compaction when the visit ends.
    #[inline]
    pub fn insert(
        &mut self,
        backend: &mut impl StoreBackend,
        addr: BlockAddr,
        placement: Placement,
        version: PageVersion,
        seq: u64,
    ) {
        let (sid, displaced) = self.pool.insert(addr, placement, version, seq);
        if let Some(displaced) = displaced {
            release(backend, self.global.as_deref_mut(), displaced, 1);
        }
        if let Some(global) = self.global.as_deref_mut() {
            let due = global.push(placement, (self.vm, self.id, sid, seq));
            self.scrub.0[placement.idx()] |= due;
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
            release(backend, self.global.as_deref_mut(), placement, 1);
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
    /// Records written, all segments together.
    pub records: u64,
}

impl Checkpoint {
    fn emit(&mut self, si: usize, rec: &JournalRecord) -> u64 {
        let gen = self.next_gen;
        self.segments[si].append_with_gen(rec, gen);
        self.next_gen += 1;
        self.records += 1;
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

/// One consistent cut of an engine, held still by the caller (the
/// serial engine's `&self`; the sharded engine's registry read lock plus
/// every shard lock): what the whole-cache readers walk.
pub struct Cut<'a> {
    /// `(vm, mem weight, ssd weight)`, in registry order.
    vms: Vec<(VmId, u64, u64)>,
    /// Every registered pool its home shard holds, in registry order,
    /// with the home's index.
    pub(crate) pools: Vec<(VmId, PoolId, u32, &'a Pool)>,
    pub(crate) shards: Vec<&'a ShardState>,
}

impl<'a> Cut<'a> {
    /// Resolves the registry against every shard's state, in shard
    /// order.
    pub fn new<M: Clone>(registry: &Registry<M>, shards: Vec<&'a ShardState>) -> Cut<'a> {
        let (mut vms, mut pools) = (Vec::new(), Vec::new());
        for (vm, row) in registry.vms() {
            vms.push((vm, row.mem_weight, row.ssd_weight));
            for &(pid, _, _) in &row.pools {
                let si = home_shard(vm, pid, shards.len());
                if let Some(pool) = shards[si].pools.get(&(vm, pid)) {
                    pools.push((vm, pid, si as u32, pool));
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
    /// `CreatePool` per pool, then every `Put` in FIFO (sequence) order
    /// so replay reproduces eviction order, then the wear carry-over.
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
            segments: (0..self.shards.len())
                .map(|_| Journal::with_start_gen(start_gen))
                .collect(),
            new_epochs: Vec::with_capacity(self.vms.len()),
            next_gen: start_gen,
            records: 0,
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
        // A live rewrite stalls every client: `puts` is sized from the
        // live count and each segment from the bytes its puts encode to,
        // so neither regrows mid-rewrite. Every entry of a pool lands in
        // the pool's home segment, so the shard map is asked once per
        // pool (carried as a `u32`, which leaves the sorted tuples at 48
        // bytes).
        let mut puts: Vec<(u64, VmId, PoolId, BlockAddr, u64, u8, u32)> =
            Vec::with_capacity(self.resident() as usize);
        let mut put_bytes = vec![0usize; self.shards.len()];
        for &(vm, pid, si, pool) in &self.pools {
            let si = si as usize;
            let policy = pool.policy();
            w.emit(
                si,
                &JournalRecord::CreatePool {
                    vm: vm.0,
                    pool: pid.0,
                    store: store_kind_code(policy.store),
                    weight: policy.weight,
                },
            );
            put_bytes[si] += pool.total_used() as usize * JournalRecord::PUT_LEN;
            puts.extend(pool.iter().map(|(addr, slot)| {
                (
                    slot.seq,
                    vm,
                    pid,
                    addr,
                    slot.version.0,
                    slot.placement.code(),
                    si as u32,
                )
            }));
        }
        puts.sort_unstable();
        for (seg, bytes) in w.segments.iter_mut().zip(put_bytes) {
            seg.reserve(bytes);
        }
        for (_, vm, pid, addr, version, placement, si) in puts {
            w.emit(
                si as usize,
                &JournalRecord::Put {
                    vm: vm.0,
                    pool: pid.0,
                    addr,
                    version,
                    placement,
                },
            );
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
/// lost). With one segment the rule is vacuous. What remains is an exact
/// prefix of the record sequence.
#[derive(Debug)]
pub struct ReplayLog {
    /// How each segment's decoding terminated, in shard order.
    pub segments: Vec<ReplayStats>,
    /// The kept prefix, in generation order.
    pub records: Vec<(u64, JournalRecord)>,
    /// Decoded records discarded by the gap barrier.
    pub gap_discarded: u64,
    /// The mode of the last `SetMode` in the kept prefix: the journal's
    /// mode wins over the recovery config's.
    pub mode: Option<PartitionMode>,
    /// One past the last kept generation: where the sequence and
    /// generation counters resume (replayed entries carry their
    /// generation as sequence stamp, so live stamps must stay above
    /// them) and where the recovery checkpoint starts.
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
            .unwrap_or(records.len());
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

    /// The **lose-don't-resurrect rule**: `guest_epochs` carries each
    /// surviving guest's flush epoch (the largest generation any acked
    /// flush returned). A replay whose last epoch-bearing generation for
    /// a VM is *below* that proves the image lost acked flushes; every
    /// entry of that VM whose sequence stamp predates the epoch must
    /// then be discarded ([`ShardState::discard_older_than`]) as
    /// potentially stale. Later entries are provably clean: any write
    /// superseding them would have issued a flush with a still-later
    /// generation, raising the epoch. Yields those `(vm, epoch)` pairs.
    pub fn suspects<'a>(
        &'a self,
        guest_epochs: &'a [(VmId, u64)],
    ) -> impl Iterator<Item = (VmId, u64)> + 'a {
        guest_epochs
            .iter()
            .copied()
            .filter(|&(vm, epoch)| self.replayed_epochs.get(&vm.0).copied().unwrap_or(0) < epoch)
    }
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
    use crate::index::FIFO_COMPACT_MIN_LEN;
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
            registry.apply(
                &JournalRecord::CreatePool {
                    vm,
                    pool,
                    store,
                    weight,
                },
                || (),
            );
        }
        Cut::new(&registry, vec![state]).vm_wear(vm)
    }

    /// Holds the state against the model after a step: a Global-mode
    /// state also on its tombstone counters, any other on holding no
    /// Global FIFO at all.
    fn check(
        state: &ShardState,
        ledger: &impl Occupancy,
        model: &Model,
        mode: PartitionMode,
        step: &str,
    ) {
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
            let Some(global) = state.global_fifos() else {
                assert_ne!(mode, PartitionMode::Global, "{step}: Global FIFOs gone");
                continue;
            };
            assert_eq!(mode, PartitionMode::Global, "{step}: {mode:?} queues");
            let (dead, stale) = (state.dead_fifo_entries(placement), global.stale(placement));
            assert_eq!(stale, dead, "{step}: tombstones in {placement:?}");
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

    /// Drives every transition in a seeded random order on a shard of a
    /// `mode` cache.
    fn run(mut ledger: impl Occupancy, mode: PartitionMode, seed: u64, trickle: bool) {
        let mut rng = SimRng::new(seed);
        let mut state = ShardState::new(mode);
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
                    // With every live entry queued, the Global front is
                    // the oldest entry of the store; no other mode has
                    // a Global front.
                    let oldest = model
                        .entries
                        .iter()
                        .filter(|(_, e)| e.0 == placement && mode == PartitionMode::Global)
                        .min_by_key(|(_, e)| e.2)
                        .map(|(k, _)| *k);
                    assert_eq!(state.evict_front(&mut ledger, placement), oldest, "{what}");
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
                    state.pop_dead_fronts(placement);
                    let front = state.global_fifos().and_then(|g| g.fifo(placement).front());
                    if let Some(&(v, p, sid, s)) = front {
                        let live = state.pools[&(v, p)].fifo_probe(sid, s, placement);
                        assert!(live.is_some(), "{what}: dead front left behind");
                    }
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
                    let ssd_fifo = state.global_fifos().map(|g| g.fifo(Placement::Ssd));
                    assert!(ssd_fifo.is_none_or(VecDeque::is_empty), "{what}");
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
            check(&state, &ledger, &model, mode, &what);
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
        run(stores(), PartitionMode::Global, 0x5A01, false);
        run(stores(), PartitionMode::Global, 0x5A02, true);
    }

    #[test]
    fn transitions_match_the_model_with_an_atomic_ledger() {
        run(&AtomicPair::default(), PartitionMode::Global, 0x5A01, false);
        run(&AtomicPair::default(), PartitionMode::Global, 0x5A03, true);
    }

    /// The model test in the two modes that never pop a Global FIFO:
    /// after every transition, the shard holds none.
    #[test]
    fn a_shard_outside_global_mode_holds_no_global_fifo() {
        for mode in [PartitionMode::DoubleDecker, PartitionMode::Strict] {
            run(stores(), mode, 0x5A06, false);
            run(&AtomicPair::default(), mode, 0x5A07, true);
        }
    }

    /// Runs of transitions through one [`PoolVisit`] each — the pool
    /// resolved once, as a `*_many` group holds it — against the same
    /// model, with whole-pool transitions (a destroy, an SSD drain, a
    /// scrub) landing between the runs the way they land between a
    /// group's shard visits: the next visit re-resolves, and finds its
    /// pool gone when it is.
    fn run_visits(mut ledger: impl Occupancy, seed: u64) {
        let mut rng = SimRng::new(seed);
        let mut state = ShardState::new(PartitionMode::Global);
        let mut model = Model::default();
        for (vm, pool) in POOLS {
            create_pool(&mut state, vm, pool, false);
        }
        let (mut seq, mut gone, mut scrubs) = (0u64, 0, 0);
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
            let due = visit.end();
            scrubs += u64::from(due.0 != [false; 2]);
            state.scrub(due);
            // What the visit did is what the keyed transitions would
            // have left, tombstone counters included.
            check(&state, &ledger, &model, PartitionMode::Global, &what);
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
        assert!(scrubs > 0, "no visit ever left a FIFO to scrub");
        assert!(stashes_dropped > 10, "no drain ever dropped a stash");
    }

    #[test]
    fn a_visit_runs_the_keyed_transitions_on_a_pool_resolved_once() {
        run_visits(stores(), 0x5A04);
        run_visits(&AtomicPair::default(), 0x5A05);
    }

    #[test]
    fn the_fifo_compacts_when_tombstones_dominate_it() {
        let mut ledger = stores();
        let mut state = ShardState::new(PartitionMode::Global);
        let (vm, pool) = POOLS[0];
        create_pool(&mut state, vm, pool, true);
        let addr = BlockAddr::new(FileId(1), 0);
        // One block overwritten over and over: every push kills the
        // entry before it.
        assert!(ledger.try_alloc(Placement::Mem));
        for seq in 1..=FIFO_COMPACT_MIN_LEN {
            state.insert(
                &mut ledger,
                vm,
                pool,
                addr,
                Placement::Mem,
                PageVersion(1),
                seq,
            );
            // The overwrite gave the old copy's page back.
            assert!(ledger.try_alloc(Placement::Mem));
        }
        let global = state.global_fifos().expect("Global mode");
        assert_eq!(
            global.fifo(Placement::Mem).len(),
            1,
            "compacted to the live entry"
        );
        assert_eq!(global.stale(Placement::Mem), 0);
        assert_eq!(state.dead_fifo_entries(Placement::Mem), 0);
        // The pool's own queue follows the same rule.
        let pool = &state.pools[&(vm, pool)];
        assert_eq!(pool.fifo_entries(Placement::Mem).count(), 1);
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

    #[test]
    fn one_shard_is_everyones_home() {
        for (vm, pool) in POOLS {
            assert_eq!(home_shard(vm, pool, 1), 0);
            assert!(home_shard(vm, pool, 16) < 16);
        }
    }
}
