//! The indexing module: maps `(pool, inode, block)` keys to storage slots.
//!
//! The paper (§4.2) uses "a hierarchy of indexing data structures — a
//! per-pool file object (inode-num) hash table, file block radix-tree
//! etc.". [`Pool`] flattens that hierarchy into a slab arena: slots live
//! in one dense `Vec` with a free-list, addressed by [`SlotId`], and the
//! lookup path is a single [`FxHashMap`] probe from [`BlockAddr`] into
//! contiguous memory. What the paper's per-file level buys — a
//! `flush_file` that costs O(blocks of that file) — is kept by an
//! intrusive doubly-linked chain per file threaded through the slab
//! entries, headed by a `FileId -> SlotId` map: [`Pool::remove_file`]
//! walks one chain instead of the slab. The upkeep is one head-map probe
//! per *new* key (an overwrite keeps its links) and two neighbour writes
//! per removal; the head map is written on removal only when the head
//! itself leaves.
//!
//! Per-placement FIFO queues (with lazy deletion) implement the paper's
//! FIFO eviction order — "LRU equivalent for exclusive caches" (§4.2) —
//! and carry `SlotId`s, so popping the queue lands directly on the slab
//! entry. A removal leaves its entry behind; an insert that leaves dead
//! entries outnumbering live ones compacts the queue
//! (`fifo_compaction_due`), so a queue stays within about twice its
//! store's live count. The map uses [`FxHashMap`]: block addresses are
//! internal, so the cheaper seed-free hash wins on every operation
//! without any flooding exposure.
//!
//! # `SlotId` stability
//!
//! A `SlotId` is stable for the lifetime of the slot it names: FIFO
//! compaction and queue churn never move slab entries. The id is
//! recycled through the free-list only after the slot is removed, and a
//! reused id always carries a fresh (strictly larger) sequence stamp —
//! so a stale `(SlotId, seq)` pair held by any FIFO is detectably dead.
//! Ids are *not* stable across crash recovery: the journal speaks
//! `BlockAddr`, and replay reassigns ids in replay order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ddc_cleancache::{CachePolicy, PageVersion, PoolStats, StoreKind, VmId};
use ddc_sim::FxHashMap;
use ddc_storage::{BlockAddr, FileId, PoolWear};

use crate::admission::GhostFilter;

/// Where an object physically resides. Unlike
/// [`StoreKind`] this has no `Hybrid`: a hybrid-policy
/// container still places every individual object in exactly one store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Object lives in the memory store.
    Mem,
    /// Object lives in the SSD store.
    Ssd,
}

impl Placement {
    /// Wire discriminant for journal records.
    pub fn code(self) -> u8 {
        match self {
            Placement::Mem => 0,
            Placement::Ssd => 1,
        }
    }

    /// Inverse of [`Self::code`]; `None` for a code no version wrote.
    pub fn from_code(code: u8) -> Option<Placement> {
        match code {
            0 => Some(Placement::Mem),
            1 => Some(Placement::Ssd),
            _ => None,
        }
    }

    /// Position in the `[mem, ssd]` pairs both engines keep per store.
    pub fn idx(self) -> usize {
        self.code() as usize
    }

    /// Whether a pool whose policy names `store` is assigned to this
    /// store (a hybrid pool is assigned to both).
    pub fn allowed_by(self, store: StoreKind) -> bool {
        match self {
            Placement::Mem => store.uses_mem(),
            Placement::Ssd => store.uses_ssd(),
        }
    }
}

/// Handle to one slab arena entry of a [`Pool`]. See the module docs
/// for the stability rules; pair it with the slot's sequence stamp when
/// storing it in a FIFO so reuse is detectable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u32);

/// One indexed object: its placement, the guest version stamp it carried,
/// and its FIFO sequence number (used for lazy queue deletion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Physical store holding the object.
    pub placement: Placement,
    /// Version the guest stored.
    pub version: PageVersion,
    /// FIFO sequence stamp.
    pub seq: u64,
    /// Verify-on-read checksum, normally [`slot_checksum`] of the
    /// object's address and version. A mismatch at `get` time means the
    /// stored copy rotted (e.g. SSD corruption surviving a crash) and
    /// the slot must be failed, never served.
    pub checksum: u32,
}

impl Slot {
    /// Whether the stored checksum matches the object's address and
    /// version (the verify-on-read check).
    pub fn verifies(&self, addr: BlockAddr) -> bool {
        self.checksum == slot_checksum(addr, self.version)
    }
}

/// The checksum a healthy slot for `(addr, version)` carries. Stands in
/// for a content hash: the simulation has no page payloads, so the
/// address/version pair identifies the bytes that would be hashed.
pub fn slot_checksum(addr: BlockAddr, version: PageVersion) -> u32 {
    // FNV-1a over the three words, a word at a time: every put and every
    // hit of both engines computes one, so three dependent multiplies,
    // not twenty-four.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for word in [addr.file.0, addr.block, version.0] {
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h ^ h >> 32) as u32
}

/// Per-pool operation counters (the source of GET_STATS).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Lookups against this pool.
    pub gets: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Stores accepted.
    pub puts: u64,
    /// Objects evicted by the policy module.
    pub evictions: u64,
    /// Lookups that failed on a store fault.
    pub failed_gets: u64,
    /// Stores that failed on a store fault.
    pub failed_puts: u64,
}

/// Lock-free mirror of one pool's per-store usage, kept in sync by the
/// pool's accounting funnels. A concurrent assembly can attach one per
/// pool and snapshot every entity's usage *without* taking the locks
/// that guard the pools themselves — phase 1 of the two-phase eviction
/// in `ddc-concurrent` is built on exactly this.
#[derive(Debug, Default)]
pub struct UsageMirror {
    mem: AtomicU64,
    ssd: AtomicU64,
}

impl UsageMirror {
    /// Pages the owning pool currently holds in the given store, as of
    /// the last accounting update (exact under a quiescent pool; a
    /// best-effort snapshot under concurrent mutation).
    pub fn pages(&self, placement: Placement) -> u64 {
        match placement {
            Placement::Mem => self.mem.load(Ordering::Relaxed),
            Placement::Ssd => self.ssd.load(Ordering::Relaxed),
        }
    }

    fn cell(&self, placement: Placement) -> &AtomicU64 {
        match placement {
            Placement::Mem => &self.mem,
            Placement::Ssd => &self.ssd,
        }
    }
}

/// One occupied slab entry: the key it indexes plus the slot itself.
/// The address is stored inline so eviction (which arrives by `SlotId`
/// off a FIFO) can resolve the key without a reverse map.
#[derive(Clone, Copy, Debug)]
struct ArenaEntry {
    addr: BlockAddr,
    slot: Slot,
    /// Neighbours on the chain of `addr.file`'s entries ([`NIL`] at
    /// either end). New keys join at the head.
    file_prev: u32,
    file_next: u32,
}

/// "No neighbour" slab index on a file chain.
const NIL: u32 = u32::MAX;

/// Eviction queues shorter than this are never compacted.
pub(crate) const FIFO_COMPACT_MIN_LEN: u64 = 1024;

/// The one compaction rule of every lazily deleted eviction queue, a
/// pool's own and the Global ones alike: at least
/// [`FIFO_COMPACT_MIN_LEN`] entries, and the `dead` ones outnumber the
/// live ones. Each removal then funds at most about two retained-entry
/// visits, so compaction is amortized O(1) per removal, and a queue
/// never holds more than `max(1,024, 2 × live + 1)` entries after a push.
#[inline]
pub(crate) fn fifo_compaction_due(len: u64, dead: u64) -> bool {
    len >= FIFO_COMPACT_MIN_LEN && dead * 2 > len
}

/// [`Pool::fifo_probe`] on the slab alone, so a queue of the same pool
/// can be compacted while it is borrowed.
#[inline]
fn probe(
    slots: &[Option<ArenaEntry>],
    id: SlotId,
    seq: u64,
    placement: Placement,
) -> Option<BlockAddr> {
    let entry = slots.get(id.0 as usize)?.as_ref()?;
    (entry.slot.seq == seq && entry.slot.placement == placement).then_some(entry.addr)
}

/// The index for one container's cache pool: a slab arena of slots plus
/// the lookup map and eviction queues (see the module docs).
#[derive(Clone, Debug)]
pub struct Pool {
    vm: VmId,
    policy: CachePolicy,
    /// The slab: `None` entries are free and their indexes sit on
    /// `free`. Never shrinks except when the pool is drained.
    slots: Vec<Option<ArenaEntry>>,
    /// Free-list stack of slab indexes available for reuse.
    free: Vec<u32>,
    /// The single-probe lookup path: block address → slab index.
    map: FxHashMap<BlockAddr, u32>,
    /// Head of each resident file's chain (no entry for an empty chain).
    file_heads: FxHashMap<FileId, u32>,
    fifo_mem: VecDeque<(SlotId, u64)>,
    fifo_ssd: VecDeque<(SlotId, u64)>,
    used_mem: u64,
    used_ssd: u64,
    /// Optional lock-free usage mirror (see [`UsageMirror`]).
    mirror: Option<Arc<UsageMirror>>,
    /// Public counters, updated by the cache front-end.
    pub counters: PoolCounters,
    /// SSD endurance ledger: every insert is charged here (slot-level
    /// resolution for SSD placements), so wear is a pure function of
    /// the pool's insert history — identical across engines and exactly
    /// re-accrued by journal replay.
    pub wear: PoolWear,
    /// Ghost admission filter guarding this pool's mem→SSD spill path
    /// (advisory state: cleared on drain and recovery).
    pub ghost: GhostFilter,
    /// Monotone count of inserts into this pool — the clock the TTL
    /// sweep measures SSD-residency age against. Engine-independent,
    /// unlike the caller-supplied `seq`.
    insert_count: u64,
    /// Per-slab-slot birth stamp: `insert_count` as of the slot's last
    /// write (parallel to the slab, like `PoolWear::slot_writes`).
    slot_birth: Vec<u64>,
}

impl Pool {
    /// Creates an empty pool owned by `vm` with the given policy.
    pub fn new(vm: VmId, policy: CachePolicy) -> Pool {
        Pool {
            vm,
            policy,
            slots: Vec::new(),
            free: Vec::new(),
            map: FxHashMap::default(),
            file_heads: FxHashMap::default(),
            fifo_mem: VecDeque::new(),
            fifo_ssd: VecDeque::new(),
            used_mem: 0,
            used_ssd: 0,
            mirror: None,
            counters: PoolCounters::default(),
            wear: PoolWear::default(),
            ghost: GhostFilter::default(),
            insert_count: 0,
            slot_birth: Vec::new(),
        }
    }

    /// Attaches a usage mirror; every subsequent accounting change is
    /// reflected into it. The serial engine runs without one.
    pub fn set_mirror(&mut self, mirror: Arc<UsageMirror>) {
        mirror
            .cell(Placement::Mem)
            .store(self.used_mem, Ordering::Relaxed);
        mirror
            .cell(Placement::Ssd)
            .store(self.used_ssd, Ordering::Relaxed);
        self.mirror = Some(mirror);
    }

    /// The owning VM.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The pool's `<T, W>` policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Replaces the pool's policy (SET_CG_WEIGHT).
    pub fn set_policy(&mut self, policy: CachePolicy) {
        self.policy = policy;
    }

    /// Pages resident in the given store.
    pub fn used(&self, placement: Placement) -> u64 {
        match placement {
            Placement::Mem => self.used_mem,
            Placement::Ssd => self.used_ssd,
        }
    }

    /// Total resident pages.
    pub fn total_used(&self) -> u64 {
        self.used_mem + self.used_ssd
    }

    /// Whether the pool indexes no objects.
    pub fn is_empty(&self) -> bool {
        self.total_used() == 0
    }

    /// Looks up a slot without removing it.
    pub fn peek(&self, addr: BlockAddr) -> Option<&Slot> {
        let idx = *self.map.get(&addr)?;
        self.slots[idx as usize].as_ref().map(|e| &e.slot)
    }

    /// The slab handle currently indexing `addr`, if resident.
    pub fn lookup(&self, addr: BlockAddr) -> Option<SlotId> {
        self.map.get(&addr).map(|&i| SlotId(i))
    }

    /// Resolves a slab handle to its key and slot, if the entry is
    /// occupied.
    pub fn slot_by_id(&self, id: SlotId) -> Option<(BlockAddr, &Slot)> {
        self.slots
            .get(id.0 as usize)?
            .as_ref()
            .map(|e| (e.addr, &e.slot))
    }

    /// Lazy-deletion liveness probe for FIFO entries: resolves `id` and
    /// returns the slot's address iff the entry is occupied and still
    /// carries the queued sequence stamp and placement. A recycled or
    /// removed slot fails the probe.
    pub fn fifo_probe(&self, id: SlotId, seq: u64, placement: Placement) -> Option<BlockAddr> {
        probe(&self.slots, id, seq, placement)
    }

    /// Inserts an object, returning its slab handle and the placement of
    /// a displaced older copy of the same block (`None` if the key was
    /// new; a displaced copy keeps its `SlotId`). `seq` must be strictly
    /// increasing across all inserts into this pool.
    pub fn insert(
        &mut self,
        addr: BlockAddr,
        placement: Placement,
        version: PageVersion,
        seq: u64,
    ) -> (SlotId, Option<Placement>) {
        let slot = Slot {
            placement,
            version,
            seq,
            checksum: slot_checksum(addr, version),
        };
        let (idx, displaced) = match self.map.get(&addr) {
            // Overwrite in place: the old FIFO entries die by seq
            // mismatch, the id stays with the key.
            Some(&idx) => {
                let entry = self.slots[idx as usize]
                    .as_mut()
                    .expect("mapped slot is occupied");
                let old = entry.slot.placement;
                entry.slot = slot;
                self.debit(old);
                (idx, Some(old))
            }
            None => {
                let idx = self.free.pop().unwrap_or(self.slots.len() as u32);
                // The head map is probed once per new key; the old head
                // is the only other entry written.
                let file_next = self.file_heads.insert(addr.file, idx).unwrap_or(NIL);
                if file_next != NIL {
                    self.entry_mut(file_next).file_prev = idx;
                }
                let entry = Some(ArenaEntry {
                    addr,
                    slot,
                    file_prev: NIL,
                    file_next,
                });
                match self.slots.get_mut(idx as usize) {
                    Some(cell) => *cell = entry,
                    None => self.slots.push(entry),
                }
                self.map.insert(addr, idx);
                (idx, None)
            }
        };
        self.insert_count += 1;
        self.wear
            .record_write(idx as usize, placement == Placement::Ssd);
        if self.slot_birth.len() <= idx as usize {
            self.slot_birth.resize(idx as usize + 1, 0);
        }
        self.slot_birth[idx as usize] = self.insert_count;
        self.credit(placement);
        let live = self.used(placement);
        let fifo = match placement {
            Placement::Mem => &mut self.fifo_mem,
            Placement::Ssd => &mut self.fifo_ssd,
        };
        fifo.push_back((SlotId(idx), seq));
        // Every live slot has exactly one entry in its store's queue, so
        // the rest are dead.
        let len = fifo.len() as u64;
        if fifo_compaction_due(len, len - live) {
            let slots = &self.slots;
            fifo.retain(|&(id, seq)| probe(slots, id, seq, placement).is_some());
        }
        (SlotId(idx), displaced)
    }

    /// Removes an object by key (exclusive `get`, or `flush`). The FIFO
    /// entry is left behind, skipped lazily and dropped by the next
    /// compaction.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Slot> {
        let idx = self.map.remove(&addr)?;
        self.release(idx).map(|e| e.slot)
    }

    /// Removes an object by slab handle, returning its key and slot.
    /// The eviction path uses this: the FIFO hands back a live `SlotId`,
    /// so no extra map probe is needed beyond the key erase.
    pub fn remove_by_id(&mut self, id: SlotId) -> Option<(BlockAddr, Slot)> {
        let addr = self.slots.get(id.0 as usize)?.as_ref()?.addr;
        self.map.remove(&addr);
        self.release(id.0).map(|e| (e.addr, e.slot))
    }

    fn entry_mut(&mut self, idx: u32) -> &mut ArenaEntry {
        self.slots[idx as usize]
            .as_mut()
            .expect("chained slot is occupied")
    }

    /// Frees one slab entry, taking it off its file's chain, and
    /// recycles its index.
    fn release(&mut self, idx: u32) -> Option<ArenaEntry> {
        let entry = self.free_slot(idx)?;
        self.unlink_file(&entry);
        Some(entry)
    }

    /// Joins `entry`'s chain neighbours around it. The head map is
    /// written only when the head itself leaves.
    fn unlink_file(&mut self, entry: &ArenaEntry) {
        if entry.file_next != NIL {
            self.entry_mut(entry.file_next).file_prev = entry.file_prev;
        }
        if entry.file_prev != NIL {
            self.entry_mut(entry.file_prev).file_next = entry.file_next;
        } else if entry.file_next != NIL {
            self.file_heads.insert(entry.addr.file, entry.file_next);
        } else {
            self.file_heads.remove(&entry.addr.file);
        }
    }

    /// [`Self::release`] minus the chain repair, for callers that drop
    /// the entry's whole chain.
    fn free_slot(&mut self, idx: u32) -> Option<ArenaEntry> {
        let entry = self.slots[idx as usize].take()?;
        self.free.push(idx);
        self.debit(entry.slot.placement);
        Some(entry)
    }

    /// Removes and returns the oldest live object in the given store
    /// (FIFO eviction order), or `None` if the store side of the pool is
    /// empty.
    pub fn pop_oldest(&mut self, placement: Placement) -> Option<(BlockAddr, Slot)> {
        loop {
            let (id, seq) = match placement {
                Placement::Mem => self.fifo_mem.pop_front()?,
                Placement::Ssd => self.fifo_ssd.pop_front()?,
            };
            // Lazy deletion: the queue entry is live only if the slab
            // entry still carries the same sequence stamp.
            if self.fifo_probe(id, seq, placement).is_some() {
                return self.remove_by_id(id);
            }
        }
    }

    /// Removes every object of `file`, returning how many pages were freed
    /// from each store as `(mem, ssd)`. Costs O(blocks of `file`): only
    /// that file's chain is walked.
    ///
    /// Slots are released in **ascending slab index**, whatever order the
    /// chain holds them in: the free-list is a stack, so the release
    /// order decides which `SlotId` each later insert gets — and with it
    /// `slot_birth` and the per-slot wear ledger, which reports and
    /// journal replay must reproduce exactly.
    pub fn remove_file(&mut self, file: FileId) -> (u64, u64) {
        let mut chain = Vec::new();
        let mut idx = self.file_heads.remove(&file).unwrap_or(NIL);
        while idx != NIL {
            chain.push(idx);
            idx = self.slots[idx as usize]
                .as_ref()
                .expect("chained slot is occupied")
                .file_next;
        }
        chain.sort_unstable();
        let mut freed = (0, 0);
        for idx in chain {
            let entry = self.free_slot(idx).expect("chained slot is occupied");
            match entry.slot.placement {
                Placement::Mem => freed.0 += 1,
                Placement::Ssd => freed.1 += 1,
            }
            self.map.remove(&entry.addr);
        }
        freed
    }

    /// Drains every object held in one store, returning how many pages
    /// were freed (tier quarantine: a failed store's contents must be
    /// invalidated wholesale, never served again).
    pub fn drain_placement(&mut self, placement: Placement) -> u64 {
        let mut freed = 0;
        for idx in 0..self.slots.len() as u32 {
            let addr = match &self.slots[idx as usize] {
                Some(e) if e.slot.placement == placement => e.addr,
                _ => continue,
            };
            freed += 1;
            self.map.remove(&addr);
            self.release(idx);
        }
        match placement {
            Placement::Mem => self.fifo_mem.clear(),
            Placement::Ssd => self.fifo_ssd.clear(),
        }
        freed
    }

    /// Drains every object in the pool, returning per-store freed counts
    /// as `(mem, ssd)` (DESTROY_CGROUP). Resets the slab, so previously
    /// issued `SlotId`s are all dead afterwards.
    pub fn drain(&mut self) -> (u64, u64) {
        let freed = (self.used_mem, self.used_ssd);
        self.slots.clear();
        self.free.clear();
        self.map.clear();
        self.file_heads.clear();
        self.fifo_mem.clear();
        self.fifo_ssd.clear();
        self.set_used(Placement::Mem, 0);
        self.set_used(Placement::Ssd, 0);
        // Advisory admission state dies with the contents; the wear
        // ledger does NOT — wear is cumulative history, and the engine
        // retires it explicitly when the pool itself is destroyed.
        self.ghost.clear();
        self.insert_count = 0;
        self.slot_birth.clear();
        freed
    }

    /// Ghost admission of one mem→SSD spill: the first sighting of
    /// `addr` is remembered and rejected, a second within `window`
    /// admits. Counted in the pool's wear ledger either way.
    pub fn admit_spill(&mut self, addr: BlockAddr, window: u32) -> bool {
        self.wear.spill_attempts += 1;
        let admitted = self.ghost.admit(addr, window);
        if admitted {
            self.wear.spill_admits += 1;
        } else {
            self.wear.spill_rejects += 1;
        }
        admitted
    }

    /// Counts a local hit on an object that sat in `placement`. A hit on
    /// an SSD-resident block of a hybrid pool is proven reuse: with
    /// `rearm_ghost` (the admission plane filters spills) its ghost
    /// entry is re-armed, so the block's next spill readmits without a
    /// second probation pass.
    pub fn note_hit(&mut self, addr: BlockAddr, placement: Placement, rearm_ghost: bool) {
        self.counters.hits += 1;
        if rearm_ghost && placement == Placement::Ssd && self.policy.store == StoreKind::Hybrid {
            self.ghost.note(addr);
        }
    }

    /// The store a pool's GET_STATS entitlement is quoted in.
    pub fn primary_placement(&self) -> Placement {
        match self.policy.store {
            StoreKind::Mem | StoreKind::Hybrid => Placement::Mem,
            StoreKind::Ssd => Placement::Ssd,
        }
    }

    /// The pool's GET_STATS block, given its entitlement in its
    /// [primary store](Self::primary_placement).
    pub fn stats(&self, entitlement_pages: u64) -> PoolStats {
        PoolStats {
            mem_pages: self.used_mem,
            ssd_pages: self.used_ssd,
            entitlement_pages,
            gets: self.counters.gets,
            hits: self.counters.hits,
            puts: self.counters.puts,
            evictions: self.counters.evictions,
            failed_gets: self.counters.failed_gets,
            failed_puts: self.counters.failed_puts,
            ssd_writes: self.wear.pages_written,
        }
    }

    /// Inserts into this pool since creation (or since the last drain) —
    /// the TTL sweep's clock.
    pub fn insert_count(&self) -> u64 {
        self.insert_count
    }

    /// SSD-resident objects whose last write is more than `ttl` inserts
    /// in this pool's past, in slab order (deterministic across engines
    /// because the slab layout is a pure function of the pool's op
    /// history). `ttl == 0` matches nothing.
    pub fn stale_ssd_entries(&self, ttl: u64) -> Vec<BlockAddr> {
        if ttl == 0 {
            return Vec::new();
        }
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let e = e.as_ref()?;
                (e.slot.placement == Placement::Ssd
                    && self.insert_count.saturating_sub(self.slot_birth[i]) > ttl)
                    .then_some(e.addr)
            })
            .collect()
    }

    /// Corrupts the stored checksum of one resident object (chaos
    /// testing: models bit rot in the backing store). Returns `false`
    /// if the object is not resident.
    pub fn corrupt(&mut self, addr: BlockAddr) -> bool {
        let Some(&idx) = self.map.get(&addr) else {
            return false;
        };
        let entry = self.slots[idx as usize]
            .as_mut()
            .expect("mapped slot is occupied");
        entry.slot.checksum ^= 0xDEAD_BEEF;
        true
    }

    /// Takes `addr`'s entry off its file's chain while leaving it live:
    /// the damage the auditor's file-chain invariant exists to find.
    #[cfg(test)]
    pub(crate) fn orphan_from_file_chain(&mut self, addr: BlockAddr) {
        let idx = self.map[&addr];
        let entry = *self.entry_mut(idx);
        self.unlink_file(&entry);
        (self.entry_mut(idx).file_prev, self.entry_mut(idx).file_next) = (NIL, NIL);
    }

    /// Iterates one placement's FIFO queue entries `(id, seq)`,
    /// including dead (lazily deleted) entries — the invariant auditor
    /// checks queue↔slab coherence with this.
    pub fn fifo_entries(&self, placement: Placement) -> impl Iterator<Item = (SlotId, u64)> + '_ {
        match placement {
            Placement::Mem => self.fifo_mem.iter().copied(),
            Placement::Ssd => self.fifo_ssd.iter().copied(),
        }
    }

    /// Iterates over all resident objects (for migration and tests), in
    /// slab order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &Slot)> + '_ {
        self.slots
            .iter()
            .filter_map(|e| e.as_ref().map(|e| (e.addr, &e.slot)))
    }

    /// Iterates all occupied slab entries with their handles (the
    /// auditor's view of the live set).
    pub fn iter_ids(&self) -> impl Iterator<Item = (SlotId, BlockAddr, &Slot)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (SlotId(i as u32), e.addr, &e.slot)))
    }

    /// The head of every non-empty file chain, in no particular order
    /// (the auditor walks each with [`Self::file_links`]).
    pub(crate) fn file_heads(&self) -> impl Iterator<Item = (FileId, SlotId)> + '_ {
        self.file_heads.iter().map(|(&f, &i)| (f, SlotId(i)))
    }

    /// An occupied entry's `(previous, next)` neighbours on its file's
    /// chain.
    pub(crate) fn file_links(&self, id: SlotId) -> Option<(Option<SlotId>, Option<SlotId>)> {
        let entry = self.slots.get(id.0 as usize)?.as_ref()?;
        let link = |i: u32| (i != NIL).then_some(SlotId(i));
        Some((link(entry.file_prev), link(entry.file_next)))
    }

    /// Number of slab entries (occupied + free) — the arena's dense
    /// extent; every valid `SlotId` is below it.
    pub fn arena_len(&self) -> u32 {
        self.slots.len() as u32
    }

    /// The current free-list, in stack order (top last). The auditor
    /// checks it is duplicate-free and disjoint from the live set.
    pub fn free_ids(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.free.iter().map(|&i| SlotId(i))
    }

    fn credit(&mut self, placement: Placement) {
        match placement {
            Placement::Mem => self.used_mem += 1,
            Placement::Ssd => self.used_ssd += 1,
        }
        if let Some(m) = &self.mirror {
            m.cell(placement).fetch_add(1, Ordering::Relaxed);
        }
    }

    fn debit(&mut self, placement: Placement) {
        match placement {
            Placement::Mem => self.used_mem -= 1,
            Placement::Ssd => self.used_ssd -= 1,
        }
        if let Some(m) = &self.mirror {
            m.cell(placement).fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn set_used(&mut self, placement: Placement, pages: u64) {
        match placement {
            Placement::Mem => self.used_mem = pages,
            Placement::Ssd => self.used_ssd = pages,
        }
        if let Some(m) = &self.mirror {
            m.cell(placement).store(pages, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_cleancache::PoolId;

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr::new(FileId(f), b)
    }

    fn pool() -> Pool {
        Pool::new(VmId(0), CachePolicy::mem(100))
    }

    #[test]
    fn insert_and_remove_roundtrip() {
        let mut p = pool();
        assert!(p.is_empty());
        p.insert(addr(1, 0), Placement::Mem, PageVersion(3), 1);
        assert_eq!(p.used(Placement::Mem), 1);
        let slot = p.remove(addr(1, 0)).unwrap();
        assert_eq!(slot.version, PageVersion(3));
        assert_eq!(slot.placement, Placement::Mem);
        assert!(p.is_empty());
        assert_eq!(p.remove(addr(1, 0)), None);
    }

    #[test]
    fn overwrite_displaces_old_copy() {
        let mut p = pool();
        let (id1, displaced) = p.insert(addr(1, 0), Placement::Mem, PageVersion(1), 1);
        assert_eq!(displaced, None);
        // Re-put of the same key in a different store displaces the old
        // copy and keeps the slab handle with the key.
        let (id2, displaced) = p.insert(addr(1, 0), Placement::Ssd, PageVersion(2), 2);
        assert_eq!(displaced, Some(Placement::Mem));
        assert_eq!(id1, id2, "overwrite reuses the key's slot");
        assert_eq!(p.used(Placement::Mem), 0);
        assert_eq!(p.used(Placement::Ssd), 1);
        assert_eq!(p.peek(addr(1, 0)).unwrap().version, PageVersion(2));
    }

    #[test]
    fn fifo_order_is_insertion_order() {
        let mut p = pool();
        for b in 0..5 {
            p.insert(addr(1, b), Placement::Mem, PageVersion(0), b);
        }
        let (a, _) = p.pop_oldest(Placement::Mem).unwrap();
        assert_eq!(a, addr(1, 0));
        let (a, _) = p.pop_oldest(Placement::Mem).unwrap();
        assert_eq!(a, addr(1, 1));
    }

    #[test]
    fn reinsert_moves_to_fifo_tail() {
        // Exclusive-cache LRU equivalence: a block that is got and re-put
        // becomes youngest again.
        let mut p = pool();
        p.insert(addr(1, 0), Placement::Mem, PageVersion(0), 1);
        p.insert(addr(1, 1), Placement::Mem, PageVersion(0), 2);
        // "get" block 0 and re-put it with a newer seq.
        p.remove(addr(1, 0)).unwrap();
        p.insert(addr(1, 0), Placement::Mem, PageVersion(0), 3);
        let (a, _) = p.pop_oldest(Placement::Mem).unwrap();
        assert_eq!(a, addr(1, 1), "block 1 is now the oldest");
        let (a, _) = p.pop_oldest(Placement::Mem).unwrap();
        assert_eq!(a, addr(1, 0));
    }

    #[test]
    fn pop_oldest_skips_stale_entries() {
        let mut p = pool();
        p.insert(addr(1, 0), Placement::Mem, PageVersion(0), 1);
        p.insert(addr(1, 1), Placement::Mem, PageVersion(0), 2);
        p.remove(addr(1, 0)).unwrap(); // leaves stale FIFO entry
        let (a, _) = p.pop_oldest(Placement::Mem).unwrap();
        assert_eq!(a, addr(1, 1));
        assert_eq!(p.pop_oldest(Placement::Mem), None);
    }

    #[test]
    fn pop_oldest_respects_placement() {
        let mut p = pool();
        p.insert(addr(1, 0), Placement::Ssd, PageVersion(0), 1);
        p.insert(addr(1, 1), Placement::Mem, PageVersion(0), 2);
        assert_eq!(p.pop_oldest(Placement::Mem).unwrap().0, addr(1, 1));
        assert_eq!(p.pop_oldest(Placement::Mem), None);
        assert_eq!(p.pop_oldest(Placement::Ssd).unwrap().0, addr(1, 0));
    }

    #[test]
    fn remove_file_frees_all_blocks() {
        let mut p = pool();
        for b in 0..4 {
            p.insert(addr(1, b), Placement::Mem, PageVersion(0), b);
        }
        p.insert(addr(1, 4), Placement::Ssd, PageVersion(0), 4);
        p.insert(addr(2, 0), Placement::Mem, PageVersion(0), 5);
        let (mem, ssd) = p.remove_file(FileId(1));
        assert_eq!((mem, ssd), (4, 1));
        assert_eq!(p.total_used(), 1);
        assert_eq!(p.remove_file(FileId(99)), (0, 0));
    }

    fn chain_of(p: &Pool, file: u64) -> Vec<BlockAddr> {
        let head = p.file_heads().find(|(f, _)| *f == FileId(file));
        let mut at = head.map(|(_, id)| id);
        let mut out = Vec::new();
        while let Some(id) = at {
            out.push(p.slot_by_id(id).unwrap().0);
            at = p.file_links(id).unwrap().1;
        }
        out
    }

    #[test]
    fn file_chain_follows_inserts_overwrites_and_removals() {
        let mut p = pool();
        for b in 0..4 {
            p.insert(addr(1, b), Placement::Mem, PageVersion(0), b);
        }
        p.insert(addr(2, 0), Placement::Ssd, PageVersion(0), 4);
        // New keys join at the head; an overwrite keeps its place.
        p.insert(addr(1, 1), Placement::Ssd, PageVersion(1), 5);
        assert_eq!(
            chain_of(&p, 1),
            vec![addr(1, 3), addr(1, 2), addr(1, 1), addr(1, 0)]
        );
        p.remove(addr(1, 2)); // middle
        p.remove(addr(1, 3)); // head: the map now names the next entry
        assert_eq!(chain_of(&p, 1), vec![addr(1, 1), addr(1, 0)]);
        p.pop_oldest(Placement::Mem); // addr(1, 0), the tail
        assert_eq!(chain_of(&p, 1), vec![addr(1, 1)]);
        p.drain_placement(Placement::Ssd);
        assert_eq!(p.file_heads().count(), 0, "empty chains leave the map");
        p.insert(addr(1, 9), Placement::Mem, PageVersion(0), 6);
        p.drain();
        assert_eq!(p.file_heads().count(), 0);
    }

    #[test]
    fn remove_file_releases_in_ascending_slab_order() {
        let mut p = pool();
        // Slab order 0..6 alternates files; the chain of file 1 runs
        // newest-first, i.e. in *descending* slab order.
        for b in 0..6 {
            p.insert(addr(1 + b % 2, b), Placement::Mem, PageVersion(0), b);
        }
        p.remove_file(FileId(1));
        assert_eq!(
            p.free_ids().collect::<Vec<_>>(),
            vec![SlotId(0), SlotId(2), SlotId(4)]
        );
        // The stack hands the highest index back first.
        let (id, _) = p.insert(addr(3, 0), Placement::Mem, PageVersion(0), 6);
        assert_eq!(id, SlotId(4));
        assert_eq!(chain_of(&p, 2).len(), 3);
    }

    #[test]
    fn drain_empties_everything() {
        let mut p = pool();
        p.insert(addr(1, 0), Placement::Mem, PageVersion(0), 1);
        p.insert(addr(2, 0), Placement::Ssd, PageVersion(0), 2);
        let freed = p.drain();
        assert_eq!(freed, (1, 1));
        assert!(p.is_empty());
        assert_eq!(p.pop_oldest(Placement::Mem), None);
    }

    #[test]
    fn iter_visits_all_objects() {
        let mut p = pool();
        p.insert(addr(1, 0), Placement::Mem, PageVersion(0), 1);
        p.insert(addr(1, 7), Placement::Mem, PageVersion(0), 2);
        p.insert(addr(3, 2), Placement::Ssd, PageVersion(0), 3);
        let mut keys: Vec<BlockAddr> = p.iter().map(|(a, _)| a).collect();
        keys.sort();
        assert_eq!(keys, vec![addr(1, 0), addr(1, 7), addr(3, 2)]);
    }

    #[test]
    fn free_list_recycles_slots_with_fresh_seqs() {
        let mut p = pool();
        let (id0, _) = p.insert(addr(1, 0), Placement::Mem, PageVersion(0), 1);
        p.remove(addr(1, 0)).unwrap();
        assert_eq!(p.free_ids().collect::<Vec<_>>(), vec![id0]);
        // Reuse: the freed index comes back with a new seq, so the old
        // (id, seq) pair held by the FIFO is detectably dead.
        let (id1, _) = p.insert(addr(2, 0), Placement::Mem, PageVersion(0), 2);
        assert_eq!(id0, id1);
        assert_eq!(p.free_ids().count(), 0);
        assert_eq!(p.fifo_probe(id0, 1, Placement::Mem), None, "stale pair");
        assert_eq!(p.fifo_probe(id1, 2, Placement::Mem), Some(addr(2, 0)));
        // The arena stayed dense: one slab entry total.
        assert_eq!(p.arena_len(), 1);
    }

    #[test]
    fn slot_by_id_and_lookup_agree() {
        let mut p = pool();
        let (id, _) = p.insert(addr(3, 9), Placement::Ssd, PageVersion(4), 7);
        assert_eq!(p.lookup(addr(3, 9)), Some(id));
        let (a, s) = p.slot_by_id(id).unwrap();
        assert_eq!(a, addr(3, 9));
        assert_eq!(s.version, PageVersion(4));
        let (a2, s2) = p.remove_by_id(id).unwrap();
        assert_eq!((a2, s2.version), (addr(3, 9), PageVersion(4)));
        assert_eq!(p.slot_by_id(id), None);
        assert_eq!(p.lookup(addr(3, 9)), None);
    }

    #[test]
    fn usage_mirror_tracks_accounting() {
        let mut p = pool();
        let mirror = Arc::new(UsageMirror::default());
        p.set_mirror(Arc::clone(&mirror));
        p.insert(addr(1, 0), Placement::Mem, PageVersion(0), 1);
        p.insert(addr(1, 1), Placement::Ssd, PageVersion(0), 2);
        assert_eq!(mirror.pages(Placement::Mem), 1);
        assert_eq!(mirror.pages(Placement::Ssd), 1);
        p.remove(addr(1, 0));
        assert_eq!(mirror.pages(Placement::Mem), 0);
        p.drain();
        assert_eq!(mirror.pages(Placement::Ssd), 0);
        // Attaching to a non-empty pool seeds the mirror.
        let mut q = pool();
        q.insert(addr(2, 0), Placement::Mem, PageVersion(0), 1);
        let m2 = Arc::new(UsageMirror::default());
        q.set_mirror(Arc::clone(&m2));
        assert_eq!(m2.pages(Placement::Mem), 1);
    }

    #[test]
    fn insert_charges_the_wear_ledger() {
        let mut p = pool();
        p.insert(addr(1, 0), Placement::Mem, PageVersion(0), 1);
        p.insert(addr(1, 1), Placement::Ssd, PageVersion(0), 2);
        p.insert(addr(1, 1), Placement::Ssd, PageVersion(1), 3); // overwrite rewrites the cell
        assert_eq!(p.wear.pages_admitted, 3);
        assert_eq!(p.wear.pages_written, 2);
        assert_eq!(
            p.wear.pages_written,
            p.wear
                .slot_writes
                .iter()
                .map(|&c| u64::from(c))
                .sum::<u64>()
        );
        // Drain keeps the cumulative ledger but resets the TTL clock.
        p.drain();
        assert_eq!(p.wear.pages_written, 2);
        assert_eq!(p.insert_count(), 0);
    }

    #[test]
    fn stale_ssd_entries_age_by_insert_distance() {
        let mut p = pool();
        p.insert(addr(1, 0), Placement::Ssd, PageVersion(0), 1);
        p.insert(addr(1, 1), Placement::Mem, PageVersion(0), 2);
        assert_eq!(p.stale_ssd_entries(0), vec![], "ttl 0 is off");
        assert_eq!(p.stale_ssd_entries(5), vec![], "not old enough yet");
        for b in 2..8 {
            p.insert(addr(1, b), Placement::Mem, PageVersion(0), b);
        }
        // addr(1,0) was insert #1; with 8 inserts total its age is 7.
        assert_eq!(p.stale_ssd_entries(5), vec![addr(1, 0)]);
        assert_eq!(p.stale_ssd_entries(7), vec![], "age must exceed ttl");
        // Mem entries never match, however old.
        assert!(!p.stale_ssd_entries(1).contains(&addr(1, 1)));
    }

    #[test]
    fn policy_update() {
        let mut p = pool();
        assert_eq!(p.policy(), CachePolicy::mem(100));
        p.set_policy(CachePolicy::ssd(40));
        assert_eq!(p.policy(), CachePolicy::ssd(40));
        assert_eq!(p.vm(), VmId(0));
        // PoolId is unrelated to the index but confirm the type exists for
        // the public API surface.
        let _ = PoolId(0);
    }

    /// Seeded randomized schedules (in-tree replacement for proptest,
    /// which is unavailable offline): deterministic, broad coverage.
    mod randomized {
        use super::*;
        use ddc_sim::SimRng;

        /// Accounting invariant: `used(placement)` always equals the
        /// number of live objects with that placement, under any
        /// operation sequence — and the free-list stays disjoint from
        /// the live set.
        #[test]
        fn usage_accounting_matches_index() {
            let mut rng = SimRng::new(0xA11C0);
            for case in 0..200 {
                let mut case_rng = rng.fork(case);
                let mut p = Pool::new(VmId(0), CachePolicy::mem(100));
                let mut seq = 0u64;
                for _ in 0..case_rng.range_u64(0, 200) {
                    let f = case_rng.range_u64(0, 4);
                    let b = case_rng.range_u64(0, 16);
                    match case_rng.range_u64(0, 4) {
                        0 => {
                            seq += 1;
                            let placement = if case_rng.chance(0.5) {
                                Placement::Mem
                            } else {
                                Placement::Ssd
                            };
                            p.insert(addr(f, b), placement, PageVersion(seq), seq);
                        }
                        1 => {
                            p.remove(addr(f, b));
                        }
                        2 => {
                            p.pop_oldest(Placement::Mem);
                        }
                        _ => {
                            p.pop_oldest(Placement::Ssd);
                        }
                    }
                    let mem_live = p
                        .iter()
                        .filter(|(_, s)| s.placement == Placement::Mem)
                        .count() as u64;
                    let ssd_live = p
                        .iter()
                        .filter(|(_, s)| s.placement == Placement::Ssd)
                        .count() as u64;
                    assert_eq!(p.used(Placement::Mem), mem_live);
                    assert_eq!(p.used(Placement::Ssd), ssd_live);
                    assert_eq!(p.total_used(), mem_live + ssd_live);
                    let live: std::collections::BTreeSet<SlotId> =
                        p.iter_ids().map(|(id, _, _)| id).collect();
                    let free: Vec<SlotId> = p.free_ids().collect();
                    assert!(free.iter().all(|id| !live.contains(id)));
                    assert_eq!(live.len() + free.len(), p.arena_len() as usize);
                }
            }
        }

        /// `pop_oldest` never returns an object that was removed, and
        /// always returns objects in strictly increasing seq order.
        #[test]
        fn pop_order_is_monotone() {
            let mut rng = SimRng::new(0xA11C1);
            for case in 0..200 {
                let mut case_rng = rng.fork(case);
                let mut p = Pool::new(VmId(0), CachePolicy::mem(100));
                for i in 0..case_rng.range_u64(1, 50) {
                    let f = case_rng.range_u64(0, 4);
                    let b = case_rng.range_u64(0, 16);
                    p.insert(addr(f, b), Placement::Mem, PageVersion(0), i);
                }
                let mut last_seq = None;
                while let Some((_, slot)) = p.pop_oldest(Placement::Mem) {
                    if let Some(prev) = last_seq {
                        assert!(slot.seq > prev);
                    }
                    last_seq = Some(slot.seq);
                }
                assert!(p.is_empty());
            }
        }
    }
}
