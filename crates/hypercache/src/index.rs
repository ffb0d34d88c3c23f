//! The indexing module: maps `(pool, inode, block)` keys to storage slots.
//!
//! The paper (§4.2) uses "a hierarchy of indexing data structures — a
//! per-pool file object (inode-num) hash table, file block radix-tree
//! etc.". [`Pool`] flattens that hierarchy into a slab arena: slots live
//! in one dense `Vec` with a free-list, addressed by [`SlotId`], and
//! each slab entry holds its own key. What the paper's per-file level
//! buys — a `flush_file` that costs O(blocks of that file) — is kept by
//! an intrusive doubly-linked chain per file threaded through the slab
//! entries, headed by a `FileId -> SlotId` map: [`Pool::remove_file`]
//! walks one chain instead of the slab. The upkeep is one head-map probe
//! per *new* key (an overwrite keeps its links) and two neighbour writes
//! per removal; the head map is written on removal only when the head
//! itself leaves.
//!
//! The lookup path finds a key *through the slab*: an open-addressed
//! table of 8-byte buckets, each a slab index and a 32-bit tag of the
//! entry's key, so no key is stored twice. The tag is the high half of
//! the key's FxHash, the seed-free hash the address map used (block
//! addresses are internal, so it has no flooding exposure to guard
//! against), and it picks the key's home bucket; probing is linear, and
//! the table grows (doubling, rehashed from the stored tags, no slab
//! read) before it is ¾ full, so a miss expects (1 + 1/(1 − α)²)/2 ≤ 8.5
//! probes, about one cache line. A lookup reads an entry's key only
//! after its tag matched, and a new key takes the empty bucket its
//! lookup ended on. A bucket is
//! removed by `(tag, slab index)` without reading the slab, and the
//! cluster behind it shifts back (no tombstones), so no bucket outlives
//! its entry.
//!
//! The paper's FIFO eviction order — "LRU equivalent for exclusive
//! caches" (§4.2) — is one queue per store, threaded through the slab
//! the same way: each entry carries its neighbours on its store's chain,
//! and the pool keeps each chain's oldest and youngest entry. An insert
//! appends, an overwrite moves the entry to the young end of its new
//! store's chain, every removal unlinks it (two neighbour writes), and
//! [`Pool::pop_oldest`] takes the oldest end. A queue therefore holds
//! exactly its store's live pages, in stamp order, and costs no
//! allocation of its own.
//!
//! The slab and the vectors parallel to it (birth stamps, the wear
//! ledger's per-slot writes) double only up to 2,048 cells and then grow
//! by an eighth of what they hold: [`Pool::heap_bytes`] counts capacity,
//! and a doubled slab carries up to as many empty cells as live ones.
//!
//! # `SlotId` stability
//!
//! A `SlotId` is stable for the lifetime of the slot it names: queue
//! churn only rewrites links, it never moves slab entries. The id is
//! recycled through the free-list only after the slot is removed, so a
//! `SlotId` read off a chain names a live slot until that slot is
//! removed. Ids are *not* stable across crash recovery: the journal
//! speaks `BlockAddr`, and replay reassigns ids in replay order.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ddc_cleancache::{CachePolicy, PageVersion, PoolStats, StoreKind, VmId};
use ddc_sim::{FxHashMap, FxHasher};
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
    /// Both stores, in [`Self::idx`] order.
    pub const ALL: [Placement; 2] = [Placement::Mem, Placement::Ssd];

    /// The store's name in audit findings and reports.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Mem => "mem",
            Placement::Ssd => "ssd",
        }
    }

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
/// for the stability rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u32);

/// One indexed object: its placement, the guest version stamp it carried,
/// and its FIFO sequence number (its place in eviction order).
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

/// One pool's resident pages per store, `[mem, ssd]`: the one copy of
/// its usage, owned by the pool and shared with its registry row, so the
/// share tables and the victim walk read it without the pool. Only the
/// holder of `&mut Pool` writes it, with a plain load and store.
#[derive(Debug, Default)]
pub struct Usage([AtomicU64; 2]);

impl Usage {
    /// Pages the pool holds in the given store (exact to a holder of the
    /// pool; a snapshot to anyone else).
    pub fn pages(&self, placement: Placement) -> u64 {
        self.0[placement.idx()].load(Ordering::Relaxed)
    }
}

/// A pool's own [`Usage`] cell: a cloned pool counts its own pages.
#[derive(Debug)]
struct OwnUsage(Arc<Usage>);

impl Clone for OwnUsage {
    fn clone(&self) -> OwnUsage {
        let pages = Placement::ALL.map(|p| AtomicU64::new(self.0.pages(p)));
        OwnUsage(Arc::new(Usage(pages)))
    }
}

/// One occupied slab entry: the key it indexes plus the slot itself.
/// The address is stored inline so eviction (which arrives by `SlotId`
/// off a queue) can resolve the key without a reverse map.
#[derive(Clone, Copy, Debug)]
struct ArenaEntry {
    addr: BlockAddr,
    slot: Slot,
    /// Neighbours on the chain of `addr.file`'s entries ([`NIL`] at
    /// either end). New keys join at the head.
    file_prev: u32,
    file_next: u32,
    /// Neighbours on the eviction queue of the slot's store: the next
    /// older and the next younger entry ([`NIL`] at either end).
    fifo_prev: u32,
    fifo_next: u32,
}

/// Heap bytes of a vector or a ring buffer with room for `capacity` `T`s.
pub(crate) fn vec_bytes<T>(capacity: usize) -> usize {
    capacity * std::mem::size_of::<T>()
}

/// Heap bytes of a hash map with room for `capacity` `(K, V)` entries:
/// each entry plus its one control byte.
pub(crate) fn map_bytes<K, V>(capacity: usize) -> usize {
    capacity * (std::mem::size_of::<(K, V)>() + 1)
}

/// "No neighbour" slab index on a file chain or a queue. It lies past
/// every slab, so `slots.get(NIL)` is `None`.
const NIL: u32 = u32::MAX;

/// The 32-bit tag of a key: the high half of its [`FxHasher`] hash,
/// where that multiplicative hash mixes best. Its high bits pick the
/// key's home bucket in a [`SlotTable`] of any size.
#[inline]
fn tag_of(addr: BlockAddr) -> u32 {
    let mut h = FxHasher::default();
    addr.hash(&mut h);
    (h.finish() >> 32) as u32
}

/// One bucket of a [`SlotTable`]: a slab index ([`NIL`]: empty) and the
/// tag of the key the slab entry holds.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    idx: u32,
    tag: u32,
}

const EMPTY: Bucket = Bucket { idx: NIL, tag: 0 };

/// The lookup table of one pool (see the module docs): linear probing
/// over a power-of-two run of [`Bucket`]s, at most ¾ full.
#[derive(Clone, Debug, Default)]
struct SlotTable {
    /// Empty until the first insert, then a power of two long.
    buckets: Vec<Bucket>,
    /// Occupied buckets.
    len: usize,
}

impl SlotTable {
    /// The bucket count of a table's first allocation.
    const MIN_BUCKETS: usize = 8;

    /// The home bucket of `tag`: its high bits, as many as the table
    /// has bucket-index bits.
    #[inline]
    fn home(&self, tag: u32) -> usize {
        ((u64::from(tag) * self.buckets.len() as u64) >> 32) as usize
    }

    /// Probes from `tag`'s home: `Ok` with the position of the bucket
    /// carrying `tag` whose slab index `is` accepts, or `Err` with the
    /// first empty bucket, where that key would go (`Err(0)` in a table
    /// with no buckets yet).
    #[inline]
    fn probe(&self, tag: u32, is: impl Fn(u32) -> bool) -> Result<usize, usize> {
        let Some(mask) = self.buckets.len().checked_sub(1) else {
            return Err(0);
        };
        let mut at = self.home(tag);
        loop {
            let bucket = self.buckets[at];
            if bucket.idx == NIL {
                return Err(at);
            }
            if bucket.tag == tag && is(bucket.idx) {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// Adds slab index `idx` under `tag` in `vacant`, the empty bucket
    /// a probe for its key ended on; if the bucket would fill the table
    /// past ¾, the table doubles first and the bucket goes where its
    /// home now leads.
    #[inline]
    fn insert_at(&mut self, vacant: usize, tag: u32, idx: u32) {
        let bucket = Bucket { idx, tag };
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
            self.place(bucket);
        } else {
            self.buckets[vacant] = bucket;
        }
        self.len += 1;
    }

    /// Puts `bucket` in the first empty bucket from its home on.
    #[inline]
    fn place(&mut self, bucket: Bucket) {
        let mask = self.buckets.len() - 1;
        let mut at = self.home(bucket.tag);
        while self.buckets[at].idx != NIL {
            at = (at + 1) & mask;
        }
        self.buckets[at] = bucket;
    }

    /// Doubles the table, rehashing every bucket from its stored tag.
    fn grow(&mut self) {
        let size = (self.buckets.len() * 2).max(Self::MIN_BUCKETS);
        for bucket in std::mem::replace(&mut self.buckets, vec![EMPTY; size]) {
            if bucket.idx != NIL {
                self.place(bucket);
            }
        }
    }

    /// Empties the bucket at `hole`, shifting each later bucket of its
    /// cluster back into the hole when the hole lies on its probe path.
    #[inline]
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.buckets.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let bucket = self.buckets[at];
            if bucket.idx == NIL {
                break;
            }
            // Its probe path runs from its home to `at`: the hole lies
            // on it unless the home lies between the hole and `at`.
            let from_home = at.wrapping_sub(self.home(bucket.tag)) & mask;
            if from_home >= at.wrapping_sub(hole) & mask {
                self.buckets[hole] = bucket;
                hole = at;
            }
        }
        self.buckets[hole] = EMPTY;
        self.len -= 1;
    }

    /// Removes slab index `idx`, filed under `tag`.
    #[inline]
    fn remove(&mut self, tag: u32, idx: u32) {
        let at = self
            .probe(tag, |i| i == idx)
            .expect("a live entry has a bucket");
        self.remove_at(at);
    }

    /// Empties every bucket, keeping the allocation.
    fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.len = 0;
    }

    /// Heap bytes of the buckets.
    fn heap_bytes(&self) -> usize {
        vec_bytes::<Bucket>(self.buckets.capacity())
    }
}

/// Makes room for `len` elements in the slab or a vector parallel to
/// it: doubling up to 2,048 elements, then growing by an eighth of what
/// it holds. Small vectors sit in the allocator's heap, where each
/// growth copies the vector and leaves its old block behind, so they
/// double to copy rarely.
#[inline]
fn reserve_slim<T>(v: &mut Vec<T>, len: usize) {
    if v.capacity() < len {
        let step = if v.len() < 2048 {
            v.len().max(4)
        } else {
            v.len() / 8
        };
        let target = len.max(v.len() + step);
        v.reserve_exact(target - v.len());
    }
}

/// The index for one container's cache pool: a slab arena of slots plus
/// the lookup table and eviction queues (see the module docs).
#[derive(Clone, Debug)]
pub struct Pool {
    vm: VmId,
    policy: CachePolicy,
    /// The slab: `None` entries are free and their indexes sit on
    /// `free`. Never shrinks except when the pool is drained.
    slots: Vec<Option<ArenaEntry>>,
    /// Free-list stack of slab indexes available for reuse.
    free: Vec<u32>,
    /// The lookup path: block address → slab index, through the slab.
    table: SlotTable,
    /// Head of each resident file's chain (no entry for an empty chain).
    file_heads: FxHashMap<FileId, u32>,
    /// Each store's eviction queue, `[mem, ssd]`: its oldest and its
    /// youngest entry ([`NIL`] both when it is empty).
    oldest: [u32; 2],
    youngest: [u32; 2],
    usage: OwnUsage,
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
    /// write (parallel to the slab, one entry per cell, like
    /// `PoolWear::slot_writes` up to the last cell written to the SSD).
    slot_birth: Vec<u64>,
}

impl Pool {
    /// Creates an empty pool owned by `vm` with the given policy.
    pub fn new(vm: VmId, policy: CachePolicy) -> Pool {
        Pool::on(vm, policy, Arc::default())
    }

    /// [`Self::new`], counting its pages in `usage` (its registry row's
    /// cell, which must read zero).
    pub fn on(vm: VmId, policy: CachePolicy, usage: Arc<Usage>) -> Pool {
        Pool {
            vm,
            policy,
            slots: Vec::new(),
            free: Vec::new(),
            table: SlotTable::default(),
            file_heads: FxHashMap::default(),
            oldest: [NIL; 2],
            youngest: [NIL; 2],
            usage: OwnUsage(usage),
            counters: PoolCounters::default(),
            wear: PoolWear::default(),
            ghost: GhostFilter::default(),
            insert_count: 0,
            slot_birth: Vec::new(),
        }
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
    #[inline]
    pub fn used(&self, placement: Placement) -> u64 {
        self.usage.0.pages(placement)
    }

    /// The cell the pool counts its pages in.
    pub fn usage(&self) -> &Arc<Usage> {
        &self.usage.0
    }

    /// Total resident pages.
    pub fn total_used(&self) -> u64 {
        self.used(Placement::Mem) + self.used(Placement::Ssd)
    }

    /// Whether the pool indexes no objects.
    pub fn is_empty(&self) -> bool {
        self.total_used() == 0
    }

    /// [`SlotTable::probe`] for `addr`, given its tag: a tag match is
    /// confirmed against the key in the slab.
    #[inline]
    fn probe(&self, addr: BlockAddr, tag: u32) -> Result<usize, usize> {
        let slots = &self.slots;
        self.table.probe(tag, |i| {
            slots[i as usize].as_ref().is_some_and(|e| e.addr == addr)
        })
    }

    /// The slab index indexing `addr`, if resident.
    #[inline]
    fn index_of(&self, addr: BlockAddr) -> Option<u32> {
        let at = self.probe(addr, tag_of(addr)).ok()?;
        Some(self.table.buckets[at].idx)
    }

    /// Looks up a slot without removing it.
    pub fn peek(&self, addr: BlockAddr) -> Option<&Slot> {
        let idx = self.index_of(addr)?;
        self.slots[idx as usize].as_ref().map(|e| &e.slot)
    }

    /// The slab handle currently indexing `addr`, if resident.
    pub fn lookup(&self, addr: BlockAddr) -> Option<SlotId> {
        self.index_of(addr).map(SlotId)
    }

    /// Resolves a slab handle to its key and slot, if the entry is
    /// occupied.
    pub fn slot_by_id(&self, id: SlotId) -> Option<(BlockAddr, &Slot)> {
        self.slots
            .get(id.0 as usize)?
            .as_ref()
            .map(|e| (e.addr, &e.slot))
    }

    /// Inserts an object, returning its slab handle and the placement of
    /// a displaced older copy of the same block (`None` if the key was
    /// new; a displaced copy keeps its `SlotId`). `seq` must be strictly
    /// increasing across all inserts into this pool.
    #[inline]
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
        let tag = tag_of(addr);
        let (idx, displaced) = match self.probe(addr, tag) {
            // Overwrite in place: the id stays with the key, the entry
            // leaves its old store's queue for the young end of its new
            // one.
            Ok(at) => {
                let idx = self.table.buckets[at].idx;
                let entry = *self.entry_mut(idx);
                self.unlink_fifo(&entry);
                self.entry_mut(idx).slot = slot;
                self.debit(entry.slot.placement);
                (idx, Some(entry.slot.placement))
            }
            Err(vacant) => {
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
                    fifo_prev: NIL,
                    fifo_next: NIL,
                });
                match self.slots.get_mut(idx as usize) {
                    Some(cell) => *cell = entry,
                    None => {
                        reserve_slim(&mut self.slots, idx as usize + 1);
                        reserve_slim(&mut self.slot_birth, idx as usize + 1);
                        self.slots.push(entry);
                        self.slot_birth.push(0);
                    }
                }
                self.table.insert_at(vacant, tag, idx);
                (idx, None)
            }
        };
        self.insert_count += 1;
        let ssd = placement == Placement::Ssd;
        if ssd {
            // The ledger's resize then stays inside this capacity.
            reserve_slim(&mut self.wear.slot_writes, idx as usize + 1);
        }
        self.wear.record_write(idx as usize, ssd);
        self.slot_birth[idx as usize] = self.insert_count;
        self.credit(placement);
        self.append_fifo(idx, placement);
        (SlotId(idx), displaced)
    }

    /// Removes an object by key (exclusive `get`, or `flush`).
    #[inline]
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Slot> {
        let at = self.probe(addr, tag_of(addr)).ok()?;
        let idx = self.table.buckets[at].idx;
        self.table.remove_at(at);
        self.release(idx).map(|e| e.slot)
    }

    /// Removes an object by slab handle, returning its key and slot.
    /// The eviction path uses this: a queue hands back a live `SlotId`,
    /// whose bucket is found by tag and index without another slab read.
    #[inline]
    pub fn remove_by_id(&mut self, id: SlotId) -> Option<(BlockAddr, Slot)> {
        let addr = self.slots.get(id.0 as usize)?.as_ref()?.addr;
        self.table.remove(tag_of(addr), id.0);
        self.release(id.0).map(|e| (e.addr, e.slot))
    }

    #[inline]
    fn entry_mut(&mut self, idx: u32) -> &mut ArenaEntry {
        self.slots[idx as usize]
            .as_mut()
            .expect("chained slot is occupied")
    }

    /// Frees one slab entry, taking it off its file's chain, and
    /// recycles its index.
    #[inline]
    fn release(&mut self, idx: u32) -> Option<ArenaEntry> {
        let entry = self.free_slot(idx)?;
        self.unlink_file(&entry);
        Some(entry)
    }

    /// Joins `entry`'s chain neighbours around it. The head map is
    /// written only when the head itself leaves.
    #[inline]
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

    /// Puts the occupied entry `idx` at the young end of `placement`'s
    /// queue.
    #[inline]
    fn append_fifo(&mut self, idx: u32, placement: Placement) {
        let i = placement.idx();
        let older = std::mem::replace(&mut self.youngest[i], idx);
        if older == NIL {
            self.oldest[i] = idx;
        } else {
            self.entry_mut(older).fifo_next = idx;
        }
        let entry = self.entry_mut(idx);
        (entry.fifo_prev, entry.fifo_next) = (older, NIL);
    }

    /// Joins `entry`'s queue neighbours around it (or moves the queue's
    /// ends past it).
    #[inline]
    fn unlink_fifo(&mut self, entry: &ArenaEntry) {
        let i = entry.slot.placement.idx();
        match entry.fifo_prev {
            NIL => self.oldest[i] = entry.fifo_next,
            prev => self.entry_mut(prev).fifo_next = entry.fifo_next,
        }
        match entry.fifo_next {
            NIL => self.youngest[i] = entry.fifo_prev,
            next => self.entry_mut(next).fifo_prev = entry.fifo_prev,
        }
    }

    /// [`Self::release`] minus the file chain's repair, for callers that
    /// drop the entry's whole file chain: the entry still leaves its
    /// store's queue.
    #[inline]
    fn free_slot(&mut self, idx: u32) -> Option<ArenaEntry> {
        let entry = self.slots[idx as usize].take()?;
        self.free.push(idx);
        self.debit(entry.slot.placement);
        self.unlink_fifo(&entry);
        Some(entry)
    }

    /// Removes and returns the oldest object in the given store (FIFO
    /// eviction order), or `None` if the store side of the pool is
    /// empty.
    #[inline]
    pub fn pop_oldest(&mut self, placement: Placement) -> Option<(BlockAddr, Slot)> {
        match self.oldest[placement.idx()] {
            NIL => None,
            oldest => self.remove_by_id(SlotId(oldest)),
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
            self.table.remove(tag_of(entry.addr), idx);
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
            self.table.remove(tag_of(addr), idx);
            self.release(idx);
        }
        freed
    }

    /// Drains every object in the pool, returning per-store freed counts
    /// as `(mem, ssd)` (DESTROY_CGROUP). Resets the slab, so previously
    /// issued `SlotId`s are all dead afterwards.
    pub fn drain(&mut self) -> (u64, u64) {
        let freed = (self.used(Placement::Mem), self.used(Placement::Ssd));
        self.slots.clear();
        self.free.clear();
        self.table.clear();
        self.file_heads.clear();
        (self.oldest, self.youngest) = ([NIL; 2], [NIL; 2]);
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
            mem_pages: self.used(Placement::Mem),
            ssd_pages: self.used(Placement::Ssd),
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

    /// Heap bytes the pool's index holds, computed from its
    /// collections' capacities: the slab, the free-list, the lookup
    /// table, the file heads, the birth stamps, the per-slot wear
    /// counters and the ghost filter (the eviction queues live in the
    /// slab). What the index costs the host for the pages it caches.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes::<Option<ArenaEntry>>(self.slots.capacity())
            + vec_bytes::<u32>(self.free.capacity())
            + self.table.heap_bytes()
            + map_bytes::<FileId, u32>(self.file_heads.capacity())
            + vec_bytes::<u64>(self.slot_birth.capacity())
            + vec_bytes::<u32>(self.wear.slot_writes.capacity())
            + self.ghost.heap_bytes()
    }

    /// Corrupts the stored checksum of one resident object (chaos
    /// testing: models bit rot in the backing store). Returns `false`
    /// if the object is not resident.
    pub fn corrupt(&mut self, addr: BlockAddr) -> bool {
        let Some(idx) = self.index_of(addr) else {
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
        let idx = self.index_of(addr).expect("resident");
        let entry = *self.entry_mut(idx);
        self.unlink_file(&entry);
        (self.entry_mut(idx).file_prev, self.entry_mut(idx).file_next) = (NIL, NIL);
    }

    /// Takes `addr`'s entry off its store's queue while leaving it live:
    /// the damage the auditor's queue-chain invariant exists to find.
    #[cfg(test)]
    pub(crate) fn orphan_from_queue(&mut self, addr: BlockAddr) {
        let idx = self.index_of(addr).expect("resident");
        let entry = *self.entry_mut(idx);
        self.unlink_fifo(&entry);
        (self.entry_mut(idx).fifo_prev, self.entry_mut(idx).fifo_next) = (NIL, NIL);
    }

    /// One store's eviction queue, oldest first, as `(id, seq)`: a walk
    /// of its chain from the oldest end.
    pub fn fifo_entries(&self, placement: Placement) -> impl Iterator<Item = (SlotId, u64)> + '_ {
        let mut at = self.oldest[placement.idx()];
        std::iter::from_fn(move || {
            let entry = self.slots.get(at as usize)?.as_ref()?;
            let id = SlotId(std::mem::replace(&mut at, entry.fifo_next));
            Some((id, entry.slot.seq))
        })
    }

    /// One store's queue ends, `(oldest, youngest)`.
    pub(crate) fn fifo_ends(&self, placement: Placement) -> (Option<SlotId>, Option<SlotId>) {
        let end = |i: u32| (i != NIL).then_some(SlotId(i));
        let i = placement.idx();
        (end(self.oldest[i]), end(self.youngest[i]))
    }

    /// An occupied entry's `(older, younger)` neighbours on its store's
    /// queue.
    pub(crate) fn fifo_links(&self, id: SlotId) -> Option<(Option<SlotId>, Option<SlotId>)> {
        let entry = self.slots.get(id.0 as usize)?.as_ref()?;
        let link = |i: u32| (i != NIL).then_some(SlotId(i));
        Some((link(entry.fifo_prev), link(entry.fifo_next)))
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
        self.set_used(placement, self.used(placement) + 1);
    }

    fn debit(&mut self, placement: Placement) {
        self.set_used(placement, self.used(placement) - 1);
    }

    /// The one write to the usage cell: `&mut self` makes it the only
    /// writer, so a plain store, never a read-modify-write.
    #[inline]
    fn set_used(&mut self, placement: Placement, pages: u64) {
        self.usage.0 .0[placement.idx()].store(pages, Ordering::Relaxed);
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

    fn queue(p: &Pool, placement: Placement) -> Vec<u64> {
        p.fifo_entries(placement).map(|(_, seq)| seq).collect()
    }

    #[test]
    fn a_removal_unlinks_its_queue_entry() {
        let mut p = pool();
        for b in 0..4 {
            p.insert(addr(1, b), Placement::Mem, PageVersion(0), b + 1);
        }
        p.remove(addr(1, 0)).unwrap(); // the oldest end
        p.remove(addr(1, 2)).unwrap(); // the middle
        assert_eq!(
            queue(&p, Placement::Mem),
            vec![2, 4],
            "exactly the live pages"
        );
        p.remove(addr(1, 3)).unwrap(); // the youngest end
        assert_eq!(queue(&p, Placement::Mem), vec![2]);
        let (a, _) = p.pop_oldest(Placement::Mem).unwrap();
        assert_eq!(a, addr(1, 1));
        assert_eq!(p.pop_oldest(Placement::Mem), None);
        assert_eq!(p.fifo_ends(Placement::Mem), (None, None));
    }

    #[test]
    fn an_overwrite_moves_the_entry_to_its_new_stores_young_end() {
        let mut p = pool();
        for b in 0..3 {
            p.insert(addr(1, b), Placement::Mem, PageVersion(0), b + 1);
        }
        p.insert(addr(1, 0), Placement::Ssd, PageVersion(1), 4);
        p.insert(addr(1, 1), Placement::Mem, PageVersion(1), 5);
        assert_eq!(queue(&p, Placement::Mem), vec![3, 5]);
        assert_eq!(queue(&p, Placement::Ssd), vec![4]);
        assert_eq!(p.pop_oldest(Placement::Mem).unwrap().0, addr(1, 2));
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
        // Reuse: the freed index comes back under a new key and stamp,
        // and the queue names it once.
        let (id1, _) = p.insert(addr(2, 0), Placement::Mem, PageVersion(0), 2);
        assert_eq!(id0, id1);
        assert_eq!(p.free_ids().count(), 0);
        let resolved = p.slot_by_id(id1).map(|(a, s)| (a, s.seq));
        assert_eq!(resolved, Some((addr(2, 0), 2)));
        assert!(p.fifo_entries(Placement::Mem).eq([(id1, 2)]));
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
    fn a_pool_counts_in_the_cell_it_was_built_on_and_a_clone_in_its_own() {
        let cell = Arc::new(Usage::default());
        let mut p = Pool::on(VmId(0), CachePolicy::mem(100), Arc::clone(&cell));
        p.insert(addr(1, 0), Placement::Mem, PageVersion(0), 1);
        p.insert(addr(1, 1), Placement::Ssd, PageVersion(0), 2);
        assert_eq!(cell.pages(Placement::Mem), 1);
        assert_eq!(cell.pages(Placement::Ssd), 1);
        let mut q = p.clone();
        p.remove(addr(1, 0));
        assert_eq!(cell.pages(Placement::Mem), 0);
        p.drain();
        assert_eq!(cell.pages(Placement::Ssd), 0);
        assert!(!Arc::ptr_eq(q.usage(), &cell));
        assert_eq!((q.used(Placement::Mem), q.used(Placement::Ssd)), (1, 1));
        q.remove(addr(1, 1));
        assert_eq!((q.used(Placement::Ssd), cell.pages(Placement::Ssd)), (0, 0));
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
        use std::collections::BTreeMap;

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
                    for placement in Placement::ALL {
                        let queued = p.fifo_entries(placement).count() as u64;
                        assert_eq!(queued, p.used(placement), "{placement:?} queue length");
                    }
                    assert_eq!(p.total_used(), mem_live + ssd_live);
                    let live: std::collections::BTreeSet<SlotId> =
                        p.iter_ids().map(|(id, _, _)| id).collect();
                    let free: Vec<SlotId> = p.free_ids().collect();
                    assert!(free.iter().all(|id| !live.contains(id)));
                    assert_eq!(live.len() + free.len(), p.arena_len() as usize);
                }
            }
        }

        /// Whether the run of occupied buckets through `at` crosses from
        /// the last bucket to the first.
        fn cluster_wraps(table: &SlotTable, at: usize) -> bool {
            let n = table.buckets.len();
            let occupied = |i: usize| table.buckets[i].idx != NIL;
            let ahead = (at..n).take_while(|&i| occupied(i)).count() == n - at;
            let behind = (0..=at).rev().take_while(|&i| occupied(i)).count() == at + 1;
            (ahead && occupied(0)) || (behind && occupied(n - 1))
        }

        /// The lookup table against a `BTreeMap` model. Each case draws
        /// its keys' tags from a handful of values, so tags collide, and
        /// one of them homes in the last bucket of any table, so
        /// clusters wrap past it. The keys live in a model slab, as in a
        /// pool: a lookup confirms a tag match there, a removal by
        /// `(tag, slab index)` never reads it. After every step every
        /// key resolves as the model says, every bucket lies on the
        /// probe path from its home, and the census counts exactly the
        /// buckets.
        #[test]
        fn slot_table_matches_a_btreemap_model() {
            let mut rng = SimRng::new(0x7AB1E);
            let (mut grown, mut grown_in_cluster, mut wrapped_removals) = (0, 0, 0);
            for case in 0..300 {
                let mut r = rng.fork(case);
                let mut tags = vec![u32::MAX - r.range_u64(0, 4) as u32];
                for _ in 0..r.range_u64(0, 5) {
                    tags.push(r.next_u64() as u32);
                }
                let tag = |key: u64| tags[(key % tags.len() as u64) as usize];
                let (mut table, mut model) = (SlotTable::default(), BTreeMap::new());
                let (mut slab, mut free) = (Vec::<Option<u64>>::new(), Vec::new());
                for step in 0..r.range_u64(1, 400) {
                    let key = r.range_u64(0, 96);
                    match model.get(&key).copied() {
                        None if r.chance(0.6) => {
                            let idx = free.pop().unwrap_or(slab.len() as u32);
                            match slab.get_mut(idx as usize) {
                                Some(cell) => *cell = Some(key),
                                None => slab.push(Some(key)),
                            }
                            let (buckets, bytes) = (table.buckets.len(), table.heap_bytes());
                            let home_taken =
                                buckets > 0 && table.buckets[table.home(tag(key))].idx != NIL;
                            let vacant = table.probe(tag(key), |i| slab[i as usize] == Some(key));
                            let vacant = vacant.expect_err("a new key is not found");
                            table.insert_at(vacant, tag(key), idx);
                            model.insert(key, idx);
                            if table.buckets.len() != buckets {
                                grown += 1;
                                grown_in_cluster += usize::from(home_taken);
                                assert_eq!(table.buckets.len(), (buckets * 2).max(8));
                                assert_eq!(
                                    table.heap_bytes() - bytes,
                                    8 * (table.buckets.len() - buckets),
                                    "the census moves by the new buckets"
                                );
                            }
                        }
                        None => {}
                        Some(idx) => {
                            let at = table.probe(tag(key), |i| slab[i as usize] == Some(key));
                            let at = at.expect("an indexed key is found");
                            assert_eq!(table.buckets[at].idx, idx);
                            wrapped_removals += usize::from(cluster_wraps(&table, at));
                            if r.chance(0.5) {
                                table.remove_at(at);
                            } else {
                                table.remove(tag(key), idx);
                            }
                            model.remove(&key);
                            slab[idx as usize] = None;
                            free.push(idx);
                        }
                    }
                    let what = format!("case {case} step {step}");
                    assert_eq!(table.len, model.len(), "{what}");
                    assert!(table.len * 4 <= table.buckets.len() * 3, "{what}: load");
                    assert_eq!(table.heap_bytes(), 8 * table.buckets.len(), "{what}");
                    let mask = table.buckets.len().wrapping_sub(1);
                    for (at, b) in table.buckets.iter().enumerate() {
                        if b.idx == NIL {
                            continue;
                        }
                        let key = slab[b.idx as usize].expect("a bucket names a live entry");
                        assert_eq!((b.tag, model[&key]), (tag(key), b.idx), "{what}");
                        let mut walk = table.home(b.tag);
                        while walk != at {
                            assert_ne!(table.buckets[walk].idx, NIL, "{what}: gap before {at}");
                            walk = (walk + 1) & mask;
                        }
                    }
                    for key in 0..96 {
                        let at = table.probe(tag(key), |i| slab[i as usize] == Some(key));
                        let found = at.ok().map(|at| table.buckets[at].idx);
                        assert_eq!(found, model.get(&key).copied(), "{what}: key {key}");
                    }
                }
            }
            assert!(grown > 0 && grown_in_cluster > 0 && wrapped_removals > 0);
            assert_eq!(std::mem::size_of::<Bucket>(), 8);

            // In a pool, the census moves by exactly the buckets' bytes
            // at every insert that grows the table but no slab vector.
            let mut p = pool();
            let mut checked = 0;
            for b in 0..3_000 {
                let caps = |p: &Pool| {
                    let writes = p.wear.slot_writes.capacity();
                    let heads = p.file_heads.capacity();
                    (p.slots.capacity(), p.slot_birth.capacity(), writes, heads)
                };
                let (buckets, bytes, before) = (p.table.buckets.len(), p.heap_bytes(), caps(&p));
                p.insert(addr(b % 7, b), Placement::Ssd, PageVersion(0), b);
                let grew = p.table.buckets.len() - buckets;
                if grew > 0 && caps(&p) == before {
                    assert_eq!(p.heap_bytes() - bytes, 8 * grew);
                    checked += 1;
                }
            }
            assert!(checked > 0);
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
