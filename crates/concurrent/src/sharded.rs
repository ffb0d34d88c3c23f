//! The sharded hypercache: a concurrent [`SecondChanceCache`] whose index
//! is partitioned by hash of `(VmId, PoolId)` with one lock per shard.
//!
//! # Design
//!
//! The serial [`DoubleDeckerCache`](ddc_hypercache::DoubleDeckerCache)
//! keeps all pools behind one `&mut self`. This crate splits the pool map
//! into `n` shards so that hypercalls from different VMs proceed in
//! parallel:
//!
//! * **Shard map** — a pool lives in shard
//!   `mix(vm, pool) % n` ([`ShardedCache::shard_of`]); every object of the
//!   pool (index slots and the eviction queues threaded through them)
//!   lives with it, in the shard's [`ShardState`]. What a put, take,
//!   evict, flush or destroy does to that state is the serial engine's
//!   code too ([`ddc_hypercache::shard`]): this crate adds the locks,
//!   the routing and the group journaling around it.
//! * **Global-pressure ledger** — store occupancy is *global*, not
//!   per-shard: a `Ledger` per store tracks `used`/`capacity` with
//!   atomics so the resource-conservative rule ("evict only when the
//!   store itself is full", paper §4.3) keeps working across shards.
//!   Page allocation is a CAS (`used < capacity → used + 1`), so the
//!   store can never oversubscribe no matter how threads interleave.
//! * **Cross-shard eviction** — a full ledger triggers the one
//!   eviction path (`evict_batch`), which decides with the registry
//!   read lock and every shard held, in every mode. DoubleDecker and
//!   Strict mode pick the victim once with the policy module's
//!   two-level walk ([`ShareTable::select_victim`], the same function
//!   the serial engine calls) over the share memo and the per-pool
//!   [`UsageMirror`]s — the exact usage while every shard is held —
//!   then keep only the victim's home shard and evict the batch there.
//!   Global mode evicts the oldest page over every pool's queue each
//!   time, under every shard. A batch that frees nothing rejects the put.
//! * **Lock order** — the evictor gate above all (taken with no other
//!   lock held); then `registry` before any shard; shards in ascending
//!   index; never acquire a lower-index (or the registry) lock while
//!   holding a higher one. Get, put, flush and `pool_stats` take only
//!   one pool's home shard (puts and `pool_stats` the registry read
//!   lock before it: a put reads its pool's policy and entitlements
//!   under both); a get, or a whole `get_many` batch, hit or miss, is
//!   one visit of it. What locks every shard, always starting from no
//!   shard lock held: whole-cache reads that need one consistent cut
//!   (`entries`, the auditor, wear and remote totals, journal images
//!   and durable lengths), journal installation and checkpoint
//!   rewrites (`enable_journal`, live compaction, the end of
//!   `recover`), eviction's decision, which a put reaches only from its
//!   eviction loop with no cache lock held, and every control verb: it
//!   runs the body recovery runs ([`shard::replay_record`]), which may
//!   drain pools on several shards; the benchmark's workloads issue
//!   control verbs at setup only.
//!
//! # Determinism contract
//!
//! Driven from one thread, a `ShardedCache` is *observationally
//! identical* to the serial engine (journal disabled, no fault
//! schedules): same outcomes, same per-pool counters, same eviction
//! victims, same resident entries. Both engines keep one `Registry`
//! type, read their share tables through one validate-on-use
//! [`ShareMemo`] (this engine keeps a memo per handle) and pick victims
//! with [`ShareTable::select_victim`] — and at quiescence the usage
//! mirrors equal the locked usage (auditor invariant `mirror-accuracy`),
//! so the inputs of every decision match.
//! The equivalence is enforced end-to-end by the driver's byte-identical
//! report check ([`crate::driver`]) and the workspace property tests.
//! Under concurrency, outcomes depend on interleaving but every
//! structural invariant still holds (see [`crate::audit`](mod@crate::audit)).
//!
//! # Durability: per-shard segments, group commit (DESIGN.md §14)
//!
//! With [`ShardedCache::enable_journal`] every shard owns its own
//! [`Journal`] segment, appended under that shard's lock. Record
//! *generations* come from one cache-global cell, allocated while the
//! target shard's lock is held — so each segment is generation-monotone
//! and the union of all segments is one **dense** global sequence. Pool-
//! scoped records (puts, takes, evictions, flushes, pool control) go to
//! the pool's home segment, so an entry's whole causal history lives in
//! one segment, VM/store records to segment 0 ([`shard::segment_of`]).
//! `flush` / `flush_file` return their record's generation as a real,
//! non-zero flush epoch *without* syncing — group commit
//! ([`ShardedCache::commit_tick`]) raises every segment's durable mark
//! at virtual-time tick boundaries instead of once per operation, and
//! takes no shard lock to do it (the marks live in per-segment atomic
//! commit cells beside the shards). Losing an unsynced
//! flush record is safe: the per-VM epoch discard at
//! [`ShardedCache::recover`] covers everything below the guest's acked
//! epoch, exactly like the serial plane — the cache can forget, never
//! lie. Recovery ([`ShardedCache::recover`]) merges the segments by
//! generation, keeps what precedes the first gap, and re-journals a
//! checkpoint across fresh segments.
//!
//! Driven single-threaded with journaling on, the sharded plane emits
//! the *same record sequence* as the journaled serial engine (same
//! emission points, same live-compaction trigger and checkpoint record
//! order), so flush epochs are value-identical across the two planes —
//! the equivalence contract extends to durability watermarks.
//!
//! The data plane is the serial engine's too: placement, admission,
//! verify-on-read, re-homing and trickle-down are the shard transitions'
//! ([`PoolVisit`]), run over this engine's store backend — the atomic
//! ledgers and the sequence, with no device: every I/O finishes at `now`
//! and succeeds, and the SSD tier always admits. What is still
//! serial-only is what a backend has: the device clock and the SSD
//! fault schedule with its quarantine.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockWriteGuard};

use ddc_cleancache::{
    CachePolicy, GetOutcome, PageVersion, PoolId, PoolStats, PutOutcome, SecondChanceCache, VmId,
};
use ddc_hypercache::index::{Placement, Slot, UsageMirror};
use ddc_hypercache::policy::ShareTable;
use ddc_hypercache::registry::{self, ShareMemo};
use ddc_hypercache::shard::{
    self, Cut, OldestFirst, Placed, PoolVisit, RecoveryReport, ReplayLog, ShardState, StoreBackend,
};
use ddc_hypercache::{
    store_kind_code, AdmissionConfig, CacheConfig, PartitionMode, EVICTION_BATCH_PAGES,
    JOURNAL_COMPACT_FACTOR,
};
use ddc_metrics::{BatchCounters, CounterSnapshot};
use ddc_sim::SimTime;
use ddc_storage::{
    BlockAddr, ChunkStore, FileId, Journal, JournalRecord, RemoteBinding, RemoteCounters,
    RemoteError, RemoteFetchConfig, RemoteId, RemoteRegistry, WearCounters,
};

use crate::backoff::{self, Backoff};

/// Global page accounting for one store: capacity and used pages shared
/// by every shard. `try_alloc` is a CAS loop, so concurrent puts can
/// never push `used` past `capacity`. A cache line of its own: a put
/// into one store does not wait for the line a put into the other is
/// writing.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct Ledger {
    capacity: AtomicU64,
    used: AtomicU64,
}

impl Ledger {
    fn new(capacity: u64) -> Ledger {
        Ledger {
            capacity: AtomicU64::new(capacity),
            used: AtomicU64::new(0),
        }
    }

    /// Reserves one page if the store has room. Lock-free.
    fn try_alloc(&self) -> bool {
        let cap = self.capacity.load(Ordering::Relaxed);
        let mut used = self.used.load(Ordering::Relaxed);
        loop {
            if used >= cap {
                return false;
            }
            match self.used.compare_exchange_weak(
                used,
                used + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(cur) => used = cur,
            }
        }
    }

    fn free(&self, pages: u64) {
        if pages > 0 {
            self.used.fetch_sub(pages, Ordering::Relaxed);
        }
    }

    fn is_disabled(&self) -> bool {
        self.capacity.load(Ordering::Relaxed) == 0
    }

    pub(crate) fn used_pages(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    pub(crate) fn capacity_pages(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }
}

/// This engine's [`StoreBackend`]: both stores' ledgers and the
/// sequence, as the shard transitions take them, and the handle's
/// compaction budget (a page freed is a page of `live` fewer, which
/// lowers the trigger's threshold, [`ShardedCache::compaction_due`]).
/// It has no device: an I/O finishes at `now` and never fails, and the
/// SSD tier is always healthy (the trait's provided methods).
struct Ledgers<'a> {
    put: &'a PutWords,
    budget: &'a CompactionBudget,
}

impl StoreBackend for Ledgers<'_> {
    #[inline]
    fn try_alloc(&mut self, placement: Placement) -> bool {
        self.put.ledger(placement).try_alloc()
    }

    #[inline]
    fn free(&mut self, placement: Placement, pages: u64) {
        self.put.ledger(placement).free(pages);
        self.budget.owe(pages * JOURNAL_COMPACT_FACTOR);
    }

    #[inline]
    fn is_disabled(&self, placement: Placement) -> bool {
        self.put.ledger(placement).is_disabled()
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        self.put.next_seq.next.fetch_add(1, Ordering::Relaxed)
    }

    fn set_capacity(&mut self, placement: Placement, pages: u64) {
        let ledger = self.put.ledger(placement);
        ledger.capacity.store(pages, Ordering::Relaxed);
    }
}

/// Bits of a packed commit-cell word that hold the byte count; the
/// install epoch sits above them.
const CELL_LEN_BITS: u32 = 40;
const CELL_LEN_MASK: u64 = (1 << CELL_LEN_BITS) - 1;

/// One segment's group-commit state (DESIGN.md §14.2): what
/// [`ShardedCache::commit_tick`] reads instead of taking the shard's
/// lock. The cells live in an allocation of their own, one cache line
/// each, so a committer never touches a line a lock holder is working
/// on.
///
/// `appended` and `durable` are `install_epoch << 40 | bytes`. Writers:
/// `seq` and `appended` only under the home shard's lock (appends) or
/// every shard's lock (installs), so plain load+store suffices;
/// `durable` by any committer through `fetch_max`, and by installs.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CommitCell {
    /// Odd while a claimed generation run is being appended.
    seq: AtomicU64,
    /// The segment's length after the last completed append.
    appended: AtomicU64,
    /// The segment's durable mark (the `fsync` stand-in of this plane).
    durable: AtomicU64,
}

impl CommitCell {
    /// Opens an append. Must come *before* the generation claim: the
    /// claim is what a committer's watermark sample synchronizes with,
    /// so a committer that sampled a claimed generation is guaranteed
    /// to see this store (or a later one) and wait the append out.
    fn begin_append(&self) {
        let seq = self.seq.load(Ordering::Relaxed);
        debug_assert!(seq.is_multiple_of(2), "one appender per cell at a time");
        self.seq.store(seq + 1, Ordering::Release);
    }

    /// Closes an append: publishes the segment's new length, then makes
    /// `seq` even. Both `Release`, paired with the committer's
    /// `Acquire` loads — whoever sees `seq` move sees the length.
    fn end_append(&self, len: usize) {
        assert!(
            len as u64 <= CELL_LEN_MASK,
            "segment outgrew its commit cell"
        );
        let epoch = self.appended.load(Ordering::Relaxed) & !CELL_LEN_MASK;
        self.appended.store(epoch | len as u64, Ordering::Release);
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq + 1, Ordering::Release);
    }

    /// A committer's visit: wait out an append in flight, then raise
    /// the durable mark to everything appended. One change of `seq` is
    /// enough — an appender that turned it odd after this visit began
    /// claimed its generations after the caller's watermark sample.
    fn commit(&self) {
        let seq = self.seq.load(Ordering::Acquire);
        if !seq.is_multiple_of(2) {
            // Nothing to block on here: past its budget the backoff
            // keeps yielding (an `append_run` is ~2 µs; a descheduled
            // appender is not worth burning a quantum on).
            let mut backoff = Backoff::new();
            while self.seq.load(Ordering::Acquire) == seq {
                backoff.snooze();
            }
        }
        self.durable
            .fetch_max(self.appended.load(Ordering::Acquire), Ordering::AcqRel);
    }

    /// A segment of `len` fully synced bytes replaces this cell's
    /// segment (caller holds every shard lock). The bumped epoch makes
    /// a committer that still holds the old segment's `appended` lose
    /// its `fetch_max`, so it can never mark bytes of the new segment
    /// durable.
    fn install(&self, len: usize) {
        let epoch = (self.appended.load(Ordering::Relaxed) >> CELL_LEN_BITS) + 1;
        assert!(
            epoch >> (64 - CELL_LEN_BITS) == 0 && len as u64 <= CELL_LEN_MASK,
            "commit cell overflow (install {epoch}, {len} bytes)"
        );
        let word = epoch << CELL_LEN_BITS | len as u64;
        self.appended.store(word, Ordering::Release);
        self.durable.store(word, Ordering::Release);
    }

    /// Whether an append is in flight (auditor use).
    pub(crate) fn append_in_flight(&self) -> bool {
        !self.seq.load(Ordering::Acquire).is_multiple_of(2)
    }

    /// `(install epoch, bytes)` of the last completed append.
    pub(crate) fn appended(&self) -> (u64, usize) {
        Self::unpack(self.appended.load(Ordering::Acquire))
    }

    /// `(install epoch, bytes)` of the durable mark.
    pub(crate) fn durable(&self) -> (u64, usize) {
        Self::unpack(self.durable.load(Ordering::Acquire))
    }

    fn unpack(word: u64) -> (u64, usize) {
        (word >> CELL_LEN_BITS, (word & CELL_LEN_MASK) as usize)
    }
}

/// One shard: the state of the pools that hash here (seq-stamped, so
/// the cross-shard merge in [`ShardedCache`] recovers the exact
/// store-wide FIFO order), mutated only under this shard's lock —
/// device wear totals sum the shards' retirements, so no cross-shard
/// lock is ever taken for wear accounting; and with each VM driven by
/// one thread, a remote binding's fault-tolerance state evolves in
/// program order regardless of the thread count, so the determinism
/// contract extends to the remote tier.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Shard {
    pub(crate) state: ShardState,
    /// This shard's journal segment (`None` until
    /// [`ShardedCache::enable_journal`]). Appends happen under the
    /// shard lock with generations from the cache-global cell, so the
    /// segment is generation-monotone. Its durable mark is not here but
    /// in the shard's [`CommitCell`].
    pub(crate) journal: Option<Journal>,
    /// What the batched (`*_many`) entry points did on this shard:
    /// plain words, added to under the lock the call holds anyway and
    /// summed over the shards by the accessors.
    batch: BatchCounters,
}

/// The control-plane registry ([`ddc_hypercache::registry`]), each pool's
/// row carrying its usage mirror: the mirror aliases the pool's
/// per-store usage counters through atomics, so single-shard fast paths
/// decide a placement from the registry alone — no other shard's lock
/// — and eviction, holding every shard, reads the exact usage.
pub(crate) type Registry = registry::Registry<Arc<UsageMirror>>;

/// See [`Inner::append_hook`].
#[cfg(test)]
type AppendHook = Arc<dyn Fn(u64) + Send + Sync>;

/// The state every handle shares, as groups of words that are touched
/// together, each group on cache lines of its own (DESIGN.md "Layout of
/// the shared core"). What decides the grouping is who *writes* a line
/// and how often: a client that only reads a line keeps it in its
/// cache until somebody writes it, so a word every operation reads must
/// not share a line with a word any operation writes. A new field goes
/// into the group whose writers it shares, or into a group of its own
/// (one no hot path reads: [`Cold`], not the lines every operation
/// reads); `inner_groups_share_no_cache_line` holds the rest.
struct Inner {
    ro: ReadMostly,
    put: PutWords,
    append: AppendWords,
    budget: BudgetWords,
    stats: StatCounters,
    registry: RegistryLock,
    evictor: EvictorGate,
    cold: Cold,
}

/// Read on every operation, written by none: the configuration, the
/// shard array and the flags.
#[repr(align(64))]
struct ReadMostly {
    mode: PartitionMode,
    /// SSD admission plane (ghost filter window + TTL), from the
    /// config. Immutable after construction, so hot paths read it
    /// without synchronization.
    admission: AdmissionConfig,
    /// The shards, 64-aligned like every element ([`Shard`]).
    shards: Box<[Mutex<Shard>]>,
    /// One commit cell per segment, indexed like `shards`.
    commit_cells: Box<[CommitCell]>,
    /// Whether journaling is on (segments installed in every shard).
    /// Checked lock-free on the hot paths so the volatile plane pays
    /// nothing for the durability machinery.
    journal_on: AtomicBool,
    /// Whether `eviction_hook` is installed: production eviction
    /// batches pay one relaxed load for the hook, not a lock and an
    /// `Arc` clone.
    hooks_on: AtomicBool,
    /// Whether any remote store is registered; checked lock-free on the
    /// flush path to decide if unbound flushes must be stashed.
    remote_on: AtomicBool,
}

/// The version of the compaction slack's split: read by every journaled
/// put and local hit, written only when a split ends, so it shares a
/// line neither with the words every operation reads nor with the ones
/// every append writes.
#[derive(Default)]
#[repr(align(64))]
struct BudgetWords {
    /// Bumped whenever every handle's compaction budget must be
    /// measured afresh ([`ShardedCache::compaction_due`]): by a handle
    /// that spent its share, by a clone, by a checkpoint install.
    epoch: AtomicU64,
}

/// What every stored put writes: its store's ledger and the sequence,
/// a line each. Pairs decided it: with the three words on one line
/// `engine-batched` lost eighteen pairs of eighteen (×0.91 and ×0.95;
/// EXPERIMENTS.md, "An owned layout") — two clients then take turns on
/// one line for every update a put makes, where here one client's
/// ledger update and the other's sequence claim do not meet.
#[repr(align(64))]
struct PutWords {
    mem: Ledger,
    ssd: Ledger,
    next_seq: Sequence,
}

/// The insertion sequence every stored object is stamped from.
#[repr(align(64))]
struct Sequence {
    next: AtomicU64,
}

impl PutWords {
    fn ledger(&self, placement: Placement) -> &Ledger {
        match placement {
            Placement::Mem => &self.mem,
            Placement::Ssd => &self.ssd,
        }
    }
}

/// What every journal append writes.
#[repr(align(64))]
struct AppendWords {
    /// The next record generation. One cell for all segments: a
    /// generation is claimed (`fetch_add`) while the target shard's
    /// lock is held and appended before that lock drops, so the global
    /// sequence is dense and each segment is monotone — recovery can
    /// merge segments by generation and detect lost suffixes as gaps.
    /// Claims are `AcqRel` and installs store with `Release`, so the
    /// `Acquire` sample in [`ShardedCache::commit_tick`] synchronizes
    /// with every claim at or below it.
    /// Deliberately separate from `next_seq` (they drift apart live and
    /// only unify at recovery, like the serial plane).
    journal_gen: AtomicU64,
    /// Records across all segments since the last checkpoint install
    /// (checkpoint records included) — the live-compaction trigger.
    journal_records: AtomicU64,
    /// Group-commit watermark: every record generation at or below this
    /// is durable (its segment's durable mark has passed it).
    commit_epoch: AtomicU64,
}

/// Counters of what compaction did; nothing reads them on a hot path.
#[derive(Default)]
#[repr(align(64))]
struct StatCounters {
    /// Checkpoint rewrites performed by live compaction.
    journal_compactions: AtomicU64,
}

/// The registry and its lock word: every reader writes the word, so no
/// other group may sit beside it.
#[derive(Default)]
#[repr(align(64))]
struct RegistryLock {
    lock: RwLock<Registry>,
}

/// Single-evictor gate for the fast-path eviction loop. Without it,
/// every putter blocked on a full ledger ran its *own* full batch —
/// N threads × [`EVICTION_BATCH_PAGES`] of duplicated victim work
/// against the same full store, which made the 8-thread contention
/// cell slower than the 2-thread one. Losers block here and re-check
/// the ledger right after the winner frees room. Acquired with no
/// other lock held, so it sits above the whole lock order.
#[derive(Default)]
#[repr(align(64))]
struct EvictorGate {
    gate: Mutex<()>,
}

/// Everything else: the test hooks and the remote registry.
#[repr(align(64))]
struct Cold {
    /// Test hook run at the start of every eviction batch, with the
    /// evictor gate held and no cache lock
    /// ([`ShardedCache::set_eviction_hook`]).
    eviction_hook: RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
    /// Test hook run between a generation claim and its append (home
    /// shard locked, its commit cell odd), with the first claimed
    /// generation: parks an appender exactly where a committer must
    /// wait for it.
    #[cfg(test)]
    append_hook: RwLock<Option<AppendHook>>,
    /// Registered remote chunk stores (bindings live per shard).
    remote_registry: Mutex<RemoteRegistry>,
}

/// A concurrent sharded DoubleDecker cache (see the [module
/// docs](self) for the design).
///
/// Cloning is cheap and shares the same cache: give each serving thread
/// its own clone. The [`SecondChanceCache`] impl takes `&mut self` only
/// to satisfy the (object-safe) trait; all synchronization is internal.
/// Each clone additionally carries what only it writes — its scratch,
/// a share memo and a compaction budget, every one on cache lines of
/// its own, so two handles side by side in a `Vec` share none — which
/// is why `Clone` is manual: the shared `Arc` is cloned, the rest
/// starts empty.
pub struct ShardedCache {
    inner: Arc<Inner>,
    scratch: GroupScratch,
    /// Memoized two-level share tables (§4.2 recomputes on
    /// configuration change, not per operation).
    entitlements: ShareMemoLine,
    budget: CompactionBudget,
}

impl Clone for ShardedCache {
    fn clone(&self) -> ShardedCache {
        // One more handle to share the compaction slack with: the
        // shares handed out so far were sized for fewer.
        self.inner.budget.epoch.fetch_add(1, Ordering::AcqRel);
        ShardedCache::handle(Arc::clone(&self.inner))
    }
}

/// What one get/put/flush call carries through the group helpers, kept
/// on the handle so a steady workload allocates its record buffer once.
#[derive(Default)]
#[repr(align(64))]
struct GroupScratch {
    /// Journal records pending for the shard visit in progress, drained
    /// as one contiguous generation run before the shard lock drops.
    records: Vec<JournalRecord>,
    /// What a `*_many` call did since it last left a shard — its
    /// operations, its shard-lock acquisitions and its scratch drains —
    /// added to the shard's batch counters before the lock drops
    /// ([`ShardedCache::leave_shard`]). A scalar call counts nothing,
    /// so scalar traffic never shows up there.
    batch: Option<BatchCounters>,
}

impl GroupScratch {
    /// Starts a call: a `*_many` call of `batch_ops` operations, or a
    /// scalar one.
    fn begin(&mut self, batch_ops: Option<usize>) {
        debug_assert!(self.records.is_empty());
        self.batch = batch_ops.map(|ops| BatchCounters {
            batched_ops: ops as u64,
            ..BatchCounters::default()
        });
    }
}

/// The handle's share memo. The mutex is handle-local and therefore
/// uncontended; it exists only to keep the handle `Sync` while the hot
/// put paths (which run on `&self`) mutate the memo.
#[derive(Default)]
#[repr(align(64))]
struct ShareMemoLine {
    memo: Mutex<ShareMemo<Arc<UsageMirror>>>,
}

/// A [`CompactionBudget::epoch`] no shared epoch ever equals: the
/// handle holds no share, its next check measures.
const NO_SHARE: u64 = u64::MAX;

/// The handle's share of the journal's compaction slack
/// ([`ShardedCache::compaction_due`]): how much it may still add to the
/// journal (a record counts 1, a freed page [`JOURNAL_COMPACT_FACTOR`])
/// before it has to look at the shared words again. Written by this
/// handle only, so plain loads and stores; atomics because the handle
/// is `Sync` and the paths that spend run on `&self`.
#[repr(align(64))]
struct CompactionBudget {
    /// The [`BudgetWords::epoch`] the share was measured under.
    epoch: AtomicU64,
    /// What is left of the share.
    left: AtomicU64,
    /// Spent since the last settle: pages freed under a shard lock the
    /// handle still holds.
    owed: AtomicU64,
}

impl CompactionBudget {
    fn new() -> CompactionBudget {
        CompactionBudget {
            epoch: AtomicU64::new(NO_SHARE),
            left: AtomicU64::new(0),
            owed: AtomicU64::new(0),
        }
    }

    fn owe(&self, cost: u64) {
        let owed = self.owed.load(Ordering::Relaxed);
        self.owed.store(owed.wrapping_add(cost), Ordering::Relaxed);
    }
}

/// Why a put group's shard visit ended.
enum Pause {
    /// The group is through.
    Done,
    Evict(Placement),
    Compact,
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.inner.ro.shards.len())
            .field("mode", &self.inner.ro.mode)
            .field("mem_used", &self.inner.put.mem.used_pages())
            .field("ssd_used", &self.inner.put.ssd.used_pages())
            .finish()
    }
}

impl ShardedCache {
    /// Creates a sharded cache with `shards` index shards (clamped to at
    /// least 1).
    pub fn new(config: CacheConfig, shards: usize) -> ShardedCache {
        let n = shards.max(1);
        ShardedCache::handle(Arc::new(Inner {
            ro: ReadMostly {
                mode: config.mode,
                admission: config.admission,
                shards: (0..n)
                    .map(|_| {
                        Mutex::new(Shard {
                            state: ShardState::default(),
                            ..Shard::default()
                        })
                    })
                    .collect(),
                commit_cells: (0..n).map(|_| CommitCell::default()).collect(),
                journal_on: AtomicBool::new(false),
                hooks_on: AtomicBool::new(false),
                remote_on: AtomicBool::new(false),
            },
            put: PutWords {
                mem: Ledger::new(config.mem_capacity_pages),
                ssd: Ledger::new(config.ssd_capacity_pages),
                next_seq: Sequence {
                    next: AtomicU64::new(1),
                },
            },
            append: AppendWords {
                journal_gen: AtomicU64::new(1),
                journal_records: AtomicU64::new(0),
                commit_epoch: AtomicU64::new(0),
            },
            budget: BudgetWords::default(),
            stats: StatCounters::default(),
            registry: RegistryLock::default(),
            evictor: EvictorGate::default(),
            cold: Cold {
                eviction_hook: RwLock::new(None),
                #[cfg(test)]
                append_hook: RwLock::new(None),
                remote_registry: Mutex::new(RemoteRegistry::new()),
            },
        }))
    }

    /// A fresh handle on `inner`: nothing cached, no compaction share.
    fn handle(inner: Arc<Inner>) -> ShardedCache {
        ShardedCache {
            inner,
            scratch: GroupScratch::default(),
            entitlements: ShareMemoLine::default(),
            budget: CompactionBudget::new(),
        }
    }

    /// Number of index shards.
    pub fn shard_count(&self) -> usize {
        self.inner.ro.shards.len()
    }

    /// The partition mode the cache runs in.
    pub fn mode(&self) -> PartitionMode {
        self.inner.ro.mode
    }

    // ------------------------------------------------------------------
    // Remote chunk-store tier.
    // ------------------------------------------------------------------

    /// Registers a remote chunk store with this host; duplicate ids are
    /// rejected with a typed error.
    pub fn register_remote(&self, store: ChunkStore) -> Result<RemoteId, RemoteError> {
        let id = store.id();
        self.inner
            .cold
            .remote_registry
            .lock()
            .expect("remote registry poisoned")
            .register(store)?;
        self.inner.ro.remote_on.store(true, Ordering::Release);
        Ok(id)
    }

    /// Binds `pool` of `vm` to a registered remote: misses in the pool
    /// fall through to the remote's fault-tolerance stack under the home
    /// shard's lock. Unknown ids and double bindings return typed
    /// errors. Registrations and bindings are not journaled — rebind
    /// after [`ShardedCache::recover`] (replayed flush localization is
    /// preserved and handed to the new binding).
    pub fn bind_remote(
        &self,
        vm: VmId,
        pool: PoolId,
        remote: RemoteId,
        fetch: RemoteFetchConfig,
    ) -> Result<(), RemoteError> {
        let store = self
            .inner
            .cold
            .remote_registry
            .lock()
            .expect("remote registry poisoned")
            .get(remote)?;
        // Checked and released before the shard lock is taken.
        let registry = self.inner.registry.lock.read().expect("registry poisoned");
        registry.bind_target(vm, pool)?;
        drop(registry);
        let mut shard = self.lock_shard(self.shard_of(vm, pool));
        shard
            .state
            .bind_remote(vm, pool, RemoteBinding::new(store, fetch))
    }

    /// Aggregate remote-tier counters across all bindings.
    pub fn remote_totals(&self) -> RemoteCounters {
        self.with_locked_cut(|cut| cut.remote_totals())
    }

    /// The home shard of a pool ([`shard::home_shard`]).
    pub fn shard_of(&self, vm: VmId, pool: PoolId) -> usize {
        shard::home_shard(vm, pool, self.inner.ro.shards.len())
    }

    /// Registers a VM with a cache weight applied to both stores.
    /// Re-registering updates the weights.
    pub fn add_vm(&self, vm: VmId, weight: u64) {
        self.add_vm_with_store_weights(vm, weight, weight);
    }

    /// Registers a VM with independent per-store weights.
    pub fn add_vm_with_store_weights(&self, vm: VmId, mem_weight: u64, ssd_weight: u64) {
        let rec = JournalRecord::AddVm {
            vm: vm.0,
            mem_weight,
            ssd_weight,
        };
        self.control(&mut self.registry_mut(), rec);
    }

    /// Updates a VM's weight in both stores; unknown VMs are ignored.
    pub fn set_vm_weight(&self, vm: VmId, weight: u64) {
        let mut reg = self.registry_mut();
        if reg.vm(vm).is_some() {
            let rec = JournalRecord::SetVmWeights {
                vm: vm.0,
                mem_weight: weight,
                ssd_weight: weight,
            };
            self.control(&mut reg, rec);
        }
    }

    /// Removes a VM, dropping every object of all its pools; an unknown
    /// VM is ignored.
    pub fn remove_vm(&self, vm: VmId) {
        let rec = JournalRecord::RemoveVm { vm: vm.0 };
        self.control(&mut self.registry_mut(), rec);
    }

    /// Resizes the memory store, evicting the excess if shrinking
    /// (growth takes effect at once). Journaled before the shrink, so
    /// replay sees the evictions it caused in causal order.
    pub fn set_mem_capacity(&self, now: SimTime, pages: u64) {
        let rec = JournalRecord::SetMemCapacity { pages };
        self.control(&mut self.registry_mut(), rec);
        self.shrink_to_capacity(now, Placement::Mem);
    }

    /// Pages resident in the memory store (global ledger).
    pub fn mem_used_pages(&self) -> u64 {
        self.inner.put.mem.used_pages()
    }

    /// Pages resident in the SSD store (global ledger).
    pub fn ssd_used_pages(&self) -> u64 {
        self.inner.put.ssd.used_pages()
    }

    /// Objects evicted by the policy module since creation.
    pub fn evictions(&self) -> u64 {
        self.evicted().pages
    }

    /// Hybrid-pool objects trickled from memory down to the SSD store.
    pub fn trickle_downs(&self) -> u64 {
        self.evicted().trickled
    }

    /// What every shard's eviction transitions did, each read under its
    /// lock.
    fn evicted(&self) -> shard::Evicted {
        (0..self.shard_count()).fold(shard::Evicted::default(), |sum, si| {
            let shard = self.lock_shard(si).state.evicted;
            shard::Evicted {
                pages: sum.pages + shard.pages,
                trickled: sum.trickled + shard.trickled,
            }
        })
    }

    /// Installs (or clears) a hook run at the start of every eviction
    /// batch, in every mode, with the evictor gate held and no cache
    /// lock. Tests use it to change the cache under a put that dropped
    /// its locks to evict; production code leaves it unset.
    pub fn set_eviction_hook(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) {
        let mut slot = self
            .inner
            .cold
            .eviction_hook
            .write()
            .expect("hook poisoned");
        // Under the write lock, so racing setters leave `hooks_on` and
        // the slot in agreement.
        self.inner
            .ro
            .hooks_on
            .store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    fn run_eviction_hook(&self) {
        if !self.inner.ro.hooks_on.load(Ordering::Relaxed) {
            return;
        }
        let hook = self
            .inner
            .cold
            .eviction_hook
            .read()
            .expect("hook poisoned")
            .clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    #[cfg(test)]
    fn set_append_hook(&self, hook: Option<AppendHook>) {
        *self.inner.cold.append_hook.write().expect("hook poisoned") = hook;
    }

    #[cfg(test)]
    fn run_append_hook(&self, first_gen: u64) {
        let hook = self
            .inner
            .cold
            .append_hook
            .read()
            .expect("hook poisoned")
            .clone();
        if let Some(hook) = hook {
            hook(first_gen);
        }
    }

    /// Always 0: there is no lock-free read plane whose snapshots could
    /// tear. Kept only because the frozen `benchmark/` crate reads it;
    /// goes with the next change to that crate, like
    /// [`Self::reservation_retries`].
    pub fn seqlock_retries(&self) -> u64 {
        0
    }

    /// Always 0, kept for the same reason as [`Self::seqlock_retries`].
    pub fn read_plane_overflows(&self) -> u64 {
        0
    }

    /// Always `(0, 0)`: every lookup takes its home shard's lock. Kept
    /// for the same reason as [`Self::seqlock_retries`].
    pub fn local_read_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Always 0: Global eviction holds every shard it compares, so no
    /// nomination can go stale. Kept for the same reason as
    /// [`Self::reservation_retries`].
    pub fn front_tree_retries(&self) -> u64 {
        0
    }

    /// Always 0, kept for the same reason as
    /// [`Self::reservation_retries`].
    pub fn front_tree_fallbacks(&self) -> u64 {
        0
    }

    /// Always 0: every eviction picks its victim with every shard
    /// locked, so no pick can go stale. Kept for the same reason as
    /// [`Self::reservation_retries`].
    pub fn two_phase_retries(&self) -> u64 {
        0
    }

    /// Always 0, kept for the same reason as
    /// [`Self::reservation_retries`].
    pub fn two_phase_fallbacks(&self) -> u64 {
        0
    }

    /// Always 0: puts no longer speculate on a placement, so there is
    /// nothing to retry. Kept only because the frozen `benchmark/`
    /// crate reads it; goes with the next change to that crate.
    pub fn reservation_retries(&self) -> u64 {
        0
    }

    /// Always 0, kept for the same reason as
    /// [`Self::reservation_retries`].
    pub fn reservation_fallbacks(&self) -> u64 {
        0
    }

    /// Operations applied through the batched (`*_many`) entry points.
    pub fn batched_ops(&self) -> u64 {
        self.batch_counters().batched_ops
    }

    /// Shard-lock acquisitions charged to the batched entry points.
    pub fn batch_lock_acquisitions(&self) -> u64 {
        self.batch_counters().lock_acquisitions
    }

    /// Journal batch appends issued by scratch drains.
    pub fn batch_journal_appends(&self) -> u64 {
        self.batch_counters().journal_appends
    }

    /// The batch plane's counters as one snapshot block: every shard's
    /// words, each read under its lock.
    pub fn batch_counters(&self) -> BatchCounters {
        let mut total = BatchCounters::default();
        for si in 0..self.shard_count() {
            total.absorb(&self.lock_shard(si).batch);
        }
        total
    }

    /// Shard `si`'s commit cell (auditor use).
    pub(crate) fn commit_cell(&self, si: usize) -> &CommitCell {
        &self.inner.ro.commit_cells[si]
    }

    /// Moves shard `si`'s durable mark by `delta` bytes behind the
    /// protocol's back, so tests can show the auditor notices.
    #[cfg(test)]
    pub(crate) fn skew_durable_mark(&self, si: usize, delta: i64) {
        let durable = &self.inner.ro.commit_cells[si].durable;
        durable.store(
            durable.load(Ordering::Relaxed).wrapping_add_signed(delta),
            Ordering::Release,
        );
    }

    /// This handle's memoized share table for one store, if it is filled
    /// and still valid against `reg`, the registry the auditor holds, by
    /// the memo's own rule (auditor use).
    pub(crate) fn cached_share_table(
        &self,
        reg: &Registry,
        placement: Placement,
    ) -> Option<ShareTable> {
        let memo = self.entitlements.memo.lock().expect("memo poisoned");
        let capacity = self.ledger(placement).capacity_pages();
        memo.cached(reg.version(), capacity, placement, |_, _, m| {
            m.pages(placement)
        })
        .cloned()
    }

    // ------------------------------------------------------------------
    // Per-shard journaling (group commit; see the module docs).
    // ------------------------------------------------------------------

    /// Turns on journaling: installs a fresh segment in every shard.
    /// From here on every state transition appends a [`JournalRecord`]
    /// to its routing shard's segment and `flush`/`flush_file` return
    /// their record generation as a non-zero flush epoch. Idempotent;
    /// callers normally enable right after construction.
    pub fn enable_journal(&self) {
        let mut shards = self.lock_all_shards();
        if self.inner.ro.journal_on.swap(true, Ordering::Relaxed) {
            return;
        }
        let fresh = shards.iter().map(|_| Journal::new()).collect();
        self.install_segments(&mut shards, fresh);
    }

    /// Replaces every shard's segment (caller holds every shard lock):
    /// syncs the new segments in full and publishes their lengths in
    /// the commit cells under a fresh install epoch. A caller that
    /// moves `journal_gen` stores it *after* this, with `Release`, so a
    /// committer whose watermark sample covers the new generations
    /// also sees the new cells.
    fn install_segments(&self, shards: &mut [MutexGuard<'_, Shard>], segs: Vec<Journal>) {
        for ((shard, cell), mut seg) in shards
            .iter_mut()
            .zip(self.inner.ro.commit_cells.iter())
            .zip(segs)
        {
            seg.sync();
            cell.install(seg.len());
            shard.journal = Some(seg);
        }
    }

    /// Whether journaling is on.
    pub fn journal_enabled(&self) -> bool {
        self.inner.ro.journal_on.load(Ordering::Relaxed)
    }

    /// Every segment's raw image (including unsynced bytes) paired with
    /// its durable byte watermark, in shard order, if journaling is on
    /// — one cut under a single lock-all acquisition, so no compaction
    /// can land between an image and its mark. Truncating each image to
    /// its mark is what a crash is guaranteed to leave behind.
    pub fn journal_snapshot(&self) -> Option<Vec<(Vec<u8>, usize)>> {
        if !self.journal_enabled() {
            return None;
        }
        let shards = self.lock_all_shards();
        Some(
            shards
                .iter()
                .zip(self.inner.ro.commit_cells.iter())
                .map(|(s, cell)| {
                    let journal = s.journal.as_ref().expect("journaling on");
                    (journal.bytes().to_vec(), cell.durable().1)
                })
                .collect(),
        )
    }

    /// The raw per-shard segment images (including unsynced bytes), in
    /// shard order, if journaling is on. Crash harnesses snapshot these
    /// and hand (possibly independently truncated or corrupted) copies
    /// to [`ShardedCache::recover`].
    pub fn journal_images(&self) -> Option<Vec<Vec<u8>>> {
        let snapshot = self.journal_snapshot()?;
        Some(snapshot.into_iter().map(|(image, _)| image).collect())
    }

    /// Per-shard durable byte watermarks (what group commit has made
    /// durable so far), in shard order, if journaling is on: the commit
    /// cells read under every shard lock, so no segment install lands
    /// between two of them, and no segment is copied. Take
    /// [`Self::journal_snapshot`] instead when the marks must match a
    /// set of images and other threads are still appending.
    pub fn journal_durable_lens(&self) -> Option<Vec<usize>> {
        if !self.journal_enabled() {
            return None;
        }
        let _cut = self.lock_all_shards();
        let cells = self.inner.ro.commit_cells.iter();
        Some(cells.map(|cell| cell.durable().1).collect())
    }

    /// Records across all segments since the last checkpoint install,
    /// if journaling is on.
    pub fn journal_records(&self) -> Option<u64> {
        self.journal_enabled()
            .then(|| self.inner.append.journal_records.load(Ordering::Relaxed))
    }

    /// How many times live compaction rewrote the segments.
    pub fn journal_compactions(&self) -> u64 {
        self.inner.stats.journal_compactions.load(Ordering::Relaxed)
    }

    /// The group-commit watermark: the highest record generation known
    /// durable across every segment (0 before the first commit tick).
    /// `Acquire`, paired with the `Release` that published it: whoever
    /// reads an epoch also sees the durable marks that justify it.
    pub fn commit_epoch(&self) -> u64 {
        self.inner.append.commit_epoch.load(Ordering::Acquire)
    }

    /// Group commit: makes every record claimed so far durable and
    /// advances the commit epoch. Returns the watermark now published —
    /// the generation sampled here, or a higher one if a checkpoint
    /// install or a racing committer already got further (0 when
    /// journaling is off).
    ///
    /// Takes no lock. The watermark is sampled first; then each
    /// segment's `CommitCell` is visited in ascending order: an
    /// append in flight is waited out (one `append_run`, never a whole
    /// group), and the durable mark is raised to the appended length.
    /// An appender turns its cell's `seq` odd *before* it claims its
    /// generations, and the claims form a release sequence on
    /// `journal_gen` that the sample acquires — so every generation at
    /// or below the watermark is either fully appended and visible in
    /// `appended`, or its cell is seen odd and waited for. Every record
    /// at or below the returned watermark is durable when this returns.
    /// The driver calls this once per virtual-time tick, which is what
    /// narrows the crash-discard window without a sync per operation.
    pub fn commit_tick(&self) -> u64 {
        if !self.journal_enabled() {
            return 0;
        }
        let watermark = self
            .inner
            .append
            .journal_gen
            .load(Ordering::Acquire)
            .saturating_sub(1);
        for cell in self.inner.ro.commit_cells.iter() {
            cell.commit();
        }
        self.inner
            .append
            .commit_epoch
            .fetch_max(watermark, Ordering::AcqRel)
            .max(watermark)
    }

    /// Appends `recs` to shard `si`'s (locked) segment as one
    /// contiguous generation run claimed with a single `fetch_add` —
    /// the only way a record reaches a live segment. Cell `seq` odd,
    /// *then* the claim, the append, the published length, `seq` even:
    /// the order [`Self::commit_tick`] relies on. Returns the last
    /// generation of the run.
    fn append_claimed(&self, si: usize, journal: &mut Journal, recs: &[JournalRecord]) -> u64 {
        let cell = &self.inner.ro.commit_cells[si];
        let n = recs.len() as u64;
        cell.begin_append();
        let start = self.inner.append.journal_gen.fetch_add(n, Ordering::AcqRel);
        #[cfg(test)]
        self.run_append_hook(start);
        let last = journal.append_run(recs, start);
        cell.end_append(journal.len());
        self.inner
            .append
            .journal_records
            .fetch_add(n, Ordering::Relaxed);
        self.settle(n);
        last
    }

    /// Appends `rec` to shard `si`'s (locked) segment with a freshly
    /// claimed global generation. Returns the generation, or 0 when
    /// journaling is off. Must be called with the routing shard's lock
    /// held (enforced by taking its segment from the guard's target),
    /// and `si` must be that shard's index.
    fn log_in(&self, si: usize, journal: &mut Option<Journal>, rec: JournalRecord) -> u64 {
        let Some(j) = journal.as_mut() else {
            return 0;
        };
        self.append_claimed(si, j, std::slice::from_ref(&rec))
    }

    /// Drains the pending records into shard `si`'s (locked) segment as
    /// one contiguous generation run: one `fetch_add(n)` on the global
    /// generation counter, one buffered batch append (wire-identical to
    /// per-record appends). Returns the last generation claimed, or 0
    /// when nothing was pending or the shard has no segment. Must run
    /// before the shard lock drops and before any direct
    /// [`Self::log_in`] on the same shard, so the global generation
    /// order equals operation order.
    fn drain_scratch(
        &self,
        si: usize,
        journal: &mut Option<Journal>,
        scratch: &mut GroupScratch,
    ) -> u64 {
        if scratch.records.is_empty() {
            return 0;
        }
        let Some(j) = journal.as_mut() else {
            scratch.records.clear();
            return 0;
        };
        let last = self.append_claimed(si, j, &scratch.records);
        if let Some(batch) = scratch.batch.as_mut() {
            batch.journal_appends += 1;
        }
        scratch.records.clear();
        last
    }

    /// Locks shard `si` for a group helper, counting the visit.
    fn visit_shard(&self, si: usize, scratch: &mut GroupScratch) -> MutexGuard<'_, Shard> {
        if let Some(batch) = scratch.batch.as_mut() {
            batch.lock_acquisitions += 1;
        }
        self.lock_shard(si)
    }

    /// Ends a group helper's visit of shard `si`: pending records
    /// drained, what a `*_many` call did since it last left a shard
    /// added to the shard's batch counters, the pages the visit freed
    /// settled against the compaction budget — all before the lock
    /// drops. Returns the last generation the drain claimed.
    fn leave_shard(
        &self,
        si: usize,
        mut shard: MutexGuard<'_, Shard>,
        scratch: &mut GroupScratch,
    ) -> u64 {
        let Shard { journal, batch, .. } = &mut *shard;
        let last = self.drain_scratch(si, journal, scratch);
        if let Some(counted) = scratch.batch.as_mut() {
            batch.absorb(&std::mem::take(counted));
        }
        if journal.is_some() {
            self.settle(0);
        }
        last
    }

    /// Whether live compaction is due, with `pending` records of this
    /// handle still in a batch's scratch buffer — the batched paths
    /// must observe the threshold at the same operation the per-op
    /// paths would, or the checkpoint rewrite consumes generations at a
    /// different point and journal byte-identity with the serial engine
    /// breaks.
    ///
    /// The trigger compares three words every client writes (the record
    /// count and the two ledgers), and this runs after every stored put
    /// and every local hit. So a handle does not read them each time:
    /// when it does ([`Self::measure`]) it takes a *share* of the slack
    /// it found — the distance to the threshold divided by the live
    /// handle count — and until what it has itself added to the journal
    /// since (a record counts 1, a freed page [`JOURNAL_COMPACT_FACTOR`],
    /// the most it can lower the threshold by; pages it allocated only
    /// raise it and are ignored) has used the share up, compaction
    /// cannot be due: the shares of one [`BudgetWords::epoch`]
    /// are taken once per handle and never add up to more than the
    /// slack, and whoever adds more than its share moves the epoch,
    /// which voids them all. Driven from one thread, through any number
    /// of handles, the checkpoint therefore fires at the operation the
    /// per-op check fires at. Between threads a measurement can miss
    /// what another handle's visit in flight has not yet appended, so
    /// the trigger may be seen late by one group per other handle.
    fn compaction_due(&self, pending: usize) -> bool {
        if !self.journal_enabled() {
            return false;
        }
        let budget = &self.budget;
        let owed = budget.owed.load(Ordering::Relaxed);
        let shared = self.inner.budget.epoch.load(Ordering::Acquire);
        if budget.epoch.load(Ordering::Relaxed) == shared
            && owed + pending as u64 <= budget.left.load(Ordering::Relaxed)
        {
            return false;
        }
        self.measure(pending as u64, owed)
    }

    /// Charges `appended` records (already in the shared count) and the
    /// pages freed since the last settle to the handle's share;
    /// measures afresh when the share does not cover them.
    fn settle(&self, appended: u64) {
        let budget = &self.budget;
        let cost = budget.owed.load(Ordering::Relaxed) + appended;
        if cost == 0 {
            return;
        }
        budget.owed.store(0, Ordering::Relaxed);
        let left = budget.left.load(Ordering::Relaxed);
        let shared = self.inner.budget.epoch.load(Ordering::Acquire);
        if budget.epoch.load(Ordering::Relaxed) == shared && cost <= left {
            budget.left.store(left - cost, Ordering::Relaxed);
        } else {
            self.measure(0, cost);
        }
    }

    /// The trigger itself, from the shared words, with `pending`
    /// records of this handle not yet appended and `spent` already in
    /// those words but covered by no share: whether compaction is due,
    /// and if not, a fresh share of the slack (see
    /// [`Self::compaction_due`]). A handle that held a share of this
    /// epoch and overran it, or spent more without one than the share
    /// it now finds, has eaten into what the others were promised: it
    /// moves the epoch.
    fn measure(&self, pending: u64, spent: u64) -> bool {
        let (inner, budget) = (&*self.inner, &self.budget);
        budget.owed.store(0, Ordering::Relaxed);
        let mut epoch = inner.budget.epoch.load(Ordering::Acquire);
        let overran = budget.epoch.load(Ordering::Relaxed) == epoch;
        let live = inner.put.mem.used_pages() + inner.put.ssd.used_pages();
        let records = inner.append.journal_records.load(Ordering::Relaxed) + pending;
        let threshold = shard::compaction_threshold(live);
        let handles = Arc::strong_count(&self.inner) as u64;
        let mut share = threshold.saturating_sub(records) / handles;
        if overran || spent > share {
            epoch = inner.budget.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        } else {
            share -= spent;
        }
        if records > threshold {
            budget.epoch.store(NO_SHARE, Ordering::Relaxed);
            return true;
        }
        // The pending records are charged when they are appended.
        budget.left.store(share + pending, Ordering::Relaxed);
        budget.epoch.store(epoch, Ordering::Relaxed);
        false
    }

    /// Live compaction: when the segments have accumulated far more
    /// records than there are live entries, rewrite them as one
    /// checkpoint so replay time stays proportional to cache size.
    /// Caller must hold no shard lock.
    fn maybe_compact_journal(&self) {
        if !self.compaction_due(0) {
            return;
        }
        let reg = self.inner.registry.lock.read().expect("registry poisoned");
        let mut shards = self.lock_all_shards();
        // Re-check under the locks: another thread may have compacted
        // (or freed enough) while we were acquiring them.
        if !self.compaction_due(0) {
            return;
        }
        let start_gen = self.inner.append.journal_gen.load(Ordering::Relaxed);
        self.write_checkpoint_locked(&reg, &mut shards, start_gen);
        self.inner
            .stats
            .journal_compactions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The whole cache as a [`Cut`] of already-held locks.
    pub(crate) fn cut<'a>(reg: &Registry, shards: &'a [MutexGuard<'_, Shard>]) -> Cut<'a> {
        Cut::new(reg, shards.iter().map(|s| &s.state).collect())
    }

    /// Reads a [`Cut`] under the crate's lock-all discipline: registry
    /// read lock, then every shard in ascending order.
    fn with_locked_cut<R>(&self, f: impl FnOnce(Cut<'_>) -> R) -> R {
        let reg = self.inner.registry.lock.read().expect("registry poisoned");
        let shards = self.lock_all_shards();
        f(Self::cut(&reg, &shards))
    }

    /// Replaces every segment with a checkpoint of the current state
    /// ([`Cut::write_checkpoint`]), continuing generations from
    /// `start_gen`. Returns the freshly minted per-VM epochs.
    fn write_checkpoint_locked(
        &self,
        reg: &Registry,
        shards: &mut [MutexGuard<'_, Shard>],
        start_gen: u64,
    ) -> Vec<(VmId, u64)> {
        let checkpoint = Self::cut(reg, shards).write_checkpoint(
            self.inner.ro.mode,
            self.inner.put.mem.capacity_pages(),
            self.inner.put.ssd.capacity_pages(),
            start_gen,
        );
        // Cells first, then the generation cell (`Release`): a committer
        // whose sample covers the checkpoint's generations sees its
        // cells (see `install_segments`).
        self.install_segments(shards, checkpoint.segments);
        self.inner
            .append
            .journal_gen
            .store(checkpoint.next_gen, Ordering::Release);
        self.inner
            .append
            .journal_records
            .store(checkpoint.records, Ordering::Relaxed);
        // The record count was just rewritten: every share of the old
        // slack is void.
        self.inner.budget.epoch.fetch_add(1, Ordering::AcqRel);
        // The checkpoint is synced in full, so everything up to its last
        // generation is durable.
        self.inner
            .append
            .commit_epoch
            .fetch_max(checkpoint.next_gen.saturating_sub(1), Ordering::AcqRel);
        checkpoint.new_epochs
    }

    /// Warm restart from the segments a crash left behind, one shard
    /// each, in the journal's mode if it recorded one: [`ReplayLog`]
    /// under the registry write lock and every shard lock, taken once,
    /// then the shrink and a fresh checkpoint (DESIGN.md §11.2). The
    /// replay itself rebuilds the ledgers and usage mirrors.
    pub fn recover(
        config: CacheConfig,
        segments: &[Vec<u8>],
        guest_epochs: &[(VmId, u64)],
    ) -> (ShardedCache, RecoveryReport) {
        let log = ReplayLog::decode(segments);
        let mode = log.mode.unwrap_or(config.mode);
        let cache = ShardedCache::new(CacheConfig { mode, ..config }, segments.len().max(1));
        let mut report = {
            let mut reg = cache.registry_mut();
            let mut shards = cache.lock_all_shards();
            let mut states: Vec<_> = shards.iter_mut().map(|s| &mut s.state).collect();
            log.replay(&mut reg, &mut states, &mut cache.ledgers(), guest_epochs)
        };
        // The two counters drift apart live and unify only here.
        let (inner, gen) = (&cache.inner, log.next_gen);
        inner.put.next_seq.next.store(gen, Ordering::Relaxed);
        inner.append.journal_gen.store(gen, Ordering::Relaxed);
        // A replayed shrink whose evictions were lost leaves a store
        // oversubscribed: evict for real now.
        cache.shrink_to_capacity(SimTime::ZERO, Placement::Mem);
        cache.shrink_to_capacity(SimTime::ZERO, Placement::Ssd);
        // Re-journal a checkpoint across fresh segments and go live.
        let reg = inner.registry.lock.read().expect("registry poisoned");
        let mut shards = cache.lock_all_shards();
        report.recovered_entries = Self::cut(&reg, &shards).resident();
        inner.ro.journal_on.store(true, Ordering::Relaxed);
        report.new_epochs = cache.write_checkpoint_locked(&reg, &mut shards, gen);
        drop((reg, shards));
        (cache, report)
    }

    /// Every resident entry as `(vm, pool, addr, version)`, sorted —
    /// byte-compatible with the serial engine's
    /// [`entries`](ddc_hypercache::DoubleDeckerCache::entries), used by
    /// the stale-read oracle and the equivalence reports.
    pub fn entries(&self) -> Vec<(VmId, PoolId, BlockAddr, PageVersion)> {
        self.with_locked_cut(|cut| cut.entries())
    }

    /// Heap bytes of the index across every shard
    /// ([`ShardState::heap_bytes`]), read under every shard lock.
    pub fn index_heap_bytes(&self) -> usize {
        let shards = self.lock_all_shards();
        shards.iter().map(|s| s.state.heap_bytes()).sum()
    }

    /// Runs `f` with the registry read-locked and every shard locked in
    /// ascending order (the crate's lock-all discipline), with the
    /// stores' `(used, capacity)` and the next sequence stamp. Used by
    /// the invariant auditor.
    pub(crate) fn with_all_locked<R>(
        &self,
        f: impl FnOnce(&Registry, &[MutexGuard<'_, Shard>], [(u64, u64); 2], u64) -> R,
    ) -> R {
        let reg = self.inner.registry.lock.read().expect("registry poisoned");
        let shards = self.lock_all_shards();
        let put = &self.inner.put;
        let stores = [&put.mem, &put.ssd].map(|l| (l.used_pages(), l.capacity_pages()));
        f(
            &reg,
            &shards,
            stores,
            put.next_seq.next.load(Ordering::Relaxed),
        )
    }

    // ------------------------------------------------------------------
    // Endurance plane: wear accounting and TTL demotion.
    // ------------------------------------------------------------------

    /// Every VM with wear on the books: live VMs plus VMs whose pools
    /// were all destroyed but whose retired wear persists. Sorted.
    pub fn wear_vm_ids(&self) -> Vec<VmId> {
        self.with_locked_cut(|cut| cut.wear_vm_ids())
    }

    /// Cumulative wear charged to one VM: its live pools plus everything
    /// retired when pools were destroyed. Never decreases.
    pub fn vm_wear(&self, vm: VmId) -> WearCounters {
        self.with_locked_cut(|cut| cut.vm_wear(vm))
    }

    /// Device-level wear totals across every VM ever seen.
    pub fn wear_totals(&self) -> WearCounters {
        self.with_locked_cut(|cut| cut.wear_totals())
    }

    /// TTL staleness sweep: demotes (drops) SSD-resident entries older
    /// than the configured `ssd_ttl`, measured in per-pool insert
    /// distance — an engine-independent clock, so both engines demote
    /// the same entries in the same order. Demotions are journaled as
    /// evictions. Returns pages demoted; a no-op when `ssd_ttl` is 0.
    ///
    /// Driver-invoked at deterministic points (tick boundaries) only —
    /// never from the threaded fast path.
    pub fn ttl_sweep(&mut self) -> u64 {
        let ttl = self.inner.ro.admission.ssd_ttl;
        if ttl == 0 {
            return 0;
        }
        let mut demoted = 0;
        for (vm, pid) in self.pool_ids() {
            let si = self.shard_of(vm, pid);
            let mut shard = self.lock_shard(si);
            let Shard { state, journal, .. } = &mut *shard;
            demoted += state.ttl_sweep_pool(&mut self.ledgers(), (vm, pid), ttl, |rec| {
                self.log_in(si, journal, rec);
            });
        }
        demoted
    }

    // ------------------------------------------------------------------
    // Internal helpers.
    // ------------------------------------------------------------------

    /// Every registered pool, in registry order.
    fn pool_ids(&self) -> Vec<(VmId, PoolId)> {
        let reg = self.inner.registry.lock.read().expect("registry poisoned");
        reg.pool_ids().collect()
    }

    fn ledger(&self, placement: Placement) -> &Ledger {
        self.inner.put.ledger(placement)
    }

    fn ledgers(&self) -> Ledgers<'_> {
        Ledgers {
            put: &self.inner.put,
            budget: &self.budget,
        }
    }

    /// Locks every shard in ascending index order. Parks on a busy one:
    /// a sweep holds what it has taken so far, so every microsecond it
    /// spins is one every client of those shards waits too.
    fn lock_all_shards(&self) -> Vec<MutexGuard<'_, Shard>> {
        self.inner
            .ro
            .shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned"))
            .collect()
    }

    /// One shard's lock, under the wait policy ([`crate::backoff`]):
    /// whoever holds it is mid-operation (an eviction batch at worst),
    /// so the waiter polls for a few batches' time before it parks.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
        backoff::lock(&self.inner.ro.shards[idx], "shard poisoned")
    }

    // ------------------------------------------------------------------
    // Entitlements (the registry's share table, memoized per handle).
    // ------------------------------------------------------------------

    /// Runs `f` against the handle-local memoized share table for one
    /// store ([`ShareMemo`]: exact, revalidated on every call), usage
    /// read from the mirrors — the locked usage on one thread, so an
    /// entitlement read here is the serial engine's. The caller holds
    /// the registry, so its version cannot move under the memo.
    fn with_share_memo<R>(
        &self,
        reg: &Registry,
        placement: Placement,
        f: impl FnOnce(&ShareTable) -> R,
    ) -> R {
        let mut memo = self.entitlements.memo.lock().expect("memo poisoned");
        memo.with(
            reg,
            reg.version(),
            self.ledger(placement).capacity_pages(),
            placement,
            |_, _, mirror| mirror.pages(placement),
            f,
        )
    }

    // ------------------------------------------------------------------
    // Eviction: one path for every mode (see the module docs).
    // ------------------------------------------------------------------

    /// Picks the victim `(vm, pool)` with the policy module's two-level
    /// walk over the share memo and the usage mirrors. The caller holds
    /// the registry and every shard, so the mirrors are the exact usage
    /// (auditor invariant `mirror-accuracy`).
    fn select_victim(&self, reg: &Registry, placement: Placement) -> Option<(VmId, PoolId)> {
        let strict = self.inner.ro.mode == PartitionMode::Strict;
        self.with_share_memo(reg, placement, |t| {
            t.select_victim(strict, EVICTION_BATCH_PAGES, |vm, pool| {
                reg.pool(vm, pool).map_or(0, |row| row.2.pages(placement))
            })
        })
    }

    /// After a capacity shrink, evicts batches until `placement`'s store
    /// fits again, holding the evictor gate so no put's eviction loop
    /// runs a batch beside it. Caller holds no lock.
    fn shrink_to_capacity(&self, now: SimTime, placement: Placement) {
        let gate = &self.inner.evictor.gate;
        let _evictor = gate.lock().expect("eviction gate poisoned");
        let ledger = self.ledger(placement);
        while ledger.used_pages() > ledger.capacity_pages() {
            // Every batch frees at least a page or ends the loop.
            if self.evict_batch(now, placement) == 0 {
                break;
            }
        }
    }

    /// Frees up to one eviction batch from `placement`'s store; 0 means
    /// nothing could be freed. Caller holds the evictor gate and no
    /// cache lock.
    ///
    /// Every mode decides with the registry and every shard locked.
    /// Global mode evicts the store-wide oldest pages under those
    /// guards ([`Self::evict_batch_global`]). DoubleDecker and Strict
    /// mode run the walk once ([`Self::select_victim`]), keep only the
    /// victim's home shard and evict the batch from it: the pick is
    /// Algorithm 1 on exact usage, as on the serial engine, so driven
    /// from one thread the victim (and every evicted object) matches
    /// it exactly. Trickle-down writes are charged at `now`.
    fn evict_batch(&self, now: SimTime, placement: Placement) -> u64 {
        self.run_eviction_hook();
        let reg = self.inner.registry.lock.read().expect("registry poisoned");
        let mut shards = self.lock_all_shards();
        if self.inner.ro.mode == PartitionMode::Global {
            return self.evict_batch_global(&mut shards, placement);
        }
        let Some((vm, pool_id)) = self.select_victim(&reg, placement) else {
            return 0;
        };
        let si = self.shard_of(vm, pool_id);
        let mut shard = shards.swap_remove(si);
        drop(shards);
        let Shard { state, journal, .. } = &mut *shard;
        state.visit(vm, pool_id).map_or(0, |mut victim| {
            let ledgers = &mut self.ledgers();
            self.evict_from(si, &mut victim, ledgers, journal, now, placement)
        })
    }

    /// Global-mode eviction over every shard's guard: one merge of
    /// every pool's queue ([`OldestFirst`]), each pool's oldest stamp
    /// read once and re-read only for the pool just evicted from. A
    /// pool's stamps rise under its shard lock, so this is the exact
    /// store-wide FIFO order under any interleaving, and the batch ends
    /// short only when the store holds nothing more to evict.
    fn evict_batch_global(
        &self,
        shards: &mut [MutexGuard<'_, Shard>],
        placement: Placement,
    ) -> u64 {
        let mut order = OldestFirst::new(placement, shards.iter().map(|s| &s.state));
        let mut freed = 0;
        while freed < EVICTION_BATCH_PAGES {
            let Some(si) = order.shard() else {
                break;
            };
            let shard = &mut *shards[si];
            let (vm, pool_id, addr) = order.evict(&mut shard.state, &mut self.ledgers());
            self.log_in(
                si,
                &mut shard.journal,
                shard::evict_record(vm, pool_id, addr),
            );
            freed += 1;
        }
        freed
    }

    /// One eviction batch of one pool out of its (locked) home shard
    /// ([`PoolVisit::evict_batch`]), each record journaled as it comes.
    /// A pool only ever touches its home shard, so one guard suffices:
    /// the other shards are free again while the batch runs.
    fn evict_from(
        &self,
        si: usize,
        pool: &mut PoolVisit<'_>,
        ledgers: &mut Ledgers<'_>,
        journal: &mut Option<Journal>,
        now: SimTime,
        placement: Placement,
    ) -> u64 {
        let (batch, admission) = (EVICTION_BATCH_PAGES, self.inner.ro.admission);
        let log = |rec| {
            self.log_in(si, journal, rec);
        };
        pool.evict_batch(ledgers, now, placement, batch, admission, log)
            .0
    }

    // ------------------------------------------------------------------
    // Put paths.
    // ------------------------------------------------------------------

    /// Allocates one page from `placement`'s ledger, evicting until the
    /// allocation lands or eviction stops freeing (`false`: the put
    /// must reject). Caller must hold no locks.
    ///
    /// Resource-conservative enforcement against the global ledger:
    /// evict only when the store itself is full, one
    /// [`Self::evict_batch`] at a time.
    fn alloc_or_evict(&self, now: SimTime, placement: Placement) -> bool {
        loop {
            if self.ledger(placement).try_alloc() {
                return true;
            }
            // Single-evictor gate (see [`Inner::eviction_gate`]): blocked
            // putters wait here instead of each running a duplicate
            // batch, and take the winner's pages as it pops them — the
            // ledger is re-checked every round of the wait policy
            // ([`crate::backoff`]), with no system call while the winner
            // is running; only a waiter that outlasts the budget (the
            // winner lost its core) parks on the gate. The winner always
            // makes progress (evicts or rejects), so the wait is bounded
            // by one batch. Single-threaded the first try_lock always
            // succeeds and the re-check below always fails (nothing
            // freed since the check above), so the serial victim
            // sequence — and byte-identity — is untouched.
            let gate = &self.inner.evictor.gate;
            let mut backoff = Backoff::new();
            let _evictor = loop {
                if let Some(guard) = backoff::try_lock(gate, "eviction gate poisoned") {
                    break guard;
                }
                if !backoff.snooze() {
                    break gate.lock().expect("eviction gate poisoned");
                }
                if self.ledger(placement).try_alloc() {
                    return true;
                }
            };
            if self.ledger(placement).try_alloc() {
                return true;
            }
            if self.evict_batch(now, placement) == 0 {
                return false;
            }
        }
    }

    // ------------------------------------------------------------------
    // Group application (DESIGN.md §18): the only implementation of
    // get, put and flush. Every call names one `(vm, pool)`, so the
    // whole group homes on one shard: the group helpers take the shard
    // lock once, resolve the pool once ([`ShardState::visit`]), apply
    // the ops in call order, and drain pending journal records as one
    // contiguous generation run before the lock drops; a helper that
    // has to drop the lock mid-group (to evict, to compact) resolves
    // again when it has it back. The scalar trait methods are the
    // one-element case. Compaction is checked at every op that would
    // trigger it alone, so the checkpoint rewrite fires at the same
    // operation however the ops are grouped — which is what keeps the
    // journal byte-identical across batch sizes and with the serial
    // engine.
    // ------------------------------------------------------------------

    /// The get group: one home-shard visit for the whole group in the
    /// common case, every address through [`PoolVisit::take`] (a local
    /// miss falls through to the pool's remote binding). Outcomes land
    /// in `out` (same length as `addrs`, all misses on entry), so the
    /// scalar caller passes a stack slot and allocates nothing. An
    /// unknown pool is a locked visit that finds no pool: every get
    /// stays the miss `out` holds, as on the serial engine.
    fn get_group(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        addrs: &[BlockAddr],
        out: &mut [GetOutcome],
        batched: bool,
    ) {
        let si = self.shard_of(vm, pool);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin(batched.then_some(addrs.len()));
        let admission = self.inner.ro.admission;
        let mut next = 0;
        // A visit that pauses to compact comes back to its shard even
        // when that was the batch's last hit: the batch counters count
        // the visit, and `results/` holds them to the byte.
        loop {
            let mut shard = self.visit_shard(si, &mut scratch);
            let Shard { state, journal, .. } = &mut *shard;
            let Some(mut visit) = state.visit(vm, pool) else {
                // No such pool: every get is the miss `out` already
                // holds.
                self.leave_shard(si, shard, &mut scratch);
                break;
            };
            let mut compact = false;
            while let (Some(&addr), false) = (addrs.get(next), compact) {
                let i = next;
                next += 1;
                // Exclusive semantics remove the object on a hit, and
                // with it its queue entry.
                let Some(got) = visit.take(&mut self.ledgers(), now, addr, admission) else {
                    // Miss in the local tiers: fall through to the
                    // pool's remote binding (if any), which fails open
                    // back to a miss.
                    out[i] = visit.remote_get(now, addr);
                    continue;
                };
                out[i] = got;
                // The object is gone, served or failed: it journals, and
                // a hit is a compaction point, as on the serial engine.
                if journal.is_some() {
                    scratch.records.push(shard::take_record(vm, pool, addr));
                    compact = got.is_hit() && self.compaction_due(scratch.records.len());
                }
            }
            self.leave_shard(si, shard, &mut scratch);
            if !compact {
                break;
            }
            self.maybe_compact_journal();
        }
        self.scratch = scratch;
    }

    /// The put group: one home-shard visit for the whole group in the
    /// common case, every page through [`PoolVisit::place`] and
    /// [`PoolVisit::store`]. Every visit takes the registry read lock,
    /// then the shard's (the lock order), and decides under both, as
    /// the serial `put` does: the policy is the pool's own, the pool's
    /// usage is exact and entitlements come from the handle-local memo,
    /// so there is nothing to speculate on and nothing to retry. A pool
    /// the visit does not find rejects the group. Outcomes land in
    /// `out` (same length as `pages`), so the scalar caller passes a
    /// stack slot and allocates nothing.
    ///
    /// A visit ends early for two reasons, each with no lock held
    /// afterwards: the store is full (run the eviction loop, come back
    /// with the page in hand), or the put just stored crossed the
    /// compaction threshold (every stored put is a compaction point).
    /// A page in hand is stored only under the policy it was taken for.
    fn put_group(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        pages: &[(BlockAddr, PageVersion)],
        out: &mut [PutOutcome],
        batched: bool,
    ) {
        let si = self.shard_of(vm, pool);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin(batched.then_some(pages.len()));
        let mut next = 0;
        // A page of this store, taken for `pages[next]` by the eviction
        // loop while no lock was held, and the policy it was taken for.
        let mut in_hand: Option<(Placement, CachePolicy)> = None;
        let (mode, admission) = (self.inner.ro.mode, self.inner.ro.admission);
        while next < pages.len() {
            let reg = self.inner.registry.lock.read().expect("registry poisoned");
            let mut shard = self.visit_shard(si, &mut scratch);
            let Shard { state, journal, .. } = &mut *shard;
            let Some(mut visit) = state.visit(vm, pool) else {
                // No such pool, or it was destroyed under the group
                // (while it was evicting, at the earliest): a page in
                // hand goes back and what is left of the group is
                // rejected.
                if let Some((placement, _)) = in_hand.take() {
                    self.ledgers().free(placement, 1);
                }
                out[next..].fill(PutOutcome::Rejected);
                self.leave_shard(si, shard, &mut scratch);
                break;
            };
            let policy = visit.pool.policy();
            // The policy changed while the group was evicting: the page
            // was placed by the old one, so it goes back and its put is
            // rejected; the rest of the group runs under the new one.
            if let Some((placement, _)) = in_hand.take_if(|(_, taken)| *taken != policy) {
                self.ledgers().free(placement, 1);
                out[next] = PutOutcome::Rejected;
                next += 1;
            }
            let mut pause = Pause::Done;
            while let Some(&(addr, version)) = pages.get(next) {
                let entitlement = |placement| {
                    self.with_share_memo(&reg, placement, |t| t.pool_entitlement(vm, pool))
                };
                let placed = match in_hand.take() {
                    Some((placement, _)) => Placed::At(placement),
                    None => visit.place(
                        &mut self.ledgers(),
                        now,
                        addr,
                        policy,
                        mode,
                        admission,
                        entitlement,
                        |visit, ledgers, placement| {
                            // The evictor journals straight into the
                            // segment: pending batch records land first,
                            // so generation order stays operation order.
                            self.drain_scratch(si, journal, &mut scratch);
                            self.evict_from(si, visit, ledgers, journal, now, placement)
                        },
                    ),
                };
                let placement = match placed {
                    Placed::At(placement) => placement,
                    Placed::Rejected => {
                        out[next] = PutOutcome::Rejected;
                        next += 1;
                        continue;
                    }
                    Placed::Full(placement) => {
                        pause = Pause::Evict(placement);
                        break;
                    }
                };
                let stored = visit.store(&mut self.ledgers(), now, addr, placement, version);
                next += 1;
                let finish = match stored {
                    Ok(finish) => finish,
                    Err(err) => {
                        out[next - 1] = PutOutcome::Failed { finish: err.finish };
                        continue;
                    }
                };
                out[next - 1] = PutOutcome::Stored { finish };
                if journal.is_some() {
                    let record = shard::put_record(vm, pool, addr, version, placement);
                    scratch.records.push(record);
                }
                if self.compaction_due(scratch.records.len()) {
                    pause = Pause::Compact;
                    break;
                }
            }
            self.leave_shard(si, shard, &mut scratch);
            drop(reg);
            match pause {
                Pause::Done => {}
                Pause::Compact => self.maybe_compact_journal(),
                // Resource-conservative enforcement: evict only when
                // the store itself is full, from no lock held.
                Pause::Evict(placement) => {
                    if self.alloc_or_evict(now, placement) {
                        in_hand = Some((placement, policy));
                    } else {
                        out[next] = PutOutcome::Rejected;
                        next += 1;
                    }
                }
            }
        }
        self.scratch = scratch;
    }

    /// The flush group: one lock acquisition, every Flush record
    /// drained as one generation run. Returns the flush epoch — the
    /// last generation claimed (0 with journaling off), the maximum of
    /// the per-record epochs.
    ///
    /// Unlike the serial plane this does NOT sync — durability arrives
    /// at the next group-commit tick; the epoch VALUE is the same
    /// either way, and recovery's per-VM discard covers the window.
    /// Live compaction is not checked here either: flushes compact at
    /// batch boundaries (`flush_many`), not per op, like the serial
    /// engine.
    fn flush_group(&mut self, vm: VmId, pool: PoolId, addrs: &[BlockAddr], batched: bool) -> u64 {
        let si = self.shard_of(vm, pool);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin(batched.then_some(addrs.len()));
        let mut shard = self.visit_shard(si, &mut scratch);
        let Shard { state, journal, .. } = &mut *shard;
        // The guest is writing the backing block: the remote's copy is
        // stale forever after (stash it if the pool is not bound yet).
        let remotes = self.inner.ro.remote_on.load(Ordering::Acquire);
        if let Some(mut visit) = state.visit(vm, pool) {
            for &addr in addrs {
                visit.remove(&mut self.ledgers(), addr);
                visit.note_flush(addr, remotes);
            }
        } else {
            // No such pool: nothing to remove, stale all the same.
            for &addr in addrs {
                state.note_flush(vm, pool, addr, remotes);
            }
        }
        // Logged even when the block was absent: the returned epoch
        // must cover this flush regardless, since a crash may lose the
        // unsynced put that would have made the block present.
        if journal.is_some() {
            let records = addrs
                .iter()
                .map(|&addr| shard::flush_record(vm, pool, addr));
            scratch.records.extend(records);
        }
        let epoch = self.leave_shard(si, shard, &mut scratch);
        self.scratch = scratch;
        epoch
    }

    fn registry_mut(&self) -> RwLockWriteGuard<'_, Registry> {
        self.inner.registry.lock.write().expect("registry poisoned")
    }

    /// Every live control verb, the serial engine's way: under the
    /// caller's registry write guard and every shard (registry before
    /// shards, the lock-order rule), [`shard::replay_record`] — the body
    /// recovery runs — then the record into the segment
    /// [`shard::segment_of`] names. A record the registry ignored
    /// journals nothing and answers `None`; otherwise that segment's
    /// shard comes back still locked and the others drop.
    fn control<'a>(
        &'a self,
        reg: &mut Registry,
        rec: JournalRecord,
    ) -> Option<(usize, MutexGuard<'a, Shard>)> {
        let mut shards = self.lock_all_shards();
        let mut states: Vec<_> = shards.iter_mut().map(|s| &mut s.state).collect();
        if !shard::replay_record(reg, &mut states, &mut self.ledgers(), 0, &rec) {
            return None;
        }
        let si = shard::segment_of(&rec, shards.len());
        self.log_in(si, &mut shards[si].journal, rec);
        Some((si, shards.swap_remove(si)))
    }

    /// The source half of a migration on its (locked) home shard: the
    /// object leaves `from` and its page goes back to the ledger.
    fn migrate_out(
        &self,
        si: usize,
        shard: &mut Shard,
        vm: VmId,
        from: PoolId,
        addr: BlockAddr,
    ) -> Option<Slot> {
        let slot = shard.state.remove(&mut self.ledgers(), vm, from, addr)?;
        self.log_in(si, &mut shard.journal, shard::take_record(vm, from, addr));
        Some(slot)
    }

    /// The target half on `to`'s (locked) home shard
    /// ([`ShardState::adopt`]; a page a racing put took first drops the
    /// object too), then the `Put` journaled.
    fn migrate_in(
        &self,
        si: usize,
        shard: &mut Shard,
        vm: VmId,
        to: PoolId,
        addr: BlockAddr,
        slot: Slot,
    ) {
        if shard.state.adopt(&mut self.ledgers(), vm, to, addr, slot) {
            let put = shard::put_record(vm, to, addr, slot.version, slot.placement);
            self.log_in(si, &mut shard.journal, put);
        }
    }
}

impl SecondChanceCache for ShardedCache {
    fn create_pool(&mut self, vm: VmId, policy: CachePolicy) -> PoolId {
        let mut reg = self.registry_mut();
        let id = reg.next_pool();
        let rec = JournalRecord::CreatePool {
            vm: vm.0,
            pool: id.0,
            store: store_kind_code(policy.store),
            weight: policy.weight,
        };
        self.control(&mut reg, rec);
        id
    }

    fn destroy_pool(&mut self, vm: VmId, pool: PoolId) {
        let (vm, pool) = (vm.0, pool.0);
        let rec = JournalRecord::DestroyPool { vm, pool };
        self.control(&mut self.registry_mut(), rec);
    }

    fn set_policy(&mut self, vm: VmId, pool: PoolId, policy: CachePolicy) {
        // Journaled (in `control`) before the re-homing records, so
        // replay applies the policy raw and then the logged evictions
        // and puts in causal order.
        let rec = JournalRecord::SetPolicy {
            vm: vm.0,
            pool: pool.0,
            store: store_kind_code(policy.store),
            weight: policy.weight,
        };
        let Some((si, mut shard)) = self.control(&mut self.registry_mut(), rec) else {
            return;
        };
        // Re-home what the new policy no longer allows where it is.
        let Shard { state, journal, .. } = &mut *shard;
        for (addr, version, to) in state.misplaced(vm, pool) {
            let mut visit = state.visit(vm, pool).expect("re-homing keeps the pool");
            let moved = visit.rehome(&mut self.ledgers(), SimTime::ZERO, addr, to);
            self.log_in(si, journal, shard::evict_record(vm, pool, addr));
            if moved {
                self.log_in(si, journal, shard::put_record(vm, pool, addr, version, to));
            }
        }
    }

    fn migrate_object(&mut self, vm: VmId, from: PoolId, to: PoolId, addr: BlockAddr) {
        let (si_from, si_to) = (self.shard_of(vm, from), self.shard_of(vm, to));
        if si_from == si_to {
            let mut shard = self.lock_shard(si_from);
            if let Some(slot) = self.migrate_out(si_from, &mut shard, vm, from, addr) {
                self.migrate_in(si_to, &mut shard, vm, to, addr, slot);
            }
            return;
        }
        // Lock both home shards in ascending order (lock-order rule).
        let mut guard_lo = self.lock_shard(si_from.min(si_to));
        let mut guard_hi = self.lock_shard(si_from.max(si_to));
        let (src, dst): (&mut Shard, &mut Shard) = if si_from < si_to {
            (&mut guard_lo, &mut guard_hi)
        } else {
            (&mut guard_hi, &mut guard_lo)
        };
        if let Some(slot) = self.migrate_out(si_from, src, vm, from, addr) {
            self.migrate_in(si_to, dst, vm, to, addr, slot);
        }
    }

    fn pool_stats(&self, vm: VmId, pool: PoolId) -> Option<PoolStats> {
        let reg = self.inner.registry.lock.read().expect("registry poisoned");
        let shard = self.lock_shard(self.shard_of(vm, pool));
        let p = shard.state.pools.get(&(vm, pool))?;
        let entitled = |t: &ShareTable| t.pool_entitlement(vm, pool);
        let entitlement = self.with_share_memo(&reg, p.primary_placement(), entitled);
        Some(p.stats(entitlement))
    }

    fn get(&mut self, now: SimTime, vm: VmId, pool: PoolId, addr: BlockAddr) -> GetOutcome {
        let mut out = [GetOutcome::Miss];
        self.get_group(now, vm, pool, &[addr], &mut out, false);
        out[0]
    }

    fn put(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        addr: BlockAddr,
        version: PageVersion,
    ) -> PutOutcome {
        let mut out = [PutOutcome::Rejected];
        self.put_group(now, vm, pool, &[(addr, version)], &mut out, false);
        out[0]
    }

    fn flush(&mut self, vm: VmId, pool: PoolId, addr: BlockAddr) -> u64 {
        self.flush_group(vm, pool, &[addr], false)
    }

    fn flush_file(&mut self, vm: VmId, pool: PoolId, file: FileId) -> u64 {
        let si = self.shard_of(vm, pool);
        let mut shard = self.lock_shard(si);
        shard.state.remove_file(&mut self.ledgers(), vm, pool, file);
        let remotes = self.inner.ro.remote_on.load(Ordering::Acquire);
        shard.state.note_flush_file(vm, pool, file, remotes);
        // Compaction hoisted to batch boundaries, like `flush`.
        self.log_in(
            si,
            &mut shard.journal,
            shard::flush_file_record(vm, pool, file),
        )
    }

    fn get_many(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        addrs: &[BlockAddr],
    ) -> Vec<GetOutcome> {
        let mut out = vec![GetOutcome::Miss; addrs.len()];
        if !addrs.is_empty() {
            self.get_group(now, vm, pool, addrs, &mut out, true);
        }
        out
    }

    fn put_many(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        pages: &[(BlockAddr, PageVersion)],
    ) -> Vec<PutOutcome> {
        let mut out = vec![PutOutcome::Rejected; pages.len()];
        if !pages.is_empty() {
            self.put_group(now, vm, pool, pages, &mut out, true);
        }
        out
    }

    fn flush_many(&mut self, vm: VmId, pool: PoolId, addrs: &[BlockAddr]) -> u64 {
        if addrs.is_empty() {
            return 0;
        }
        let epoch = self.flush_group(vm, pool, addrs, true);
        // Live compaction once per batch, not once per flush — the
        // serial engine hoists identically, so the checkpoint rewrite
        // still fires at the same operation on both planes.
        self.maybe_compact_journal();
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit;

    /// Corruptors for the auditor's detection tests.
    impl ShardedCache {
        /// Sets one pool's policy behind the registry's back, so tests can
        /// show the auditor notices the row and the pool disagree.
        pub(crate) fn skew_pool_policy(&self, vm: VmId, pool: PoolId, policy: CachePolicy) {
            let mut shard = self.lock_shard(self.shard_of(vm, pool));
            let pool = shard.state.pools.get_mut(&(vm, pool));
            pool.expect("no such pool").set_policy(policy);
        }

        /// Fills this handle's share memo for one store from a registry
        /// that is not the cache's (one VM nobody registered owns the whole
        /// store), under the cache registry's version and the current
        /// capacity: a memo that passes its own validity check and is
        /// wrong.
        pub(crate) fn skew_share_memo(&self, placement: Placement) {
            let version = self.inner.registry.lock.read().expect("registry").version();
            let mut other = Registry::default();
            let (vm, pool, store, weight) = (u32::MAX, 1, placement.code(), 100);
            other.apply(
                &JournalRecord::CreatePool {
                    vm,
                    pool,
                    store,
                    weight,
                },
                Arc::default,
            );
            let mut memo = self.entitlements.memo.lock().expect("memo poisoned");
            *memo = ShareMemo::default();
            let capacity = self.ledger(placement).capacity_pages();
            let legacy_used = |_, _, m: &Arc<UsageMirror>| m.pages(placement);
            memo.with(&other, version, capacity, placement, legacy_used, |_| ());
        }

        /// Corrupts one resident object's stored checksum behind the
        /// engine's back (bit rot in its store), so tests can show a get
        /// fails it rather than serve it. `false` if it is not resident.
        pub(crate) fn rot_slot(&self, vm: VmId, pool: PoolId, addr: BlockAddr) -> bool {
            let mut shard = self.lock_shard(self.shard_of(vm, pool));
            let pool = shard.state.pools.get_mut(&(vm, pool));
            pool.is_some_and(|p| p.corrupt(addr))
        }
    }

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr::new(FileId(f), b)
    }

    /// Verify-on-read: a rotten copy, in memory or on the SSD, is taken
    /// out and failed, never served, and counted against its pool; the
    /// journal records the take, the audit stays clean, and a healthy
    /// neighbour still hits.
    #[test]
    fn a_rotten_hit_is_failed_never_served() {
        let mut cache = ShardedCache::new(CacheConfig::mem_and_ssd(64, 64), 4);
        cache.enable_journal();
        let vm = VmId(1);
        let pools = [
            cache.create_pool(vm, CachePolicy::mem(100)),
            cache.create_pool(vm, CachePolicy::ssd(100)),
        ];
        for (file, pool) in (1..).zip(pools) {
            let (rotten, healthy) = (addr(file, 0), addr(file, 1));
            for a in [rotten, healthy] {
                assert!(cache
                    .put(SimTime::ZERO, vm, pool, a, PageVersion(7))
                    .is_stored());
            }
            assert!(cache.rot_slot(vm, pool, rotten));
            let records = cache.journal_records();
            let now = SimTime::from_secs(1);
            let failed = cache.get(now, vm, pool, rotten);
            assert_eq!(failed, GetOutcome::Failed { finish: now }, "{pool}");
            assert_eq!(cache.journal_records(), records.map(|r| r + 1), "a take");
            assert_eq!(cache.get(now, vm, pool, rotten), GetOutcome::Miss, "{pool}");
            assert!(cache.get(now, vm, pool, healthy).is_hit(), "{pool}");
            let stats = cache.pool_stats(vm, pool).unwrap();
            assert_eq!((stats.failed_gets, stats.hits, stats.gets), (1, 1, 3));
            assert_eq!(stats.total_pages(), 0, "{pool}");
        }
        assert_eq!(audit(&cache), vec![]);
    }

    #[test]
    fn shard_map_is_deterministic_and_spreads() {
        let cache = ShardedCache::new(CacheConfig::mem_only(64), 8);
        let mut hit = vec![false; 8];
        for v in 0..16 {
            for p in 0..16 {
                let si = cache.shard_of(VmId(v), PoolId(p));
                assert!(si < 8);
                assert_eq!(si, cache.shard_of(VmId(v), PoolId(p)));
                hit[si] = true;
            }
        }
        assert!(
            hit.iter().all(|&h| h),
            "256 keys left a shard empty: {hit:?}"
        );
    }

    #[test]
    fn pressure_ledger_never_oversubscribes_and_evicts_globally() {
        let mut cache = ShardedCache::new(CacheConfig::mem_only(64), 4);
        cache.add_vm(VmId(0), 100);
        cache.add_vm(VmId(1), 300);
        let a = cache.create_pool(VmId(0), CachePolicy::mem(100));
        let b = cache.create_pool(VmId(1), CachePolicy::mem(100));
        for i in 0..200 {
            cache.put(SimTime::ZERO, VmId(0), a, addr(1, i), PageVersion(i));
            cache.put(SimTime::ZERO, VmId(1), b, addr(2, i), PageVersion(i));
        }
        assert!(cache.mem_used_pages() <= 64);
        assert!(cache.evictions() > 0, "a full store must have evicted");
        let findings = audit(&cache);
        assert!(findings.is_empty(), "{findings:?}");
        // Weighted eviction kept the heavier VM ahead: with a 1:3 weight
        // split the light VM must not out-occupy the heavy one.
        let sa = cache.pool_stats(VmId(0), a).unwrap();
        let sb = cache.pool_stats(VmId(1), b).unwrap();
        assert!(
            sb.mem_pages >= sa.mem_pages,
            "weights ignored: light VM holds {} pages, heavy {}",
            sa.mem_pages,
            sb.mem_pages
        );
    }

    #[test]
    fn migrate_moves_objects_between_shards() {
        let mut cache = ShardedCache::new(CacheConfig::mem_only(64), 8);
        cache.add_vm(VmId(0), 100);
        let from = cache.create_pool(VmId(0), CachePolicy::mem(50));
        let to = cache.create_pool(VmId(0), CachePolicy::mem(50));
        // With 8 shards and sequential pool ids the two pools usually
        // land on different shards; the test is valid either way.
        for i in 0..10 {
            cache.put(SimTime::ZERO, VmId(0), from, addr(1, i), PageVersion(i));
        }
        for i in 0..10 {
            cache.migrate_object(VmId(0), from, to, addr(1, i));
        }
        let sf = cache.pool_stats(VmId(0), from).unwrap();
        let st = cache.pool_stats(VmId(0), to).unwrap();
        assert_eq!(sf.mem_pages, 0);
        assert_eq!(st.mem_pages, 10);
        assert_eq!(cache.mem_used_pages(), 10);
        let findings = audit(&cache);
        assert!(findings.is_empty(), "{findings:?}");
        // The moved objects are servable from the target pool.
        for i in 0..10 {
            assert!(matches!(
                cache.get(SimTime::ZERO, VmId(0), to, addr(1, i)),
                GetOutcome::Hit { version, .. } if version == PageVersion(i)
            ));
        }
    }

    #[test]
    fn destroy_pool_returns_pages_to_the_ledger() {
        let mut cache = ShardedCache::new(CacheConfig::mem_and_ssd(32, 32), 4);
        cache.add_vm(VmId(0), 100);
        let p = cache.create_pool(VmId(0), CachePolicy::hybrid(100));
        for i in 0..40 {
            cache.put(SimTime::ZERO, VmId(0), p, addr(1, i), PageVersion(i));
        }
        assert!(cache.mem_used_pages() + cache.ssd_used_pages() > 0);
        cache.destroy_pool(VmId(0), p);
        assert_eq!(cache.mem_used_pages(), 0);
        assert_eq!(cache.ssd_used_pages(), 0);
        let findings = audit(&cache);
        assert!(findings.is_empty(), "{findings:?}");
        // Later puts against the destroyed pool are rejected cleanly.
        assert_eq!(
            cache.put(SimTime::ZERO, VmId(0), p, addr(1, 0), PageVersion(0)),
            PutOutcome::Rejected
        );
    }

    /// A pool that only exclusive gets drain — nothing evicts, so
    /// nothing pops its queues — holds exactly its live pages on each
    /// store's queue after every put, scalar or batched.
    #[test]
    fn exclusive_gets_alone_keep_a_pools_queues_at_its_live_set() {
        let mut cache = ShardedCache::new(CacheConfig::mem_and_ssd(256, 256), 4);
        cache.add_vm(VmId(0), 100);
        let mem = cache.create_pool(VmId(0), CachePolicy::mem(100));
        let ssd = cache.create_pool(VmId(0), CachePolicy::ssd(100));
        let mut rng = ddc_sim::SimRng::new(0xF1F0);
        let mut resident = [Vec::new(), Vec::new()];
        for b in 0..4_000 {
            for (file, pool) in [mem, ssd].into_iter().enumerate() {
                let put = addr(file as u64 + 1, b);
                let stored = if b % 2 == 0 {
                    cache.put(SimTime::ZERO, VmId(0), pool, put, PageVersion(1))
                } else {
                    let pages = [(put, PageVersion(1))];
                    cache.put_many(SimTime::ZERO, VmId(0), pool, &pages)[0]
                };
                assert!(stored.is_stored());
                let shard = cache.lock_shard(cache.shard_of(VmId(0), pool));
                let p = &shard.state.pools[&(VmId(0), pool)];
                for placement in [Placement::Mem, Placement::Ssd] {
                    let len = p.fifo_entries(placement).count() as u64;
                    let used = p.used(placement);
                    assert_eq!(len, used, "put {b}: {placement:?} queue");
                }
                drop(shard);
                // Zero, one or two takes a put: the live set wanders,
                // held under 64.
                let resident = &mut resident[file];
                resident.push(put);
                let takes = rng.range_u64(0, 3).max(u64::from(resident.len() > 64));
                for _ in 0..takes.min(resident.len() as u64) {
                    let taken = resident.swap_remove(rng.range_usize(0, resident.len()));
                    assert!(cache.get(SimTime::ZERO, VmId(0), pool, taken).is_hit());
                }
            }
        }
        assert_eq!(cache.evictions(), 0, "only gets drained the pools");
        assert_eq!(audit(&cache), vec![]);
    }

    #[test]
    fn journaled_flushes_return_real_epochs_and_survive_recovery() {
        let config = CacheConfig::mem_and_ssd(64, 64);
        let mut cache = ShardedCache::new(config, 4);
        cache.enable_journal();
        cache.add_vm(VmId(1), 100);
        let p = cache.create_pool(VmId(1), CachePolicy::mem(100));
        for i in 0..20 {
            assert!(matches!(
                cache.put(SimTime::ZERO, VmId(1), p, addr(1, i), PageVersion(i + 1)),
                PutOutcome::Stored { .. }
            ));
        }
        let e1 = cache.flush(VmId(1), p, addr(1, 0));
        let e2 = cache.flush(VmId(1), p, addr(1, 1));
        assert!(e1 > 0, "journaled flush must return a real epoch");
        assert!(e2 > e1, "epochs are monotone");
        // Group commit: nothing durable until the tick.
        assert_eq!(cache.commit_epoch(), 0);
        let tick = cache.commit_tick();
        assert_eq!(tick, e2, "watermark covers the last flush");
        assert_eq!(cache.commit_epoch(), e2);
        assert!(cache
            .journal_durable_lens()
            .unwrap()
            .iter()
            .zip(cache.journal_images().unwrap())
            .all(|(&d, img)| d == img.len()));

        let images = cache.journal_images().unwrap();
        let (rec, report) = ShardedCache::recover(config, &images, &[(VmId(1), e2)]);
        // All flushes replayed, so nothing is epoch-suspect.
        assert_eq!(report.discarded_stale, 0);
        assert_eq!(report.recovered_entries, 18);
        assert_eq!(report.gap_discarded, 0);
        let entries = rec.entries();
        assert_eq!(entries.len(), 18);
        assert!(
            !entries
                .iter()
                .any(|&(_, _, a, _)| a == addr(1, 0) || a == addr(1, 1)),
            "flushed blocks must not come back"
        );
        let findings = audit(&rec);
        assert!(findings.is_empty(), "{findings:?}");
        // The survivor journals on: epochs keep advancing past the
        // recovery checkpoint's.
        assert!(rec.journal_enabled());
        let ckpt_top = report.new_epochs.iter().map(|&(_, e)| e).max().unwrap();
        let mut rec = rec;
        let e3 = rec.flush(VmId(1), p, addr(1, 2));
        assert!(e3 > ckpt_top, "post-recovery epochs continue the line");

        // A tick right after a forced compaction returns what is
        // published — the fully synced checkpoint's last generation —
        // and finds nothing left to mark.
        let compactions = cache.journal_compactions();
        let absent: Vec<BlockAddr> = (0..ddc_hypercache::JOURNAL_COMPACT_MIN_RECORDS)
            .map(|i| addr(9, i))
            .collect();
        let e4 = cache.flush_many(VmId(1), p, &absent);
        assert_eq!(cache.journal_compactions(), compactions + 1);
        let installed = cache.commit_epoch();
        assert!(
            installed > e4,
            "the checkpoint's generations follow the batch"
        );
        assert_eq!(cache.commit_tick(), installed);
        assert_eq!(cache.commit_epoch(), installed);
        assert!(cache
            .journal_snapshot()
            .unwrap()
            .iter()
            .all(|(image, durable)| *durable == image.len()));
        let findings = audit(&cache);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn the_atomic_ledgers_equal_pool_usage_after_every_shard_transition() {
        use ddc_sim::SimRng;
        for mode in [PartitionMode::DoubleDecker, PartitionMode::Global] {
            let global = mode == PartitionMode::Global;
            let config = CacheConfig::mem_and_ssd(24, 48).with_mode(mode);
            let mut cache = ShardedCache::new(config, 1);
            let vm = VmId(1);
            let pool = cache.create_pool(vm, CachePolicy::hybrid(100));
            let mut rng = SimRng::new(0x1ED6);
            let mut shard = cache.lock_shard(0);
            for _ in 0..4_000 {
                let a = addr(rng.range_u64(1, 4), rng.range_u64(0, 16));
                let placement = *rng.pick(&[Placement::Mem, Placement::Ssd]);
                let state = &mut shard.state;
                let mut ledgers = cache.ledgers();
                match rng.range_u64(0, 8) {
                    0..=3 => {
                        if cache.ledger(placement).try_alloc() {
                            let seq = ledgers.next_seq();
                            state.insert(
                                &mut ledgers,
                                vm,
                                pool,
                                a,
                                placement,
                                PageVersion(seq),
                                seq,
                            );
                        }
                    }
                    4 => drop(state.remove(&mut ledgers, vm, pool, a)),
                    5 => drop(state.remove_file(&mut ledgers, vm, pool, a.file)),
                    6 => {
                        let mut order = OldestFirst::new(placement, [&*state]);
                        if order.shard().is_some() {
                            order.evict(state, &mut ledgers);
                        }
                    }
                    _ => {
                        // Global mode evicts no pool batch live, so
                        // nothing trickles there: its batches here take
                        // SSD objects, which never trickle.
                        let placement = if global { Placement::Ssd } else { placement };
                        let mut visit = state.visit(vm, pool).expect("the pool");
                        let admit_all = AdmissionConfig::off();
                        let now = SimTime::ZERO;
                        visit.evict_batch(&mut ledgers, now, placement, 3, admit_all, |_| {});
                    }
                }
                for placement in [Placement::Mem, Placement::Ssd] {
                    let ledger = cache.ledger(placement);
                    assert_eq!(
                        ledger.used_pages(),
                        state.pools[&(vm, pool)].used(placement)
                    );
                    assert!(ledger.used_pages() <= ledger.capacity_pages());
                }
            }
            drop(shard);
            let findings = audit(&cache);
            assert!(findings.is_empty(), "{mode:?}: {findings:?}");
        }
    }

    /// The layout is owned, not pinned (DESIGN.md "Layout of the shared
    /// core"): what must hold is that no two groups of the shared core,
    /// no two shards, no two commit cells and no two handles share a
    /// cache line, whatever their sizes are today.
    #[test]
    fn shard_stays_line_aligned() {
        use std::mem::{align_of, size_of};
        // One shard's lock word and hot words never share a line with
        // its neighbour's, and the shard array starts on a line.
        assert_eq!(align_of::<Mutex<Shard>>(), 64);
        assert_eq!(size_of::<Mutex<Shard>>() % 64, 0);
        assert_eq!(align_of::<CommitCell>(), 64);
        assert_eq!(size_of::<CommitCell>() % 64, 0);
        // Two handles side by side (a `Vec` of them) share no line, and
        // inside one the scratch, the share memo and the compaction
        // budget each start a line.
        assert_eq!(align_of::<ShardedCache>(), 64);
        assert_eq!(size_of::<ShardedCache>() % 64, 0);
        let handle_lines = [
            std::mem::offset_of!(ShardedCache, scratch),
            std::mem::offset_of!(ShardedCache, entitlements),
            std::mem::offset_of!(ShardedCache, budget),
        ];
        assert!(
            handle_lines.iter().all(|at| at % 64 == 0),
            "{handle_lines:?}"
        );

        let cache = ShardedCache::new(CacheConfig::mem_only(64), 3);
        assert_eq!(cache.inner.ro.shards.as_ptr() as usize % 64, 0);
        assert_eq!(cache.inner.ro.commit_cells.as_ptr() as usize % 64, 0);
        assert_eq!(std::ptr::from_ref::<Inner>(&cache.inner) as usize % 64, 0);
    }

    #[test]
    fn inner_groups_share_no_cache_line() {
        use std::mem::{offset_of, size_of};
        assert_eq!(std::mem::align_of::<Inner>(), 64);
        // (offset, size) of every group, in declaration order.
        let groups = [
            ("ro", offset_of!(Inner, ro), size_of::<ReadMostly>()),
            ("put", offset_of!(Inner, put), size_of::<PutWords>()),
            (
                "append",
                offset_of!(Inner, append),
                size_of::<AppendWords>(),
            ),
            (
                "budget",
                offset_of!(Inner, budget),
                size_of::<BudgetWords>(),
            ),
            ("stats", offset_of!(Inner, stats), size_of::<StatCounters>()),
            (
                "registry",
                offset_of!(Inner, registry),
                size_of::<RegistryLock>(),
            ),
            (
                "evictor",
                offset_of!(Inner, evictor),
                size_of::<EvictorGate>(),
            ),
            ("cold", offset_of!(Inner, cold), size_of::<Cold>()),
        ];
        let mut covered = 0;
        for (name, at, size) in groups {
            assert_eq!(at % 64, 0, "group `{name}` starts mid-line");
            assert_eq!(size % 64, 0, "group `{name}` ends mid-line");
            covered += size;
        }
        // Nothing in `Inner` lives outside a group.
        assert_eq!(covered, size_of::<Inner>());
        // The words an append writes are one line; the words a put
        // writes a line each (see `PutWords`).
        assert_eq!(size_of::<AppendWords>(), 64);
        let put_lines = [
            offset_of!(PutWords, mem),
            offset_of!(PutWords, ssd),
            offset_of!(PutWords, next_seq),
        ];
        assert_eq!(put_lines, [0, 64, 128]);
    }

    /// What `f` panics with (the engine's lock failures are `&str` or
    /// `String` payloads).
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call returned instead of panicking");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => (*payload.downcast::<&str>().expect("a string payload")).to_string(),
        }
    }

    /// A thread dies holding `lock`.
    fn poison<T: Send>(lock: &Mutex<T>) {
        let died = std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = lock.lock().expect("not poisoned yet");
                panic!("poisoning the lock on purpose");
            });
            holder.join()
        });
        assert!(died.is_err() && lock.is_poisoned());
    }

    #[test]
    fn a_poisoned_lock_fails_every_waiter_with_the_message_it_always_had() {
        let mut cache = ShardedCache::new(CacheConfig::mem_only(4), 4);
        cache.add_vm(VmId(1), 100);
        let p = cache.create_pool(VmId(1), CachePolicy::mem(100));
        for i in 0..4 {
            cache.put(SimTime::ZERO, VmId(1), p, addr(1, i), PageVersion(1));
        }
        assert_eq!(cache.mem_used_pages(), 4, "the next put must evict");

        // The evictor gate: the put drops its shard lock, finds the gate
        // poisoned and panics before touching anything.
        poison(&cache.inner.evictor.gate);
        let mut putter = cache.clone();
        let message = panic_message(move || {
            putter.put(SimTime::ZERO, VmId(1), p, addr(1, 9), PageVersion(1));
        });
        assert!(message.contains("eviction gate poisoned"), "{message}");

        // One shard, taken alone (a get) and with all the others.
        poison(&cache.inner.ro.shards[cache.shard_of(VmId(1), p)]);
        let mut getter = cache.clone();
        let message = panic_message(move || {
            getter.get(SimTime::ZERO, VmId(1), p, addr(1, 0));
        });
        assert!(message.contains("shard poisoned: PoisonError"), "{message}");
        let message = panic_message(|| drop(cache.entries()));
        assert!(message.contains("shard poisoned: PoisonError"), "{message}");
    }

    #[test]
    fn a_replayed_remove_vm_invalidates_what_handles_cached() {
        let mut cache = ShardedCache::new(CacheConfig::mem_only(1000), 4);
        let (vm_a, vm_b) = (VmId(1), VmId(2));
        cache.add_vm(vm_a, 100);
        cache.add_vm(vm_b, 100);
        cache.create_pool(vm_a, CachePolicy::mem(100));
        let pool_b = cache.create_pool(vm_b, CachePolicy::mem(100));
        let entitlement = |cache: &ShardedCache| {
            let stats = cache.pool_stats(vm_b, pool_b).expect("pool exists");
            stats.entitlement_pages
        };
        // Warms this handle's share memo.
        assert_eq!(entitlement(&cache), 500);
        cache.remove_vm(vm_a);
        assert_eq!(entitlement(&cache), 1000);
        assert_eq!(audit(&cache), vec![]);
    }

    #[test]
    fn commit_tick_waits_out_an_append_parked_between_claim_and_write() {
        use std::sync::mpsc;
        let mut cache = ShardedCache::new(CacheConfig::mem_only(64), 4);
        cache.enable_journal();
        cache.add_vm(VmId(1), 100);
        let p = cache.create_pool(VmId(1), CachePolicy::mem(100));
        cache.put(SimTime::ZERO, VmId(1), p, addr(1, 0), PageVersion(1));
        let settled = cache.commit_tick();

        // The next append parks right after its generation claim: home
        // shard locked, commit cell odd, not a byte written.
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let ends = Mutex::new((parked_tx, release_rx));
        let fired = AtomicBool::new(false);
        cache.set_append_hook(Some(Arc::new(move |first_gen| {
            if !fired.swap(true, Ordering::Relaxed) {
                let ends = ends.lock().expect("hook channels");
                ends.0.send(first_gen).expect("test alive");
                ends.1.recv().expect("test alive");
            }
        })));

        let released = AtomicBool::new(false);
        let (parked_gen, epoch_while_parked, tick, returned_after_release) =
            std::thread::scope(|scope| {
                let mut appender = cache.clone();
                scope.spawn(move || {
                    appender.put(SimTime::ZERO, VmId(1), p, addr(1, 1), PageVersion(2));
                });
                let parked_gen: u64 = parked_rx.recv().expect("appender parks");

                let (started_tx, started_rx) = mpsc::channel();
                let committer = cache.clone();
                let released = &released;
                let ticking = scope.spawn(move || {
                    started_tx.send(()).expect("test alive");
                    let tick = committer.commit_tick();
                    (tick, released.load(Ordering::Acquire))
                });
                started_rx.recv().expect("committer starts");
                // The interleaving is forced by the hook; this pause
                // only hands a committer that does not wait every
                // chance to return before the release. A correct one
                // cannot, however long or short the pause.
                std::thread::sleep(std::time::Duration::from_millis(50));
                let epoch_while_parked = cache.commit_epoch();
                released.store(true, Ordering::Release);
                release_tx.send(()).expect("appender parked");
                let (tick, returned_after_release) = ticking.join().expect("committer panicked");
                (parked_gen, epoch_while_parked, tick, returned_after_release)
            });
        cache.set_append_hook(None);

        assert!(parked_gen > settled);
        assert_eq!(
            epoch_while_parked, settled,
            "the commit epoch passed a generation that was claimed but not written"
        );
        assert!(
            returned_after_release,
            "commit_tick returned while a generation at or below its watermark was unwritten"
        );
        assert!(
            tick >= parked_gen,
            "the watermark was sampled after the claim"
        );
        assert!(cache.commit_epoch() >= parked_gen);
        assert!(cache
            .journal_snapshot()
            .unwrap()
            .iter()
            .all(|(image, durable)| *durable == image.len()));
        let findings = audit(&cache);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn recovery_truncates_at_the_first_generation_gap() {
        let config = CacheConfig::mem_and_ssd(128, 0);
        let mut cache = ShardedCache::new(config, 8);
        cache.enable_journal();
        cache.add_vm(VmId(1), 100);
        // Two pools on different home shards, so their records land in
        // different segments and the generations interleave.
        let pa = cache.create_pool(VmId(1), CachePolicy::mem(50));
        let mut pb = cache.create_pool(VmId(1), CachePolicy::mem(50));
        while cache.shard_of(VmId(1), pb) == cache.shard_of(VmId(1), pa) {
            pb = cache.create_pool(VmId(1), CachePolicy::mem(50));
        }
        for i in 0..24 {
            cache.put(SimTime::ZERO, VmId(1), pa, addr(1, i), PageVersion(i + 1));
            cache.put(SimTime::ZERO, VmId(1), pb, addr(2, i), PageVersion(i + 1));
        }
        let mut images = cache.journal_images().unwrap();
        // Lose a suffix of pool A's segment: every record of pool B
        // interleaved after the cut rides above lost generations and
        // must fall to the gap barrier.
        let sa = cache.shard_of(VmId(1), pa);
        let bounds = Journal::record_boundaries(&images[sa]);
        assert!(bounds.len() >= 8);
        images[sa].truncate(bounds[bounds.len() / 2]);
        let (rec, report) = ShardedCache::recover(config, &images, &[(VmId(1), 0)]);
        assert!(
            report.gap_discarded > 0,
            "interleaved records after the lost suffix must be dropped"
        );
        assert!(report.recovered_entries < 48);
        let findings = audit(&rec);
        assert!(findings.is_empty(), "{findings:?}");
        // Survivors still serve.
        let mut rec = rec;
        let mut hits = 0;
        for i in 0..24 {
            if let GetOutcome::Hit { version, .. } = rec.get(SimTime::ZERO, VmId(1), pa, addr(1, i))
            {
                assert_eq!(version, PageVersion(i + 1));
                hits += 1;
            }
        }
        assert!(hits > 0, "the kept prefix preserves pool A's entries");
    }

    #[test]
    fn recovery_with_future_epochs_discards_everything_suspect() {
        let config = CacheConfig::mem_and_ssd(64, 64);
        let mut cache = ShardedCache::new(config, 4);
        cache.enable_journal();
        cache.add_vm(VmId(1), 100);
        let p = cache.create_pool(VmId(1), CachePolicy::mem(100));
        for i in 0..16 {
            cache.put(SimTime::ZERO, VmId(1), p, addr(1, i), PageVersion(1));
        }
        let images = cache.journal_images().unwrap();
        let (rec, report) = ShardedCache::recover(config, &images, &[(VmId(1), u64::MAX)]);
        assert_eq!(
            rec.entries().len(),
            0,
            "an epoch above the journal makes every entry suspect"
        );
        assert!(report.discarded_stale > 0);
        assert!(audit(&rec).is_empty());
    }

    #[test]
    fn racing_gets_linearize_against_the_put_history() {
        use ddc_sim::SimRng;
        let mut cache = ShardedCache::new(CacheConfig::mem_only(256), 4);
        cache.add_vm(VmId(0), 100);
        let pool = cache.create_pool(VmId(0), CachePolicy::mem(100));
        const KEYS: u64 = 16;
        const ROUNDS: u64 = 400;

        // One writer puts every block with a strictly increasing
        // version per round while readers race gets against it. In any
        // linearization of an exclusive cache, a hit (a) returns a
        // version some put actually stored for that block and (b)
        // consumes it — so no (block, version) pair is ever served
        // twice.
        let done = AtomicBool::new(false);
        let hits: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|r| {
                    let mut h = cache.clone();
                    let done = &done;
                    scope.spawn(move || {
                        let mut rng = SimRng::new(0xA11 + r);
                        let mut got = Vec::new();
                        while !done.load(Ordering::Acquire) {
                            let b = rng.range_u64(0, KEYS);
                            if let GetOutcome::Hit { version, .. } =
                                h.get(SimTime::ZERO, VmId(0), pool, addr(1, b))
                            {
                                got.push((b, version.0));
                            }
                        }
                        got
                    })
                })
                .collect();
            let mut writer = cache.clone();
            for round in 0..ROUNDS {
                for b in 0..KEYS {
                    writer.put(
                        SimTime::ZERO,
                        VmId(0),
                        pool,
                        addr(1, b),
                        PageVersion(round + 1),
                    );
                }
            }
            done.store(true, Ordering::Release);
            readers
                .into_iter()
                .flat_map(|h| h.join().expect("reader panicked"))
                .collect()
        });

        for &(b, v) in &hits {
            assert!(
                (1..=ROUNDS).contains(&v),
                "block {b} returned version {v}, which no put ever stored"
            );
        }
        let mut seen = hits.clone();
        seen.sort_unstable();
        assert!(
            seen.windows(2).all(|w| w[0] != w[1]),
            "exclusivity violated: a (block, version) pair was served twice"
        );
        let findings = audit(&cache);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn control_verbs_racing_hybrid_puts_serve_nothing_stale_and_leave_clean_memos() {
        use std::sync::Barrier;
        const ROUNDS: u64 = 60;
        let cache = ShardedCache::new(CacheConfig::mem_and_ssd(64, 128), 4);
        cache.add_vm(VmId(1), 100);
        cache.add_vm(VmId(2), 200);
        let mut setup = cache.clone();
        let mine = [
            (VmId(1), setup.create_pool(VmId(1), CachePolicy::hybrid(80))),
            (
                VmId(2),
                setup.create_pool(VmId(2), CachePolicy::hybrid(120)),
            ),
        ];
        let swung = setup.create_pool(VmId(2), CachePolicy::mem(60));
        let barrier = Barrier::new(3);

        let handles = std::thread::scope(|scope| {
            // The only writer of `mine`: whatever a get of it hits is the
            // version this thread stored last.
            let putter = scope.spawn(|| {
                let mut h = cache.clone();
                let mut last = std::collections::BTreeMap::new();
                let mut version = 0u64;
                for round in 0..ROUNDS {
                    for step in 0..40u64 {
                        let (vm, pool) = mine[(step % 2) as usize];
                        let block = |i: u64| addr(vm.0 as u64, (round * 7 + step * 3 + i) % 90);
                        version += 1;
                        if step % 4 == 0 {
                            let a = block(0);
                            match h.get(SimTime::ZERO, vm, pool, a) {
                                GetOutcome::Hit { version: got, .. } => {
                                    assert_eq!(Some(got), last.remove(&(pool, a)), "stale hit");
                                }
                                _ => drop(last.remove(&(pool, a))),
                            }
                        } else if step % 4 == 1 {
                            let out =
                                h.put(SimTime::ZERO, vm, pool, block(0), PageVersion(version));
                            if out.is_stored() {
                                last.insert((pool, block(0)), PageVersion(version));
                            } else {
                                last.remove(&(pool, block(0)));
                            }
                        } else {
                            let pages: Vec<_> =
                                (0..8).map(|i| (block(i), PageVersion(version))).collect();
                            let out = h.put_many(SimTime::ZERO, vm, pool, &pages);
                            for (&(a, v), o) in pages.iter().zip(out) {
                                if o.is_stored() {
                                    last.insert((pool, a), v);
                                } else {
                                    last.remove(&(pool, a));
                                }
                            }
                        }
                    }
                    barrier.wait();
                    barrier.wait();
                }
                h
            });
            // Every verb that moves a share table, all the while.
            let controller = scope.spawn(|| {
                let mut h = cache.clone();
                for round in 0..ROUNDS {
                    for step in 0..12u64 {
                        match step % 6 {
                            0 => h.set_vm_weight(VmId(1), 50 + 50 * ((round + step) % 5)),
                            1 => h.add_vm_with_store_weights(VmId(2), 30 * (round % 7), 200),
                            2 => {
                                let policy = [CachePolicy::mem(60), CachePolicy::hybrid(40)];
                                h.set_policy(VmId(2), swung, policy[(round % 2) as usize]);
                            }
                            3 => {
                                let extra = h.create_pool(VmId(1), CachePolicy::hybrid(30));
                                h.put(SimTime::ZERO, VmId(1), extra, addr(9, step), PageVersion(1));
                                h.destroy_pool(VmId(1), extra);
                            }
                            4 => {
                                let guest = h.create_pool(VmId(9), CachePolicy::ssd(50));
                                h.put(SimTime::ZERO, VmId(9), guest, addr(8, step), PageVersion(1));
                            }
                            _ => h.remove_vm(VmId(9)),
                        }
                    }
                    barrier.wait();
                    barrier.wait();
                }
                h
            });
            for round in 0..ROUNDS {
                barrier.wait();
                assert_eq!(audit(&cache), vec![], "round {round}");
                barrier.wait();
            }
            [
                putter.join().expect("putter"),
                controller.join().expect("controller"),
            ]
        });
        // Each handle's own memo, as it was left: right or invalid.
        for h in &handles {
            assert_eq!(audit(h), vec![]);
        }
    }

    #[test]
    fn a_memory_shrink_racing_hybrid_puts_holds_once_it_returns() {
        use std::sync::atomic::{fence, AtomicBool};
        const ROUNDS: usize = 40;
        let cache = ShardedCache::new(CacheConfig::mem_and_ssd(64, 128), 4);
        cache.enable_journal();
        let mut setup = cache.clone();
        let pools =
            [VmId(1), VmId(2)].map(|vm| (vm, setup.create_pool(vm, CachePolicy::hybrid(100))));
        // The capacity the last resize left, valid while `epoch` is even
        // and unmoved: odd while a resize is under way.
        let (epoch, capacity, done) = (
            AtomicU64::new(0),
            AtomicU64::new(64),
            AtomicBool::new(false),
        );
        // What the putters and the checker have done so far.
        let (batches, checks) = (AtomicU64::new(0), AtomicU64::new(0));
        let lasts = std::thread::scope(|scope| {
            // Each the only writer of its pool: whatever a get of it hits
            // is the version this thread stored last.
            let putters = pools.map(|(vm, pool)| {
                let (mut h, done, batches) = (cache.clone(), &done, &batches);
                scope.spawn(move || {
                    let mut last = std::collections::BTreeMap::new();
                    let mut version = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        version += 1;
                        let block = |i: u64| addr(u64::from(vm.0), (version * 3 + i) % 150);
                        if version.is_multiple_of(3) {
                            let got = match h.get(SimTime::ZERO, vm, pool, block(0)) {
                                GetOutcome::Hit { version, .. } => Some(version),
                                _ => None,
                            };
                            let want = last.remove(&block(0));
                            assert!(got.is_none() || got == want, "stale hit");
                            continue;
                        }
                        let pages: Vec<_> =
                            (0..4).map(|i| (block(i), PageVersion(version))).collect();
                        let out = h.put_many(SimTime::ZERO, vm, pool, &pages);
                        for (&(a, v), o) in pages.iter().zip(out) {
                            if o.is_stored() {
                                last.insert(a, v);
                            } else {
                                last.remove(&a);
                            }
                        }
                        batches.fetch_add(1, Ordering::Relaxed);
                    }
                    last
                })
            });
            let checker = scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    let (before, cap) = (
                        epoch.load(Ordering::SeqCst),
                        capacity.load(Ordering::SeqCst),
                    );
                    let used = cache.mem_used_pages();
                    fence(Ordering::SeqCst);
                    if before.is_multiple_of(2) && epoch.load(Ordering::SeqCst) == before {
                        assert!(used <= cap, "{used} pages in a memory store of {cap}");
                        checks.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            // Each resize waits for the puts to run a while and for the
            // checker to read what the last one settled, unless one of
            // them has failed.
            let failed = || checker.is_finished() || putters.iter().any(|p| p.is_finished());
            let h = cache.clone();
            for round in 0..ROUNDS {
                let (put, checked) = (
                    batches.load(Ordering::Relaxed),
                    checks.load(Ordering::Relaxed),
                );
                while (batches.load(Ordering::Relaxed) < put + 40
                    || checks.load(Ordering::Relaxed) == checked)
                    && !failed()
                {
                    std::thread::yield_now();
                }
                let pages = [16, 64, 8, 48][round % 4];
                epoch.fetch_add(1, Ordering::SeqCst);
                h.set_mem_capacity(SimTime::ZERO, pages);
                capacity.store(pages, Ordering::SeqCst);
                epoch.fetch_add(1, Ordering::SeqCst);
            }
            done.store(true, Ordering::Relaxed);
            checker.join().expect("checker");
            putters.map(|p| p.join().expect("putter"))
        });
        assert_eq!(audit(&cache), vec![]);
        for (vm, pool, addr, version) in cache.entries() {
            let i = pools
                .iter()
                .position(|&p| p == (vm, pool))
                .expect("a putter's pool");
            assert_eq!(lasts[i].get(&addr), Some(&version), "stale {addr:?}");
        }
    }

    #[test]
    fn a_vm_removal_racing_another_vms_puts_leaves_its_pages_alone() {
        use std::sync::atomic::AtomicBool;
        const ROUNDS: u64 = 30;
        let cache = ShardedCache::new(CacheConfig::mem_and_ssd(4096, 4096), 4);
        cache.enable_journal();
        let (gone, other) = (VmId(1), VmId(2));
        let pool = cache.clone().create_pool(other, CachePolicy::hybrid(100));
        let (done, batches) = (AtomicBool::new(false), AtomicU64::new(0));
        let (last, removed) = std::thread::scope(|scope| {
            let putter = scope.spawn(|| {
                let mut h = cache.clone();
                let mut last = std::collections::BTreeMap::new();
                let mut version = 0u64;
                while !done.load(Ordering::Relaxed) {
                    version += 1;
                    let pages: Vec<_> = (0..4)
                        .map(|i| (addr(2, (version * 5 + i) % 500), PageVersion(version)))
                        .collect();
                    let out = h.put_many(SimTime::ZERO, other, pool, &pages);
                    for (&(a, v), o) in pages.iter().zip(out) {
                        assert!(o.is_stored(), "a store with room turned a put away");
                        last.insert(a, v);
                    }
                    batches.fetch_add(1, Ordering::Relaxed);
                }
                last
            });
            // VM 1, over and over: pools on several shards, holding
            // pages, removed while the other VM puts.
            let mut h = cache.clone();
            let mut removed = Vec::new();
            for round in 0..ROUNDS {
                h.add_vm(gone, 100);
                for i in 0..4 {
                    let p = h.create_pool(gone, CachePolicy::hybrid(50));
                    for b in 0..8 {
                        h.put(
                            SimTime::ZERO,
                            gone,
                            p,
                            addr(1, 8 * i + b),
                            PageVersion(round),
                        );
                    }
                    removed.push(p);
                }
                // Not before the other VM's puts are under way.
                let seen = batches.load(Ordering::Relaxed);
                while batches.load(Ordering::Relaxed) == seen && !putter.is_finished() {
                    std::thread::yield_now();
                }
                h.remove_vm(gone);
            }
            done.store(true, Ordering::Relaxed);
            (putter.join().expect("putter"), removed)
        });
        let homes: std::collections::BTreeSet<_> =
            removed.iter().map(|&p| cache.shard_of(gone, p)).collect();
        assert!(homes.len() >= 2, "VM 1's pools all homed on one shard");
        for &p in &removed {
            assert_eq!(cache.pool_stats(gone, p), None);
        }
        let kept: Vec<_> = last.iter().map(|(&a, &v)| (other, pool, a, v)).collect();
        assert_eq!(cache.entries(), kept);
        assert_eq!(audit(&cache), vec![]);
    }

    /// Fills a memory store of `pages` pages from one pool, then sends
    /// a put group into another whose first put finds the store full,
    /// drops its shard lock and evicts; the eviction hook runs there,
    /// with no lock held, and destroys the group's pool before the put
    /// gets its lock back. Returns the cache and the surviving pool.
    fn lose_a_pool_mid_eviction(pages: u64, journaled: bool) -> (ShardedCache, PoolId) {
        let mut cache = ShardedCache::new(CacheConfig::mem_only(pages), 4);
        if journaled {
            cache.enable_journal();
        }
        cache.add_vm(VmId(1), 100);
        cache.add_vm(VmId(2), 100);
        let doomed = cache.create_pool(VmId(1), CachePolicy::mem(100));
        let full = cache.create_pool(VmId(2), CachePolicy::mem(100));
        for i in 0..pages {
            cache.put(SimTime::ZERO, VmId(2), full, addr(2, i), PageVersion(1));
        }
        assert_eq!(
            cache.mem_used_pages(),
            pages,
            "the group's first put must evict"
        );

        let destroyer = Mutex::new(cache.clone());
        cache.set_eviction_hook(Some(Arc::new(move || {
            let mut h = destroyer.lock().expect("destroyer handle");
            h.destroy_pool(VmId(1), doomed);
        })));
        let group: Vec<_> = (0..6).map(|i| (addr(1, i), PageVersion(1))).collect();
        let out = cache.put_many(SimTime::ZERO, VmId(1), doomed, &group);
        cache.set_eviction_hook(None);

        assert_eq!(out, vec![PutOutcome::Rejected; 6]);
        assert!(cache.evictions() > 0, "the put never evicted");
        assert!(cache.pool_stats(VmId(1), doomed).is_none());
        // Every page the group took while its pool was gone went back.
        let kept = cache.pool_stats(VmId(2), full).expect("untouched pool");
        assert_eq!(cache.mem_used_pages(), kept.mem_pages);
        assert_eq!(audit(&cache), vec![]);
        (cache, full)
    }

    #[test]
    fn a_put_group_that_loses_its_pool_while_it_evicts_rejects_the_rest_and_keeps_the_books() {
        let (mut cache, full) = lose_a_pool_mid_eviction(8, false);
        // The survivor keeps serving what the eviction left it.
        let left = cache.mem_used_pages();
        let hits = (0..8)
            .filter(|&i| cache.get(SimTime::ZERO, VmId(2), full, addr(2, i)).is_hit())
            .count() as u64;
        assert_eq!(hits, left);
    }

    #[test]
    fn a_put_group_that_loses_its_pool_leaves_the_compaction_point_where_the_per_op_check_has_it() {
        // Large enough that the live pages, not the floor, set the
        // threshold: the page the group gave back moved it.
        const PAGES: u64 = 2 * EVICTION_BATCH_PAGES;
        let (mut cache, full) = lose_a_pool_mid_eviction(PAGES, true);
        // What the serial engine runs after every stored put, on the
        // books as the group left them: a put into the full store
        // evicts a batch (a record a page), then stores.
        let mut records = cache.journal_records().expect("journaling on");
        let mut live = cache.mem_used_pages();
        let before = cache.journal_compactions();
        for op in 0.. {
            assert!(op < 16 * PAGES, "the stream never reached the threshold");
            if live == PAGES {
                records += EVICTION_BATCH_PAGES;
                live -= EVICTION_BATCH_PAGES;
            }
            (records, live) = (records + 1, live + 1);
            let due = shard::compaction_due(records, live);
            let put = cache.put(SimTime::ZERO, VmId(2), full, addr(3, op), PageVersion(1));
            assert!(put.is_stored(), "op {op}");
            assert_eq!(cache.mem_used_pages(), live, "op {op}: live pages");
            assert_eq!(
                cache.journal_compactions() - before,
                u64::from(due),
                "op {op}: {records} records over {live} live pages"
            );
            if due {
                break;
            }
            assert_eq!(cache.journal_records(), Some(records), "op {op}: records");
        }
        assert_eq!(audit(&cache), vec![]);
    }

    /// A put into a full memory store drops its locks to evict; the
    /// eviction hook, with no lock held, swaps the put's pool to an
    /// SSD-only policy (re-homing nothing: the pool is empty). The page
    /// the eviction took was placed by the old policy, so the put must
    /// not store it: the pool ends with no memory page, the put
    /// rejected or stored on the SSD, as under either serial order.
    #[test]
    fn a_put_that_evicts_across_a_policy_swap_places_by_the_new_policy() {
        const MEM: u64 = 64;
        for shards in [1, 4, 16] {
            let mut cache = ShardedCache::new(CacheConfig::mem_and_ssd(MEM, 1024), shards);
            cache.add_vm(VmId(1), 100);
            cache.add_vm(VmId(2), 100);
            let p = cache.create_pool(VmId(1), CachePolicy::mem(100));
            let q = cache.create_pool(VmId(2), CachePolicy::mem(100));
            for i in 0..MEM {
                cache.put(SimTime::ZERO, VmId(2), q, addr(2, i), PageVersion(1));
            }
            assert_eq!(cache.mem_used_pages(), MEM, "the put must evict");

            let swapper = Mutex::new(Some(cache.clone()));
            cache.set_eviction_hook(Some(Arc::new(move || {
                if let Some(mut h) = swapper.lock().expect("swapper handle").take() {
                    h.set_policy(VmId(1), p, CachePolicy::ssd(100));
                }
            })));
            let out = cache.put(SimTime::ZERO, VmId(1), p, addr(1, 0), PageVersion(1));
            cache.set_eviction_hook(None);

            assert!(
                cache.evictions() > 0,
                "{shards} shards: the put never evicted"
            );
            let stats = cache.pool_stats(VmId(1), p).expect("the pool");
            assert_eq!(stats.mem_pages, 0, "{shards} shards: {out:?}");
            match out {
                PutOutcome::Rejected => assert_eq!(stats.ssd_pages, 0),
                PutOutcome::Stored { .. } => assert_eq!(stats.ssd_pages, 1),
                PutOutcome::Failed { .. } => panic!("{shards} shards: a put failed"),
            }
            let kept = cache.pool_stats(VmId(2), q).expect("the full pool");
            assert_eq!(cache.mem_used_pages(), kept.mem_pages);
            assert_eq!(audit(&cache), vec![], "{shards} shards");
        }
    }

    #[test]
    fn an_all_miss_get_many_takes_one_shard_visit_and_counts_every_miss() {
        use std::sync::mpsc;
        let mut cache = ShardedCache::new(CacheConfig::mem_only(64), 4);
        cache.add_vm(VmId(1), 100);
        let p = cache.create_pool(VmId(1), CachePolicy::mem(100));
        for i in 0..4 {
            cache.put(SimTime::ZERO, VmId(1), p, addr(1, i), PageVersion(1));
        }
        let gets_before = cache.pool_stats(VmId(1), p).expect("pool").gets;
        let (ops_before, locks_before) = (cache.batched_ops(), cache.batch_lock_acquisitions());
        let absent: Vec<BlockAddr> = (100..132).map(|i| addr(1, i)).collect();

        // The batch starts while this thread holds the pool's home
        // shard: it answers nothing until the lock is free, then
        // answers every miss in that one visit.
        let held = cache.lock_shard(cache.shard_of(VmId(1), p));
        let (done_tx, done_rx) = mpsc::channel();
        let out = std::thread::scope(|scope| {
            let mut h = cache.clone();
            let absent = &absent;
            scope.spawn(move || {
                let out = h.get_many(SimTime::ZERO, VmId(1), p, absent);
                done_tx.send(out).expect("test alive");
            });
            let early = done_rx.recv_timeout(std::time::Duration::from_millis(50));
            assert!(early.is_err(), "the batch answered without the shard lock");
            drop(held);
            done_rx
                .recv()
                .expect("the batch answers once the lock is free")
        });
        assert_eq!(out, vec![GetOutcome::Miss; 32]);
        assert_eq!(cache.batch_lock_acquisitions(), locks_before + 1);
        assert_eq!(cache.batched_ops(), ops_before + 32);
        // Every miss is a get of the pool, as the serial engine counts.
        let gets = cache.pool_stats(VmId(1), p).expect("pool").gets;
        assert_eq!(gets, gets_before + 32);
        assert_eq!(audit(&cache), vec![]);
    }

    #[test]
    fn strict_mode_confines_a_pool_to_its_partition() {
        let mut cache = ShardedCache::new(
            CacheConfig::mem_only(64).with_mode(PartitionMode::Strict),
            4,
        );
        cache.add_vm(VmId(0), 100);
        cache.add_vm(VmId(1), 100);
        let a = cache.create_pool(VmId(0), CachePolicy::mem(100));
        let _b = cache.create_pool(VmId(1), CachePolicy::mem(100));
        for i in 0..200 {
            cache.put(SimTime::ZERO, VmId(0), a, addr(1, i), PageVersion(i));
        }
        let sa = cache.pool_stats(VmId(0), a).unwrap();
        assert!(
            sa.mem_pages <= sa.entitlement_pages,
            "strict pool overflowed: {} used, {} entitled",
            sa.mem_pages,
            sa.entitlement_pages
        );
        let findings = audit(&cache);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
