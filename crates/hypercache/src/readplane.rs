//! The lock-free read plane: a seqlock-guarded membership table over one
//! shard's pools.
//!
//! The concurrent assembly in `ddc-concurrent` is an *exclusive* cache:
//! a `get` that hits must remove the object, so the hit path inherently
//! needs the shard lock. The miss path does not — and in a read-heavy
//! cleancache workload the steady state is mostly misses, because every
//! hit consumes its entry. [`ReadPlane`] makes that miss path lock-free:
//! it mirrors the exact membership (the set of live `(vm, pool, addr)`
//! keys) of every pool homed on one shard into a fixed-capacity
//! open-addressing table of plain atomics, guarded by a per-shard
//! seqlock word. A reader that probes the table under an even, unchanged
//! sequence has seen a consistent snapshot; an absent key is then a
//! definitive miss, served without ever touching the shard mutex.
//!
//! # Why a type-stable atomic table (and not a raw seqlock over the slab)
//!
//! The workspace forbids `unsafe`, and a seqlock over the slab arena's
//! `Vec`/`FxHashMap` memory would race with reallocation. The table here
//! never reallocates and every word is an `AtomicU64`, so torn *words*
//! are impossible by construction and torn *entries* (a key half-written
//! across its three words) are caught by the sequence check. Reclamation
//! is equally structural: buckets are never freed, only overwritten
//! between odd/even sequence bumps, so no reader can ever observe
//! recycled memory — the epoch/generation validation the design calls
//! for degenerates to the seqlock itself.
//!
//! # Protocol
//!
//! *Writers* (always under the owning shard's mutex, hence serialized):
//! bump the sequence word to odd, mutate bucket words, bump back to
//! even. The word is even whenever the shard is at rest — the invariant
//! auditor checks exactly that.
//!
//! *Readers*: load the word (odd → a writer is mid-flight, retry), probe
//! the table, load the word again; any change means the snapshot may be
//! torn and the probe retries. After a bounded number of retries the
//! caller falls back to the locked path, so writer storms can delay but
//! never starve a reader.
//!
//! The sequence word doubles as the shard's membership version: it
//! advances on every membership change, so a cached absent-answer
//! stamped with the word is valid for exactly as long as the word holds
//! still. The per-thread hot-replica caches in `ddc-concurrent` are
//! built on that reading.
//!
//! # Exactness and overflow
//!
//! A lock-free absent answer is only sound if the table holds *exactly*
//! the live key set — a key missing from the table would turn into a
//! spurious miss and break the byte-identical-to-serial contract. The
//! pool funnels (`insert`/`release`/`drain`) keep the table exact. When
//! the table cannot accept another key (capacity pressure), it latches a
//! sticky `overflow` flag instead of dropping one: every subsequent
//! lookup answers [`ReadProbe::Unavailable`] and the shard permanently
//! degrades to locked gets. Correctness never depends on sizing;
//! only throughput does.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

use ddc_cleancache::{PoolId, VmId};
use ddc_storage::BlockAddr;

/// Bucket key word meaning "never used".
const EMPTY: u64 = u64::MAX;
/// Bucket key word meaning "erased; probes continue past it".
const TOMBSTONE: u64 = u64::MAX - 1;

/// Lock-free probe attempts before a reader gives up on a consistent
/// snapshot and takes the locked path.
const MAX_READ_RETRIES: u32 = 8;

/// One open-addressing bucket: the packed `(vm, pool)` key word (also
/// the empty/tombstone sentinel) plus the block address words.
#[derive(Debug)]
struct Bucket {
    key: AtomicU64,
    file: AtomicU64,
    block: AtomicU64,
}

impl Bucket {
    fn new() -> Bucket {
        Bucket {
            key: AtomicU64::new(EMPTY),
            file: AtomicU64::new(0),
            block: AtomicU64::new(0),
        }
    }
}

/// Result of a lock-free membership probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadProbe {
    /// The key is live on this shard; the caller must take the shard
    /// lock to consume it (exclusive-cache hits mutate).
    Present,
    /// The key is definitively absent, as of the consistent snapshot
    /// identified by `stamp` (the sequence word both loads agreed on).
    Absent {
        /// Sequence word of the validated snapshot; the answer stays
        /// correct for exactly as long as [`ReadPlane::seq`] equals it.
        stamp: u64,
    },
    /// No consistent lock-free answer (table overflowed, retry budget
    /// spent, or the key is outside the packable id range); take the
    /// locked path.
    Unavailable,
}

/// The per-shard lock-free membership table (see the module docs).
pub struct ReadPlane {
    /// The seqlock word: even at rest, odd while a writer mutates.
    seq: AtomicU64,
    /// Sticky capacity-overflow latch; disables the lock-free path.
    overflow: AtomicBool,
    /// Reader snapshot retries (diagnostic; bumped only on retry).
    retries: AtomicU64,
    /// Live keys currently in the table.
    live: AtomicU64,
    /// Buckets ever moved off `EMPTY` (live + tombstones). Monotone;
    /// the overflow guard keeps it below the table's load limit so
    /// absent probes stay short.
    stamped: AtomicU64,
    buckets: Box<[Bucket]>,
    mask: u64,
}

impl std::fmt::Debug for ReadPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadPlane")
            .field("capacity", &self.buckets.len())
            .field("live", &self.live.load(Ordering::Relaxed))
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .field("overflow", &self.overflow.load(Ordering::Relaxed))
            .finish()
    }
}

/// Packs a `(vm, pool)` pair into one key word. Values at or above
/// [`TOMBSTONE`] collide with the sentinels and are reported as
/// unpackable (such keys simply never use the lock-free path).
fn pack(vm: VmId, pool: PoolId) -> Option<u64> {
    let packed = (u64::from(vm.0) << 32) | u64::from(pool.0);
    (packed < TOMBSTONE).then_some(packed)
}

/// Seed-free multiply-xor mix of the full key, in the same spirit as the
/// crate's other internal hashes (no flooding exposure: ids and block
/// addresses are internal).
fn mix(packed: u64, addr: BlockAddr) -> u64 {
    let mut h = packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= addr
        .file
        .0
        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        .rotate_left(29);
    h ^= addr
        .block
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .rotate_left(47);
    h.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

impl ReadPlane {
    /// Creates a plane sized for roughly `expected_live` resident keys:
    /// the table gets the next power of two above 4× that (64 minimum),
    /// so steady-state load stays low and absent probes short.
    pub fn with_capacity(expected_live: u64) -> ReadPlane {
        let slots = expected_live
            .saturating_mul(4)
            .max(64)
            .next_power_of_two()
            .min(1 << 24) as usize;
        ReadPlane {
            seq: AtomicU64::new(0),
            overflow: AtomicBool::new(false),
            retries: AtomicU64::new(0),
            live: AtomicU64::new(0),
            stamped: AtomicU64::new(0),
            buckets: (0..slots).map(|_| Bucket::new()).collect(),
            mask: (slots - 1) as u64,
        }
    }

    /// The current sequence word (even at rest). Doubles as the shard's
    /// membership version for replica invalidation.
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Whether the table latched the overflow flag (lock-free reads
    /// permanently disabled on this shard).
    pub fn overflowed(&self) -> bool {
        self.overflow.load(Ordering::Acquire)
    }

    /// Reader snapshot retries so far (diagnostic).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Live keys currently published.
    pub fn live_len(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Table slots (diagnostic).
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    fn begin_write(&self) {
        // Writers are serialized by the shard mutex; the bump just has
        // to be visible-before the bucket stores.
        self.seq.fetch_add(1, Ordering::AcqRel);
    }

    fn end_write(&self) {
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Publishes a key. Must be called under the owning shard's lock.
    /// Idempotent for keys already present. Latches overflow instead of
    /// dropping the key when the table is too full.
    pub fn publish(&self, vm: VmId, pool: PoolId, addr: BlockAddr) {
        if self.overflowed() {
            return;
        }
        let Some(packed) = pack(vm, pool) else {
            // Unpackable keys would make absent answers unsound for the
            // whole shard if silently skipped — disable the fast path.
            self.overflow.store(true, Ordering::Release);
            return;
        };
        let mut idx = mix(packed, addr) & self.mask;
        let mut reuse: Option<u64> = None;
        for _ in 0..self.buckets.len() {
            let b = &self.buckets[idx as usize];
            match b.key.load(Ordering::Relaxed) {
                EMPTY => {
                    let target = match reuse {
                        Some(t) => t,
                        None => {
                            // Converting an EMPTY: respect the load
                            // limit so probe chains stay bounded.
                            let limit = (self.buckets.len() as u64 / 8) * 7;
                            if self.stamped.fetch_add(1, Ordering::Relaxed) >= limit {
                                self.overflow.store(true, Ordering::Release);
                                return;
                            }
                            idx
                        }
                    };
                    let t = &self.buckets[target as usize];
                    self.begin_write();
                    t.file.store(addr.file.0, Ordering::Release);
                    t.block.store(addr.block, Ordering::Release);
                    t.key.store(packed, Ordering::Release);
                    self.end_write();
                    self.live.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                TOMBSTONE if reuse.is_none() => reuse = Some(idx),
                k if k == packed => {
                    let b_file = b.file.load(Ordering::Relaxed);
                    let b_block = b.block.load(Ordering::Relaxed);
                    if b_file == addr.file.0 && b_block == addr.block {
                        return; // already published
                    }
                }
                _ => {}
            }
            idx = (idx + 1) & self.mask;
        }
        // Probed the whole table without an empty slot.
        match reuse {
            Some(target) => {
                let t = &self.buckets[target as usize];
                self.begin_write();
                t.file.store(addr.file.0, Ordering::Release);
                t.block.store(addr.block, Ordering::Release);
                t.key.store(packed, Ordering::Release);
                self.end_write();
                self.live.fetch_add(1, Ordering::Relaxed);
            }
            None => self.overflow.store(true, Ordering::Release),
        }
    }

    /// Erases a key (leaves a tombstone so probe chains stay intact).
    /// Must be called under the owning shard's lock.
    pub fn erase(&self, vm: VmId, pool: PoolId, addr: BlockAddr) {
        if self.overflowed() {
            return;
        }
        let Some(packed) = pack(vm, pool) else {
            return;
        };
        let mut idx = mix(packed, addr) & self.mask;
        for _ in 0..self.buckets.len() {
            let b = &self.buckets[idx as usize];
            match b.key.load(Ordering::Relaxed) {
                EMPTY => return,
                k if k == packed => {
                    let b_file = b.file.load(Ordering::Relaxed);
                    let b_block = b.block.load(Ordering::Relaxed);
                    if b_file == addr.file.0 && b_block == addr.block {
                        self.begin_write();
                        b.key.store(TOMBSTONE, Ordering::Release);
                        self.end_write();
                        self.live.fetch_sub(1, Ordering::Relaxed);
                        return;
                    }
                }
                _ => {}
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Erases every key of one pool (pool drain / destroy). One
    /// odd/even window covers the whole sweep. Must be called under the
    /// owning shard's lock.
    pub fn erase_pool(&self, vm: VmId, pool: PoolId) {
        if self.overflowed() {
            return;
        }
        let Some(packed) = pack(vm, pool) else {
            return;
        };
        self.begin_write();
        let mut erased = 0;
        for b in self.buckets.iter() {
            if b.key.load(Ordering::Relaxed) == packed {
                b.key.store(TOMBSTONE, Ordering::Release);
                erased += 1;
            }
        }
        self.end_write();
        self.live.fetch_sub(erased, Ordering::Relaxed);
    }

    /// Lock-free membership probe. `mid_read` runs between the first
    /// sequence load and the table walk on every attempt — production
    /// callers pass a no-op; tests inject writers there to force torn
    /// snapshots.
    pub fn lookup(
        &self,
        vm: VmId,
        pool: PoolId,
        addr: BlockAddr,
        mid_read: impl Fn(),
    ) -> ReadProbe {
        if self.overflowed() {
            return ReadProbe::Unavailable;
        }
        let Some(packed) = pack(vm, pool) else {
            return ReadProbe::Unavailable;
        };
        let start = mix(packed, addr) & self.mask;
        for attempt in 0..MAX_READ_RETRIES {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            mid_read();
            let mut idx = start;
            let mut found = false;
            let mut walked_all = true;
            for _ in 0..self.buckets.len() {
                let b = &self.buckets[idx as usize];
                match b.key.load(Ordering::Acquire) {
                    EMPTY => {
                        walked_all = false;
                        break;
                    }
                    k if k == packed => {
                        let b_file = b.file.load(Ordering::Acquire);
                        let b_block = b.block.load(Ordering::Acquire);
                        if b_file == addr.file.0 && b_block == addr.block {
                            found = true;
                            walked_all = false;
                            break;
                        }
                    }
                    _ => {}
                }
                idx = (idx + 1) & self.mask;
            }
            // Pin the bucket loads before the validating sequence load.
            fence(Ordering::Acquire);
            let s2 = self.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // torn snapshot; retry
            }
            if walked_all {
                // No EMPTY terminator found — the load limit should
                // prevent this, but never trust an unbounded walk.
                return ReadProbe::Unavailable;
            }
            return if found {
                ReadProbe::Present
            } else {
                ReadProbe::Absent { stamp: s1 }
            };
        }
        ReadProbe::Unavailable
    }

    /// Every live key in the table (auditor use; caller must hold the
    /// owning shard's lock so the snapshot is exact).
    pub fn entries(&self) -> Vec<(VmId, PoolId, BlockAddr)> {
        let mut out = Vec::new();
        for b in self.buckets.iter() {
            let key = b.key.load(Ordering::Relaxed);
            if key == EMPTY || key == TOMBSTONE {
                continue;
            }
            out.push((
                VmId((key >> 32) as u32),
                PoolId(key as u32),
                BlockAddr::new(
                    ddc_storage::FileId(b.file.load(Ordering::Relaxed)),
                    b.block.load(Ordering::Relaxed),
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_storage::FileId;

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr::new(FileId(f), b)
    }

    fn probe(p: &ReadPlane, vm: u32, pool: u32, a: BlockAddr) -> ReadProbe {
        p.lookup(VmId(vm), PoolId(pool), a, || {})
    }

    #[test]
    fn publish_erase_roundtrip() {
        let p = ReadPlane::with_capacity(16);
        assert!(matches!(
            probe(&p, 1, 2, addr(3, 4)),
            ReadProbe::Absent { .. }
        ));
        p.publish(VmId(1), PoolId(2), addr(3, 4));
        assert_eq!(probe(&p, 1, 2, addr(3, 4)), ReadProbe::Present);
        assert!(matches!(
            probe(&p, 1, 2, addr(3, 5)),
            ReadProbe::Absent { .. }
        ));
        assert!(matches!(
            probe(&p, 1, 3, addr(3, 4)),
            ReadProbe::Absent { .. }
        ));
        p.erase(VmId(1), PoolId(2), addr(3, 4));
        assert!(matches!(
            probe(&p, 1, 2, addr(3, 4)),
            ReadProbe::Absent { .. }
        ));
        assert_eq!(p.live_len(), 0);
    }

    #[test]
    fn seq_is_even_at_rest_and_advances_per_mutation() {
        let p = ReadPlane::with_capacity(16);
        let s0 = p.seq();
        assert_eq!(s0 & 1, 0);
        p.publish(VmId(1), PoolId(1), addr(0, 0));
        let s1 = p.seq();
        assert_eq!(s1 & 1, 0);
        assert!(s1 > s0);
        // Idempotent republish: membership unchanged, word unchanged.
        p.publish(VmId(1), PoolId(1), addr(0, 0));
        assert_eq!(p.seq(), s1);
        p.erase(VmId(1), PoolId(1), addr(0, 0));
        assert!(p.seq() > s1);
        assert_eq!(p.seq() & 1, 0);
    }

    #[test]
    fn absent_stamp_validates_membership_version() {
        let p = ReadPlane::with_capacity(16);
        let ReadProbe::Absent { stamp } = probe(&p, 1, 1, addr(9, 9)) else {
            panic!("expected absent");
        };
        assert_eq!(p.seq(), stamp);
        p.publish(VmId(1), PoolId(1), addr(9, 9));
        assert_ne!(p.seq(), stamp, "publish must invalidate the stamp");
    }

    #[test]
    fn erase_pool_sweeps_only_that_pool() {
        let p = ReadPlane::with_capacity(16);
        for b in 0..8 {
            p.publish(VmId(1), PoolId(1), addr(0, b));
            p.publish(VmId(1), PoolId(2), addr(0, b));
        }
        assert_eq!(p.live_len(), 16);
        p.erase_pool(VmId(1), PoolId(1));
        assert_eq!(p.live_len(), 8);
        assert!(matches!(
            probe(&p, 1, 1, addr(0, 3)),
            ReadProbe::Absent { .. }
        ));
        assert_eq!(probe(&p, 1, 2, addr(0, 3)), ReadProbe::Present);
    }

    #[test]
    fn tombstones_are_reused_and_probe_chains_survive() {
        let p = ReadPlane::with_capacity(16);
        // Hammer one key through publish/erase cycles: tombstone reuse
        // must keep the table from monotonically filling.
        for i in 0..10_000u64 {
            p.publish(VmId(1), PoolId(1), addr(1, i % 8));
            p.erase(VmId(1), PoolId(1), addr(1, i % 8));
        }
        assert!(!p.overflowed(), "tombstone reuse failed: table filled");
        assert_eq!(p.live_len(), 0);
        p.publish(VmId(1), PoolId(1), addr(1, 1));
        assert_eq!(probe(&p, 1, 1, addr(1, 1)), ReadProbe::Present);
    }

    #[test]
    fn overflow_latches_and_degrades_to_unavailable() {
        let p = ReadPlane::with_capacity(0); // 64 slots, limit 56
        let mut i = 0;
        while !p.overflowed() {
            p.publish(VmId(1), PoolId(1), addr(2, i));
            i += 1;
            assert!(i < 1_000, "overflow never latched");
        }
        assert_eq!(probe(&p, 1, 1, addr(2, 0)), ReadProbe::Unavailable);
        assert_eq!(probe(&p, 1, 1, addr(99, 99)), ReadProbe::Unavailable);
    }

    #[test]
    fn torn_snapshot_is_retried_not_served() {
        let p = ReadPlane::with_capacity(16);
        p.publish(VmId(1), PoolId(1), addr(5, 5));
        // Simulate a writer racing the read: the mid-read hook mutates
        // membership, so the first attempt's snapshot is torn and must
        // be retried (the final answer reflects some consistent state).
        let fired = std::sync::atomic::AtomicBool::new(false);
        let out = p.lookup(VmId(1), PoolId(1), addr(6, 6), || {
            if !fired.swap(true, Ordering::Relaxed) {
                p.publish(VmId(1), PoolId(1), addr(6, 6));
            }
        });
        assert_eq!(out, ReadProbe::Present);
        assert!(p.retries() > 0, "mid-read mutation must force a retry");
    }

    #[test]
    fn entries_lists_live_set() {
        let p = ReadPlane::with_capacity(16);
        p.publish(VmId(1), PoolId(1), addr(1, 2));
        p.publish(VmId(2), PoolId(7), addr(3, 4));
        p.erase(VmId(1), PoolId(1), addr(1, 2));
        let mut got = p.entries();
        got.sort_unstable();
        assert_eq!(got, vec![(VmId(2), PoolId(7), addr(3, 4))]);
    }
}
