//! Model-based property tests for Global-mode eviction order, on the
//! serial engine and on the sharded one at one and at sixteen shards.
//!
//! The reference model keeps an **eagerly scrubbed** FIFO: every
//! removal (get hit, overwrite, flush, pool destruction) deletes the
//! queue entry immediately, so its front is always live and its
//! eviction order is the ground truth. The property: under random
//! insert / get / flush / destroy / eviction-pressure sequences, each
//! engine and the model are observably identical — same put/get
//! outcomes, same occupancy after every operation, and the same
//! survivor set at the end (which pins the eviction *order*, since
//! which objects survive depends on exactly which were evicted first).
//!
//! A second property covers what the memory-only model cannot: hybrid
//! pools over a memory and an SSD store, where a full SSD store evicts
//! its own oldest page and an overwrite can move a block from one store
//! to the other. There the engines must evict the same objects in the
//! same order as each other, and the serial engine's order is pinned by
//! a digest recorded before the eviction queues last changed shape.
//!
//! A third holds the order across a restart: a cache recovered from its
//! own compacted journal evicts the same pages as the cache it came from
//! under the same puts, on the serial engine and at 1, 4 and 16 shards.

use std::collections::{BTreeMap, VecDeque};

use ddc_core::concurrent::ShardedCache;
use ddc_core::hypercache::Engine;
use ddc_core::prelude::*;

type Key = (u32, u32, u64, u64); // (vm, pool, file, block)

/// Eager-retain reference model of a Global-mode exclusive cache.
struct EagerModel {
    capacity: u64,
    live: BTreeMap<Key, ()>,
    fifo: VecDeque<Key>,
    evictions: u64,
}

impl EagerModel {
    fn new(capacity: u64) -> EagerModel {
        EagerModel {
            capacity,
            live: BTreeMap::new(),
            fifo: VecDeque::new(),
            evictions: 0,
        }
    }

    fn remove(&mut self, key: Key) -> bool {
        if self.live.remove(&key).is_some() {
            // Eager scrub: the queue never holds a dead entry.
            self.fifo.retain(|k| *k != key);
            true
        } else {
            false
        }
    }

    fn evict_batch(&mut self) -> u64 {
        let mut freed = 0;
        while freed < EVICTION_BATCH_PAGES {
            let Some(key) = self.fifo.pop_front() else {
                break;
            };
            self.live.remove(&key).expect("eager fifo is always live");
            self.evictions += 1;
            freed += 1;
        }
        freed
    }

    /// Mirrors the real put path: overwrite-remove, evict on full,
    /// reject when nothing can be freed.
    fn put(&mut self, key: Key) -> bool {
        self.remove(key);
        if self.live.len() as u64 >= self.capacity && self.evict_batch() == 0 {
            return false;
        }
        self.live.insert(key, ());
        self.fifo.push_back(key);
        true
    }

    fn destroy_pool(&mut self, vm: u32, pool: u32) -> u64 {
        let keys: Vec<Key> = self
            .live
            .keys()
            .filter(|(v, p, _, _)| *v == vm && *p == pool)
            .copied()
            .collect();
        let dropped = keys.len() as u64;
        for k in keys {
            self.remove(k);
        }
        dropped
    }
}

struct Harness<E> {
    engine: E,
    /// The engine's evictions so far.
    evictions: fn(&E) -> u64,
    model: EagerModel,
    /// Current pool id per (vm slot, pool slot); destroyed pools are
    /// re-created with fresh ids.
    pools: Vec<Vec<PoolId>>,
}

const VMS: u32 = 2;
const POOLS_PER_VM: u32 = 2;
const CAPACITY: u64 = 2 * EVICTION_BATCH_PAGES;

fn mem_config() -> CacheConfig {
    CacheConfig {
        mem_capacity_pages: CAPACITY,
        ssd_capacity_pages: 0,
        mode: PartitionMode::Global,
        admission: AdmissionConfig::off(),
    }
}

impl<E: Engine> Harness<E> {
    fn new(shards: usize, evictions: fn(&E) -> u64) -> Harness<E> {
        let mut engine = E::build(mem_config(), shards);
        let pools = (0..VMS)
            .map(|v| {
                engine.add_vm(VmId(v), 100);
                (0..POOLS_PER_VM)
                    .map(|_| engine.create_pool(VmId(v), CachePolicy::mem(100)))
                    .collect()
            })
            .collect();
        Harness {
            engine,
            evictions,
            model: EagerModel::new(CAPACITY),
            pools,
        }
    }

    fn key(&self, v: u32, p: u32, file: u64, block: u64) -> (Key, VmId, PoolId, BlockAddr) {
        let pool = self.pools[v as usize][p as usize];
        (
            (v, pool.0, file, block),
            VmId(v),
            pool,
            BlockAddr::new(FileId(file), block),
        )
    }

    fn step(&mut self, r: &mut SimRng) {
        let v = r.range_u64(0, VMS as u64) as u32;
        let p = r.range_u64(0, POOLS_PER_VM as u64) as u32;
        let file = r.range_u64(0, 4);
        let block = r.range_u64(0, 700);
        let (key, vm, pool, addr) = self.key(v, p, file, block);
        let cache = &mut self.engine;
        match r.range_u64(0, 10) {
            // Put-heavy mix: the eviction path only fires under pressure.
            0..=5 => {
                let stored = cache
                    .put(SimTime::from_secs(1), vm, pool, addr, PageVersion(1))
                    .is_stored();
                assert_eq!(stored, self.model.put(key), "put outcome diverged");
            }
            6..=7 => {
                let hit = cache.get(SimTime::from_secs(1), vm, pool, addr).is_hit();
                assert_eq!(hit, self.model.remove(key), "get outcome diverged");
            }
            8 => {
                cache.flush(vm, pool, addr);
                self.model.remove(key);
            }
            _ => {
                // Destroy one pool and re-create it under a fresh id.
                cache.destroy_pool(vm, pool);
                self.model.destroy_pool(v, pool.0);
                self.pools[v as usize][p as usize] = cache.create_pool(vm, CachePolicy::mem(100));
            }
        }
        assert_eq!(
            self.engine.live_pages(),
            self.model.live.len() as u64,
            "occupancy diverged"
        );
    }

    /// Drains both caches in a deterministic key order, comparing
    /// hit/miss per key: any eviction-order difference shows up as a
    /// survivor-set mismatch here.
    fn check_survivors(mut self) {
        assert_eq!((self.evictions)(&self.engine), self.model.evictions);
        for v in 0..VMS {
            for p in 0..POOLS_PER_VM {
                for file in 0..4 {
                    for block in 0..700 {
                        let (key, vm, pool, addr) = self.key(v, p, file, block);
                        let hit = self
                            .engine
                            .get(SimTime::from_secs(1), vm, pool, addr)
                            .is_hit();
                        assert_eq!(
                            hit,
                            self.model.remove(key),
                            "survivor set diverged at {key:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(self.engine.live_pages(), 0);
        assert!(self.model.live.is_empty());
    }
}

/// Runs the model property on one engine, `seeds` one after another.
fn run_sequence<E: Engine>(shards: usize, evictions: fn(&E) -> u64, seeds: &[u64], steps: u64) {
    for &seed in seeds {
        let mut h = Harness::<E>::new(shards, evictions);
        let mut r = SimRng::new(seed);
        for _ in 0..steps {
            h.step(&mut r);
        }
        h.check_survivors();
    }
}

/// [`run_sequence`] on the serial engine and on the sharded one at one
/// shard and at sixteen.
fn on_every_engine(seeds: &[u64], steps: u64) {
    run_sequence::<DoubleDeckerCache>(1, |c| c.totals().evictions, seeds, steps);
    for shards in [1, 16] {
        run_sequence::<ShardedCache>(shards, ShardedCache::evictions, seeds, steps);
    }
}

#[test]
fn tombstone_fifo_matches_eager_retain_model() {
    on_every_engine(&[1, 7, 42, 1234, 0xDD01], 6_000);
}

#[test]
fn long_churn_survives_many_compactions() {
    // One long put-heavy run: the queues turn over many times, over
    // recycled slots.
    on_every_engine(&[99], 25_000);
}

type Resident = (VmId, PoolId, BlockAddr);

/// What [`hybrid_stream`] saw: every evicting put's victims in order,
/// the residents at the end, and which store each page sat in.
#[derive(Default, PartialEq, Eq)]
struct HybridRun {
    /// `(op, objects the put evicted)`, in op order.
    evicted: Vec<(u64, Vec<Resident>)>,
    /// The residents at the end, each with `true` if it sits on the SSD.
    at: BTreeMap<Resident, bool>,
    /// Overwrites that moved a block to the other store.
    moved: u64,
    /// Pages evicted from each store, `[mem, ssd]`.
    per_store: [u64; 2],
}

/// `(mem, ssd)` pages over `pools`.
fn store_pages(cache: &impl Engine, pools: &[(VmId, PoolId)]) -> (u64, u64) {
    pools
        .iter()
        .filter_map(|&(vm, pool)| cache.pool_stats(vm, pool))
        .fold((0, 0), |(m, s), st| (m + st.mem_pages, s + st.ssd_pages))
}

/// The pool in `slot` of [`hybrid_stream`], two a VM: a memory pool keeps the memory
/// store full, so the hybrid pool's memory pages are evicted with its
/// pages in one store-wide order.
fn policy(slot: usize) -> CachePolicy {
    [CachePolicy::hybrid(100), CachePolicy::mem(100)][slot % 2]
}

/// One seeded op stream over two VMs' hybrid and memory pools of a Global-mode cache
/// with a 48-page memory and a 40-page SSD store, working set about
/// three times both together: puts (a third of them overwrites of a
/// resident block), exclusive gets, flushes and now and then a pool
/// destroyed and re-created. The engines do not say where a put went,
/// so each put's store is read off the page counts after it, once the
/// pages it displaced and evicted are accounted for.
fn hybrid_stream<E: Engine>(shards: usize) -> HybridRun {
    let config = CacheConfig::mem_and_ssd(48, 40).with_mode(PartitionMode::Global);
    let mut cache = E::build(config, shards);
    let mut pools = Vec::new();
    for v in 0..VMS {
        cache.add_vm(VmId(v), 100 + 50 * u64::from(v));
        for _ in 0..POOLS_PER_VM {
            let pool = cache.create_pool(VmId(v), policy(pools.len()));
            pools.push((VmId(v), pool));
        }
    }
    let mut r = SimRng::new(0x4EB1);
    let mut run = HybridRun::default();
    for op in 0..4_000u64 {
        // Three ops in four go to a hybrid pool, so its SSD share fills.
        let slot = 2 * r.range_usize(0, VMS as usize) + usize::from(r.chance(0.25));
        let (vm, pool) = pools[slot];
        let own: Vec<BlockAddr> = (run.at.keys())
            .filter(|k| (k.0, k.1) == (vm, pool))
            .map(|k| k.2)
            .collect();
        // Each pool has files of its own: one VM's pools never share a
        // block.
        let file = FileId(4 * slot as u64 + r.range_u64(0, 4));
        let fresh = BlockAddr::new(file, r.range_u64(0, 96));
        let addr = if !own.is_empty() && r.chance(0.33) {
            own[r.range_usize(0, own.len())]
        } else {
            fresh
        };
        let key = (vm, pool, addr);
        match r.range_u64(0, 200) {
            0..=139 => {
                let before = store_pages(&cache, &pools);
                let stored = cache.put(SimTime::from_secs(1), vm, pool, addr, PageVersion(op));
                let after = store_pages(&cache, &pools);
                let mut left = [before.0, before.1];
                let displaced = run.at.remove(&key);
                if let Some(ssd) = displaced {
                    left[usize::from(ssd)] -= 1;
                }
                let residents = cache.entries();
                let gone: Vec<Resident> = (run.at.keys())
                    .filter(|k| {
                        let probe = (k.0, k.1, k.2, PageVersion(0));
                        let at = residents.partition_point(|e| *e < probe);
                        residents.get(at).is_none_or(|e| (e.0, e.1, e.2) != **k)
                    })
                    .copied()
                    .collect();
                for k in &gone {
                    let ssd = run.at.remove(k).expect("tracked");
                    left[usize::from(ssd)] -= 1;
                    run.per_store[usize::from(ssd)] += 1;
                }
                if stored.is_stored() {
                    let to_ssd = match (after.0 - left[0], after.1 - left[1]) {
                        (1, 0) => false,
                        (0, 1) => true,
                        other => panic!("op {op}: a put added {other:?} pages"),
                    };
                    run.moved += u64::from(displaced.is_some_and(|was| was != to_ssd));
                    run.at.insert(key, to_ssd);
                } else {
                    assert_eq!([after.0, after.1], left, "op {op}: a rejected put");
                }
                if !gone.is_empty() {
                    run.evicted.push((op, gone));
                }
            }
            140..=171 => {
                let hit = cache.get(SimTime::from_secs(1), vm, pool, addr).is_hit();
                assert_eq!(hit, run.at.remove(&key).is_some(), "op {op}: get");
            }
            172..=198 => {
                cache.flush(vm, pool, addr);
                run.at.remove(&key);
            }
            _ => {
                cache.destroy_pool(vm, pool);
                run.at.retain(|k, _| (k.0, k.1) != (vm, pool));
                pools[slot] = (vm, cache.create_pool(vm, policy(slot)));
            }
        }
    }
    let findings = cache.audit();
    assert!(findings.is_empty(), "{findings:?}");
    run
}

/// FNV-1a over the evicted sequence, op by op.
fn digest(evicted: &[(u64, Vec<Resident>)]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for (op, gone) in evicted {
        let words = gone
            .iter()
            .flat_map(|&(vm, pool, a)| [u64::from(vm.0), u64::from(pool.0), a.file.0, a.block]);
        for word in std::iter::once(*op).chain(words) {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Hybrid pools over an SSD store in Global mode: both stores fill and
/// evict, overwrites move blocks between them, and the serial engine
/// and the sharded one at one and at sixteen shards evict the same
/// objects in the same order, the serial order being the pinned one.
#[test]
fn hybrid_pools_evict_both_stores_in_one_order_on_every_engine() {
    let want = hybrid_stream::<DoubleDeckerCache>(1);
    assert!(want.moved > 20, "{} overwrites moved a block", want.moved);
    let [mem, ssd] = want.per_store;
    assert!(mem > 100 && ssd > 100, "evicted {mem} mem, {ssd} ssd pages");
    assert_eq!(digest(&want.evicted), HYBRID_EVICTION_DIGEST);
    for shards in [1, 16] {
        let got = hybrid_stream::<ShardedCache>(shards);
        assert!(
            got.evicted == want.evicted,
            "{shards} shards: evicted sequence"
        );
        assert!(got == want, "{shards} shards: residents and stores");
    }
}

/// One seeded op of [`recovered_stream`]: the pool slot (three in four a
/// hybrid pool), the block (the slot's own files) and whether it is a
/// put (else an exclusive get, or a flush if `flush`).
fn seeded_op(r: &mut SimRng) -> (usize, BlockAddr, bool, bool) {
    let slot = 2 * r.range_usize(0, VMS as usize) + usize::from(r.chance(0.25));
    let file = FileId(4 * slot as u64 + r.range_u64(0, 2));
    let addr = BlockAddr::new(file, r.range_u64(0, 1_024));
    let kind = r.range_u64(0, 10);
    (slot, addr, kind >= 2, kind == 1)
}

/// A Global-mode cache of two VMs' hybrid and memory pools ([`policy`])
/// over a 1,024-page memory and a 768-page SSD store (each larger than
/// one eviction batch, so a batch takes the oldest pages and leaves the
/// rest), journal on, runs 12,000 seeded puts, gets and flushes,
/// compacting its journal on the way; a second cache is then recovered
/// from that journal, whole. Under 8,000 more seeded puts the two must
/// answer alike and hold the same entries after every put that evicted:
/// the recovered cache evicts the same pages, batch by batch, as the one
/// it came from, which holds only if the checkpoint and the tail
/// replayed its pages in their store-wide stamp order.
fn recovered_stream<E: Engine>(shards: usize, recover: fn(&E, CacheConfig) -> E) {
    let config = CacheConfig::mem_and_ssd(1_024, 768).with_mode(PartitionMode::Global);
    let mut cache = E::build(config, shards);
    cache.enable_journal();
    let mut pools = Vec::new();
    for v in 0..VMS {
        cache.add_vm(VmId(v), 100 + 50 * u64::from(v));
        for _ in 0..POOLS_PER_VM {
            let pool = cache.create_pool(VmId(v), policy(pools.len()));
            pools.push((VmId(v), pool));
        }
    }
    let now = SimTime::from_secs(1);
    let mut r = SimRng::new(0x2EC0);
    for op in 0..12_000u64 {
        let (slot, addr, put, flush) = seeded_op(&mut r);
        let (vm, pool) = pools[slot];
        if put {
            cache.put(now, vm, pool, addr, PageVersion(op));
        } else if flush {
            cache.flush(vm, pool, addr);
        } else {
            cache.get(now, vm, pool, addr);
        }
    }
    let what = format!("{shards} shards");
    assert!(cache.journal_compactions() >= 1, "{what}: no compaction");
    let mut twin = recover(&cache, config);
    assert!(
        twin.entries() == cache.entries(),
        "{what}: recovered entries"
    );
    // Batches evicted from each store: a store's pages fall by two or
    // more only when a batch ran there.
    let mut batches = [0; 2];
    for op in 12_000..20_000u64 {
        let (slot, addr, _, _) = seeded_op(&mut r);
        let (vm, pool) = pools[slot];
        let before = store_pages(&cache, &pools);
        let stored = cache.put(now, vm, pool, addr, PageVersion(op)).is_stored();
        let twin_stored = twin.put(now, vm, pool, addr, PageVersion(op)).is_stored();
        assert_eq!(twin_stored, stored, "{what}, op {op}: put outcome");
        let after = store_pages(&cache, &pools);
        let evicted = [after.0 + 2 <= before.0, after.1 + 2 <= before.1];
        if evicted.contains(&true) {
            assert!(
                twin.entries() == cache.entries(),
                "{what}, op {op}: evicted pages"
            );
        }
        for (n, hit) in batches.iter_mut().zip(evicted) {
            *n += u32::from(hit);
        }
    }
    assert!(
        twin.entries() == cache.entries(),
        "{what}: entries at the end"
    );
    assert!(
        batches.iter().all(|&n| n >= 3),
        "{what}: batches {batches:?}"
    );
    for findings in [cache.audit(), twin.audit()] {
        assert!(findings.is_empty(), "{what}: {findings:?}");
    }
}

/// [`recovered_stream`] on the serial engine and on the sharded one at
/// one, four and sixteen shards.
#[test]
fn a_cache_recovered_from_its_compacted_journal_evicts_in_its_sources_order() {
    recovered_stream::<DoubleDeckerCache>(1, |cache, config| {
        let image = cache.journal_bytes().expect("journaling on");
        DoubleDeckerCache::recover(config, image, &[]).0
    });
    for shards in [1, 4, 16] {
        recovered_stream::<ShardedCache>(shards, |cache, config| {
            let segments = cache.journal_images().expect("journaling on");
            ShardedCache::recover(config, &segments, &[]).0
        });
    }
}

/// [`digest`] of the serial engine's [`hybrid_stream`], recorded while
/// each store's eviction queue was a lazily deleted `VecDeque`.
const HYBRID_EVICTION_DIGEST: u64 = 0x0013_2C5B_ECFE_FC49;
