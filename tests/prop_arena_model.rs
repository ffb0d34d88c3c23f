//! Property tests for the slab-arena pool index (DESIGN.md §13).
//!
//! The arena (`Vec<Option<...>>` + free-list + one hash probe) must be
//! observably identical to the naive model it replaced — a
//! `BTreeMap<BlockAddr, Slot>` — under arbitrary put/flush/evict/drain
//! sequences, and its free-list must never hand a live `SlotId` to a
//! second object; after every drain of one store and every overwrite
//! that moves a block to the other store, a copy of the pool is popped
//! empty and its whole eviction order held against the model's.
//! `Pool::remove_file`, which walks the file's intrusive
//! chain, is additionally held against the full slab scan it replaced —
//! down to the `SlotId`s the free-list hands out afterwards — and every
//! step runs the pool auditor, whose arena-shape invariant includes that
//! the file chains partition the live set, and every store's queue is a
//! chain of exactly its live pages. A third test churns a full
//! `DoubleDeckerCache` in Global mode (overwrite + flush heavy, working
//! set over capacity) so the queues are unlinked and merged over
//! recycled `SlotId`s again and again, with the serial auditor as the
//! oracle. A fourth drives one pool through removal-heavy schedules
//! (removals outnumber evictions twenty to one and more) against a
//! model that replays the free-list, so the eviction order and the id of
//! every insert are pinned while most queue entries leave from the
//! middle.
//! (Seeded SimRng schedules — the in-tree replacement for proptest.)

use std::collections::{BTreeMap, BTreeSet};

use ddc_core::cleancache::SecondChanceCache;
use ddc_core::hypercache::index::{Placement, Pool, SlotId};
use ddc_core::hypercache::{audit, audit_pool_slice, DoubleDeckerCache};
use ddc_core::prelude::*;

/// What the naive model remembers per resident block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ModelSlot {
    placement: Placement,
    version: u64,
    seq: u64,
}

type Model = BTreeMap<BlockAddr, ModelSlot>;

fn model_used(model: &Model, placement: Placement) -> u64 {
    model.values().filter(|s| s.placement == placement).count() as u64
}

/// The model's FIFO-eviction victim: the live block with the smallest
/// sequence stamp in the given store (each live slot has exactly one
/// live queue entry, stamped with its current seq).
fn model_oldest(model: &Model, placement: Placement) -> Option<(BlockAddr, ModelSlot)> {
    model
        .iter()
        .filter(|(_, s)| s.placement == placement)
        .min_by_key(|(_, s)| s.seq)
        .map(|(&a, &s)| (a, s))
}

/// Pops both stores of a copy of `pool` empty and holds the whole
/// order against the model's: by sequence stamp, oldest first.
fn assert_pop_order(pool: &Pool, model: &Model, what: &str) {
    let mut popped = pool.clone();
    for placement in [Placement::Mem, Placement::Ssd] {
        let mut want: Vec<(u64, BlockAddr)> = (model.iter())
            .filter(|(_, s)| s.placement == placement)
            .map(|(&a, s)| (s.seq, a))
            .collect();
        want.sort_unstable();
        let got: Vec<(u64, BlockAddr)> = std::iter::from_fn(|| popped.pop_oldest(placement))
            .map(|(a, s)| (s.seq, a))
            .collect();
        assert_eq!(got, want, "{what}: {placement:?} pop order");
    }
    assert!(popped.is_empty(), "{what}: popping both stores left pages");
}

fn placement_of(r: &mut SimRng) -> Placement {
    if r.chance(0.5) {
        Placement::Mem
    } else {
        Placement::Ssd
    }
}

fn random_addr(r: &mut SimRng) -> BlockAddr {
    BlockAddr::new(FileId(r.range_u64(1, 5)), r.range_u64(0, 48))
}

/// Arena/model agreement on everything a caller can observe, plus the
/// arena-shape invariants (free-list disjoint from the live set, no
/// duplicate free ids, live + free spans the slab).
fn check_against_model(pool: &Pool, model: &Model) {
    let visible: BTreeMap<BlockAddr, ModelSlot> = pool
        .iter()
        .map(|(addr, s)| {
            (
                addr,
                ModelSlot {
                    placement: s.placement,
                    version: s.version.0,
                    seq: s.seq,
                },
            )
        })
        .collect();
    assert_eq!(&visible, model, "arena visible state diverged from model");
    for placement in [Placement::Mem, Placement::Ssd] {
        assert_eq!(pool.used(placement), model_used(model, placement));
        let queued = pool.fifo_entries(placement).count() as u64;
        assert_eq!(queued, pool.used(placement), "{placement:?} queue length");
    }

    let live: BTreeSet<SlotId> = pool.iter_ids().map(|(id, _, _)| id).collect();
    let mut free: Vec<SlotId> = pool.free_ids().collect();
    let free_set: BTreeSet<SlotId> = free.iter().copied().collect();
    assert_eq!(free_set.len(), free.len(), "free-list holds a duplicate id");
    free.clear();
    assert!(
        live.is_disjoint(&free_set),
        "free-list intersects the live set"
    );
    assert_eq!(
        live.len() + free_set.len(),
        pool.arena_len() as usize,
        "live + free must span the slab exactly"
    );
    for (id, addr, _) in pool.iter_ids() {
        assert_eq!(pool.lookup(addr), Some(id), "map/slab disagreement");
    }

    // The auditor's view of the same pool: among the rest, every
    // occupied slot sits on exactly one file chain — its own file's, the
    // one the head map names — and nothing dangles.
    let findings = audit_pool_slice(&[(VmId(1), PoolId(0), pool)], u64::MAX);
    assert!(findings.is_empty(), "{findings:?}");
}

/// `Pool::remove_file` as it was before the per-file chain: a scan of
/// the whole slab in index order, releasing every match as it goes.
fn remove_file_by_full_scan(pool: &mut Pool, file: FileId) -> (u64, u64) {
    let victims: Vec<(SlotId, Placement)> = pool
        .iter_ids()
        .filter(|(_, addr, _)| addr.file == file)
        .map(|(id, _, slot)| (id, slot.placement))
        .collect();
    let mut freed = (0, 0);
    for (id, placement) in victims {
        match placement {
            Placement::Mem => freed.0 += 1,
            Placement::Ssd => freed.1 += 1,
        }
        pool.remove_by_id(id).expect("victim is live");
    }
    freed
}

#[test]
fn arena_matches_naive_map_model_under_random_sequences() {
    let mut rng = SimRng::new(0xA12E);
    for case in 0..64 {
        let mut r = rng.fork(case);
        let mut pool = Pool::new(VmId(1), CachePolicy::hybrid(100));
        let mut model: Model = BTreeMap::new();
        let mut seq = 0u64;
        for _ in 0..r.range_u64(1, 300) {
            match r.range_u64(0, 10) {
                // Put (new key or overwrite-in-place).
                0..=4 => {
                    let addr = random_addr(&mut r);
                    let placement = placement_of(&mut r);
                    let version = r.range_u64(1, 8);
                    seq += 1;
                    // The free-list must never hand out an id that is
                    // currently live (double-assignment would alias two
                    // blocks onto one slab cell).
                    let live_before: BTreeSet<SlotId> =
                        pool.iter_ids().map(|(id, _, _)| id).collect();
                    let was_resident = model.contains_key(&addr);
                    let (sid, displaced) = pool.insert(addr, placement, PageVersion(version), seq);
                    if was_resident {
                        assert_eq!(
                            displaced.expect("overwrite displaces the old copy"),
                            model[&addr].placement
                        );
                        assert!(live_before.contains(&sid), "overwrite must keep the id");
                    } else {
                        assert_eq!(displaced, None);
                        assert!(
                            !live_before.contains(&sid),
                            "free-list double-assigned live {sid:?}"
                        );
                    }
                    model.insert(
                        addr,
                        ModelSlot {
                            placement,
                            version,
                            seq,
                        },
                    );
                    if displaced.is_some_and(|from| from != placement) {
                        assert_pop_order(&pool, &model, "an overwrite into the other store");
                    }
                }
                // Lookup (exclusive-get peek only; removal is the next arm).
                5 => {
                    let addr = random_addr(&mut r);
                    let got = pool.peek(addr).map(|s| ModelSlot {
                        placement: s.placement,
                        version: s.version.0,
                        seq: s.seq,
                    });
                    assert_eq!(got, model.get(&addr).copied());
                }
                // Flush: remove by key.
                6..=7 => {
                    let addr = random_addr(&mut r);
                    let got = pool.remove(addr).map(|s| s.placement);
                    assert_eq!(got, model.remove(&addr).map(|s| s.placement));
                }
                // Evict: FIFO pop of the oldest live entry.
                8 => {
                    let placement = placement_of(&mut r);
                    let got = pool.pop_oldest(placement);
                    let expected = model_oldest(&model, placement);
                    match (got, expected) {
                        (None, None) => {}
                        (Some((addr, slot)), Some((maddr, mslot))) => {
                            assert_eq!(addr, maddr, "eviction order diverged");
                            assert_eq!(slot.seq, mslot.seq);
                            model.remove(&maddr);
                        }
                        (got, expected) => {
                            panic!("pop_oldest: arena {got:?} vs model {expected:?}")
                        }
                    }
                }
                // Invalidate a whole file: the chain walk against the
                // full scan on a clone — same counts, same survivors,
                // and the same free-list, so the same `SlotId`s go to
                // the next inserts.
                9 => {
                    let file = FileId(r.range_u64(1, 5));
                    let mut scanned = pool.clone();
                    let (mem, ssd) = pool.remove_file(file);
                    assert_eq!((mem, ssd), remove_file_by_full_scan(&mut scanned, file));
                    assert!(pool
                        .iter_ids()
                        .map(|(id, a, s)| (id, a, *s))
                        .eq(scanned.iter_ids().map(|(id, a, s)| (id, a, *s))));
                    assert!(pool.free_ids().eq(scanned.free_ids()), "free-list order");
                    let mut chained = pool.clone();
                    for k in 1..=3 {
                        let fresh = BlockAddr::new(FileId(9), k);
                        assert_eq!(
                            chained.insert(fresh, Placement::Mem, PageVersion(1), seq + k),
                            scanned.insert(fresh, Placement::Mem, PageVersion(1), seq + k),
                            "the next inserts must land in the same slots"
                        );
                    }
                    let before = (
                        model_used(&model, Placement::Mem),
                        model_used(&model, Placement::Ssd),
                    );
                    model.retain(|a, _| a.file != file);
                    let after = (
                        model_used(&model, Placement::Mem),
                        model_used(&model, Placement::Ssd),
                    );
                    assert_eq!((mem, ssd), (before.0 - after.0, before.1 - after.1));
                }
                // Drain one store side.
                _ => {
                    let placement = placement_of(&mut r);
                    let freed = pool.drain_placement(placement);
                    assert_eq!(freed, model_used(&model, placement));
                    model.retain(|_, s| s.placement != placement);
                    assert_pop_order(&pool, &model, "drain_placement");
                }
            }
            check_against_model(&pool, &model);
        }
    }
}

/// The model of [`tombstone_heavy_schedules_keep_fifo_order_and_slot_ids`]:
/// the live set with each block's `SlotId`, and the slab's free-list
/// replayed (a stack, released in the order the pool releases), so it
/// names the id every insert must receive.
#[derive(Default)]
struct SlabModel {
    live: BTreeMap<BlockAddr, (SlotId, ModelSlot)>,
    free: Vec<SlotId>,
    arena_len: u32,
}

impl SlabModel {
    /// The id the insert of `addr` must return: the key's own if it is
    /// resident, else the top of the free-list, else a new cell.
    fn insert(&mut self, addr: BlockAddr, slot: ModelSlot) -> SlotId {
        let id = match self.live.get(&addr) {
            Some(&(id, _)) => id,
            None => self.free.pop().unwrap_or_else(|| {
                self.arena_len += 1;
                SlotId(self.arena_len - 1)
            }),
        };
        self.live.insert(addr, (id, slot));
        id
    }

    fn release(&mut self, addr: BlockAddr) -> Option<ModelSlot> {
        let (id, slot) = self.live.remove(&addr)?;
        self.free.push(id);
        Some(slot)
    }

    /// One store's live entries in eviction order: by sequence stamp.
    fn queue(&self, placement: Placement) -> Vec<(SlotId, u64)> {
        let mut queue: Vec<_> = self
            .live
            .values()
            .filter(|(_, s)| s.placement == placement)
            .map(|&(id, s)| (id, s.seq))
            .collect();
        queue.sort_unstable_by_key(|&(_, seq)| seq);
        queue
    }
}

/// Removal-heavy schedules: exclusive takes, flushes and overwrites
/// outnumber FIFO pops (one op in a thousand) by hundreds to one, so
/// nearly every entry leaves its queue from the middle, not from the
/// oldest end. Every op is held against [`SlabModel`]: a pop returns the
/// oldest live block of its store, an insert receives the predicted
/// `SlotId`, the free-list (which names the ids of the next inserts) is
/// the model's, and each queue is exactly the model's live set of its
/// store in sequence order.
#[test]
fn tombstone_heavy_schedules_keep_fifo_order_and_slot_ids() {
    let mut rng = SimRng::new(0x70B5);
    let (mut removals, mut pops) = (0u64, 0u64);
    for case in 0..5 {
        let mut r = rng.fork(case);
        let mut pool = Pool::new(VmId(1), CachePolicy::hybrid(100));
        let mut model = SlabModel::default();
        for seq in 1..=10_000u64 {
            let addr = BlockAddr::new(FileId(r.range_u64(1, 5)), r.range_u64(0, 96));
            // Four puts in five go to memory: its queue turns over fastest.
            let placement = if r.chance(0.8) {
                Placement::Mem
            } else {
                Placement::Ssd
            };
            let what = format!("case {case} op {seq}");
            match r.range_u64(0, 1_000) {
                // Put: a new key, or an overwrite that kills its entry.
                0..=479 => {
                    removals += u64::from(model.live.contains_key(&addr));
                    let version = r.range_u64(1, 8);
                    let slot = ModelSlot {
                        placement,
                        version,
                        seq,
                    };
                    let want = model.insert(addr, slot);
                    let (got, _) = pool.insert(addr, placement, PageVersion(version), seq);
                    assert_eq!(got, want, "{what}: insert landed in another slot");
                }
                // Exclusive take of a resident block.
                480..=729 => {
                    if model.live.is_empty() {
                        continue;
                    }
                    let nth = r.range_usize(0, model.live.len());
                    let addr = *model.live.keys().nth(nth).expect("in range");
                    removals += 1;
                    let got = pool.remove(addr).map(|s| (s.placement, s.version.0, s.seq));
                    let want = model.release(addr).map(|s| (s.placement, s.version, s.seq));
                    assert_eq!(got, want, "{what}: take");
                }
                // Flush: a block that may or may not be resident.
                730..=998 => {
                    let got = pool.remove(addr).map(|s| s.seq);
                    let want = model.release(addr).map(|s| s.seq);
                    removals += u64::from(want.is_some());
                    assert_eq!(got, want, "{what}: flush");
                }
                // Evict: the oldest live entry of one store, four in
                // five from the SSD, so the memory queue runs long.
                _ => {
                    let placement = if r.chance(0.2) {
                        Placement::Mem
                    } else {
                        Placement::Ssd
                    };
                    pops += 1;
                    let want = model.queue(placement).first().copied();
                    let got = pool.pop_oldest(placement);
                    assert_eq!(got.map(|(_, s)| s.seq), want.map(|w| w.1), "{what}: pop");
                    if let Some((addr, _)) = got {
                        model.release(addr).expect("popped block was live");
                    }
                }
            }
            assert!(
                pool.free_ids().eq(model.free.iter().copied()),
                "{what}: the free-list (the next inserts' ids) diverged"
            );
            for placement in [Placement::Mem, Placement::Ssd] {
                assert!(
                    pool.fifo_entries(placement).eq(model.queue(placement)),
                    "{what}: {placement:?} FIFO order diverged"
                );
            }
            if seq % 1_000 == 0 {
                let findings = audit_pool_slice(&[(VmId(1), PoolId(0), &pool)], u64::MAX);
                assert!(findings.is_empty(), "{what}: {findings:?}");
            }
        }
    }
    assert!(
        removals >= 20 * pops,
        "{removals} removals against {pops} pops: not removal-heavy"
    );
}

/// Heavy id recycling: fill, drain, refill many times over a small key
/// range so every slab cell is reused repeatedly, then verify the slab
/// never grew past the peak working set (the free-list actually
/// recycles instead of leaking indices).
#[test]
fn free_list_recycles_instead_of_growing_the_slab() {
    let mut pool = Pool::new(VmId(1), CachePolicy::mem(100));
    let mut seq = 0u64;
    for round in 0..32u64 {
        for b in 0..64u64 {
            seq += 1;
            pool.insert(
                BlockAddr::new(FileId(1), b),
                Placement::Mem,
                PageVersion(round + 1),
                seq,
            );
        }
        assert!(
            pool.arena_len() <= 64,
            "round {round}: slab grew to {} cells for a 64-block working set",
            pool.arena_len()
        );
        if round % 2 == 0 {
            assert_eq!(pool.drain_placement(Placement::Mem), 64);
        } else {
            for b in 0..64u64 {
                pool.remove(BlockAddr::new(FileId(1), b));
            }
        }
        assert!(pool.is_empty());
    }
}

/// Global-mode churn with a working set ~3x capacity: every overwrite
/// and flush unlinks a queue entry and every eviction batch merges the
/// pools' queues, over recycled `SlotId`s. The serial auditor (index
/// coherence, queue chains, arena shape) is the oracle after every
/// burst.
#[test]
fn global_fifo_compaction_over_recycled_ids_stays_audit_clean() {
    let mut rng = SimRng::new(0xC03B);
    for case in 0..16 {
        let mut r = rng.fork(case);
        let mut cache = DoubleDeckerCache::new(CacheConfig {
            mem_capacity_pages: 128,
            ssd_capacity_pages: 0,
            mode: PartitionMode::Global,
            admission: AdmissionConfig::off(),
        });
        let mut pools = Vec::new();
        for v in 1..=3u32 {
            cache.add_vm(VmId(v), 100);
            pools.push((VmId(v), cache.create_pool(VmId(v), CachePolicy::mem(100))));
        }
        let now = SimTime::from_secs(1);
        for _ in 0..r.range_u64(4, 12) {
            for _ in 0..r.range_u64(50, 200) {
                let (vm, pool) = pools[r.next_below(3) as usize];
                let addr = BlockAddr::new(FileId(r.range_u64(1, 4)), r.next_below(384));
                match r.range_u64(0, 5) {
                    0..=2 => {
                        cache.put(now, vm, pool, addr, PageVersion(1));
                    }
                    3 => {
                        cache.get(now, vm, pool, addr);
                    }
                    _ => {
                        cache.flush(vm, pool, addr);
                    }
                }
            }
            let findings = audit(&cache);
            assert!(findings.is_empty(), "case {case}: {findings:?}");
        }
    }
}
