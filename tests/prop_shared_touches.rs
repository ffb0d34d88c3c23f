//! What the sharded engine decides from words every client shares, held
//! against the engine that has no sharing to get wrong (DESIGN.md
//! "Layout of the shared core").
//!
//! * **Live compaction fires at one operation.** The trigger compares
//!   the journal's record count with eight times the live pages. Both
//!   move under every handle, so however a handle learns of them the
//!   checkpoint must be written at the operation the serial engine — the
//!   per-op check — writes it: a stream that reaches the threshold
//!   through stored puts, exclusive hits (a record each, and one live
//!   page fewer), scalar flushes (records and no check of their own),
//!   `flush_many` of 4 and of 1,024 absent addresses (one check per
//!   batch), whole-file flushes and pool destroys (which shrink `live`
//!   under the records already written) and `*_many` groups of 32,
//!   driven through one handle and through two handles that take turns,
//!   compacts at the same operation index on every engine and leaves one
//!   journal, byte for byte.
//! * **Two threads stay inside a stated bound.** Between two handles on
//!   two threads the trigger may be seen late, by what the other
//!   handle's group in flight had not yet appended: at every quiescent
//!   point the records are within one group per other handle of the
//!   threshold.
//! * **Placement decided from the registry's weights is the locked
//!   decision.** A control stream (weights, pool create and destroy,
//!   policy swaps) interleaved with hybrid puts through two handles on
//!   one thread places every page where the serial engine places it.

use std::sync::Barrier;

use ddc_core::cleancache::SecondChanceCache;
use ddc_core::concurrent::{audit, ShardedCache};
use ddc_core::hypercache::shard::compaction_due;
use ddc_core::hypercache::Engine;
use ddc_core::prelude::*;

const CONFIG: CacheConfig = CacheConfig {
    mem_capacity_pages: 96,
    ssd_capacity_pages: 192,
    mode: PartitionMode::DoubleDecker,
    admission: AdmissionConfig::off(),
};

/// Pages per `*_many` group.
const GROUP: usize = 32;

const NOW: SimTime = SimTime::ZERO;

/// Journal records since the last compaction.
fn records_of(h: &impl Engine) -> u64 {
    h.journal_records().expect("journaling on")
}

/// One step of the compaction stream, drawn once and applied to every
/// engine.
struct Step {
    pool: usize,
    op: Op,
}

enum Op {
    Put(BlockAddr, PageVersion),
    Get(BlockAddr),
    Flush(BlockAddr),
    FlushFile(FileId),
    PutMany(Vec<(BlockAddr, PageVersion)>),
    GetMany(Vec<BlockAddr>),
    FlushMany(Vec<BlockAddr>),
    /// Destroys the pool and creates its successor under the same
    /// policy: every page of it leaves `live` at once.
    Recreate,
}

/// The stream's pools: `(vm, policy)` of pool `i`.
fn policies() -> [(u32, CachePolicy); 4] {
    [
        (1, CachePolicy::mem(100)),
        (1, CachePolicy::hybrid(80)),
        (2, CachePolicy::ssd(60)),
        (2, CachePolicy::hybrid(120)),
    ]
}

fn stream(seed: u64, steps: u64) -> Vec<Step> {
    let mut rng = SimRng::new(seed);
    let mut out = Vec::new();
    for step in 0..steps {
        let pool = rng.range_usize(0, policies().len());
        let file = FileId(pool as u64 * 3 + rng.range_u64(0, 3));
        let mut addr = || BlockAddr::new(file, rng.range_u64(0, 80));
        let version = PageVersion(1 + step % 7);
        let op = match step % 1_000 {
            // The case a countdown of calls (not records) got wrong:
            // one call, 1,024 records, nothing resident to free.
            499 => Op::FlushMany((0..1_024).map(|b| BlockAddr::new(FileId(99), b)).collect()),
            250 | 750 => Op::FlushFile(file),
            999 => Op::Recreate,
            _ => match step % 10 {
                0..=2 => Op::Put(addr(), version),
                3..=4 => Op::Get(addr()),
                5 => Op::Flush(addr()),
                6 => Op::FlushMany((0..4).map(|_| addr()).collect()),
                7..=8 => Op::PutMany((0..GROUP).map(|_| (addr(), version)).collect()),
                _ => Op::GetMany((0..GROUP).map(|_| addr()).collect()),
            },
        };
        out.push(Step { pool, op });
    }
    out
}

/// Applies one step; `pools[i]` is the current id of stream pool `i`.
/// Returns whether the op ended on the compaction trigger's check.
fn apply(h: &mut impl SecondChanceCache, pools: &mut [PoolId], step: &Step) -> bool {
    let (vm, policy) = policies()[step.pool];
    let (vm, pool) = (VmId(vm), pools[step.pool]);
    match &step.op {
        Op::Put(addr, version) => h.put(NOW, vm, pool, *addr, *version).is_stored(),
        Op::Get(addr) => h.get(NOW, vm, pool, *addr).is_hit(),
        Op::Flush(addr) => {
            h.flush(vm, pool, *addr);
            false
        }
        Op::FlushFile(file) => {
            h.flush_file(vm, pool, *file);
            false
        }
        Op::PutMany(pages) => {
            let out = h.put_many(NOW, vm, pool, pages);
            out.last().is_some_and(|o| o.is_stored())
        }
        Op::GetMany(addrs) => {
            let out = h.get_many(NOW, vm, pool, addrs);
            out.last().is_some_and(|o| o.is_hit())
        }
        Op::FlushMany(addrs) => {
            h.flush_many(vm, pool, addrs);
            true
        }
        Op::Recreate => {
            h.destroy_pool(vm, pool);
            pools[step.pool] = h.create_pool(vm, policy);
            false
        }
    }
}

fn create_pools(h: &mut impl SecondChanceCache) -> Vec<PoolId> {
    let create = |&(vm, policy): &(u32, CachePolicy)| h.create_pool(VmId(vm), policy);
    policies().iter().map(create).collect()
}

fn build_serial() -> (DoubleDeckerCache, Vec<PoolId>) {
    let mut cache = DoubleDeckerCache::new(CONFIG);
    cache.enable_journal();
    cache.add_vm(VmId(1), 100);
    cache.add_vm(VmId(2), 150);
    let pools = create_pools(&mut cache);
    (cache, pools)
}

fn build_sharded(config: CacheConfig, shards: usize) -> (ShardedCache, Vec<PoolId>) {
    let cache = ShardedCache::new(config, shards);
    cache.enable_journal();
    cache.add_vm(VmId(1), 100);
    cache.add_vm(VmId(2), 150);
    let pools = create_pools(&mut cache.clone());
    (cache, pools)
}

#[test]
fn compaction_fires_at_the_same_operation_however_many_handles_drive() {
    // 0xC0AA once lost a hit at op 5,419 to a cached miss that outlived
    // the shard state it was read from; the seed stays as a regression
    // input.
    for seed in [0xC0A7, 0xC0AA, 0xC0B1] {
        compaction_fires_at_the_serial_engines_operation(seed);
    }
}

fn compaction_fires_at_the_serial_engines_operation(seed: u64) {
    let steps = stream(seed, 12_000);
    let (mut serial, serial_pools) = build_serial();
    // (shards, handles taking turns)
    let shapes = [(1usize, 1usize), (1, 2), (4, 1), (16, 3)];
    let mut engines: Vec<_> = shapes
        .iter()
        .map(|&(shards, handles)| {
            let (cache, pools) = build_sharded(CONFIG, shards);
            assert_eq!(pools, serial_pools);
            let handles: Vec<ShardedCache> = (0..handles).map(|_| cache.clone()).collect();
            (cache, handles, pools)
        })
        .collect();
    let mut serial_pools = serial_pools;

    for (i, step) in steps.iter().enumerate() {
        let checked = apply(&mut serial, &mut serial_pools, step);
        let (compactions, records) = (serial.journal_compactions(), records_of(&serial));
        // The per-op check: an op that ends on the trigger leaves a
        // journal that is not due (it compacted if it was).
        if checked {
            assert!(
                !compaction_due(records, serial.live_pages()),
                "op {i}: the serial engine left a due journal"
            );
        }
        for (&(shards, _), (cache, handles, pools)) in shapes.iter().zip(engines.iter_mut()) {
            let turn = i % handles.len();
            let what = format!(
                "seed {seed:#x} op {i}, {shards} shards, {} handles",
                handles.len()
            );
            assert_eq!(apply(&mut handles[turn], pools, step), checked, "{what}");
            assert_eq!(*pools, serial_pools, "{what}: pool ids");
            assert_eq!(
                cache.journal_compactions(),
                compactions,
                "{what}: compactions"
            );
            assert_eq!(records_of(cache), records, "{what}: records");
            assert_eq!(
                cache.live_pages(),
                serial.live_pages(),
                "{what}: live pages"
            );
        }
    }
    assert!(
        serial.journal_compactions() >= 10,
        "only {} compactions: the stream never reached the threshold often enough",
        serial.journal_compactions()
    );

    let image = serial.journal_bytes().expect("journaling on");
    for (&(shards, handles), (cache, _, _)) in shapes.iter().zip(&engines) {
        assert_eq!(cache.entries(), serial.entries());
        assert_eq!(audit(cache), vec![], "{shards} shards, {handles} handles");
        if shards == 1 {
            let segments = cache.journal_images().expect("journaling on");
            assert!(
                segments[0] == image,
                "{handles} handles: the 1-shard segment is not the serial journal"
            );
        }
    }
}

#[test]
fn two_threads_see_the_compaction_threshold_within_a_group_of_each_other() {
    const THREADS: usize = 2;
    const ROUNDS: u64 = 120;
    const GROUPS_PER_ROUND: u64 = 12;
    // Room for every block: nothing evicts, every put stores, so every
    // round ends on a checked operation in both threads.
    let config = CacheConfig::mem_and_ssd(2_048, 4_096);
    let (cache, pools) = build_sharded(config, 8);
    let barrier = Barrier::new(THREADS + 1);
    let before = cache.journal_compactions();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let mut h = cache.clone();
            let (barrier, pools) = (&barrier, &pools);
            scope.spawn(move || {
                let mut rng = SimRng::new(0x2A11 + t as u64);
                // Each thread owns one pool of each VM.
                let mine = [(VmId(1), pools[t]), (VmId(2), pools[2 + t])];
                for round in 0..ROUNDS {
                    for g in 0..GROUPS_PER_ROUND {
                        let (vm, pool) = mine[(g % 2) as usize];
                        let file = FileId(10 + t as u64);
                        let mut addr = || BlockAddr::new(file, rng.range_u64(0, 400));
                        let pages: Vec<_> = (0..GROUP)
                            .map(|_| (addr(), PageVersion(round + 1)))
                            .collect();
                        let gets: Vec<_> = (0..GROUP).map(|_| addr()).collect();
                        h.get_many(NOW, vm, pool, &gets);
                        let stored = h.put_many(NOW, vm, pool, &pages);
                        assert!(stored.iter().all(|o| o.is_stored()));
                    }
                    barrier.wait();
                    // The main thread reads the counters here.
                    barrier.wait();
                }
            });
        }
        for round in 0..ROUNDS {
            barrier.wait();
            let (records, live) = (records_of(&cache), cache.live_pages());
            // The stated bound: a handle may see the trigger late by
            // what each other handle's group in flight had not yet
            // appended.
            let slack = ((THREADS - 1) * GROUP) as u64;
            assert!(
                !compaction_due(records.saturating_sub(slack), live),
                "round {round}: {records} records over {live} live pages"
            );
            barrier.wait();
        }
    });
    assert!(
        cache.journal_compactions() >= before + 5,
        "only {} compactions: the threads never reached the threshold",
        cache.journal_compactions() - before
    );
    assert_eq!(audit(&cache), vec![]);
}

/// One step of the control-and-put stream: the control verbs that move
/// a hybrid pool's memory entitlement, and the puts that read it.
fn control_step(h: &mut impl Engine, pools: &mut Vec<(VmId, PoolId)>, rng: &mut SimRng, step: u64) {
    let pi = rng.range_usize(0, pools.len());
    let (vm, pool) = pools[pi];
    match rng.range_u64(0, 40) {
        0 => h.add_vm_with_store_weights(vm, rng.range_u64(0, 4) * 90, rng.range_u64(1, 4) * 60),
        1 => {
            let policy = match rng.range_u64(0, 3) {
                0 => CachePolicy::mem(50),
                1 => CachePolicy::ssd(70),
                _ => CachePolicy::hybrid(40 + 30 * rng.range_u64(0, 3) as u32),
            };
            h.set_policy(vm, pool, policy);
        }
        2 if pools.len() < 8 => {
            let vm = VmId(rng.range_u64(1, 4) as u32);
            pools.push((vm, h.create_pool(vm, CachePolicy::hybrid(60))));
        }
        3 if pools.len() > 3 => {
            h.destroy_pool(vm, pool);
            pools.remove(pi);
        }
        4..=9 => {
            let addrs: Vec<_> = (0..GROUP)
                .map(|_| BlockAddr::new(FileId(pi as u64), rng.range_u64(0, 60)))
                .collect();
            let pages: Vec<_> = addrs.iter().map(|&a| (a, PageVersion(step))).collect();
            h.put_many(NOW, vm, pool, &pages);
        }
        _ => {
            let addr = BlockAddr::new(FileId(pi as u64), rng.range_u64(0, 60));
            h.put(NOW, vm, pool, addr, PageVersion(step));
        }
    }
}

#[test]
fn placements_are_the_serial_engines_after_every_control_verb() {
    for mode in [PartitionMode::DoubleDecker, PartitionMode::Strict] {
        let config = CacheConfig { mode, ..CONFIG };
        let mut serial = DoubleDeckerCache::new(config);
        let sharded = ShardedCache::new(config, 4);
        let mut handles = [sharded.clone(), sharded.clone()];
        let mut serial_pools = vec![
            (
                VmId(1),
                serial.create_pool(VmId(1), CachePolicy::hybrid(80)),
            ),
            (
                VmId(2),
                serial.create_pool(VmId(2), CachePolicy::hybrid(120)),
            ),
            (VmId(2), serial.create_pool(VmId(2), CachePolicy::mem(60))),
        ];
        let mut sharded_pools = vec![
            (
                VmId(1),
                handles[0].create_pool(VmId(1), CachePolicy::hybrid(80)),
            ),
            (
                VmId(2),
                handles[1].create_pool(VmId(2), CachePolicy::hybrid(120)),
            ),
            (
                VmId(2),
                handles[0].create_pool(VmId(2), CachePolicy::mem(60)),
            ),
        ];
        let (mut serial_rng, mut sharded_rng) = (SimRng::new(0xB0B), SimRng::new(0xB0B));
        for step in 1..=6_000u64 {
            control_step(&mut serial, &mut serial_pools, &mut serial_rng, step);
            let turn = (step % 2) as usize;
            control_step(
                &mut handles[turn],
                &mut sharded_pools,
                &mut sharded_rng,
                step,
            );
            assert_eq!(serial_pools, sharded_pools, "{mode:?} step {step}");
            for &(vm, pool) in &serial_pools {
                assert_eq!(
                    serial.pool_stats(vm, pool),
                    handles[1 - turn].pool_stats(vm, pool),
                    "{mode:?} step {step}: {vm} {pool}"
                );
            }
        }
        assert_eq!(serial.entries(), sharded.entries(), "{mode:?}");
        assert_eq!(audit(&sharded), vec![], "{mode:?}");
    }
}
