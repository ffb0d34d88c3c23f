//! The serial and the sharded engine are one state machine (DESIGN.md
//! §11.5): driven by one op stream they write the same journal, and
//! handed one journal image they recover the same cache.
//!
//! * **One journal.** A seeded stream of scalar put/get/flush,
//!   `flush_many` and periodic `flush_file` over four pools, long
//!   enough for ten live compactions, in every partition mode: the
//!   compaction counts agree, a 1-shard segment equals the serial
//!   journal byte for byte, and the segments of 4 and 16 shards, merged
//!   by generation, equal the serial record list.
//! * **One recovery.** Every 53-byte cut of such an image (and the
//!   whole image), with and without guest flush epochs, through both
//!   `recover`s: same entries, same report counters, same fresh epochs,
//!   same wear totals, and a byte-identical fresh checkpoint.
//! * **One answer where replay used to drift.** Hand-built images with
//!   a `SetVmWeights` for a VM no `AddVm` registered, with a `SetMode`
//!   that disagrees with the recovery config, and with a second
//!   `CreatePool` for a pool that already holds a page.
//! * **One control plane.** A second stream that interleaves every
//!   control verb both engines have (VM registration and re-weighting,
//!   pool create / destroy, policy swaps that move a pool between the
//!   stores and switch it off while it still holds pages, migrations
//!   that leave a pool holding pages in a store its policy does not
//!   name) with data ops: the entitlement every engine reports, the
//!   resident entries and the merged journal records agree after every
//!   verb, and the journal and recovery claims above hold for it too.
//! * **One usage read.** A recovered journal that leaves pools holding
//!   pages outside their policy's stores, driven to zero and back: the
//!   stats (entitlements included), eviction counts and entries agree
//!   after every step.

use ddc_core::cleancache::SecondChanceCache;
use ddc_core::concurrent::ShardedCache;
use ddc_core::hypercache::Engine;
use ddc_core::prelude::*;
use ddc_core::storage::{Journal, JournalRecord};

const MODES: [PartitionMode; 3] = [
    PartitionMode::DoubleDecker,
    PartitionMode::Global,
    PartitionMode::Strict,
];

fn config(mode: PartitionMode) -> CacheConfig {
    CacheConfig {
        mem_capacity_pages: 96,
        ssd_capacity_pages: 192,
        mode,
        admission: AdmissionConfig::off(),
    }
}

fn create_pools(h: &mut impl SecondChanceCache) -> Vec<(VmId, PoolId)> {
    vec![
        (VmId(1), h.create_pool(VmId(1), CachePolicy::mem(100))),
        (VmId(1), h.create_pool(VmId(1), CachePolicy::hybrid(80))),
        (VmId(2), h.create_pool(VmId(2), CachePolicy::ssd(60))),
        (VmId(2), h.create_pool(VmId(2), CachePolicy::hybrid(120))),
    ]
}

fn build_serial(mode: PartitionMode) -> (DoubleDeckerCache, Vec<(VmId, PoolId)>) {
    let mut cache = DoubleDeckerCache::new(config(mode));
    cache.enable_journal();
    cache.add_vm(VmId(1), 100);
    cache.add_vm(VmId(2), 150);
    let pools = create_pools(&mut cache);
    (cache, pools)
}

fn build_sharded(mode: PartitionMode, shards: usize) -> (ShardedCache, Vec<(VmId, PoolId)>) {
    let cache = ShardedCache::new(config(mode), shards);
    cache.enable_journal();
    cache.add_vm(VmId(1), 100);
    cache.add_vm(VmId(2), 150);
    let pools = create_pools(&mut cache.clone());
    (cache, pools)
}

/// Steps of the stream: enough for well over ten compactions of a
/// journal whose threshold is `max(1024, 8 × 288)` records.
const STEPS: u64 = 40_000;

/// The op stream. Working sets (3 files × 80 blocks a pool) are far
/// past every share, so puts evict, hybrid pools spill and trickle
/// down, and gets hit often enough to journal takes.
fn drive(h: &mut impl SecondChanceCache, pools: &[(VmId, PoolId)], seed: u64) {
    let mut rng = SimRng::new(seed);
    let now = SimTime::from_secs(1);
    for step in 0..STEPS {
        let pi = rng.range_usize(0, pools.len());
        let (vm, pool) = pools[pi];
        let file = FileId(pi as u64 * 3 + rng.range_u64(0, 3));
        let addr = BlockAddr::new(file, rng.range_u64(0, 80));
        match rng.range_u64(0, 10) {
            0..=4 => {
                h.put(now, vm, pool, addr, PageVersion(1 + step % 5));
            }
            5..=7 => {
                h.get(now, vm, pool, addr);
            }
            8 => {
                h.flush(vm, pool, addr);
            }
            _ => {
                let addrs: Vec<BlockAddr> = (0..4)
                    .map(|_| BlockAddr::new(file, rng.range_u64(0, 80)))
                    .collect();
                h.flush_many(vm, pool, &addrs);
            }
        }
        if step % 997 == 996 {
            h.flush_file(vm, pool, file);
        }
    }
}

fn merged_records(segments: &[Vec<u8>]) -> Vec<(u64, JournalRecord)> {
    let mut merged = Vec::new();
    for seg in segments {
        let (records, stats) = Journal::replay(seg);
        assert!(!stats.torn_tail && !stats.corrupt, "live segment {stats}");
        merged.extend(records);
    }
    merged.sort_unstable_by_key(|&(gen, _)| gen);
    merged
}

#[test]
fn one_op_stream_writes_one_journal_on_both_engines() {
    for (mi, mode) in MODES.into_iter().enumerate() {
        let seed = 0x05E0 + mi as u64;
        let (mut serial, pools) = build_serial(mode);
        drive(&mut serial, &pools, seed);
        let compactions = serial.journal_compactions();
        assert!(
            compactions >= 10,
            "{mode:?}: only {compactions} live compactions, stream too short"
        );
        let image = serial.journal_bytes().expect("journaling on").to_vec();
        let (serial_records, _) = Journal::replay(&image);

        for shards in [1usize, 4, 16] {
            let (mut sharded, sharded_pools) = build_sharded(mode, shards);
            assert_eq!(pools, sharded_pools);
            drive(&mut sharded, &pools, seed);
            assert_eq!(
                sharded.journal_compactions(),
                compactions,
                "{mode:?}, {shards} shards: compaction count"
            );
            let segments = sharded.journal_images().expect("journaling on");
            if shards == 1 {
                assert!(
                    segments[0] == image,
                    "{mode:?}: the 1-shard segment is not the serial journal"
                );
            }
            assert!(
                merged_records(&segments) == serial_records,
                "{mode:?}, {shards} shards: merged records differ from the serial journal"
            );
            assert_eq!(sharded.entries(), serial.entries());
        }
    }
}

/// Recovers `image` through both engines, holds everything the two
/// reports and caches share against each other, and hands both back.
fn recover_both(
    config: CacheConfig,
    image: &[u8],
    epochs: &[(VmId, u64)],
    what: &str,
) -> (DoubleDeckerCache, ShardedCache) {
    let (serial, sr) = DoubleDeckerCache::recover(config, image, epochs);
    let (sharded, hr) = ShardedCache::recover(config, &[image.to_vec()], epochs);
    assert_eq!(serial.entries(), sharded.entries(), "{what}: entries");
    assert_eq!(
        (
            sr.records_replayed,
            sr.discarded_stale,
            sr.dropped_no_room,
            sr.recovered_entries
        ),
        (
            hr.records_replayed,
            hr.discarded_stale,
            hr.dropped_no_room,
            hr.recovered_entries
        ),
        "{what}: report counters"
    );
    assert_eq!(sr.new_epochs, hr.new_epochs, "{what}: new epochs");
    assert_eq!(serial.mode(), sharded.mode(), "{what}: mode");
    assert_eq!(
        serial.wear_totals(),
        sharded.wear_totals(),
        "{what}: wear totals"
    );
    let fresh = sharded.journal_images().expect("recovered caches journal");
    assert!(
        serial.journal_bytes().expect("recovered caches journal") == &fresh[0][..],
        "{what}: fresh checkpoints differ"
    );
    (serial, sharded)
}

#[test]
fn one_image_recovers_to_one_cache_on_both_engines() {
    let mode = PartitionMode::DoubleDecker;
    let (mut serial, pools) = build_serial(mode);
    drive(&mut serial, &pools, 0x05E7);
    let image = serial.journal_bytes().expect("journaling on").to_vec();
    assert!(serial.journal_compactions() >= 10);

    let epoch_sets: [&[(VmId, u64)]; 2] = [&[], &[(VmId(1), 1 << 40), (VmId(2), 3)]];
    let mut cuts: Vec<usize> = (0..image.len()).step_by(53).collect();
    cuts.push(image.len());
    for cut in cuts {
        for (ei, epochs) in epoch_sets.iter().enumerate() {
            let what = format!("cut {cut} of {}, epoch set {ei}", image.len());
            recover_both(config(mode), &image[..cut], epochs, &what);
        }
    }
}

/// A journal written by hand, record by record (valid CRCs, dense
/// generations): what a live engine would never write but a replay must
/// still answer one way.
fn image(records: &[JournalRecord]) -> Vec<u8> {
    let mut journal = Journal::new();
    for rec in records {
        journal.append(rec);
    }
    journal.bytes().to_vec()
}

fn forty_puts(vm: u32, pool: u32) -> impl Iterator<Item = JournalRecord> {
    (0..40).map(move |block| JournalRecord::Put {
        vm,
        pool,
        addr: BlockAddr::new(FileId(1), block),
        version: 1,
        placement: 0,
    })
}

#[test]
fn weights_for_an_unregistered_vm_register_it_on_both_engines() {
    // The image lost the VM's `AddVm`; its `SetVmWeights` survives. The
    // weights must not fall back to the 100/100 a later `CreatePool`
    // auto-registers with.
    let mut records = vec![
        JournalRecord::SetVmWeights {
            vm: 7,
            mem_weight: 300,
            ssd_weight: 50,
        },
        JournalRecord::CreatePool {
            vm: 7,
            pool: 1,
            store: ddc_core::hypercache::store_kind_code(StoreKind::Mem),
            weight: 100,
        },
    ];
    records.extend(forty_puts(7, 1));
    records.push(JournalRecord::SetMemCapacity { pages: 40 });
    let image = image(&records);

    let config = config(PartitionMode::DoubleDecker);
    recover_both(config, &image, &[], "SetVmWeights before AddVm");
    let (serial, report) = DoubleDeckerCache::recover(config, &image, &[]);
    assert_eq!(report.recovered_entries, 40);
    let (fresh, _) = Journal::replay(serial.journal_bytes().expect("journaling on"));
    let registered = JournalRecord::AddVm {
        vm: 7,
        mem_weight: 300,
        ssd_weight: 50,
    };
    assert!(
        fresh.iter().any(|(_, rec)| *rec == registered),
        "the checkpoint registers VM 7 at 100/100"
    );
}

#[test]
fn the_journals_mode_wins_over_the_recovery_configs_on_both_engines() {
    let mut records = vec![
        JournalRecord::SetMode {
            mode: PartitionMode::Global.code(),
        },
        JournalRecord::AddVm {
            vm: 1,
            mem_weight: 100,
            ssd_weight: 100,
        },
        JournalRecord::CreatePool {
            vm: 1,
            pool: 1,
            store: ddc_core::hypercache::store_kind_code(StoreKind::Mem),
            weight: 100,
        },
    ];
    records.extend(forty_puts(1, 1));
    let image = image(&records);

    let config = config(PartitionMode::DoubleDecker);
    recover_both(config, &image, &[], "SetMode against the config");
    let (serial, _) = DoubleDeckerCache::recover(config, &image, &[]);
    let (sharded, _) = ShardedCache::recover(config, std::slice::from_ref(&image), &[]);
    assert_eq!(serial.mode(), PartitionMode::Global);
    assert_eq!(sharded.mode(), PartitionMode::Global);
    // A journal that never recorded a mode leaves the config's.
    let (sharded, _) = ShardedCache::recover(config, &[Vec::new()], &[]);
    assert_eq!(sharded.mode(), PartitionMode::DoubleDecker);
}

#[test]
fn a_second_create_pool_for_a_registered_pool_keeps_its_pages_on_both_engines() {
    // A `CreatePool` for an id already registered swaps the pool's
    // policy: the page it holds stays in the pool and in the store's
    // count, and the auditor stays clean.
    let create = |store| JournalRecord::CreatePool {
        vm: 1,
        pool: 2,
        store: ddc_core::hypercache::store_kind_code(store),
        weight: 100,
    };
    let addr = BlockAddr::new(FileId(1), 0);
    let records = [
        create(StoreKind::Mem),
        JournalRecord::Put {
            vm: 1,
            pool: 2,
            addr,
            version: 1,
            placement: 0,
        },
        create(StoreKind::Hybrid),
    ];
    let image = image(&records);
    let config = config(PartitionMode::DoubleDecker);
    recover_both(config, &image, &[], "a second CreatePool");

    let kept = vec![(VmId(1), PoolId(2), addr, PageVersion(1))];
    let (serial, _) = DoubleDeckerCache::recover(config, &image, &[]);
    assert_eq!(serial.entries(), kept);
    assert_eq!(ddc_core::hypercache::audit(&serial), vec![]);
    let (sharded, _) = ShardedCache::recover(config, std::slice::from_ref(&image), &[]);
    assert_eq!(sharded.entries(), kept);
    assert_eq!(ddc_core::concurrent::audit(&sharded), vec![]);
    let (fresh, _) = Journal::replay(serial.journal_bytes().expect("journaling on"));
    assert!(
        fresh
            .iter()
            .any(|(_, rec)| *rec == create(StoreKind::Hybrid)),
        "the pool takes the second record's policy"
    );
}

#[derive(Clone, Debug)]
enum Op {
    RegisterVm(VmId, u64, u64),
    ReweighVm(VmId, u64),
    RemoveVm(VmId),
    SetMemCapacity(u64),
    Create(VmId, CachePolicy, PoolId),
    SetPolicy(VmId, PoolId, CachePolicy),
    Destroy(VmId, PoolId),
    Migrate(VmId, PoolId, PoolId, BlockAddr),
    Put(VmId, PoolId, BlockAddr, PageVersion),
    Get(VmId, PoolId, BlockAddr),
    Flush(VmId, PoolId, BlockAddr),
    FlushMany(VmId, PoolId, Vec<BlockAddr>),
    FlushFile(VmId, PoolId, FileId),
}

impl Op {
    fn is_control(&self) -> bool {
        !matches!(
            self,
            Op::Put(..) | Op::Get(..) | Op::Flush(..) | Op::FlushMany(..) | Op::FlushFile(..)
        )
    }
}

fn apply(h: &mut impl Engine, op: &Op) {
    let now = SimTime::from_secs(1);
    match *op {
        Op::RegisterVm(vm, mem, ssd) => h.add_vm_with_store_weights(vm, mem, ssd),
        Op::ReweighVm(vm, weight) => h.set_vm_weight(vm, weight),
        Op::RemoveVm(vm) => h.remove_vm(vm),
        Op::SetMemCapacity(pages) => h.set_mem_capacity(now, pages),
        Op::Create(vm, policy, expected) => assert_eq!(h.create_pool(vm, policy), expected),
        Op::SetPolicy(vm, pool, policy) => h.set_policy(vm, pool, policy),
        Op::Destroy(vm, pool) => h.destroy_pool(vm, pool),
        Op::Migrate(vm, from, to, addr) => h.migrate_object(vm, from, to, addr),
        Op::Put(vm, pool, addr, version) => drop(h.put(now, vm, pool, addr, version)),
        Op::Get(vm, pool, addr) => drop(h.get(now, vm, pool, addr)),
        Op::Flush(vm, pool, addr) => drop(h.flush(vm, pool, addr)),
        Op::FlushMany(vm, pool, ref addrs) => drop(h.flush_many(vm, pool, addrs)),
        Op::FlushFile(vm, pool, file) => drop(h.flush_file(vm, pool, file)),
    }
}

const CONTROL_STEPS: u64 = 14_000;

/// The control-plane stream, generated up front (pool ids are minted
/// densely from 1 on both engines, so the generator can name them) and
/// returned with every pool id it ever created. VM 3 is never
/// registered before its first pool, VM 4 never at all; a policy's
/// weight is 0 one time in four, which switches the pool off *without*
/// re-homing, so its pages stay behind in a store its policy no longer
/// names until gets and flushes drain them. A removed VM takes its
/// pools with it and is registered again, with none, half the time;
/// the memory store takes turns at shrinking to a quarter or a half of
/// its size and growing back to it or past it.
fn control_stream(seed: u64) -> (Vec<Op>, Vec<(VmId, PoolId)>) {
    let mut rng = SimRng::new(seed);
    let mut ops = vec![
        Op::RegisterVm(VmId(1), 100, 100),
        Op::RegisterVm(VmId(2), 150, 50),
    ];
    let mut live: Vec<(VmId, PoolId)> = Vec::new();
    let mut ever = Vec::new();
    let mut next_pool = 1;
    let mut mem = config(PartitionMode::DoubleDecker).mem_capacity_pages;
    let policy = |rng: &mut SimRng| {
        let weight = [0, 40, 100, 250][rng.range_usize(0, 4)];
        match rng.range_u64(0, 3) {
            0 => CachePolicy::mem(weight),
            1 => CachePolicy::ssd(weight),
            _ => CachePolicy::hybrid(weight),
        }
    };
    for step in 0..CONTROL_STEPS {
        let vm = VmId(1 + rng.range_u64(0, 3) as u32);
        let control = live.len() < 3 || rng.range_u64(0, 40) == 0;
        if control {
            match rng.range_u64(0, 13) {
                0 => ops.push(Op::RegisterVm(
                    vm,
                    50 + rng.range_u64(0, 300),
                    50 + rng.range_u64(0, 300),
                )),
                // VM 4 has no pool and no registration: ignored by both.
                1 => ops.push(Op::ReweighVm(
                    VmId(1 + rng.range_u64(0, 4) as u32),
                    50 + rng.range_u64(0, 300),
                )),
                2 | 3 if live.len() < 7 => {
                    let id = PoolId(next_pool);
                    next_pool += 1;
                    ops.push(Op::Create(vm, policy(&mut rng), id));
                    live.push((vm, id));
                    ever.push((vm, id));
                }
                4 if live.len() > 3 => {
                    let (vm, pool) = live.swap_remove(rng.range_usize(0, live.len()));
                    ops.push(Op::Destroy(vm, pool));
                    // Destroying it again, and a pool of the wrong VM,
                    // are no-ops that must not journal.
                    ops.push(Op::Destroy(vm, pool));
                    ops.push(Op::SetPolicy(VmId(4), pool, CachePolicy::mem(10)));
                }
                // VM 4 is never registered: its removal is ignored by
                // both, and it is not registered again.
                10 => {
                    let vm = VmId(1 + rng.range_u64(0, 4) as u32);
                    ops.push(Op::RemoveVm(vm));
                    live.retain(|&(v, _)| v != vm);
                    if vm != VmId(4) && rng.chance(0.5) {
                        ops.push(Op::RegisterVm(vm, 100, 100));
                    }
                }
                11 | 12 => {
                    let sizes = if mem < 96 { [96, 128] } else { [24, 48] };
                    mem = sizes[rng.range_usize(0, 2)];
                    ops.push(Op::SetMemCapacity(mem));
                }
                5 if !live.is_empty() => {
                    // An object changes pools inside its VM and keeps
                    // its store, whatever the target's policy says.
                    let (vm, from) = live[rng.range_usize(0, live.len())];
                    let to = live.iter().find(|&&(v, p)| v == vm && p != from);
                    if let Some(&(_, to)) = to {
                        let file = FileId(u64::from(from.0) * 3);
                        for block in 0..6 {
                            let addr = BlockAddr::new(file, rng.range_u64(0, 80) + block);
                            ops.push(Op::Migrate(vm, from, to, addr));
                        }
                    }
                }
                _ if !live.is_empty() => {
                    let (vm, pool) = live[rng.range_usize(0, live.len())];
                    ops.push(Op::SetPolicy(vm, pool, policy(&mut rng)));
                }
                _ => {}
            }
            continue;
        }
        let (vm, pool) = live[rng.range_usize(0, live.len())];
        let file = FileId(u64::from(pool.0) * 3 + rng.range_u64(0, 3));
        let addr = BlockAddr::new(file, rng.range_u64(0, 80));
        ops.push(match rng.range_u64(0, 10) {
            0..=4 => Op::Put(vm, pool, addr, PageVersion(1 + step % 5)),
            5..=7 => Op::Get(vm, pool, addr),
            8 => Op::Flush(vm, pool, addr),
            _ => Op::FlushMany(
                vm,
                pool,
                (0..4)
                    .map(|_| BlockAddr::new(file, rng.range_u64(0, 80)))
                    .collect(),
            ),
        });
        if step % 997 == 996 {
            ops.push(Op::FlushFile(vm, pool, file));
        }
    }
    (ops, ever)
}

#[test]
fn one_control_stream_is_one_policy_module_on_both_engines() {
    for (mi, mode) in MODES.into_iter().enumerate() {
        let (ops, ever) = control_stream(0xC0_4701 + mi as u64);
        let mut serial = DoubleDeckerCache::new(config(mode));
        serial.enable_journal();
        let mut sharded: Vec<ShardedCache> = [1usize, 4, 16]
            .into_iter()
            .map(|shards| {
                let cache = ShardedCache::new(config(mode), shards);
                cache.enable_journal();
                cache
            })
            .collect();

        // The policy each live pool is under, to tell when one holds
        // pages in a store its policy does not assign it to.
        let mut policies = std::collections::BTreeMap::new();
        let (mut legacy_seen, mut verbs) = (0u64, 0u64);
        // `RemoveVm`s; those of a VM whose pools were homed on two
        // shards or more at 4 and at 16 shards; `SetMemCapacity`s; those
        // below the memory store's usage.
        let (mut removals, mut spread, mut resizes, mut shrinks) = (0, [0, 0], 0, 0);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::RemoveVm(vm) => {
                    removals += 1;
                    for (n, spread) in [4, 16].into_iter().zip(&mut spread) {
                        let homes: std::collections::BTreeSet<_> = policies
                            .keys()
                            .filter(|&&(v, _)| v == vm)
                            .map(|&(_, pool)| ddc_core::hypercache::shard::home_shard(vm, pool, n))
                            .collect();
                        *spread += usize::from(homes.len() >= 2);
                    }
                }
                Op::SetMemCapacity(pages) => {
                    resizes += 1;
                    shrinks += usize::from(pages < serial.totals().mem_used_pages);
                }
                _ => {}
            }
            apply(&mut serial, op);
            for cache in &mut sharded {
                apply(cache, op);
            }
            match *op {
                Op::Create(vm, policy, pool) => drop(policies.insert((vm, pool), policy)),
                Op::SetPolicy(vm, pool, policy) => {
                    policies.entry((vm, pool)).and_modify(|p| *p = policy);
                }
                Op::Destroy(vm, pool) => drop(policies.remove(&(vm, pool))),
                Op::RemoveVm(vm) => policies.retain(|&(v, _), _| v != vm),
                _ => {}
            }
            if !op.is_control() {
                continue;
            }
            verbs += 1;
            // The whole cache and the whole journal, at the verb that
            // made them drift.
            let entries = serial.entries();
            let (records, _) = Journal::replay(serial.journal_bytes().expect("journaling on"));
            for cache in &sharded {
                let what = format!(
                    "{mode:?}, {} shards, after op {i} {op:?}",
                    cache.shard_count()
                );
                assert_eq!(cache.entries(), entries, "{what}: entries");
                let segments = cache.journal_images().expect("journaling on");
                assert!(
                    merged_records(&segments) == records,
                    "{what}: merged records differ from the serial journal"
                );
            }
            // Every pool that ever existed: a destroyed one answers
            // `None` on both.
            for &(vm, pool) in &ever {
                let want = serial.pool_stats(vm, pool);
                for cache in &sharded {
                    assert_eq!(
                        cache.pool_stats(vm, pool),
                        want,
                        "{mode:?}, {} shards, after op {i} {op:?}: stats of {vm} {pool}",
                        cache.shard_count()
                    );
                }
                if let (Some(stats), Some(policy)) = (want, policies.get(&(vm, pool))) {
                    let legacy = stats.mem_pages > 0 && !policy.store.uses_mem()
                        || stats.ssd_pages > 0 && !policy.store.uses_ssd();
                    legacy_seen += u64::from(legacy);
                }
            }
        }
        assert!(verbs > 200, "{mode:?}: only {verbs} control verbs");
        assert!(
            removals >= 20 && spread.iter().all(|&n| n >= 1),
            "{mode:?}: {removals} VM removals, {spread:?} over two shards or more at 4 and 16"
        );
        assert!(
            resizes >= 20 && shrinks >= 10,
            "{mode:?}: {resizes} memory resizes, {shrinks} below usage"
        );
        let again = ops.windows(2).filter(|w| match (&w[0], &w[1]) {
            (Op::RemoveVm(gone), Op::RegisterVm(vm, ..)) => gone == vm,
            _ => false,
        });
        assert!(again.count() >= 1, "{mode:?}: no VM registered again");
        assert!(
            legacy_seen > 20,
            "{mode:?}: pools held pages outside their policy's stores only {legacy_seen} times"
        );

        let compactions = serial.journal_compactions();
        assert!(
            compactions >= 3,
            "{mode:?}: only {compactions} live compactions, stream too short"
        );
        let image = serial.journal_bytes().expect("journaling on").to_vec();
        let (serial_records, _) = Journal::replay(&image);
        for cache in &sharded {
            let shards = cache.shard_count();
            assert_eq!(
                cache.journal_compactions(),
                compactions,
                "{mode:?}, {shards}"
            );
            let segments = cache.journal_images().expect("journaling on");
            if shards == 1 {
                assert!(
                    segments[0] == image,
                    "{mode:?}: the 1-shard segment is not the serial journal"
                );
            }
            assert!(
                merged_records(&segments) == serial_records,
                "{mode:?}, {shards} shards: merged records differ from the serial journal"
            );
            assert_eq!(cache.entries(), serial.entries());
        }

        let mut cuts: Vec<usize> = (0..image.len()).step_by(53).collect();
        cuts.push(image.len());
        for cut in cuts {
            let what = format!("{mode:?}, control stream, cut {cut} of {}", image.len());
            recover_both(config(mode), &image[..cut], &[], &what);
        }
    }
}

/// One record of a hostile journal: any of the 17 kinds over VMs 1–3,
/// pools 1–3, files 1–3 and blocks 0–5, with store, placement and mode
/// codes that include one no version wrote. A `Put` carries `version`,
/// unique in its stream, so a recovered entry names the put it came
/// from.
fn hostile_record(rng: &mut SimRng, version: u64) -> JournalRecord {
    let vm = 1 + rng.range_u64(0, 3) as u32;
    let pool = 1 + rng.range_u64(0, 3) as u32;
    let addr = BlockAddr::new(FileId(1 + rng.range_u64(0, 3)), rng.range_u64(0, 6));
    let weight = [0, 50, 100, 300][rng.range_usize(0, 4)];
    let store = rng.range_u64(0, 4) as u8;
    match rng.range_u64(0, 30) {
        0..=9 => JournalRecord::Put {
            vm,
            pool,
            addr,
            version,
            placement: rng.range_u64(0, 3) as u8,
        },
        10 | 11 => JournalRecord::Take { vm, pool, addr },
        12 | 13 => JournalRecord::Evict { vm, pool, addr },
        14 | 15 => JournalRecord::Flush { vm, pool, addr },
        16 => JournalRecord::FlushFile {
            vm,
            pool,
            file: addr.file,
        },
        17 => JournalRecord::CreatePool {
            vm,
            pool,
            store,
            weight,
        },
        18 => JournalRecord::DestroyPool { vm, pool },
        19 => JournalRecord::SetPolicy {
            vm,
            pool,
            store,
            weight,
        },
        20 => JournalRecord::AddVm {
            vm,
            mem_weight: u64::from(weight),
            ssd_weight: rng.range_u64(0, 300),
        },
        21 => JournalRecord::RemoveVm { vm },
        22 => JournalRecord::SetVmWeights {
            vm,
            mem_weight: rng.range_u64(0, 300),
            ssd_weight: u64::from(weight),
        },
        23 => JournalRecord::Epoch { vm },
        24 => JournalRecord::SetMemCapacity {
            pages: rng.range_u64(0, 20),
        },
        25 => JournalRecord::SetSsdCapacity {
            pages: rng.range_u64(0, 20),
        },
        26 => JournalRecord::SetMode {
            mode: rng.range_u64(0, 4) as u8,
        },
        27 => JournalRecord::SsdDrain,
        _ => JournalRecord::WearTotals {
            vm,
            ssd_pages_written: rng.range_u64(0, 40),
            pages_admitted: rng.range_u64(0, 40),
        },
    }
}

/// A hostile journal as `(generation, record)` in append order: a
/// `CreatePool` for a random subset of the nine pools, then 1–79
/// records of [`hostile_record`]. Generations are dense from 1 but for
/// at most one anomaly, at a uniform position past the first record: a
/// gap in one stream of four, a repeat in another one of four. So most
/// of what is generated replays, and a cut prefix is as likely to end
/// late as early.
fn hostile_stream(rng: &mut SimRng) -> Vec<(u64, JournalRecord)> {
    let mut records = Vec::new();
    for vm in 1..=3 {
        for pool in 1..=3 {
            if rng.chance(0.5) {
                records.push(JournalRecord::CreatePool {
                    vm,
                    pool,
                    store: rng.range_u64(0, 4) as u8,
                    weight: [0, 50, 100, 300][rng.range_usize(0, 4)],
                });
            }
        }
    }
    for _ in 0..rng.range_usize(1, 80) {
        let version = records.len() as u64 + 1;
        records.push(hostile_record(rng, version));
    }
    let (at, kind) = (
        rng.range_usize(1, records.len().max(2)),
        rng.range_u64(0, 4),
    );
    let mut gen = 0;
    let steps = (0..).map(|i| match (i == at, kind) {
        (true, 0) => 2,
        (true, 1) => 0,
        _ => 1,
    });
    records
        .into_iter()
        .zip(steps)
        .map(|(rec, step)| {
            gen += step;
            (gen, rec)
        })
        .collect()
}

/// `stream` spread over `n` segments the way the sharded engine writes
/// them ([`segment_of`](ddc_core::hypercache::shard::segment_of)).
fn hostile_segments(stream: &[(u64, JournalRecord)], n: usize) -> Vec<Vec<u8>> {
    let mut journals: Vec<Journal> = (0..n).map(|_| Journal::new()).collect();
    for &(gen, rec) in stream {
        let si = ddc_core::hypercache::shard::segment_of(&rec, n);
        journals[si].append_with_gen(&rec, gen);
    }
    journals.iter().map(|j| j.bytes().to_vec()).collect()
}

/// Recovers one hostile stream on the serial engine and at 1, 4 and 16
/// shards: one audit-clean cache whose every entry is the last put of
/// its block in the kept prefix.
fn check_hostile(
    config: CacheConfig,
    stream: &[(u64, JournalRecord)],
    epochs: &[(VmId, u64)],
    what: &str,
) {
    // The kept prefix, as the recovery core cuts it: merged by
    // generation, ended by the first gap or before a repeat.
    let mut kept = stream.to_vec();
    kept.sort_by_key(|&(gen, _)| gen);
    if let Some(i) = (1..kept.len()).find(|&i| kept[i].0 != kept[i - 1].0 + 1) {
        kept.truncate(i - usize::from(kept[i].0 == kept[i - 1].0));
    }
    let mut last_put = std::collections::BTreeMap::new();
    for &(_, rec) in &kept {
        if let JournalRecord::Put {
            vm,
            pool,
            addr,
            version,
            ..
        } = rec
        {
            last_put.insert((VmId(vm), addr), (PoolId(pool), PageVersion(version)));
        }
    }
    let (serial, one) = recover_both(config, &hostile_segments(stream, 1)[0], epochs, what);
    for (vm, pool, addr, version) in serial.entries() {
        assert_eq!(
            last_put.get(&(vm, addr)),
            Some(&(pool, version)),
            "{what}: {vm} {pool} {addr:?} {version:?} is not the last put of its block"
        );
    }
    let findings = ddc_core::hypercache::audit(&serial);
    assert_eq!(findings, vec![], "{what}: serial audit");
    let findings = ddc_core::concurrent::audit(&one);
    assert_eq!(findings, vec![], "{what}: 1-shard audit");
    for shards in [4, 16] {
        let segments = hostile_segments(stream, shards);
        let (sharded, _) = ShardedCache::recover(config, &segments, epochs);
        assert_eq!(
            sharded.entries(),
            serial.entries(),
            "{what}, {shards} shards: entries"
        );
        let findings = ddc_core::concurrent::audit(&sharded);
        assert_eq!(findings, vec![], "{what}, {shards} shards: audit");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "100,000 streams; run with --release")]
fn any_well_framed_journal_recovers_to_one_cache_on_both_engines() {
    let mut rng = SimRng::new(0x4057_11E5);
    for case in 0..100_000u64 {
        let config = CacheConfig {
            mem_capacity_pages: 16,
            ssd_capacity_pages: 16,
            ..config(MODES[case as usize % 3])
        };
        let stream = hostile_stream(&mut rng);
        let mut epochs = Vec::new();
        if case % 3 == 0 {
            let last = stream.last().map_or(0, |&(gen, _)| gen);
            for vm in 1..=3 {
                epochs.push((VmId(vm), rng.range_u64(0, last + 2)));
            }
        }
        let what = format!("hostile stream {case}");
        let run = || check_hostile(config, &stream, &epochs, &what);
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            // The failing case as a pinned test takes it: paste the
            // stream, build its images with `hostile_segments`.
            let records: Vec<String> = stream
                .iter()
                .map(|(gen, rec)| format!("({gen}, JournalRecord::{rec:?})"))
                .collect();
            eprintln!(
                "{what} fails in PartitionMode::{:?} with epochs &{epochs:?} on\nlet stream = [{}];",
                config.mode,
                records.join(", ")
            );
            std::panic::resume_unwind(panic);
        }
    }
}

#[test]
fn a_generation_written_twice_ends_the_kept_prefix_before_both_copies() {
    // Two puts share generation 3, one in each segment. Keeping either
    // makes the recovered cache depend on how the records were spread
    // over segments, so the kept prefix ends at generation 2.
    let home = |pool: u32| ddc_core::hypercache::shard::home_shard(VmId(1), PoolId(pool), 2);
    let (a, b) = (1..)
        .find(|&a| home(a) == 0 && home(a + 1) == 1)
        .map(|a| (a, a + 1))
        .unwrap();
    let create = |pool| JournalRecord::CreatePool {
        vm: 1,
        pool,
        store: ddc_core::hypercache::store_kind_code(StoreKind::Mem),
        weight: 100,
    };
    let put = |pool| JournalRecord::Put {
        vm: 1,
        pool,
        addr: BlockAddr::new(FileId(1), u64::from(pool)),
        version: 1,
        placement: 0,
    };
    let stream = [(1, create(a)), (2, create(b)), (3, put(a)), (3, put(b))];
    let config = config(PartitionMode::DoubleDecker);
    let (sharded, report) = ShardedCache::recover(config, &hostile_segments(&stream, 2), &[]);
    assert_eq!((report.records_replayed, report.gap_discarded), (2, 2));
    assert_eq!(sharded.entries(), vec![]);
    let image = &hostile_segments(&stream, 1)[0];
    let (serial, _) = recover_both(config, image, &[], "a generation written twice");
    assert_eq!(serial.entries(), vec![]);
}

#[test]
fn a_replayed_put_takes_its_block_from_the_vms_other_pools() {
    // Two pools of one VM, then a put of one block into each: the
    // second put takes the block from the first pool, so the cache
    // stays exclusive.
    let create = |pool| JournalRecord::CreatePool {
        vm: 1,
        pool,
        store: ddc_core::hypercache::store_kind_code(StoreKind::Mem),
        weight: 100,
    };
    let addr = BlockAddr::new(FileId(1), 0);
    let put = |pool, version| JournalRecord::Put {
        vm: 1,
        pool,
        addr,
        version,
        placement: 0,
    };
    let image = image(&[create(1), create(2), put(1, 1), put(2, 2)]);
    let config = config(PartitionMode::DoubleDecker);
    let (serial, sharded) = recover_both(config, &image, &[], "one block put into two pools");
    let kept = vec![(VmId(1), PoolId(2), addr, PageVersion(2))];
    assert_eq!(serial.entries(), kept);
    assert_eq!(ddc_core::hypercache::audit(&serial), vec![]);
    assert_eq!(sharded.entries(), kept);
    assert_eq!(ddc_core::concurrent::audit(&sharded), vec![]);
}

/// Recovers a one-page memory store that holds v1 of a block when
/// `last`, a second put of it, comes: the versions each engine keeps,
/// and the puts the serial report dropped for lack of room.
fn recover_after_a_second_put(last: JournalRecord) -> ([Vec<PageVersion>; 2], u64) {
    let records = [
        JournalRecord::CreatePool {
            vm: 1,
            pool: 1,
            store: ddc_core::hypercache::store_kind_code(StoreKind::Mem),
            weight: 100,
        },
        JournalRecord::SetMemCapacity { pages: 1 },
        one_block_put(1, 0),
        last,
    ];
    let image = image(&records);
    let config = config(PartitionMode::DoubleDecker);
    let (serial, sharded) = recover_both(config, &image, &[], &format!("{last:?}"));
    let (_, report) = DoubleDeckerCache::recover(config, &image, &[]);
    let versions = [serial.entries(), sharded.entries()].map(|e| e.iter().map(|e| e.3).collect());
    (versions, report.dropped_no_room)
}

fn one_block_put(version: u64, placement: u8) -> JournalRecord {
    JournalRecord::Put {
        vm: 1,
        pool: 1,
        addr: BlockAddr::new(FileId(1), 0),
        version,
        placement,
    }
}

#[test]
fn a_replayed_put_into_a_full_store_replaces_the_older_copy() {
    // The live put takes v1 out first and stores v2 in its page; so
    // does the replay.
    let (versions, dropped) = recover_after_a_second_put(one_block_put(2, 0));
    assert_eq!(versions, [vec![PageVersion(2)], vec![PageVersion(2)]]);
    assert_eq!(dropped, 0);
}

#[test]
fn a_replayed_put_with_an_unknown_placement_takes_the_older_copy_out() {
    // A placement code no version wrote stores nothing, and the older
    // copy it supersedes goes all the same.
    let (versions, dropped) = recover_after_a_second_put(one_block_put(2, 2));
    assert_eq!(versions, [vec![], vec![]]);
    assert_eq!(dropped, 0);
}

/// Recovers a journal that leaves pools holding pages in a store their
/// policy does not assign (a `Mem` pool's pages put to the SSD, an
/// `Ssd` pool's put to memory, and VM 3's only SSD pages) on the serial
/// engine and at 1, 4 and 16 shards, then drives all four with gets,
/// flushes and other VMs' puts that take those pages to zero, and
/// migrations between VM 1's two pools that bring them back. After every step each pool's stats (its
/// entitlement and its eviction count included) and the resident
/// entries agree: the legacy pools enter the share tables, leave them
/// and are picked as victims alike on both engines.
#[test]
fn recovered_pages_outside_their_policys_stores_entitle_and_evict_alike_on_both_engines() {
    let code = ddc_core::hypercache::store_kind_code;
    let mut records = vec![
        JournalRecord::AddVm {
            vm: 1,
            mem_weight: 100,
            ssd_weight: 100,
        },
        JournalRecord::AddVm {
            vm: 2,
            mem_weight: 150,
            ssd_weight: 50,
        },
    ];
    // `(vm, pool, store, weight, placement code of its recovered pages)`.
    let pools = [
        (1, 1, StoreKind::Mem, 100, 1),
        (1, 2, StoreKind::Ssd, 100, 0),
        (2, 3, StoreKind::Hybrid, 100, 0),
        (2, 4, StoreKind::Mem, 60, 0),
        (3, 5, StoreKind::Mem, 80, 1),
    ];
    for (vm, pool, store, weight, placement) in pools {
        records.push(JournalRecord::CreatePool {
            vm,
            pool,
            store: code(store),
            weight,
        });
        records.extend((0..8).map(|block| JournalRecord::Put {
            vm,
            pool,
            addr: BlockAddr::new(FileId(u64::from(pool) * 10), block),
            version: 1,
            placement,
        }));
    }
    let stream: Vec<(u64, JournalRecord)> = (1..).zip(records).collect();
    let ids: Vec<(VmId, PoolId)> = pools.map(|p| (VmId(p.0), PoolId(p.1))).to_vec();
    for (mi, mode) in MODES.into_iter().enumerate() {
        let config = CacheConfig {
            mem_capacity_pages: 24,
            ssd_capacity_pages: 28,
            ..config(mode)
        };
        let image = &hostile_segments(&stream, 1)[0];
        let (mut serial, _) = recover_both(config, image, &[], &format!("{mode:?}"));
        let mut sharded: Vec<ShardedCache> = [1usize, 4, 16]
            .into_iter()
            .map(|n| ShardedCache::recover(config, &hostile_segments(&stream, n), &[]).0)
            .collect();
        let legacy = |stats: Option<PoolStats>, pool: PoolId| {
            stats.map_or(0, |s| [s.ssd_pages, s.mem_pages][pool.0 as usize - 1])
        };
        let mut rng = SimRng::new(0x1E6AC7 + mi as u64);
        // Steps on which a legacy pool's pages crossed zero, either way,
        // and steps on which a legacy pool was evicted from.
        let (mut crossings, mut legacy_evictions) = (0, 0);
        // Which of VM 1's two pools caches each of its blocks (a guest
        // file belongs to one container): a migration moves the block.
        let mut owner = std::collections::BTreeMap::new();
        for step in 0..3000u64 {
            let (vm, pool) = ids[rng.range_usize(0, ids.len())];
            let file = u64::from(pool.0) * 10 + rng.range_u64(0, 2);
            let addr = BlockAddr::new(FileId(file), rng.range_u64(0, 12));
            let pool = match vm {
                VmId(1) => *owner.entry(addr).or_insert(pool),
                _ => pool,
            };
            let op = match rng.range_u64(0, 20) {
                0..=7 => Op::Put(vm, pool, addr, PageVersion(2 + step)),
                8..=13 => Op::Get(vm, pool, addr),
                14..=16 => Op::Flush(vm, pool, addr),
                17 => Op::FlushMany(vm, pool, vec![addr]),
                // The block changes pools and keeps its store: pool 2's
                // SSD pages join pool 1 (a `Mem` pool) there, pool 1's
                // memory pages join pool 2 (an `Ssd` pool) there.
                _ if vm == VmId(1) => {
                    let to = PoolId(3 - pool.0);
                    owner.insert(addr, to);
                    Op::Migrate(vm, pool, to, addr)
                }
                _ => Op::Put(vm, pool, addr, PageVersion(2 + step)),
            };
            let before: Vec<_> = ids[..2]
                .iter()
                .map(|&(vm, pool)| serial.pool_stats(vm, pool))
                .collect();
            apply(&mut serial, &op);
            for cache in &mut sharded {
                apply(cache, &op);
            }
            let what = |cache: &ShardedCache| {
                format!(
                    "{mode:?}, {} shards, step {step} {op:?}",
                    cache.shard_count()
                )
            };
            let entries = serial.entries();
            for cache in &sharded {
                assert_eq!(cache.entries(), entries, "{}: entries", what(cache));
            }
            for &(vm, pool) in &ids {
                let want = serial.pool_stats(vm, pool);
                for cache in &sharded {
                    let got = cache.pool_stats(vm, pool);
                    assert_eq!(got, want, "{}: stats of {vm} {pool}", what(cache));
                }
            }
            for (&(vm, pool), was) in ids[..2].iter().zip(before) {
                let is = serial.pool_stats(vm, pool);
                crossings += u64::from((legacy(was, pool) == 0) != (legacy(is, pool) == 0));
                let evicted = |s: Option<PoolStats>| s.map_or(0, |s| s.evictions);
                legacy_evictions += u64::from(legacy(was, pool) > 0 && evicted(is) > evicted(was));
            }
        }
        assert!(crossings >= 20, "{mode:?}: {crossings} zero crossings");
        if mode != PartitionMode::Global {
            assert!(
                legacy_evictions >= 5,
                "{mode:?}: legacy pools evicted from on {legacy_evictions} steps"
            );
        }
        for cache in &sharded {
            let findings = ddc_core::concurrent::audit(cache);
            assert_eq!(findings, vec![], "{mode:?}, {} shards", cache.shard_count());
        }
        assert_eq!(ddc_core::hypercache::audit(&serial), vec![], "{mode:?}");
    }
}
