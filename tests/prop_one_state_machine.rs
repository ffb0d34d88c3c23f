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
//!   name) with data ops: the entitlement every engine reports agrees
//!   after every verb, and the journal and recovery claims above hold
//!   for it too.

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

/// Recovers `image` through both engines and holds everything the two
/// reports and caches share against each other.
fn recover_both(config: CacheConfig, image: &[u8], epochs: &[(VmId, u64)], what: &str) {
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
/// names until gets and flushes drain them.
fn control_stream(seed: u64) -> (Vec<Op>, Vec<(VmId, PoolId)>) {
    let mut rng = SimRng::new(seed);
    let mut ops = vec![
        Op::RegisterVm(VmId(1), 100, 100),
        Op::RegisterVm(VmId(2), 150, 50),
    ];
    let mut live: Vec<(VmId, PoolId)> = Vec::new();
    let mut ever = Vec::new();
    let mut next_pool = 1;
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
            match rng.range_u64(0, 10) {
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
        for (i, op) in ops.iter().enumerate() {
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
                _ => {}
            }
            if !op.is_control() {
                continue;
            }
            verbs += 1;
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
