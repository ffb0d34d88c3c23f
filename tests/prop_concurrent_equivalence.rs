//! Property tests for the concurrent serving plane's determinism
//! contract (DESIGN.md §12).
//!
//! 1. **Serial equivalence** — the sharded engine driven on a single
//!    thread must be observably *byte-identical* to the serial
//!    reference engine: same per-VM channel counters, same per-pool
//!    stats, same resident-entry digest, for every partition mode,
//!    shard count and seed. Sharding is a locking strategy, not a
//!    semantic change.
//! 2. **Interleaving stability** — under real OS-thread interleavings
//!    the cross-shard eviction path must keep the global-pressure
//!    ledger and every per-pool invariant intact: repeated runs of the
//!    same seed at several thread counts always finish with zero
//!    auditor findings and zero stale-read-oracle violations, and
//!    always issue the same total operation count.
//! 3. **Eviction staleness** — the eviction hook (which fires between
//!    the lock-free victim pick and the single-shard locked
//!    re-validation, in every partition mode — there is one eviction
//!    path) is used to force every pick stale; the path must detect
//!    it, retry within its bound, and never oversubscribe the ledger
//!    or wedge a put — in Global mode under several threads too, where
//!    the hook moves the nominated shard's front before it is locked.
//! 4. **Lock-free read plane** (DESIGN.md §15) — the 95/5 read-heavy
//!    mix routes misses through the seqlock membership tables instead
//!    of the shard locks; that path must preserve the same
//!    byte-identity and interleaving-stability contracts, while
//!    demonstrably carrying load (the lock-free counters are non-zero).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ddc_core::cleancache::SecondChanceCache;
use ddc_core::concurrent::{
    audit, run_equivalence, run_stress, EngineKind, ShardedCache, StressConfig,
};
use ddc_core::hypercache::DoubleDeckerCache;
use ddc_core::prelude::*;
use ddc_core::storage::{Journal, JournalRecord};

fn config(seed: u64, mode: PartitionMode) -> StressConfig {
    let mut cfg = StressConfig::smoke(seed);
    cfg.cache = cfg.cache.with_mode(mode);
    cfg
}

#[test]
fn sharded_engine_is_byte_identical_to_serial_across_modes_and_seeds() {
    let modes = [
        PartitionMode::DoubleDecker,
        PartitionMode::Global,
        PartitionMode::Strict,
    ];
    for seed in [1, 42, 0xDD04] {
        for mode in modes {
            let mut cfg = config(seed, mode);
            let serial = run_equivalence(&cfg, EngineKind::Serial);
            assert_eq!(serial.stale_reads, 0, "serial oracle: {mode:?} seed {seed}");
            for shards in [1, 4, 16] {
                cfg.shards = shards;
                let sharded = run_equivalence(&cfg, EngineKind::Sharded { shards });
                assert_eq!(sharded.stale_reads, 0, "{mode:?}/{shards} seed {seed}");
                assert_eq!(
                    serial.json, sharded.json,
                    "report diverged: {mode:?}, {shards} shards, seed {seed}"
                );
            }
        }
    }
}

/// With journaling on, the contract grows: `flush`/`flush_many` return
/// real durability epochs, the per-VM `flush_epoch` watermark in the
/// report must be non-zero, and it must still match the serial engine
/// byte-for-byte — the sharded plane's per-shard segments with group
/// commit allocate the *same* dense record generations the serial WAL
/// does, so the epochs agree gen-for-gen, not just "both non-zero".
#[test]
fn journaled_planes_agree_on_flush_epoch_watermarks() {
    let modes = [
        PartitionMode::DoubleDecker,
        PartitionMode::Global,
        PartitionMode::Strict,
    ];
    for seed in [5, 0xDD06] {
        for mode in modes {
            let mut cfg = config(seed, mode);
            cfg.journal = true;
            let serial = run_equivalence(&cfg, EngineKind::Serial);
            assert_eq!(serial.stale_reads, 0, "serial oracle: {mode:?} seed {seed}");
            assert!(
                serial.json.contains("\"flush_epoch\""),
                "report must expose the per-VM flush-epoch watermark"
            );
            for shards in [1, 4, 16] {
                cfg.shards = shards;
                let sharded = run_equivalence(&cfg, EngineKind::Sharded { shards });
                assert_eq!(sharded.stale_reads, 0, "{mode:?}/{shards} seed {seed}");
                assert_eq!(
                    serial.json, sharded.json,
                    "journaled report diverged: {mode:?}, {shards} shards, seed {seed}"
                );
                let root = ddc_json::Json::parse(&sharded.json).expect("report parses");
                for row in root
                    .get("vms_report")
                    .and_then(ddc_json::Json::as_array)
                    .expect("vm rows")
                {
                    let epoch = row
                        .get("flush_epoch")
                        .and_then(ddc_json::Json::as_u64)
                        .expect("epoch field");
                    assert!(
                        epoch > 0,
                        "{mode:?}/{shards} seed {seed}: journaled flush acked epoch 0"
                    );
                }
            }
        }
    }
}

/// Forces every eviction pick stale, in each partition mode: the hook
/// flushes every heavy-pool page between the pick and the locked
/// re-validation, so the weighted walk re-validates against different
/// usage and the Global tournament finds its nominated front dead. All
/// three modes share the one eviction path, so the hook must fire in
/// each; the path must take the retry route (observable via the
/// diagnostic counters), keep serving every put, and leave the ledger
/// and mirrors exact (zero auditor findings after every burst).
#[test]
fn two_phase_eviction_converges_under_forced_snapshot_staleness() {
    for mode in [
        PartitionMode::DoubleDecker,
        PartitionMode::Strict,
        PartitionMode::Global,
    ] {
        forced_staleness_converges(mode);
    }
}

fn forced_staleness_converges(mode: PartitionMode) {
    let cache = ShardedCache::new(
        CacheConfig {
            mem_capacity_pages: 64,
            ssd_capacity_pages: 0,
            mode,
            admission: AdmissionConfig::off(),
        },
        8,
    );
    cache.add_vm(VmId(0), 100);
    cache.add_vm(VmId(1), 100);
    let mut backend = cache.clone();
    let heavy = backend.create_pool(VmId(0), CachePolicy::mem(100));
    let light = backend.create_pool(VmId(1), CachePolicy::mem(100));
    assert_ne!(
        cache.shard_of(VmId(0), heavy),
        cache.shard_of(VmId(1), light),
        "the Global tournament needs the two pools on different shards"
    );
    let now = SimTime::from_secs(1);

    // Blocks possibly resident in the heavy pool, shared with the hook.
    let resident: Arc<Mutex<Vec<BlockAddr>>> = Arc::new(Mutex::new(Vec::new()));
    let hook_flushes = Arc::new(AtomicU64::new(0));
    {
        let hook_cache = cache.clone();
        let resident = resident.clone();
        let hook_flushes = hook_flushes.clone();
        cache.set_eviction_hook(Some(Arc::new(move || {
            // Yank the heavy pool's pages between the phases. `flush`
            // frees pages without allocating, so the hook can never
            // recurse into eviction.
            let batch = std::mem::take(&mut *resident.lock().expect("resident lock"));
            let mut backend = hook_cache.clone();
            for addr in batch {
                hook_flushes.fetch_add(1, Ordering::Relaxed);
                backend.flush(VmId(0), heavy, addr);
            }
        })));
    }

    let mut r = SimRng::new(0x57A1E);
    for burst in 0..24u64 {
        // Refill the heavy pool while its VM is entitled to 48 pages,
        // then drop the VM back to 32: the pool sits past its
        // entitlement, so the weighted walk picks it as the victim
        // (Strict mode can only get a pool over its partition this way).
        cache.set_vm_weight(VmId(0), 300);
        for b in 0..40u64 {
            let addr = BlockAddr::new(FileId(1), burst * 40 + b);
            if matches!(
                backend.put(now, VmId(0), heavy, addr, PageVersion(1)),
                PutOutcome::Stored { .. }
            ) {
                resident.lock().expect("resident lock").push(addr);
            }
        }
        cache.set_vm_weight(VmId(0), 100);
        // ...then drive puts into the light pool until eviction fires;
        // each firing runs the hook, which invalidates the pick.
        for b in 0..r.range_u64(24, 48) {
            let addr = BlockAddr::new(FileId(2), burst * 64 + b);
            assert!(
                matches!(
                    backend.put(now, VmId(1), light, addr, PageVersion(1)),
                    PutOutcome::Stored { .. }
                ),
                "{mode:?} burst {burst}: put wedged under forced staleness"
            );
        }
        let findings = audit(&cache);
        assert!(
            findings.is_empty(),
            "{mode:?} burst {burst}: ledger/mirror invariants broke under staleness: {findings:?}"
        );
    }

    assert!(
        hook_flushes.load(Ordering::Relaxed) > 0,
        "{mode:?}: the staleness hook never fired — the eviction path was not exercised"
    );
    let detected = cache.two_phase_retries()
        + cache.two_phase_fallbacks()
        + cache.front_tree_retries()
        + cache.front_tree_fallbacks();
    assert!(
        detected > 0,
        "{mode:?}: every forced-stale pick re-validated clean (staleness detection is dead)"
    );
}

/// Global mode under 2 and 4 threads, with the eviction hook flushing
/// every page of the threads' "old" pools between the evictor's
/// nomination and its shard lock: the nominated shard's front is dead
/// by the time the evictor holds it, so the global minimum has moved to
/// another shard and the evictor must nominate again. Every put
/// returns, no get sees a version its thread did not store last, the
/// auditor is clean, and the re-nominations are counted.
#[test]
fn global_eviction_renominates_when_a_front_moves_between_nomination_and_lock() {
    use std::collections::BTreeMap;
    const ROUNDS: u64 = 300;
    for threads in [2u32, 4] {
        let config = CacheConfig::mem_only(96).with_mode(PartitionMode::Global);
        let cache = ShardedCache::new(config, 8);
        let mut setup = cache.clone();
        // Thread `t` owns VM `t`: an "old" pool it fills first each
        // round, and a "new" pool it writes and reads after.
        let pools: Vec<(VmId, PoolId, PoolId)> = (0..threads)
            .map(|t| {
                let vm = VmId(t);
                setup.add_vm(vm, 100);
                let old = setup.create_pool(vm, CachePolicy::mem(100));
                (vm, old, setup.create_pool(vm, CachePolicy::mem(100)))
            })
            .collect();
        let yank: Arc<Mutex<Vec<(VmId, PoolId, BlockAddr)>>> = Arc::default();
        {
            let (hook_cache, yank) = (cache.clone(), Arc::clone(&yank));
            cache.set_eviction_hook(Some(Arc::new(move || {
                let pages = std::mem::take(&mut *yank.lock().expect("yank lock"));
                let mut h = hook_cache.clone();
                for (vm, pool, addr) in pages {
                    h.flush(vm, pool, addr);
                }
            })));
        }

        std::thread::scope(|scope| {
            for &(vm, old, new) in &pools {
                let (mut h, yank) = (cache.clone(), &yank);
                scope.spawn(move || {
                    let mut r = SimRng::new(0x6F0 + u64::from(vm.0));
                    let mut last = BTreeMap::new();
                    let mut version = 0;
                    for round in 0..ROUNDS {
                        for b in 0..16 {
                            let addr = BlockAddr::new(FileId(1), round * 16 + b);
                            if h.put(SimTime::ZERO, vm, old, addr, PageVersion(1))
                                .is_stored()
                            {
                                yank.lock().expect("yank lock").push((vm, old, addr));
                            }
                        }
                        for _ in 0..40 {
                            let addr = BlockAddr::new(FileId(2), r.range_u64(0, 64));
                            version += 1;
                            if r.chance(0.25) {
                                let want = last.remove(&addr);
                                if let GetOutcome::Hit { version: got, .. } =
                                    h.get(SimTime::ZERO, vm, new, addr)
                                {
                                    assert_eq!(Some(got), want, "{threads} threads: stale hit");
                                }
                            } else if h
                                .put(SimTime::ZERO, vm, new, addr, PageVersion(version))
                                .is_stored()
                            {
                                last.insert(addr, PageVersion(version));
                            } else {
                                last.remove(&addr);
                            }
                        }
                    }
                });
            }
        });
        cache.set_eviction_hook(None);

        assert_eq!(audit(&cache), vec![], "{threads} threads");
        assert!(cache.evictions() > 0, "{threads} threads: nothing evicted");
        assert!(
            cache.front_tree_retries() > 0,
            "{threads} threads: no nomination went stale under the hook"
        );
    }
}

/// One store, three equal-weight VMs, 64 pages (entitlements 22/21/21,
/// so the shares carry rounding slack): a single-threaded, journaled op
/// stream that keeps the store full, with exclusive hits and flushes
/// killing entries in place between the eviction batches (dead FIFO
/// fronts for the Global evictor to pop), must evict the same objects
/// in the same order, end with the same residents and write the same
/// journal on the serial engine and on the sharded one at every shard
/// count, in every mode. This is the byte-identity contract seen
/// through the evictor alone: every sharded eviction here goes through
/// the one pick → lock one shard → re-validate path. (The walk's
/// largest-user fallbacks stay out of reach even here: on a full store
/// somebody is always over — see DESIGN.md §13.3 — so they are pinned
/// in `policy.rs` and `prop_policy_model` instead.)
#[test]
fn single_threaded_eviction_sequence_matches_serial_on_a_rounding_slack_store() {
    type Entries = Vec<(VmId, PoolId, BlockAddr, PageVersion)>;
    fn drive<C: SecondChanceCache>(
        cache: &mut C,
        pools: &[(VmId, PoolId)],
        entries: impl Fn(&C) -> Entries,
    ) -> (Vec<Entries>, Entries) {
        let mut r = SimRng::new(0x510C);
        let mut evicted = Vec::new();
        let mut before = entries(cache);
        for op in 0..600u64 {
            let (vm, pool) = pools[r.range_usize(0, pools.len())];
            let file = FileId(u64::from(vm.0) + 1);
            // An earlier block of the pool: a hit or a flush of it
            // leaves a dead entry in the FIFO.
            let earlier = BlockAddr::new(file, r.range_u64(0, op + 1));
            match r.range_u64(0, 8) {
                0 => drop(cache.get(SimTime::from_secs(1), vm, pool, earlier)),
                1 => drop(cache.flush(vm, pool, earlier)),
                _ => {
                    let addr = BlockAddr::new(file, op);
                    let put = cache.put(SimTime::from_secs(1), vm, pool, addr, PageVersion(1));
                    assert!(
                        put.is_stored(),
                        "op {op}: put rejected on a store that can evict"
                    );
                    let after = entries(cache);
                    let gone: Entries = (before.iter().copied())
                        .filter(|e| !after.contains(e))
                        .collect();
                    if !gone.is_empty() {
                        evicted.push(gone);
                    }
                }
            }
            before = entries(cache);
        }
        (evicted, before)
    }

    fn merged_records(segments: &[Vec<u8>]) -> Vec<(u64, JournalRecord)> {
        let mut merged: Vec<_> = segments.iter().flat_map(|s| Journal::replay(s).0).collect();
        merged.sort_unstable_by_key(|&(gen, _)| gen);
        merged
    }

    for mode in [
        PartitionMode::DoubleDecker,
        PartitionMode::Strict,
        PartitionMode::Global,
    ] {
        let config = CacheConfig::mem_only(64).with_mode(mode);
        let mut serial = DoubleDeckerCache::new(config);
        serial.enable_journal();
        let mut pools = Vec::new();
        for v in 0..3 {
            serial.add_vm(VmId(v), 100);
            pools.push((VmId(v), serial.create_pool(VmId(v), CachePolicy::mem(100))));
        }
        let (want_evicted, want_entries) = drive(&mut serial, &pools, |c| c.entries());
        assert!(
            want_evicted.len() >= 3,
            "{mode:?}: the stream must keep the evictor busy"
        );
        let image = serial.journal_bytes().expect("journaling on").to_vec();

        for shards in [1, 4, 16] {
            let mut sharded = ShardedCache::new(config, shards);
            sharded.enable_journal();
            for v in 0..3 {
                sharded.add_vm(VmId(v), 100);
                let pool = sharded.create_pool(VmId(v), CachePolicy::mem(100));
                assert_eq!(pool, pools[v as usize].1, "pool ids line up across engines");
            }
            let (evicted, entries) = drive(&mut sharded, &pools, |c| c.entries());
            assert_eq!(evicted, want_evicted, "{mode:?}/{shards}: evicted sequence");
            assert_eq!(entries, want_entries, "{mode:?}/{shards}: final residents");
            let segments = sharded.journal_images().expect("journaling on");
            if shards == 1 {
                assert!(segments[0] == image, "{mode:?}: segment ≠ serial journal");
            }
            assert!(
                merged_records(&segments) == Journal::replay(&image).0,
                "{mode:?}/{shards}: merged records differ from the serial journal"
            );
            assert!(audit(&sharded).is_empty(), "{mode:?}/{shards}: auditor");
            assert_eq!(
                sharded.two_phase_retries() + sharded.two_phase_fallbacks(),
                0,
                "{mode:?}/{shards}: a single-threaded pick must re-validate clean"
            );
            assert_eq!(sharded.front_tree_fallbacks(), 0, "{mode:?}/{shards}");
            if mode == PartitionMode::Global && shards > 1 {
                // A dead front popped under its shard's lock moved the
                // global minimum to another shard.
                assert!(sharded.front_tree_retries() > 0, "{shards}: no repair");
            }
        }
    }
}

/// The read-heavy mix (the lock-free read plane's target workload) must
/// uphold the same byte-identity contract as the standard mix: routing
/// misses through the seqlock tables instead of the shard locks is a
/// locking strategy, not a semantic change. Checked
/// across every partition mode and shard count, journaled and not.
#[test]
fn read_heavy_mix_is_byte_identical_to_serial_across_modes() {
    let modes = [
        PartitionMode::DoubleDecker,
        PartitionMode::Global,
        PartitionMode::Strict,
    ];
    for journal in [false, true] {
        for mode in modes {
            let mut cfg = StressConfig::read_heavy(0x9EAD);
            cfg.ticks = 300;
            cfg.journal = journal;
            cfg.cache = cfg.cache.with_mode(mode);
            let serial = run_equivalence(&cfg, EngineKind::Serial);
            assert_eq!(serial.stale_reads, 0, "serial oracle: {mode:?}");
            for shards in [1, 4, 16] {
                cfg.shards = shards;
                let sharded = run_equivalence(&cfg, EngineKind::Sharded { shards });
                assert_eq!(sharded.stale_reads, 0, "{mode:?}/{shards}");
                assert_eq!(
                    serial.json, sharded.json,
                    "read-heavy report diverged: {mode:?}, {shards} shards, journal {journal}"
                );
            }
        }
    }
}

/// Interleaving stability on the read plane's target mix, squeezed onto
/// an 8-block working set so every thread asks for the same few keys:
/// repeated multi-threaded runs stay clean (no stale reads, no auditor
/// findings, stable op counts) while the lock-free path demonstrably
/// carries load.
#[test]
fn read_heavy_interleavings_stay_clean_and_serve_lock_free() {
    for seed in [9, 0x9EAD] {
        let mut expected_ops = None;
        for threads in [2, 4, 8] {
            let cfg = StressConfig {
                working_set: 8,
                ..StressConfig::read_heavy(seed)
            };
            let out = run_stress(&cfg, threads);
            assert_eq!(out.stale_reads, 0, "stale reads: seed {seed}, {threads}t");
            assert!(
                out.findings.is_empty(),
                "auditor findings: seed {seed}, {threads} threads: {:?}",
                out.findings
            );
            let ops = expected_ops.get_or_insert(out.total_ops);
            assert_eq!(
                *ops, out.total_ops,
                "op count drifted across interleavings (seed {seed})"
            );
            assert!(
                out.lockfree_misses > 0,
                "read plane idle on its target mix (seed {seed}, {threads} threads)"
            );
        }
    }
}

#[test]
fn cross_shard_eviction_survives_repeated_interleavings() {
    // Tight capacity relative to the working set keeps the eviction
    // path hot, so every interleaving exercises lock-all cross-shard
    // eviction while other threads race the fast path.
    for seed in [3, 0xACE5] {
        let mut expected_ops = None;
        for threads in [2, 4, 8] {
            for round in 0..3 {
                let cfg = StressConfig::smoke(seed);
                let out = run_stress(&cfg, threads);
                assert_eq!(
                    out.stale_reads, 0,
                    "stale reads: seed {seed}, {threads} threads, round {round}"
                );
                assert!(
                    out.findings.is_empty(),
                    "auditor findings: seed {seed}, {threads} threads, round {round}: {:?}",
                    out.findings
                );
                let ops = expected_ops.get_or_insert(out.total_ops);
                assert_eq!(
                    *ops, out.total_ops,
                    "op count drifted across interleavings (seed {seed})"
                );
            }
        }
    }
}
