//! Property tests for the concurrent serving plane's determinism
//! contract (DESIGN.md §12).
//!
//! 1. **Serial equivalence** — the sharded engine driven on a single
//!    thread must be observably *byte-identical* to the serial
//!    reference engine: same per-VM channel counters, same per-pool
//!    stats, same resident-entry digest, for every partition mode,
//!    shard count and seed. Sharding is a locking strategy, not a
//!    semantic change. (What each engine must be on its own — never
//!    stale, exclusive, monotone and non-zero journaled epochs, exact
//!    stats, audit-clean — is `prop_conformance`'s, stated once.)
//! 2. **Interleaving stability** — under real OS-thread interleavings
//!    the cross-shard eviction path must keep the global-pressure
//!    ledger and every per-pool invariant intact: repeated runs of the
//!    same seed at several thread counts always finish with zero
//!    auditor findings and zero stale-read-oracle violations, and
//!    always issue the same total operation count.
//! 3. **Eviction staleness** — the eviction hook (which fires between
//!    the lock-free victim pick and the single-shard locked
//!    re-validation of DoubleDecker and Strict mode) is used to force
//!    every pick stale; the path must detect it, retry within its
//!    bound, and never oversubscribe the ledger or wedge a put. Global
//!    eviction holds every shard it compares, so flushes racing it
//!    from other threads, or from the hook, can neither send it to a
//!    wrong shard nor turn a put away while the store can evict.
//! 4. **Read-heavy mix** — the 95/5 read-heavy mix, where nearly
//!    every get misses, must preserve the same byte-identity and
//!    interleaving-stability contracts.

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
            for shards in [1, 4, 16] {
                cfg.shards = shards;
                let sharded = run_equivalence(&cfg, EngineKind::Sharded { shards });
                assert_eq!(
                    serial.json, sharded.json,
                    "report diverged: {mode:?}, {shards} shards, seed {seed}"
                );
            }
        }
    }
}

/// With journaling on, the contract grows: `flush`/`flush_many` return
/// real durability epochs, and the per-VM `flush_epoch` watermark in the
/// report must still match the serial engine
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
            assert!(
                serial.json.contains("\"flush_epoch\""),
                "report must expose the per-VM flush-epoch watermark"
            );
            for shards in [1, 4, 16] {
                cfg.shards = shards;
                let sharded = run_equivalence(&cfg, EngineKind::Sharded { shards });
                assert_eq!(
                    serial.json, sharded.json,
                    "journaled report diverged: {mode:?}, {shards} shards, seed {seed}"
                );
            }
        }
    }
}

/// Forces every eviction pick stale, in each mode whose victim pick
/// runs unlocked: the hook flushes every heavy-pool page between the
/// pick and the locked re-validation, so the weighted walk
/// re-validates against different usage. The path must take the retry
/// route (observable via the diagnostic counters), keep serving every
/// put, and leave the ledger and mirrors exact (zero auditor findings
/// after every burst).
#[test]
fn two_phase_eviction_converges_under_forced_snapshot_staleness() {
    for mode in [PartitionMode::DoubleDecker, PartitionMode::Strict] {
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
        "the hook's flushes must land on another shard than the put"
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
    let detected = cache.two_phase_retries() + cache.two_phase_fallbacks();
    assert!(
        detected > 0,
        "{mode:?}: every forced-stale pick re-validated clean (staleness detection is dead)"
    );
}

/// Global mode under 2 and 4 threads, each thread flushing its "old"
/// pool's pages at the end of every round: the flushes leave dead
/// entries at the Global FIFO fronts while other threads' puts evict
/// through them. Every put returns, no get sees a version its thread
/// did not store last, the auditor is clean, and eviction ran.
#[test]
fn global_eviction_races_dead_fronts_and_stays_exact() {
    use std::collections::BTreeMap;
    const ROUNDS: u64 = 300;
    for threads in [2u32, 4] {
        let config = CacheConfig::mem_only(96).with_mode(PartitionMode::Global);
        let cache = ShardedCache::new(config, 8);
        let mut setup = cache.clone();
        // Thread `t` owns VM `t`: an "old" pool it fills first each
        // round and flushes last, and a "new" pool it writes and reads
        // in between.
        let pools: Vec<(VmId, PoolId, PoolId)> = (0..threads)
            .map(|t| {
                let vm = VmId(t);
                setup.add_vm(vm, 100);
                let old = setup.create_pool(vm, CachePolicy::mem(100));
                (vm, old, setup.create_pool(vm, CachePolicy::mem(100)))
            })
            .collect();

        std::thread::scope(|scope| {
            for &(vm, old, new) in &pools {
                let mut h = cache.clone();
                scope.spawn(move || {
                    let mut r = SimRng::new(0x6F0 + u64::from(vm.0));
                    let mut last = BTreeMap::new();
                    let mut version = 0;
                    for round in 0..ROUNDS {
                        let olds: Vec<_> = (0..16)
                            .map(|b| BlockAddr::new(FileId(1), round * 16 + b))
                            .filter(|&addr| {
                                h.put(SimTime::ZERO, vm, old, addr, PageVersion(1))
                                    .is_stored()
                            })
                            .collect();
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
                        for addr in olds {
                            h.flush(vm, old, addr);
                        }
                    }
                });
            }
        });

        assert_eq!(audit(&cache), vec![], "{threads} threads");
        assert!(cache.evictions() > 0, "{threads} threads: nothing evicted");
    }
}

/// A full Global-mode store whose two pools sit on different shards,
/// and an eviction hook that flushes the store-wide oldest resident
/// page whenever it runs: whatever such a flush does to the FIFO
/// fronts, one more put evicts and is stored. (An evictor that picked
/// a shard before locking it, with a bounded number of re-picks,
/// could be sent chasing the moving front until it gave up and
/// turned the put away with free pages in the store.)
#[test]
fn a_global_put_is_stored_while_flushes_take_the_oldest_page() {
    let config = CacheConfig::mem_only(200).with_mode(PartitionMode::Global);
    let cache = ShardedCache::new(config, 8);
    let mut h = cache.clone();
    h.add_vm(VmId(0), 100);
    h.add_vm(VmId(1), 100);
    let a = h.create_pool(VmId(0), CachePolicy::mem(100));
    let b = h.create_pool(VmId(1), CachePolicy::mem(100));
    assert_ne!(cache.shard_of(VmId(0), a), cache.shard_of(VmId(1), b));
    let mut oldest_first = std::collections::VecDeque::new();
    for block in 0..100 {
        for (vm, pool) in [(VmId(0), a), (VmId(1), b)] {
            let addr = BlockAddr::new(FileId(u64::from(vm.0) + 1), block);
            assert!(h
                .put(SimTime::ZERO, vm, pool, addr, PageVersion(1))
                .is_stored());
            oldest_first.push_back((vm, pool, addr));
        }
    }
    assert_eq!(cache.mem_used_pages(), 200);
    let oldest_first = Mutex::new(oldest_first);
    let flusher = Mutex::new(cache.clone());
    cache.set_eviction_hook(Some(Arc::new(move || {
        if let Some((vm, pool, addr)) = oldest_first.lock().expect("queue").pop_front() {
            flusher.lock().expect("flusher").flush(vm, pool, addr);
        }
    })));
    let addr = BlockAddr::new(FileId(1), 100);
    let put = h.put(SimTime::ZERO, VmId(0), a, addr, PageVersion(1));
    cache.set_eviction_hook(None);
    assert!(
        put.is_stored(),
        "{put:?} with {} of 200 pages resident",
        cache.mem_used_pages()
    );
    assert_eq!(audit(&cache), vec![]);
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
        let (want_evicted, want_entries) = evicting_stream(&mut serial, &pools, |c| c.entries());
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
            let (evicted, entries) = evicting_stream(&mut sharded, &pools, |c| c.entries());
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
        }
    }
}

type Entries = Vec<(VmId, PoolId, BlockAddr, PageVersion)>;

/// The evicting stream of the test above: 600 single-threaded ops on a
/// full 64-page store, three in four a put of a fresh block, the rest an
/// exclusive hit or a flush of an earlier block of the same pool (a dead
/// FIFO entry). Returns the objects each evicting put took out, in
/// order, and the residents at the end.
fn evicting_stream<C: SecondChanceCache>(
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

/// Rounds of the non-evicting prefix below: 96 × the 64-page store.
const PREFIX_ROUNDS: u64 = 96 * 64;

/// Each pool's most residents during the prefix: three pools of twelve
/// stay under the store's 64 pages and under every pool's Strict
/// partition of 21, so nothing evicts.
const PREFIX_RESIDENTS: usize = 12;

/// A put / exclusive-hit phase that evicts nothing: each round puts a
/// fresh block into one pool and, once the pool holds
/// [`PREFIX_RESIDENTS`], takes a random earlier one back with a hit.
/// About 2,000 puts per pool over at most a dozen live objects: the
/// pools' FIFOs end up almost all dead entries, well past 1,024 of them.
/// Returns the residents it leaves, which it checks against `entries`.
fn tombstone_heavy_prefix<C: SecondChanceCache>(
    cache: &mut C,
    pools: &[(VmId, PoolId)],
    entries: impl Fn(&C) -> Entries,
) -> Entries {
    let mut r = SimRng::new(0x7A3B);
    let mut resident: Vec<Vec<BlockAddr>> = vec![Vec::new(); pools.len()];
    for round in 0..PREFIX_ROUNDS {
        let i = (round % pools.len() as u64) as usize;
        let (vm, pool) = pools[i];
        let addr = BlockAddr::new(FileId(u64::from(vm.0) + 10), round);
        let put = cache.put(SimTime::from_secs(1), vm, pool, addr, PageVersion(1));
        assert!(put.is_stored(), "round {round}: prefix put rejected");
        let pool_residents = &mut resident[i];
        pool_residents.push(addr);
        if pool_residents.len() > PREFIX_RESIDENTS {
            let taken = pool_residents.swap_remove(r.range_usize(0, pool_residents.len()));
            let got = cache.get(SimTime::from_secs(1), vm, pool, taken);
            assert!(got.is_hit(), "round {round}: {taken:?} was evicted");
        }
    }
    let mut want: Entries = Vec::new();
    for (&(vm, pool), addrs) in pools.iter().zip(&resident) {
        want.extend(addrs.iter().map(|&a| (vm, pool, a, PageVersion(1))));
    }
    want.sort_unstable();
    assert_eq!(entries(cache), want, "the prefix evicted something");
    want
}

/// The evicting stream above behind [`tombstone_heavy_prefix`], in every
/// mode: whatever the eviction queues dropped during the prefix, the
/// sharded engine at 1/4/16 shards evicts the same objects in the same
/// order as the serial engine, ends with the same residents and writes
/// the same journal, and both auditors pass after the prefix. The
/// prefix's residents are the oldest objects in their pools, so the
/// first batches of each pool take them.
#[test]
fn eviction_sequence_matches_serial_after_a_tombstone_heavy_prefix() {
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
        let survivors = tombstone_heavy_prefix(&mut serial, &pools, |c| c.entries());
        let findings = ddc_core::hypercache::audit(&serial);
        assert!(
            findings.is_empty(),
            "{mode:?}: after the prefix: {findings:?}"
        );
        let (want_evicted, want_entries) = evicting_stream(&mut serial, &pools, |c| c.entries());
        let prefix_evicted = want_evicted.iter().flatten();
        let prefix_evicted = prefix_evicted.filter(|e| survivors.contains(e)).count();
        assert_eq!(
            prefix_evicted,
            survivors.len(),
            "{mode:?}: prefix left over"
        );
        let image = serial.journal_bytes().expect("journaling on").to_vec();

        for shards in [1, 4, 16] {
            let mut sharded = ShardedCache::new(config, shards);
            sharded.enable_journal();
            for v in 0..3 {
                sharded.add_vm(VmId(v), 100);
                sharded.create_pool(VmId(v), CachePolicy::mem(100));
            }
            tombstone_heavy_prefix(&mut sharded, &pools, |c| c.entries());
            let findings = audit(&sharded);
            assert!(
                findings.is_empty(),
                "{mode:?}/{shards}: after the prefix: {findings:?}"
            );
            let (evicted, entries) = evicting_stream(&mut sharded, &pools, |c| c.entries());
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
        }
    }
}

/// The read-heavy mix must uphold the same byte-identity contract as
/// the standard mix. Checked across every partition mode and shard
/// count, journaled and not.
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
            for shards in [1, 4, 16] {
                cfg.shards = shards;
                let sharded = run_equivalence(&cfg, EngineKind::Sharded { shards });
                assert_eq!(
                    serial.json, sharded.json,
                    "read-heavy report diverged: {mode:?}, {shards} shards, journal {journal}"
                );
            }
        }
    }
}

/// Interleaving stability on the read-heavy mix, squeezed onto an
/// 8-block working set so every thread asks for the same few keys:
/// repeated multi-threaded runs stay clean (no stale reads, no auditor
/// findings, stable op counts).
#[test]
fn read_heavy_interleavings_stay_clean() {
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
