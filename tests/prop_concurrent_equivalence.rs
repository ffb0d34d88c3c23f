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
//!    or wedge a put.
//! 4. **Lock-free read plane** (DESIGN.md §15) — the 95/5 read-heavy
//!    mix routes misses through the seqlock membership tables and hot
//!    replicas instead of the shard locks; that path must preserve the
//!    same byte-identity and interleaving-stability contracts, while
//!    demonstrably carrying load (the lock-free counters are non-zero).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ddc_core::cleancache::SecondChanceCache;
use ddc_core::concurrent::{
    audit, run_equivalence, run_stress, EngineKind, ShardedCache, StressConfig,
};
use ddc_core::hypercache::DoubleDeckerCache;
use ddc_core::prelude::*;

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

/// One store, three equal-weight VMs, 64 pages (entitlements 22/21/21,
/// so the shares carry rounding slack): a single-threaded op stream
/// that keeps the store full must evict the same objects in the same
/// order, and end with the same residents, on the serial engine and on
/// the sharded one at every shard count, in every mode. This is the
/// byte-identity contract seen through the evictor alone: every sharded
/// eviction here goes through the one pick → lock one shard →
/// re-validate path. (The walk's largest-user fallbacks stay out of
/// reach even here: on a full store somebody is always over — see
/// DESIGN.md §13.3 — so they are pinned in `policy.rs` and
/// `prop_policy_model` instead.)
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
            let addr = BlockAddr::new(FileId(u64::from(vm.0) + 1), op);
            let put = cache.put(SimTime::from_secs(1), vm, pool, addr, PageVersion(1));
            let after = entries(cache);
            let gone: Entries = (before.iter().copied())
                .filter(|e| !after.contains(e))
                .collect();
            if !gone.is_empty() {
                evicted.push(gone);
            }
            assert!(
                put.is_stored(),
                "op {op}: put rejected on a store that can evict"
            );
            before = after;
        }
        (evicted, before)
    }

    for mode in [
        PartitionMode::DoubleDecker,
        PartitionMode::Strict,
        PartitionMode::Global,
    ] {
        let config = CacheConfig::mem_only(64).with_mode(mode);
        let mut serial = DoubleDeckerCache::new(config);
        let mut pools = Vec::new();
        for v in 0..3 {
            serial.add_vm(VmId(v), 100);
            pools.push((VmId(v), serial.create_pool(VmId(v), CachePolicy::mem(100))));
        }
        let (want_evicted, want_entries) = drive(&mut serial, &pools, |c| c.entries());
        assert!(
            want_evicted.len() > 3,
            "{mode:?}: the stream must keep the evictor busy"
        );

        for shards in [1, 4, 16] {
            let mut sharded = ShardedCache::new(config, shards);
            for v in 0..3 {
                sharded.add_vm(VmId(v), 100);
                let pool = sharded.create_pool(VmId(v), CachePolicy::mem(100));
                assert_eq!(pool, pools[v as usize].1, "pool ids line up across engines");
            }
            let (evicted, entries) = drive(&mut sharded, &pools, |c| c.entries());
            assert_eq!(evicted, want_evicted, "{mode:?}/{shards}: evicted sequence");
            assert_eq!(entries, want_entries, "{mode:?}/{shards}: final residents");
            assert!(audit(&sharded).is_empty(), "{mode:?}/{shards}: auditor");
            assert_eq!(
                sharded.two_phase_retries() + sharded.two_phase_fallbacks(),
                0,
                "{mode:?}/{shards}: a single-threaded pick must re-validate clean"
            );
        }
    }
}

/// The read-heavy mix (the lock-free read plane's target workload) must
/// uphold the same byte-identity contract as the standard mix: routing
/// misses through the seqlock tables and hot replicas instead of the
/// shard locks is a locking strategy, not a semantic change. Checked
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

/// Interleaving stability on the read plane's target mix: repeated
/// multi-threaded runs stay clean (no stale reads, no auditor findings,
/// stable op counts) while the lock-free path demonstrably carries load
/// and the hot replicas demonstrably short-circuit repeat misses.
#[test]
fn read_heavy_interleavings_stay_clean_and_serve_lock_free() {
    for seed in [9, 0x9EAD] {
        let mut expected_ops = None;
        for threads in [2, 4, 8] {
            let cfg = StressConfig::hot_blocks(seed);
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
            assert!(
                out.replica_hits <= out.lockfree_misses,
                "replica hits are a subset of lock-free lookups"
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
