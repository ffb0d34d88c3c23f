//! Property tests for the batched write plane (DESIGN.md §18).
//!
//! 1. **Batch-split identity** — a `*_many` group applied through the
//!    batched entry points must leave the cache in a state
//!    byte-identical to applying the same operations one at a time, no
//!    matter where the group is split into sub-batches: same outcome
//!    vectors, same resident entries (in internal order, not just as a
//!    set), same per-pool stats, and — with journaling on — the same
//!    journal record count and byte-identical per-shard segment
//!    images. Batching is a locking/amortization strategy, not a
//!    semantic change; this is checked at *every* split boundary of
//!    the batch, across 1/2/4/8 shards.
//!    The scalar entry points are the one-element case of the same
//!    group code, so the transcript, resident entries and stats are
//!    additionally checked against the same op stream driven through
//!    the serial `DoubleDeckerCache` — a different implementation.
//! 2. **Counter attribution** — the batch-plane counters count
//!    `*_many` traffic only; scalar ops, which run the same group
//!    helpers, leave them at zero.
//! 3. **Placement under the lock converges** — hybrid puts decide
//!    mem-vs-SSD under the home-shard lock from the registry's weights.
//!    Threads issuing scalar and `put_many` hybrid puts into one pool
//!    race a thread that swings a VM weight between extremes (so the
//!    pool's entitlement, and with it the placement decision, keeps
//!    flipping): every put must still store or reject, the capacity
//!    ledger must equal actual residency after every burst, and no
//!    get may ever return a version other than the last one stored.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use ddc_core::cleancache::SecondChanceCache;
use ddc_core::concurrent::{audit, ShardedCache};
use ddc_core::prelude::*;

/// Operations per `*_many` group in the split test. Every split index
/// `0..=GROUP` is exercised, so every boundary inside a group is hit.
const GROUP: u64 = 8;

/// Rounds of the split-test op stream. Small enough that the journal
/// never crosses its compaction threshold (compaction fires at batch
/// boundaries on the batched path but has no per-op twin to mirror, so
/// the byte-identity claim is over the uncompacted log).
const ROUNDS: u64 = 6;

const CONFIG: CacheConfig = CacheConfig {
    mem_capacity_pages: 96,
    ssd_capacity_pages: 192,
    mode: PartitionMode::DoubleDecker,
    admission: AdmissionConfig::off(),
};

fn create_pools(h: &mut impl SecondChanceCache) -> Vec<(VmId, PoolId)> {
    vec![
        (VmId(1), h.create_pool(VmId(1), CachePolicy::mem(100))),
        (VmId(1), h.create_pool(VmId(1), CachePolicy::hybrid(80))),
        (VmId(2), h.create_pool(VmId(2), CachePolicy::ssd(60))),
        (VmId(2), h.create_pool(VmId(2), CachePolicy::hybrid(120))),
    ]
}

fn build(shards: usize) -> (ShardedCache, Vec<(VmId, PoolId)>) {
    let cache = ShardedCache::new(CONFIG, shards);
    cache.enable_journal();
    cache.add_vm(VmId(1), 100);
    cache.add_vm(VmId(2), 150);
    let pools = create_pools(&mut cache.clone());
    (cache, pools)
}

/// The same set-up on the serial engine: the independent reference.
fn build_serial() -> (DoubleDeckerCache, Vec<(VmId, PoolId)>) {
    let mut cache = DoubleDeckerCache::new(CONFIG);
    cache.enable_journal();
    cache.add_vm(VmId(1), 100);
    cache.add_vm(VmId(2), 150);
    let pools = create_pools(&mut cache);
    (cache, pools)
}

/// One round of the deterministic op stream for one pool: a put group,
/// a trailing-window get group, and (every other round) a flush group.
/// Working sets are sized well past the mem shares, so put groups
/// routinely evict — the drain-before-evict journal ordering is on the
/// tested path, not just the happy path.
fn round_ops(
    round: u64,
    pi: u64,
) -> (
    Vec<(BlockAddr, PageVersion)>,
    Vec<BlockAddr>,
    Vec<BlockAddr>,
) {
    let file = FileId(pi + 1);
    let puts: Vec<(BlockAddr, PageVersion)> = (0..GROUP)
        .map(|k| {
            (
                BlockAddr::new(file, (round * GROUP + k * 3 + pi) % 40),
                PageVersion(1 + (round + k) % 3),
            )
        })
        .collect();
    let back = round.saturating_sub(2);
    let gets: Vec<BlockAddr> = (0..GROUP)
        .map(|k| BlockAddr::new(file, (back * GROUP + k * 5 + pi) % 40))
        .collect();
    let flushes: Vec<BlockAddr> = if round.is_multiple_of(2) {
        (0..GROUP / 2)
            .map(|k| BlockAddr::new(file, (round * 4 + k * 7 + pi) % 40))
            .collect()
    } else {
        Vec::new()
    };
    (puts, gets, flushes)
}

/// Drives the full stream. `split: None` applies every operation
/// through the scalar entry points in exact order (the serial
/// reference); `split: Some(k)` applies each group as two `*_many`
/// calls cut at index `k`. Returns a transcript of every outcome, so
/// the comparison covers what callers *observed*, not just where the
/// cache ended up.
fn drive(h: &mut impl SecondChanceCache, pools: &[(VmId, PoolId)], split: Option<usize>) -> String {
    let now = SimTime::from_secs(1);
    let mut transcript = String::new();
    for round in 0..ROUNDS {
        for (pi, &(vm, pool)) in pools.iter().enumerate() {
            let (puts, gets, flushes) = round_ops(round, pi as u64);
            match split {
                None => {
                    let outs: Vec<PutOutcome> = puts
                        .iter()
                        .map(|&(a, v)| h.put(now, vm, pool, a, v))
                        .collect();
                    transcript.push_str(&format!("{outs:?}\n"));
                    let outs: Vec<GetOutcome> =
                        gets.iter().map(|&a| h.get(now, vm, pool, a)).collect();
                    transcript.push_str(&format!("{outs:?}\n"));
                    // Per-op flushes return individual epochs; the
                    // group-level observable is their max, which is
                    // what flush_many reports.
                    let epoch = flushes
                        .iter()
                        .map(|&a| h.flush(vm, pool, a))
                        .max()
                        .unwrap_or(0);
                    transcript.push_str(&format!("epoch={epoch}\n"));
                }
                Some(k) => {
                    let cut = k.min(puts.len());
                    let mut outs = h.put_many(now, vm, pool, &puts[..cut]);
                    outs.extend(h.put_many(now, vm, pool, &puts[cut..]));
                    transcript.push_str(&format!("{outs:?}\n"));
                    let cut = k.min(gets.len());
                    let mut outs = h.get_many(now, vm, pool, &gets[..cut]);
                    outs.extend(h.get_many(now, vm, pool, &gets[cut..]));
                    transcript.push_str(&format!("{outs:?}\n"));
                    let cut = k.min(flushes.len());
                    let epoch = h.flush_many(vm, pool, &flushes[..cut]).max(h.flush_many(
                        vm,
                        pool,
                        &flushes[cut..],
                    ));
                    transcript.push_str(&format!("epoch={epoch}\n"));
                }
            }
        }
    }
    transcript
}

/// A transcript with the `finish` instants removed: the serial engine
/// charges its store device models there, the sharded one answers at
/// `now`, so across engines only outcome kinds, versions and epochs
/// are comparable.
fn without_finish_times(transcript: &str) -> String {
    let mut parts = transcript.split("finish: SimTime(");
    let mut out = parts.next().unwrap_or("").to_owned();
    for part in parts {
        let (_, rest) = part.split_once(')').expect("SimTime(..) closes");
        out.push_str(rest);
    }
    out
}

/// Where a cache of either engine ended up: resident entries and
/// per-pool stats.
fn residency(
    entries: Vec<(VmId, PoolId, BlockAddr, PageVersion)>,
    cache: &impl SecondChanceCache,
    pools: &[(VmId, PoolId)],
) -> String {
    let mut s = format!("entries={entries:?}\n");
    for &(vm, pool) in pools {
        s.push_str(&format!(
            "{vm:?}/{pool:?}={:?}\n",
            cache.pool_stats(vm, pool)
        ));
    }
    s
}

/// Everything observable about where the sharded cache ended up:
/// [`residency`], journal record count and raw per-shard segment bytes.
fn observe(cache: &ShardedCache, pools: &[(VmId, PoolId)]) -> String {
    let mut s = residency(cache.entries(), cache, pools);
    s.push_str(&format!("records={:?}\n", cache.journal_records()));
    s.push_str(&format!("images={:?}\n", cache.journal_images()));
    s
}

#[test]
fn batched_application_is_byte_identical_at_every_split_boundary() {
    let (mut serial, serial_pools) = build_serial();
    let serial_transcript = without_finish_times(&drive(&mut serial, &serial_pools, None));
    let serial_residency = residency(serial.entries(), &serial, &serial_pools);

    for shards in [1usize, 2, 4, 8] {
        let (ref_cache, ref_pools) = build(shards);
        let mut h = ref_cache.clone();
        let ref_transcript = drive(&mut h, &ref_pools, None);
        let ref_state = observe(&ref_cache, &ref_pools);
        assert!(
            audit(&ref_cache).is_empty(),
            "reference run broke invariants at {shards} shards"
        );
        assert_eq!(serial_pools, ref_pools);
        assert_eq!(
            serial_transcript,
            without_finish_times(&ref_transcript),
            "outcomes diverged from the serial engine at {shards} shards"
        );
        assert_eq!(
            serial_residency,
            residency(ref_cache.entries(), &ref_cache, &ref_pools),
            "state diverged from the serial engine at {shards} shards"
        );

        for k in 0..=GROUP as usize {
            let (cache, pools) = build(shards);
            let mut h = cache.clone();
            let transcript = drive(&mut h, &pools, Some(k));
            assert_eq!(
                ref_transcript, transcript,
                "outcomes diverged from per-op order: {shards} shards, split {k}"
            );
            assert_eq!(
                ref_state,
                observe(&cache, &pools),
                "state diverged from per-op order: {shards} shards, split {k}"
            );
            assert!(
                audit(&cache).is_empty(),
                "batched run broke invariants: {shards} shards, split {k}"
            );
            assert!(
                cache.batched_ops() > 0 && cache.batch_lock_acquisitions() > 0,
                "split run never exercised the batch plane: {shards} shards, split {k}"
            );
        }
    }
}

#[test]
fn batch_counters_count_many_traffic_only() {
    let (cache, pools) = build(4);
    let mut h = cache.clone();
    let batch_counters = |c: &ShardedCache| {
        (
            c.batched_ops(),
            c.batch_lock_acquisitions(),
            c.batch_journal_appends(),
        )
    };

    let before = cache.journal_records();
    drive(&mut h, &pools, None);
    assert!(
        cache.journal_records() > before,
        "the scalar run journaled nothing"
    );
    assert_eq!(
        batch_counters(&cache),
        (0, 0, 0),
        "scalar ops leaked into the batch-plane counters"
    );

    drive(&mut h, &pools, Some(GROUP as usize / 2));
    let (ops, locks, appends) = batch_counters(&cache);
    assert!(
        ops > 0 && locks > 0 && appends > 0,
        "the *_many run was not counted: {ops} ops, {locks} locks, {appends} appends"
    );
    assert!(locks < ops, "groups did not amortize their lock visits");
}

/// Two writers share one hybrid pool (disjoint files, so each can keep
/// an exact model of what it stored) while a third thread swings the
/// ballast VM's weight between a trivial and a dominant value for as
/// long as a burst runs: VM 1's memory entitlement jumps between ~60
/// and ~3 pages, crossing the hybrid pool's resident count, so the
/// mem-vs-SSD decision taken under the home-shard lock keeps flipping
/// — also between the pages of one `put_many` group. Bursts are
/// delimited by barriers so the auditor runs on a quiescent cache;
/// violations are collected and asserted after the threads join, since
/// a panic between two barrier waits would hang the others.
#[test]
fn hybrid_placement_converges_under_racing_entitlement_flips() {
    const WRITERS: u64 = 2;
    const BURSTS: u64 = 12;
    const PAGES: u64 = 120;

    let cache = ShardedCache::new(
        CacheConfig {
            mem_capacity_pages: 64,
            ssd_capacity_pages: 128,
            mode: PartitionMode::DoubleDecker,
            admission: AdmissionConfig::off(),
        },
        8,
    );
    cache.add_vm(VmId(1), 100);
    cache.add_vm(VmId(2), 100);
    let mut backend = cache.clone();
    let hybrid = backend.create_pool(VmId(1), CachePolicy::hybrid(100));
    let ballast = backend.create_pool(VmId(2), CachePolicy::mem(100));
    let now = SimTime::from_secs(1);

    // Ballast residency keeps VM 2's weight relevant to the share
    // table, so swinging it really moves VM 1's entitlement.
    for b in 0..24u64 {
        let a = BlockAddr::new(FileId(9), b);
        backend.put(now, VmId(2), ballast, a, PageVersion(1));
    }

    let burst_edge = Barrier::new(WRITERS as usize + 2);
    let writers_done = AtomicU64::new(0);
    let stored = AtomicU64::new(0);
    let flips = AtomicU64::new(0);
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let violation = |v: String| violations.lock().expect("violations poisoned").push(v);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let mut h = cache.clone();
            let (burst_edge, writers_done, stored) = (&burst_edge, &writers_done, &stored);
            let (flips, violation) = (&flips, &violation);
            scope.spawn(move || {
                // addr -> the version the cache may hold (absent: none).
                let mut model: BTreeMap<BlockAddr, PageVersion> = BTreeMap::new();
                let note = |h: &mut ShardedCache,
                            model: &mut BTreeMap<BlockAddr, PageVersion>,
                            a: BlockAddr,
                            v: PageVersion,
                            out: PutOutcome| {
                    match out {
                        PutOutcome::Stored { .. } => {
                            model.insert(a, v);
                            stored.fetch_add(1, Ordering::Relaxed);
                        }
                        // Like a guest: a refused put invalidates the
                        // block.
                        PutOutcome::Rejected => {
                            h.flush(VmId(1), hybrid, a);
                            model.remove(&a);
                        }
                        other => violation(format!("writer {w}: put of {a:?} returned {other:?}")),
                    }
                };
                for burst in 0..BURSTS {
                    let version = PageVersion(burst + 1);
                    let pages: Vec<(BlockAddr, PageVersion)> = (0..PAGES)
                        .map(|b| (BlockAddr::new(FileId(w + 1), b), version))
                        .collect();
                    // Groups alternate between the scalar and the
                    // `put_many` entry point, and the weight is made to
                    // swing at least once between any two of them.
                    for (g, group) in pages.chunks(8).enumerate() {
                        let seen = flips.load(Ordering::Acquire);
                        let outs = if g % 2 == 0 {
                            let put = |&(a, v)| h.put(now, VmId(1), hybrid, a, v);
                            group.iter().map(put).collect()
                        } else {
                            h.put_many(now, VmId(1), hybrid, group)
                        };
                        if outs.len() != group.len() {
                            violation(format!("writer {w}: {} outcomes", outs.len()));
                        }
                        for (&(a, v), out) in group.iter().zip(outs) {
                            note(&mut h, &mut model, a, v, out);
                        }
                        while flips.load(Ordering::Acquire) == seen {
                            std::thread::yield_now();
                        }
                    }
                    // Read back every other block; the rest stay to be
                    // overwritten by the next burst.
                    for &(a, _) in pages.iter().step_by(2) {
                        let expected = model.remove(&a);
                        if let GetOutcome::Hit { version, .. } = h.get(now, VmId(1), hybrid, a) {
                            if Some(version) != expected {
                                violation(format!(
                                    "writer {w} burst {burst}: stale hit on {a:?}: \
                                     {version:?}, stored {expected:?}"
                                ));
                            }
                        }
                    }
                    writers_done.fetch_add(1, Ordering::Release);
                    burst_edge.wait();
                    burst_edge.wait();
                }
            });
        }

        let (burst_edge, writers_done, flips) = (&burst_edge, &writers_done, &flips);
        let swinger = cache.clone();
        scope.spawn(move || {
            for burst in 0..BURSTS {
                while writers_done.load(Ordering::Acquire) < (burst + 1) * WRITERS {
                    let n = flips.load(Ordering::Relaxed);
                    swinger.set_vm_weight(VmId(2), if n.is_multiple_of(2) { 2_000 } else { 5 });
                    flips.store(n + 1, Ordering::Release);
                    std::thread::yield_now();
                }
                burst_edge.wait();
                burst_edge.wait();
            }
        });

        for burst in 0..BURSTS {
            burst_edge.wait();
            let findings = audit(&cache);
            if !findings.is_empty() {
                violation(format!(
                    "burst {burst}: ledger and residency disagree: {findings:?}"
                ));
            }
            burst_edge.wait();
        }
    });

    let violations = violations.into_inner().expect("violations poisoned");
    assert!(violations.is_empty(), "{violations:#?}");
    assert!(
        stored.load(Ordering::Relaxed) > 0,
        "every hybrid put was refused"
    );
}
