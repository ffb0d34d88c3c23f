//! Every-prefix crash properties for the *sharded* plane's per-shard
//! journal segments (DESIGN.md §14).
//!
//! The serial plane's sweep (`prop_crash_recovery.rs`) cuts one journal
//! at every boundary; here each shard owns a segment and a crash can
//! cut **each segment independently** — the recovery contract must hold
//! for every combination the sweep reaches:
//!
//! * cutting any single shard's segment at *every* record boundary,
//!   and mid-record (torn), and with a flipped bit (corrupt), while the
//!   other shards keep their full images;
//! * seeded *joint* cuts of several segments at once;
//! * the cut a crash is *guaranteed* to leave — every segment at its
//!   durable mark (what group commit published), taken mid-tick after
//!   single-threaded and threaded driving, alone and with any one
//!   segment having kept its unsynced tail;
//! * flush epochs from the future (a guest that outlived a journal the
//!   cache lost) — recovery must discard, never serve.
//!
//! Soundness after every recovery means: zero stale entries against the
//! guests' authoritative disk models (the cache may forget, never lie)
//! and zero findings from the cross-shard auditor — including its
//! journal-health invariant over the re-journaled checkpoint.

use ddc_core::concurrent::{audit, CrashHarness, ShardedCache, StressConfig};
use ddc_core::prelude::*;
use ddc_core::storage::Journal;

/// A tight configuration: small stores and working set keep eviction
/// hot so the segments carry every record kind, while the short drive
/// keeps the boundary sweep affordable.
fn harness(seed: u64) -> (CrashHarness, StressConfig) {
    let mut cfg = StressConfig::smoke(seed);
    cfg.cache = CacheConfig::mem_and_ssd(96, 128);
    cfg.working_set = 64;
    cfg.shards = 4;
    let h = CrashHarness::new(&cfg);
    (h, cfg)
}

/// Recover from `segments` and assert the full soundness contract.
fn check(h: &CrashHarness, cfg: &StressConfig, segments: &[Vec<u8>], what: &str) {
    let (cache, report) = ShardedCache::recover(cfg.cache, segments, &h.guest_epochs());
    assert_eq!(
        h.stale_entries_in(&cache),
        0,
        "{what}: recovery resurrected a stale version ({report:?})"
    );
    let findings = audit(&cache);
    assert!(findings.is_empty(), "{what}: auditor found {findings:?}");
}

#[test]
fn every_single_shard_prefix_recovers_sound() {
    let (mut h, cfg) = harness(0xDD61);
    h.drive(0, 18, 1);
    // Die mid-tick: VM 1's stream stops mid-`put_many`, VMs 2-3 and the
    // tick's group commit never run.
    h.drive_killed_tick(18, 1, 4);
    let segments = h.segment_images();

    let mut cuts = 0u64;
    for shard in 0..segments.len() {
        let bounds = Journal::record_boundaries(&segments[shard]);
        for i in 0..=bounds.len() {
            let cut = if i == 0 { 0 } else { bounds[i - 1] };
            let mut segs = segments.to_vec();
            segs[shard].truncate(cut);
            check(&h, &cfg, &segs, &format!("shard {shard} cut at {cut}"));
            cuts += 1;
        }
    }
    assert!(cuts >= 100, "sweep too small to mean anything: {cuts} cuts");
}

#[test]
fn torn_and_corrupt_single_shard_tails_recover_sound() {
    let (mut h, cfg) = harness(0xDD62);
    h.drive(0, 18, 1);
    h.drive_killed_tick(18, 2, 7);
    let segments = h.segment_images();
    let mut rng = SimRng::new(0xDD62_0001);

    for shard in 0..segments.len() {
        let bounds = Journal::record_boundaries(&segments[shard]);
        if bounds.is_empty() {
            continue;
        }
        // Torn: cut strictly inside every 3rd record.
        for i in (0..bounds.len()).step_by(3) {
            let lo = if i == 0 { 0 } else { bounds[i - 1] };
            let cut = rng.range_usize(lo + 1, bounds[i]);
            let mut segs = segments.to_vec();
            segs[shard].truncate(cut);
            check(&h, &cfg, &segs, &format!("shard {shard} torn at {cut}"));
        }
        // Corrupt: flip one bit at a stride of seeded positions.
        for k in 0..8 {
            let pos = rng.range_usize(0, segments[shard].len());
            let mut segs = segments.to_vec();
            segs[shard][pos] ^= 1 << (k % 8);
            check(&h, &cfg, &segs, &format!("shard {shard} bit-flip at {pos}"));
        }
    }
}

#[test]
fn independent_joint_cuts_across_shards_recover_sound() {
    let (mut h, cfg) = harness(0xDD63);
    h.drive(0, 18, 1);
    h.drive_killed_tick(18, 0, 9);
    let segments = h.segment_images();
    let mut rng = SimRng::new(0xDD63_0001);

    for round in 0..120 {
        let mut segs = segments.to_vec();
        for seg in &mut segs {
            // Each shard independently: keep whole, cut at a boundary,
            // or tear mid-record.
            let bounds = Journal::record_boundaries(seg);
            if bounds.is_empty() {
                continue;
            }
            match rng.range_u64(0, 3) {
                0 => {}
                1 => seg.truncate(bounds[rng.range_usize(0, bounds.len())]),
                _ => {
                    let i = rng.range_usize(0, bounds.len());
                    let lo = if i == 0 { 0 } else { bounds[i - 1] };
                    seg.truncate(rng.range_usize(lo + 1, bounds[i]));
                }
            }
        }
        check(&h, &cfg, &segs, &format!("joint cut round {round}"));
    }
}

#[test]
fn cuts_at_the_durable_marks_recover_sound() {
    // (seed, ticks driven, OS threads, killed VM, hypercall budget)
    let runs = [
        (0xDD65, 6, 1, 1, 3),
        (0xDD66, 18, 1, 3, 9),
        (0xDD67, 12, 3, 0, 5),
        (0xDD68, 30, 4, 2, 7),
    ];
    let mut lost_bytes = 0;
    for (seed, ticks, threads, kill_vm, budget) in runs {
        let (mut h, cfg) = harness(seed);
        h.drive(0, ticks, threads);
        // Mid-tick: the last commit closed tick `ticks - 1`, so this
        // tick's records sit above the marks on whichever shards they
        // reached.
        h.drive_killed_tick(ticks, kill_vm, budget);
        let snapshot = h.cache().journal_snapshot().expect("harness journals");
        let durable: Vec<Vec<u8>> = snapshot
            .iter()
            .map(|(image, mark)| {
                assert!(
                    *mark == 0 || Journal::record_boundaries(image).contains(mark),
                    "seed {seed:#x}: durable mark {mark} splits a record"
                );
                lost_bytes += image.len() - mark;
                image[..*mark].to_vec()
            })
            .collect();
        check(
            &h,
            &cfg,
            &durable,
            &format!("seed {seed:#x} at the durable marks"),
        );
        // Anything above a mark may or may not have reached the disk.
        for (shard, (image, _)) in snapshot.iter().enumerate() {
            let mut segs = durable.clone();
            segs[shard] = image.clone();
            let what = format!("seed {seed:#x} at the durable marks, shard {shard} whole");
            check(&h, &cfg, &segs, &what);
        }
    }
    assert!(lost_bytes > 0, "no run left anything above a durable mark");
}

#[test]
fn future_epochs_discard_rather_than_serve() {
    let (mut h, cfg) = harness(0xDD64);
    h.drive(0, 15, 1);
    let segments = h.segment_images();
    // A guest that outlived a journal the cache lost: its epochs point
    // past everything any segment holds. Everything suspect must go.
    let inflated: Vec<(VmId, u64)> = h
        .guest_epochs()
        .into_iter()
        .map(|(vm, e)| (vm, e + 1_000_000))
        .collect();
    let (cache, report) = ShardedCache::recover(cfg.cache, &segments, &inflated);
    assert_eq!(
        report.recovered_entries, 0,
        "future epochs must empty the cache (forget, never lie)"
    );
    assert_eq!(h.stale_entries_in(&cache), 0);
    assert!(audit(&cache).is_empty(), "{:?}", audit(&cache));
}
