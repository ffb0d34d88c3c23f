//! End-to-end crash→recover→continue through the `Host` API: the
//! hypervisor cache dies at an arbitrary journal prefix, warm-restarts
//! from the surviving bytes, and the guests keep running against the
//! recovered cache — with zero stale second-chance hits, a clean
//! auditor, and working cache service afterwards.

use ddc_core::hypercache::audit;
use ddc_core::prelude::*;
use ddc_core::storage::Journal;

fn a(vm: VmId, inode: u64, block: u64) -> BlockAddr {
    BlockAddr::new(vm_file(vm, inode), block)
}

fn journaled_host() -> (Host, VmId, CgroupId, VmId, CgroupId) {
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_and_ssd(96, 96)));
    host.enable_cache_journal();
    let vm1 = host.boot_vm(1, 100);
    let vm2 = host.boot_vm(1, 60);
    let cg1 = host.create_container(vm1, "a", 6, CachePolicy::mem(100));
    let cg2 = host.create_container(vm2, "b", 6, CachePolicy::ssd(100));
    (host, vm1, cg1, vm2, cg2)
}

fn churn(host: &mut Host, now: SimTime, vm: VmId, cg: CgroupId, rounds: u64) -> SimTime {
    let mut now = now;
    for r in 0..rounds {
        for b in 0..24 {
            now = host.write(now, vm, cg, a(vm, 1 + r % 2, b)).finish;
        }
        now = host.fsync(now, vm, cg, vm_file(vm, 1 + r % 2));
        for b in 0..24 {
            now = host.read(now, vm, cg, a(vm, 1 + r % 2, b)).finish;
        }
    }
    now
}

/// Crash at a mid-journal cut, recover, and keep serving: the guests
/// survive with their epochs, every recovered entry matches the disk,
/// and the cache warms back up for both the mem and SSD containers.
#[test]
fn crash_recover_continue_serves_fresh_data() {
    let (mut host, vm1, cg1, vm2, cg2) = journaled_host();
    let mut now = SimTime::ZERO;
    now = churn(&mut host, now, vm1, cg1, 4);
    now = churn(&mut host, now, vm2, cg2, 4);

    let image = host.cache_journal_image().expect("journaling on");
    let bounds = Journal::record_boundaries(&image);
    let cut = bounds[bounds.len() * 3 / 4];
    let report = host.crash_and_recover(&image[..cut]);
    assert!(!report.corrupt, "a clean prefix replays cleanly");
    assert!(
        report.new_epochs.len() >= 2,
        "checkpoint re-arms every guest's flush epoch"
    );
    let findings = audit(host.cache());
    assert!(findings.is_empty(), "post-recovery audit: {findings:?}");

    // Every surviving entry matches the guests' on-disk truth.
    for (vm, _pool, addr, version) in host.cache().entries() {
        assert_eq!(version, host.guest(vm).disk_version(addr));
    }

    // Life goes on: more churn, still zero stale oracle trips, and
    // the cache actually serves hits again.
    now = churn(&mut host, now, vm1, cg1, 3);
    now = churn(&mut host, now, vm2, cg2, 3);
    let mut hits = 0;
    for b in 0..24 {
        let r = host.read(now, vm1, cg1, a(vm1, 1, b));
        now = r.finish;
        if r.level != HitLevel::Disk {
            hits += 1;
        }
    }
    assert!(hits > 0, "recovered cache serves second-chance hits again");
    for vm in host.vm_ids() {
        assert_eq!(
            host.guest(vm).counters().stale_cleancache_hits,
            0,
            "stale-read oracle stayed clean"
        );
    }
    let findings = audit(host.cache());
    assert!(findings.is_empty(), "post-continuation audit: {findings:?}");
}

/// Back-to-back crashes: the post-recovery checkpoint journal is itself
/// a valid recovery source, so a second crash right after the first
/// (before any new durable records) still restarts cleanly.
#[test]
fn double_crash_recovers_from_checkpoint() {
    let (mut host, vm1, cg1, vm2, cg2) = journaled_host();
    let mut now = SimTime::ZERO;
    now = churn(&mut host, now, vm1, cg1, 3);
    now = churn(&mut host, now, vm2, cg2, 3);

    let image = host.cache_journal_image().unwrap();
    host.crash_and_recover(&image);
    let entries_after_first = host.cache().entries();

    // Second crash from the checkpoint the first recovery wrote.
    let checkpoint = host.cache_journal_image().unwrap();
    assert!(
        checkpoint.len() < image.len(),
        "checkpoint compacts the raw history"
    );
    let report = host.crash_and_recover(&checkpoint);
    assert_eq!(report.discarded_stale, 0, "checkpoint state is all fresh");
    assert_eq!(
        host.cache().entries(),
        entries_after_first,
        "second recovery reproduces the first exactly"
    );
    assert!(audit(host.cache()).is_empty());

    now = churn(&mut host, now, vm1, cg1, 2);
    let _ = now;
    for vm in host.vm_ids() {
        assert_eq!(host.guest(vm).counters().stale_cleancache_hits, 0);
    }
}

/// A bit-flipped journal (silent media corruption) truncates replay at
/// the damaged record; whatever survives is still sound.
#[test]
fn corrupt_journal_recovers_to_safe_prefix() {
    let (mut host, vm1, cg1, _vm2, _cg2) = journaled_host();
    let mut now = SimTime::ZERO;
    now = churn(&mut host, now, vm1, cg1, 4);

    let mut image = host.cache_journal_image().unwrap();
    let pos = image.len() / 2;
    image[pos] ^= 0x40;
    let report = host.crash_and_recover(&image);
    assert!(
        report.corrupt || report.torn_tail,
        "damage detected, replay stopped early"
    );
    for (vm, _pool, addr, version) in host.cache().entries() {
        assert_eq!(version, host.guest(vm).disk_version(addr));
    }
    assert!(audit(host.cache()).is_empty());

    now = churn(&mut host, now, vm1, cg1, 2);
    let _ = now;
    assert_eq!(host.guest(vm1).counters().stale_cleancache_hits, 0);
}
