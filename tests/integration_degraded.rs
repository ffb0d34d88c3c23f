//! Degraded-mode integration tests: the stack must stay correct (never
//! stale, never leaking, never stuck) when the second-chance path is
//! disabled, rejected, or yanked away mid-run.

use ddc_core::prelude::*;

fn a(vm: VmId, inode: u64, block: u64) -> BlockAddr {
    BlockAddr::new(vm_file(vm, inode), block)
}

/// A cache shrunk to zero capacity rejects all puts; the guest keeps
/// running on page cache + disk only.
#[test]
fn cache_capacity_zeroed_mid_run() {
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(1024)));
    let vm = host.boot_vm(4, 100);
    let cg = host.create_container(vm, "c", 8, CachePolicy::mem(100));
    let mut now = SimTime::ZERO;
    for b in 0..32 {
        now = host.read(now, vm, cg, a(vm, 1, b)).finish;
    }
    host.set_mem_cache_capacity(now, 0);
    assert_eq!(host.cache_totals().mem_used_pages, 0, "shrink evicted all");
    let puts_before = host.guest(vm).channel().counters().put_stores;
    for b in 32..64 {
        now = host.read(now, vm, cg, a(vm, 1, b)).finish;
    }
    let puts_after = host.guest(vm).channel().counters().put_stores;
    assert_eq!(puts_before, puts_after, "no put can land in a 0-page cache");
    // The workload still progresses.
    let r = host.read(now, vm, cg, a(vm, 1, 0));
    assert_eq!(r.level, HitLevel::Disk);
}

/// A container whose policy is disabled mid-run loses its cache objects'
/// usefulness but never its correctness; re-enabling resumes caching.
#[test]
fn policy_disabled_and_reenabled() {
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(1024)));
    let vm = host.boot_vm(4, 100);
    let cg = host.create_container(vm, "c", 8, CachePolicy::mem(100));
    let mut now = SimTime::ZERO;
    for b in 0..24 {
        now = host.read(now, vm, cg, a(vm, 1, b)).finish;
    }
    host.set_container_policy(vm, cg, CachePolicy::disabled());
    // New puts are rejected...
    let stores_before = host.guest(vm).channel().counters().put_stores;
    for b in 24..48 {
        now = host.read(now, vm, cg, a(vm, 1, b)).finish;
    }
    assert_eq!(
        host.guest(vm).channel().counters().put_stores,
        stores_before
    );
    // ...then caching resumes after re-enabling.
    host.set_container_policy(vm, cg, CachePolicy::mem(100));
    for b in 48..80 {
        now = host.read(now, vm, cg, a(vm, 1, b)).finish;
    }
    assert!(host.guest(vm).channel().counters().put_stores > stores_before);
    let _ = now;
}

/// Destroying a sibling container mid-run never disturbs a survivor's
/// data or statistics.
#[test]
fn sibling_destruction_is_isolated() {
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(1024)));
    let vm = host.boot_vm(8, 100);
    let keep = host.create_container(vm, "keep", 8, CachePolicy::mem(50));
    let doomed = host.create_container(vm, "doomed", 8, CachePolicy::mem(50));
    let mut now = SimTime::ZERO;
    for b in 0..24 {
        now = host.read(now, vm, keep, a(vm, 1, b)).finish;
        now = host.read(now, vm, doomed, a(vm, 2, b)).finish;
    }
    let keep_stats = host.container_cache_stats(vm, keep).unwrap();
    host.destroy_container(vm, doomed);
    let keep_after = host.container_cache_stats(vm, keep).unwrap();
    assert_eq!(keep_stats.mem_pages, keep_after.mem_pages);
    assert_eq!(keep_stats.hits, keep_after.hits);
    // The survivor's cached data still serves.
    let r = host.read(now, vm, keep, a(vm, 1, 0));
    assert_ne!(r.level, HitLevel::Disk);
}

/// An SSD-policy container on a host without an SSD store keeps working
/// (all puts rejected — cleancache is best-effort by contract).
#[test]
fn ssd_policy_without_ssd_store() {
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(1024)));
    let vm = host.boot_vm(4, 100);
    let cg = host.create_container(vm, "c", 8, CachePolicy::ssd(100));
    let mut now = SimTime::ZERO;
    for b in 0..32 {
        now = host.read(now, vm, cg, a(vm, 1, b)).finish;
    }
    let s = host.container_cache_stats(vm, cg).unwrap();
    assert_eq!(s.mem_pages + s.ssd_pages, 0);
    let r = host.read(now, vm, cg, a(vm, 1, 31));
    assert!(r.finish > now, "guest unaffected beyond the lost cache");
}

/// Swap storms do not deadlock the guest: heavy anonymous overcommit
/// plus file IO completes and the accounting stays exact.
#[test]
fn swap_storm_completes() {
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(256)));
    let vm = host.boot_vm(2, 100); // 32 blocks of guest RAM
    let cg = host.create_container(vm, "c", 64, CachePolicy::mem(100));
    host.anon_reserve(vm, cg, 96); // 3x RAM
    let mut now = SimTime::ZERO;
    for round in 0..4u64 {
        for p in 0..96 {
            now = host.anon_touch(now, vm, cg, (p * 7 + round) % 96);
        }
        now = host.read(now, vm, cg, a(vm, 1, round)).finish;
    }
    let m = host.container_mem_stats(vm, cg);
    assert!(m.swap_in_total > 0 && m.swap_out_total > 0);
    assert_eq!(
        m.anon_resident_pages + m.swapped_pages,
        m.anon_allocated_pages
    );
    assert!(host.guest(vm).used_pages() <= host.guest(vm).config().total_mem_pages);
}
