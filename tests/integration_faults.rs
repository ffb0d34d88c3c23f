//! Fault-plane integration tests: VM teardown mid-workload reclaims
//! every pool page, reboots under recycled ids never observe stale
//! data, and seeded fault runs are reproducible byte-for-byte.

use ddc_core::prelude::*;

fn a(vm: VmId, inode: u64, block: u64) -> BlockAddr {
    BlockAddr::new(vm_file(vm, inode), block)
}

fn two_tier_host() -> Host {
    Host::new(HostConfig::new(CacheConfig::mem_and_ssd(1024, 4096)))
}

/// Shutting a VM down mid-workload reclaims every page it held in
/// every pool-backed store, with both tiers populated beforehand.
#[test]
fn shutdown_mid_workload_reclaims_every_pool_page() {
    let mut host = two_tier_host();
    let vm = host.boot_vm(8, 100);
    let mem_cg = host.create_container(vm, "mem", 8, CachePolicy::mem(50));
    let ssd_cg = host.create_container(vm, "ssd", 8, CachePolicy::ssd(50));
    let bystander = host.boot_vm(4, 100);
    let by_cg = host.create_container(bystander, "by", 8, CachePolicy::mem(100));

    let mut now = SimTime::ZERO;
    for b in 0..48 {
        now = host.read(now, vm, mem_cg, a(vm, 1, b)).finish;
        now = host.read(now, vm, ssd_cg, a(vm, 2, b)).finish;
        now = host.read(now, bystander, by_cg, a(bystander, 1, b)).finish;
    }
    let before = host.cache_totals();
    assert!(before.mem_used_pages > 0 && before.ssd_used_pages > 0);
    let by_pages = host
        .container_cache_stats(bystander, by_cg)
        .unwrap()
        .mem_pages;
    assert!(by_pages > 0);

    assert!(host.shutdown_vm(vm));
    let after = host.cache_totals();
    assert_eq!(
        after.mem_used_pages, by_pages,
        "only the bystander's pages remain in memory"
    );
    assert_eq!(after.ssd_used_pages, 0, "every SSD page was reclaimed");
    assert!(host.try_guest(vm).is_none());
    assert!(!host.shutdown_vm(vm), "double shutdown is a safe no-op");

    // The bystander's data still serves.
    let r = host.read(now, bystander, by_cg, a(bystander, 1, 0));
    assert_ne!(r.level, HitLevel::Disk);
}

/// A VM that crashes and reboots under the very same VM id (and
/// re-created containers with the same cgroup ids) must never hit
/// pre-crash cached data: the first read of every block comes from the
/// virtual disk, and the in-path version oracle would abort on any
/// stale second-chance hit.
#[test]
fn reboot_with_same_ids_never_hits_stale_data() {
    let mut host = two_tier_host();
    let vm = host.boot_vm(8, 100);
    let cg = host.create_container(vm, "c", 8, CachePolicy::mem(100));

    let mut now = SimTime::ZERO;
    for b in 0..16 {
        now = host.write(now, vm, cg, a(vm, 1, b)).finish;
    }
    now = host.fsync(now, vm, cg, vm_file(vm, 1));
    for b in 0..16 {
        // Evictions push the dirty-written versions into the cache.
        now = host.read(now, vm, cg, a(vm, 1, b)).finish;
    }

    assert!(host.shutdown_vm(vm));
    assert!(host.boot_vm_with_id(vm, 8, 100));
    let cg2 = host.create_container(vm, "c", 8, CachePolicy::mem(100));
    assert_eq!(cg, cg2, "the fresh guest recycles the same cgroup id");

    for b in 0..16 {
        let r = host.read(now, vm, cg2, a(vm, 1, b));
        now = r.finish;
        assert_eq!(
            r.level,
            HitLevel::Disk,
            "block {b}: nothing cached before the crash may survive it"
        );
    }
}

/// Builds the seeded brownout experiment used by the determinism and
/// acceptance checks below.
fn brownout_experiment(seed: u64) -> Experiment {
    let mut host = two_tier_host();
    let vm = host.boot_vm(8, 100);
    let cg = host.create_container(vm, "web", 1024, CachePolicy::ssd(100));
    host.set_ssd_fault_schedule(Some(FaultSchedule::new(seed).with_window(
        SimTime::from_secs(15),
        Some(SimTime::from_secs(30)),
        FaultKind::Brownout {
            rate: 0.9,
            extra: SimDuration::from_millis(2),
        },
    )));
    let mut exp = Experiment::new(host, SimDuration::from_secs(1));
    let cfg = WebConfig {
        files: 1500,
        mean_file_blocks: 2,
        zipf_theta: 0.0,
        ..WebConfig::default()
    };
    exp.add_thread(Box::new(Webserver::new("web", vm, cg, cfg, 1)));
    exp
}

/// An SSD brownout mid-run completes the workload, trips the full
/// degradation machinery (fail-open, quarantine, recovery), and the
/// report records it.
#[test]
fn brownout_mid_run_degrades_and_recovers() {
    let report = brownout_experiment(0xFA17).run_until(SimTime::from_secs(45));
    let f = &report.faults;
    assert!(f.ssd_quarantines > 0, "the brownout quarantined the tier");
    assert!(f.quarantine_invalidated_pages > 0);
    assert!(f.failed_gets + f.failed_puts > 0);
    assert!(f.channel_fail_opens > 0, "guest saw fail-open outcomes");
    assert!(f.ssd_recoveries > 0, "the tier came back");
    assert!(report.threads.iter().all(|t| t.ops > 0));
}

/// Two runs with the same fault seed produce byte-identical reports.
#[test]
fn same_seed_fault_runs_are_byte_identical() {
    let a = brownout_experiment(42).run_until(SimTime::from_secs(40));
    let b = brownout_experiment(42).run_until(SimTime::from_secs(40));
    assert_eq!(a.to_json(), b.to_json());
}
