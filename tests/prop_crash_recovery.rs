//! Property test for the crash-and-recovery plane: warm restart from
//! EVERY prefix of the hypervisor cache's journal — every record
//! boundary, torn variants of each, and periodic bit-flipped variants —
//! must uphold the clean-cache contract (paper §3): the recovered cache
//! may have lost entries, but every entry it does hold carries the
//! guest's current on-disk version (zero stale reads), and the
//! structural invariant auditor finds nothing.
//!
//! (Seeded SimRng schedules — the in-tree replacement for proptest,
//! which is unavailable offline.)

use ddc_core::hypercache::audit;
use ddc_core::prelude::*;
use ddc_core::storage::Journal;

/// Drives a seeded mixed workload over two containers of two VMs.
fn drive(host: &mut Host, rng: &mut SimRng, now: &mut SimTime, ops: u64) {
    let vms = host.vm_ids();
    for _ in 0..ops {
        let vm = vms[rng.range_usize(0, vms.len())];
        let cg = {
            let ids = host.guest(vm).cgroup_ids();
            ids[rng.range_usize(0, ids.len())]
        };
        let file = vm_file(vm, rng.range_u64(1, 4));
        let addr = BlockAddr::new(file, rng.range_u64(0, 32));
        match rng.range_u64(0, 20) {
            0..=10 => *now = host.read(*now, vm, cg, addr).finish,
            11..=16 => *now = host.write(*now, vm, cg, addr).finish,
            17..=18 => *now = host.fsync(*now, vm, cg, file),
            _ => host.delete_file(vm, cg, file),
        }
    }
}

fn build_host() -> Host {
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_and_ssd(96, 96)));
    host.enable_cache_journal();
    let vm1 = host.boot_vm(1, 100);
    let vm2 = host.boot_vm(1, 60);
    host.create_container(vm1, "a", 6, CachePolicy::mem(100));
    host.create_container(vm2, "b", 6, CachePolicy::ssd(100));
    host
}

/// Recovers from `prefix` and checks the stale-read oracle plus the
/// auditor against the live guests' ground truth.
fn check_prefix(host: &Host, prefix: &[u8], epochs: &[(VmId, u64)], label: &str) {
    let (recovered, _report) =
        DoubleDeckerCache::recover(host.cache().current_config(), prefix, epochs);
    for (vm, _pool, addr, version) in recovered.entries() {
        let truth = host.guest(vm).disk_version(addr);
        assert_eq!(
            version, truth,
            "stale entry {addr} (cached {version}, disk {truth}) after {label}"
        );
    }
    let findings = audit(&recovered);
    assert!(
        findings.is_empty(),
        "auditor findings after {label}: {findings:?}"
    );
}

#[test]
fn recovery_from_every_journal_prefix_is_never_stale() {
    let mut total_cuts = 0usize;
    for seed in [0xDDC0_0001u64, 0xDDC0_0002] {
        let mut host = build_host();
        let mut rng = SimRng::new(seed);
        let mut now = SimTime::ZERO;
        drive(&mut host, &mut rng, &mut now, 400);

        let image = host.cache_journal_image().expect("journaling on");
        let epochs: Vec<(VmId, u64)> = host
            .vm_ids()
            .into_iter()
            .map(|vm| (vm, host.guest(vm).flush_epoch()))
            .collect();
        assert!(epochs.iter().any(|&(_, e)| e > 0), "writes advanced epochs");

        let bounds = Journal::record_boundaries(&image);
        assert!(bounds.len() > 100, "enough records to sweep");
        let mut prev = 0usize;
        for (i, &cut) in bounds.iter().enumerate() {
            // Every clean boundary.
            check_prefix(&host, &image[..cut], &epochs, &format!("clean cut {cut}"));
            // A torn variant strictly inside the final record.
            let torn = prev + 1 + (cut - prev - 1) / 2;
            check_prefix(&host, &image[..torn], &epochs, &format!("torn cut {torn}"));
            // Periodically, a silently bit-flipped image (every byte of
            // a record is CRC-covered, so replay stops at the damage).
            if i % 5 == 0 && cut > 0 {
                let mut flipped = image[..cut].to_vec();
                let pos = (cut / 2 + i) % cut;
                flipped[pos] ^= 1 << (i % 8);
                check_prefix(
                    &host,
                    &flipped,
                    &epochs,
                    &format!("bitflip at {pos} cut {cut}"),
                );
            }
            prev = cut;
            total_cuts += 2;
        }
    }
    assert!(total_cuts >= 100, "swept {total_cuts} crash points");
}

#[test]
fn recovery_with_future_epochs_discards_rather_than_serves() {
    // Pin the epoch ABOVE anything in the journal: recovery must treat
    // every replayed entry as potentially invalidated and discard it —
    // losing everything is safe, serving anything stale is not.
    let mut host = build_host();
    let mut rng = SimRng::new(0xFEE1);
    let mut now = SimTime::ZERO;
    drive(&mut host, &mut rng, &mut now, 300);
    let image = host.cache_journal_image().unwrap();
    let epochs: Vec<(VmId, u64)> = host.vm_ids().into_iter().map(|vm| (vm, u64::MAX)).collect();
    let (recovered, report) =
        DoubleDeckerCache::recover(host.cache().current_config(), &image, &epochs);
    assert_eq!(
        recovered.entries().len(),
        0,
        "everything suspect, all dropped"
    );
    assert!(report.discarded_stale > 0 || report.recovered_entries == 0);
    assert!(audit(&recovered).is_empty());
}
