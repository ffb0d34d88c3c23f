//! Randomized-schedule tests over the full stack: arbitrary operation
//! sequences must preserve the system's core invariants. (Seeded SimRng
//! schedules — the in-tree replacement for proptest, which is
//! unavailable offline; the shrunk regression cases proptest found are
//! kept as explicit tests.)
//!
//! * **Exclusivity** — a block is never resident in the guest page cache
//!   and the hypervisor cache at once (observed via hit levels).
//! * **Coherence** — reads never return stale data (enforced by the
//!   version check inside the guest read path; these tests run it under
//!   random schedules).
//! * **Accounting** — guest charges never exceed limits, and the
//!   engine's auditor (store occupancy equals the sum of pool
//!   occupancies and never exceeds capacity, among the rest) stays clean.

use ddc_core::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Read { cg: u8, file: u8, block: u8 },
    Write { cg: u8, file: u8, block: u8 },
    Fsync { cg: u8, file: u8 },
    Delete { cg: u8, file: u8 },
    AnonTouch { cg: u8, page: u8 },
    SetWeight { cg: u8, weight: u8 },
    SwitchStore { cg: u8, to_ssd: bool },
    ResizeCache { pages: u16 },
}

fn gen_op(r: &mut SimRng) -> Op {
    let cg = r.range_u64(0, 2) as u8;
    let file = r.range_u64(0, 4) as u8;
    let block = r.range_u64(0, 32) as u8;
    // Weighted mix mirroring the original proptest strategy.
    match r.range_u64(0, 19) {
        0..=7 => Op::Read { cg, file, block },
        8..=11 => Op::Write { cg, file, block },
        12 => Op::Fsync { cg, file },
        13 => Op::Delete { cg, file },
        14..=15 => Op::AnonTouch {
            cg,
            page: r.range_u64(0, 16) as u8,
        },
        16 => Op::SetWeight {
            cg,
            weight: r.range_u64(1, 100) as u8,
        },
        17 => Op::SwitchStore {
            cg,
            to_ssd: r.chance(0.5),
        },
        _ => Op::ResizeCache {
            pages: r.range_u64(16, 256) as u16,
        },
    }
}

fn build_host() -> (Host, VmId, [CgroupId; 2]) {
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_and_ssd(64, 256)));
    let vm = host.boot_vm(2, 100); // tiny guest: 32 blocks
    let c0 = host.create_container(vm, "c0", 12, CachePolicy::mem(60));
    let c1 = host.create_container(vm, "c1", 12, CachePolicy::mem(40));
    host.anon_reserve(vm, c0, 16);
    host.anon_reserve(vm, c1, 16);
    (host, vm, [c0, c1])
}

fn check_invariants(host: &Host, vm: VmId, cgs: &[CgroupId; 2]) {
    for &cg in cgs {
        assert!(host.container_cache_stats(vm, cg).is_some(), "pool exists");
        let m = host.container_mem_stats(vm, cg);
        assert!(
            m.charged_pages() <= m.mem_limit_pages,
            "cgroup charge {} exceeds its limit {}",
            m.charged_pages(),
            m.mem_limit_pages
        );
        assert_eq!(
            m.anon_resident_pages + m.swapped_pages,
            m.anon_allocated_pages
        );
    }
    // Store accounting (each store's pages are its pools' and within
    // its capacity) and every other engine invariant: the auditor's.
    let findings = ddc_core::hypercache::audit(host.cache());
    assert!(findings.is_empty(), "{findings:?}");
}

/// Applies one op; returns the advanced clock.
fn apply_op(host: &mut Host, vm: VmId, cgs: &[CgroupId; 2], now: SimTime, op: &Op) -> SimTime {
    let mut now = now;
    match *op {
        Op::Read { cg, file, block } => {
            let addr = BlockAddr::new(vm_file(vm, file as u64 + 1), block as u64);
            now = host.read(now, vm, cgs[cg as usize], addr).finish;
        }
        Op::Write { cg, file, block } => {
            let addr = BlockAddr::new(vm_file(vm, file as u64 + 1), block as u64);
            now = host.write(now, vm, cgs[cg as usize], addr).finish;
        }
        Op::Fsync { cg, file } => {
            now = host.fsync(now, vm, cgs[cg as usize], vm_file(vm, file as u64 + 1));
        }
        Op::Delete { cg, file } => {
            host.delete_file(vm, cgs[cg as usize], vm_file(vm, file as u64 + 1));
        }
        Op::AnonTouch { cg, page } => {
            now = host.anon_touch(now, vm, cgs[cg as usize], page as u64);
        }
        Op::SetWeight { cg, weight } => {
            host.set_container_policy(vm, cgs[cg as usize], CachePolicy::mem(weight as u32));
        }
        Op::SwitchStore { cg, to_ssd } => {
            let policy = if to_ssd {
                CachePolicy::ssd(50)
            } else {
                CachePolicy::mem(50)
            };
            host.set_container_policy(vm, cgs[cg as usize], policy);
        }
        Op::ResizeCache { pages } => {
            host.set_mem_cache_capacity(now, pages as u64);
        }
    }
    now
}

/// Random op sequences preserve accounting and never read stale data
/// (the coherence `debug_assert` in the guest read path fires under
/// any violation; this binary is built with debug assertions in test
/// profile).
#[test]
fn random_schedules_preserve_invariants() {
    let mut rng = SimRng::new(0xE8C1);
    for case in 0..64 {
        let mut r = rng.fork(case);
        let (mut host, vm, cgs) = build_host();
        let mut now = SimTime::ZERO;
        for _ in 0..r.range_u64(1, 300) {
            let op = gen_op(&mut r);
            now = apply_op(&mut host, vm, &cgs, now, &op);
            check_invariants(&host, vm, &cgs);
        }
    }
}

/// The shrunk counterexample proptest found historically (see git
/// history of `prop_exclusive_cache.proptest-regressions`), kept as an
/// explicit regression case.
#[test]
fn regression_write_then_cross_cgroup_churn() {
    #[rustfmt::skip]
    let ops = [
        Op::Write { cg: 0, file: 0, block: 18 },
        Op::Read { cg: 1, file: 0, block: 18 },
        Op::Read { cg: 1, file: 0, block: 1 },
        Op::Read { cg: 1, file: 0, block: 2 },
        Op::Read { cg: 1, file: 0, block: 3 },
        Op::Read { cg: 1, file: 0, block: 4 },
        Op::Read { cg: 0, file: 1, block: 3 },
        Op::Read { cg: 0, file: 0, block: 6 },
        Op::AnonTouch { cg: 0, page: 0 },
        Op::AnonTouch { cg: 1, page: 0 },
        Op::Read { cg: 0, file: 1, block: 0 },
        Op::Read { cg: 0, file: 0, block: 1 },
        Op::Read { cg: 0, file: 0, block: 2 },
        Op::Write { cg: 0, file: 0, block: 4 },
        Op::Read { cg: 0, file: 3, block: 13 },
        Op::Read { cg: 0, file: 0, block: 0 },
        Op::Read { cg: 1, file: 0, block: 0 },
        Op::AnonTouch { cg: 0, page: 12 },
        Op::Write { cg: 1, file: 3, block: 9 },
        Op::Read { cg: 1, file: 2, block: 16 },
        Op::Write { cg: 0, file: 0, block: 5 },
        Op::Read { cg: 1, file: 3, block: 17 },
        Op::Read { cg: 1, file: 1, block: 16 },
        Op::Read { cg: 0, file: 1, block: 12 },
        Op::Read { cg: 1, file: 2, block: 0 },
        Op::Read { cg: 1, file: 0, block: 9 },
        Op::Read { cg: 1, file: 0, block: 18 },
    ];
    let (mut host, vm, cgs) = build_host();
    let mut now = SimTime::ZERO;
    for op in &ops {
        now = apply_op(&mut host, vm, &cgs, now, op);
        check_invariants(&host, vm, &cgs);
    }
}

/// Exclusivity, observed behaviourally: immediately after any read, a
/// repeat read of the same block is a page-cache hit (the block can
/// only be in one cache, and it just moved to the first chance).
#[test]
fn repeat_read_is_first_chance() {
    let mut rng = SimRng::new(0xE8C2);
    for case in 0..64 {
        let mut r = rng.fork(case);
        let (mut host, vm, cgs) = build_host();
        let mut now = SimTime::ZERO;
        for _ in 0..r.range_u64(1, 60) {
            let file = r.range_u64(0, 4);
            let block = r.range_u64(0, 32);
            let addr = BlockAddr::new(vm_file(vm, file + 1), block);
            let r1 = host.read(now, vm, cgs[0], addr);
            let r2 = host.read(r1.finish, vm, cgs[0], addr);
            assert_eq!(r2.level, HitLevel::PageCache);
            now = r2.finish;
        }
    }
}

/// A random fault schedule mixing every kind over the first ~3 virtual
/// seconds (where the op sequences spend their time).
fn random_fault_schedule(r: &mut SimRng) -> FaultSchedule {
    let mut s = FaultSchedule::new(r.next_u64());
    for _ in 0..r.range_u64(1, 4) {
        let from = SimTime::from_nanos(r.range_u64(0, 3_000_000_000));
        let until = if r.chance(0.8) {
            Some(from + SimDuration::from_nanos(r.range_u64(1_000_000, 1_500_000_000)))
        } else {
            None
        };
        let kind = match r.range_u64(0, 10) {
            0..=4 => FaultKind::TransientErrors {
                rate: r.next_f64().max(0.05),
            },
            5..=6 => FaultKind::LatencySpike {
                extra: SimDuration::from_micros(r.range_u64(100, 5_000)),
            },
            7..=8 => FaultKind::Brownout {
                rate: r.next_f64().max(0.05),
                extra: SimDuration::from_micros(r.range_u64(100, 5_000)),
            },
            _ => FaultKind::Death,
        };
        s.add_window(from, until, kind);
    }
    s
}

/// Random op sequences under random SSD and hypercall-channel fault
/// schedules: the stack degrades (quarantine, fail-open, breakers) but
/// accounting never leaks a page and no read is ever stale (the
/// coherence `debug_assert` in the guest read path is the oracle).
#[test]
fn random_schedules_with_faults_preserve_invariants() {
    let mut rng = SimRng::new(0xE8C4);
    for case in 0..48 {
        let mut r = rng.fork(case);
        let (mut host, vm, cgs) = build_host();
        // Give the SSD store first-class traffic alongside SwitchStore.
        host.set_container_policy(vm, cgs[1], CachePolicy::ssd(40));
        host.set_ssd_fault_schedule(Some(random_fault_schedule(&mut r)));
        if r.chance(0.5) {
            let schedule = random_fault_schedule(&mut r);
            assert!(host.set_channel_fault_schedule(vm, Some(schedule)));
        }
        let mut now = SimTime::ZERO;
        for _ in 0..r.range_u64(1, 300) {
            let op = gen_op(&mut r);
            now = apply_op(&mut host, vm, &cgs, now, &op);
            check_invariants(&host, vm, &cgs);
        }
    }
}

/// Crash/reboot cycles under random workloads: an abrupt crash reclaims
/// every cache page the VM owned, and a reboot under the very same VM
/// and cgroup ids never observes stale pre-crash data (again policed by
/// the in-path version oracle).
#[test]
fn crash_reboot_cycles_reclaim_pages_and_never_serve_stale() {
    let mut rng = SimRng::new(0xE8C5);
    for case in 0..32 {
        let mut r = rng.fork(case);
        let (mut host, vm, mut cgs) = build_host();
        let mut now = SimTime::ZERO;
        for _round in 0..r.range_u64(1, 4) {
            for _ in 0..r.range_u64(1, 80) {
                let op = gen_op(&mut r);
                now = apply_op(&mut host, vm, &cgs, now, &op);
            }
            assert!(host.shutdown_vm(vm));
            let totals = host.cache_totals();
            assert_eq!(totals.mem_used_pages, 0, "crash reclaims memory pages");
            assert_eq!(totals.ssd_used_pages, 0, "crash reclaims SSD pages");
            // Reboot under the same domain id; the fresh guest hands out
            // the same cgroup (and thus pool-facing) ids again.
            assert!(host.boot_vm_with_id(vm, 2, 100));
            let c0 = host.create_container(vm, "c0", 12, CachePolicy::mem(60));
            let c1 = host.create_container(vm, "c1", 12, CachePolicy::mem(40));
            host.anon_reserve(vm, c0, 16);
            host.anon_reserve(vm, c1, 16);
            assert_eq!([c0, c1], cgs, "reboot reuses the same cgroup ids");
            cgs = [c0, c1];
            // Blocks written before the crash must never be served from
            // a pre-crash cached copy.
            for _ in 0..8 {
                let file = r.range_u64(0, 4);
                let block = r.range_u64(0, 32);
                let addr = BlockAddr::new(vm_file(vm, file + 1), block);
                now = host.read(now, vm, cgs[0], addr).finish;
            }
            check_invariants(&host, vm, &cgs);
        }
    }
}

/// Written data survives arbitrary eviction pressure: after writing a
/// marker block and fsyncing, any amount of churn followed by a read
/// of the marker never panics the coherence check and always succeeds.
#[test]
fn durability_under_churn() {
    let mut rng = SimRng::new(0xE8C3);
    for case in 0..64 {
        let mut r = rng.fork(case);
        let (mut host, vm, cgs) = build_host();
        let marker_block = r.range_u64(0, 32);
        let marker = BlockAddr::new(vm_file(vm, 99), marker_block);
        let mut now = SimTime::ZERO;
        now = host.write(now, vm, cgs[0], marker).finish;
        now = host.fsync(now, vm, cgs[0], vm_file(vm, 99));
        for _ in 0..r.range_u64(0, 150) {
            let file = r.range_u64(0, 4);
            let block = r.range_u64(0, 32);
            let addr = BlockAddr::new(vm_file(vm, file + 1), block);
            now = host.read(now, vm, cgs[1], addr).finish;
        }
        // The coherence assertion inside read() validates the version.
        let res = host.read(now, vm, cgs[0], marker);
        assert!(res.finish > now);
    }
}
