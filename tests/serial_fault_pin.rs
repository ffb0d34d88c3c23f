//! A pin of the serial engine's SSD fault paths: seeded streams under an
//! SSD fault schedule whose every outcome, final journal image and
//! cache totals hash to a recorded literal, in every partition mode and
//! with ghost admission on and off (like `ci.sh`'s journal-bytes gate, a
//! change that moves one on purpose edits it here and says why).
//!
//! What the streams go through, and the run asserts they reach:
//! put, get and trickle-down writes failing into a quarantine that
//! drains the SSD tier, recovery probes failing and succeeding, puts
//! redirected to memory while the tier is out, stored copies
//! rotting in memory and on the SSD (`corrupt_entry`) so verify-on-read
//! fails them, and policy changes re-homing a pool's pages into a
//! quarantined or faulting SSD tier.

use ddc_core::cleancache::SecondChanceCache;
use ddc_core::prelude::*;

/// FNV-1a over 64-bit words, and the puts that failed.
struct Digest(u64, u64);

impl Digest {
    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn put(&mut self, outcome: PutOutcome) {
        match outcome {
            PutOutcome::Stored { finish } => (self.eat(1), self.eat(finish.as_nanos())),
            PutOutcome::Rejected => (self.eat(2), ()),
            PutOutcome::Failed { finish } => {
                self.1 += 1;
                (self.eat(3), self.eat(finish.as_nanos()))
            }
        };
    }

    fn get(&mut self, outcome: GetOutcome) {
        match outcome {
            GetOutcome::Hit { finish, version } => {
                self.eat(4);
                self.eat(finish.as_nanos());
                self.eat(version.0);
            }
            GetOutcome::Miss => self.eat(5),
            GetOutcome::Failed { finish } => (self.eat(6), self.eat(finish.as_nanos())).1,
        }
    }
}

/// The SSD's fault schedule: error bursts, a brownout, a latency spike
/// and a short total outage, across the stream's five simulated seconds.
fn faults(seed: u64) -> FaultSchedule {
    let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
    let mut s = FaultSchedule::new(seed);
    s.add_window(
        ms(200),
        Some(ms(1_400)),
        FaultKind::TransientErrors { rate: 0.05 },
    );
    s.add_window(
        ms(1_500),
        Some(ms(2_500)),
        FaultKind::Brownout {
            rate: 0.2,
            extra: SimDuration::from_micros(400),
        },
    );
    s.add_window(
        ms(3_000),
        Some(ms(3_400)),
        FaultKind::LatencySpike {
            extra: SimDuration::from_micros(900),
        },
    );
    s.add_window(
        ms(4_000),
        Some(ms(4_300)),
        FaultKind::TransientErrors { rate: 1.0 },
    );
    s
}

const STEPS: u64 = 5_000;

/// One pinned stream: returns the digest, the puts that failed and the
/// final totals.
fn run(mode: PartitionMode, ghost: bool, seed: u64) -> (u64, u64, CacheTotals) {
    let admission = if ghost {
        AdmissionConfig {
            ghost_window: 256,
            ssd_ttl: 0,
        }
    } else {
        AdmissionConfig::off()
    };
    let config = CacheConfig::mem_and_ssd(48, 96)
        .with_mode(mode)
        .with_admission(admission);
    let mut cache = DoubleDeckerCache::new(config);
    cache.enable_journal();
    cache.set_ssd_fault_schedule(Some(faults(seed ^ 0xFA17)));
    cache.add_vm(VmId(1), 100);
    cache.add_vm(VmId(2), 200);
    // `(vm, pool, file)`: a memory pool, an SSD pool and two hybrids.
    let pools = [
        (
            VmId(1),
            cache.create_pool(VmId(1), CachePolicy::mem(100)),
            1,
        ),
        (
            VmId(1),
            cache.create_pool(VmId(1), CachePolicy::hybrid(80)),
            2,
        ),
        (
            VmId(2),
            cache.create_pool(VmId(2), CachePolicy::ssd(100)),
            3,
        ),
        (
            VmId(2),
            cache.create_pool(VmId(2), CachePolicy::hybrid(120)),
            4,
        ),
    ];
    let mut version = std::collections::BTreeMap::new();
    let mut rng = SimRng::new(seed);
    let mut d = Digest(0xcbf2_9ce4_8422_2325, 0);
    for step in 0..STEPS {
        let now = SimTime::from_nanos(step * 1_000_000);
        let pi = rng.range_usize(0, pools.len());
        let (vm, pool, file) = pools[pi];
        let addr = BlockAddr::new(FileId(file), rng.range_u64(0, 40));
        let v = *version.entry(addr).or_insert(PageVersion::INITIAL);
        match rng.range_u64(0, 100) {
            0..=49 => d.put(cache.put(now, vm, pool, addr, v)),
            50..=74 => d.get(cache.get(now, vm, pool, addr)),
            75..=82 => {
                version.insert(addr, v.bump());
                d.eat(cache.flush(vm, pool, addr));
            }
            83..=84 => {
                for block in 0..40 {
                    let a = BlockAddr::new(FileId(file), block);
                    let v = version.entry(a).or_insert(PageVersion::INITIAL);
                    *v = v.bump();
                }
                d.eat(cache.flush_file(vm, pool, FileId(file)));
            }
            85..=91 => d.eat(u64::from(cache.corrupt_entry(vm, pool, addr))),
            92..=94 => {
                // The memory pool turns hybrid and back (its memory pages
                // then stand over a hybrid share and trickle down), the
                // SSD pool trades stores with memory, the hybrids
                // re-home into the SSD tier and back.
                let policy = match (pi, rng.range_u64(0, 2)) {
                    (0, 0) => CachePolicy::hybrid(100),
                    (0, _) | (2, 0) => CachePolicy::mem(100),
                    (2, _) => CachePolicy::ssd(100),
                    (_, 0) => CachePolicy::ssd(90),
                    _ => CachePolicy::hybrid(90),
                };
                cache.set_policy(vm, pool, policy);
            }
            95 => cache.set_vm_weight(vm, rng.range_u64(1, 4) * 60),
            _ => {
                let pages: Vec<(BlockAddr, PageVersion)> = (0..6)
                    .map(|_| BlockAddr::new(FileId(file), rng.range_u64(0, 40)))
                    .map(|a| (a, *version.entry(a).or_insert(PageVersion::INITIAL)))
                    .collect();
                for outcome in cache.put_many(now, vm, pool, &pages) {
                    d.put(outcome);
                }
            }
        }
    }
    fault_epilogue(&mut cache, &pools, &mut d);
    for &byte in cache.journal_bytes().expect("journaling on") {
        d.eat(u64::from(byte));
    }
    let totals = cache.totals();
    for word in [
        totals.mem_used_pages,
        totals.ssd_used_pages,
        totals.evictions,
        totals.trickle_downs,
        totals.ssd_quarantines,
        totals.ssd_recoveries,
        totals.quarantine_invalidated_pages,
        totals.failed_gets,
        totals.failed_puts,
    ] {
        d.eat(word);
    }
    let findings = ddc_core::hypercache::audit(&cache);
    assert!(findings.is_empty(), "{mode:?}, ghost {ghost}: {findings:?}");
    (d.0, d.1, totals)
}

/// Every SSD write fails from `from` on.
fn outage(from: SimTime) -> Option<FaultSchedule> {
    let errors = FaultKind::TransientErrors { rate: 1.0 };
    Some(FaultSchedule::new(7).with_window(from, None, errors))
}

/// The two writes a put does not make, failing on purpose: a policy
/// change re-homing memory pages into an SSD tier that errors, then a
/// hybrid pool's memory pages trickling down into one.
fn fault_epilogue(cache: &mut DoubleDeckerCache, pools: &[(VmId, PoolId, u64); 4], d: &mut Digest) {
    let secs = SimTime::from_secs;
    let policies = [
        CachePolicy::mem(100),
        CachePolicy::hybrid(80),
        CachePolicy::ssd(100),
        CachePolicy::hybrid(120),
    ];
    for (&(vm, pool, _), policy) in pools.iter().zip(policies) {
        cache.set_policy(vm, pool, policy);
    }
    let (vm, ssd_pool, _) = pools[2];
    let probe = |cache: &mut DoubleDeckerCache, d: &mut Digest, at: SimTime, block: u64| {
        // Past any backoff: the probe, if the tier is out, succeeds.
        cache.set_ssd_fault_schedule(None);
        let addr = BlockAddr::new(FileId(90), block);
        d.put(cache.put(at, vm, ssd_pool, addr, PageVersion::INITIAL));
        assert!(!cache.ssd_quarantined());
    };
    probe(cache, d, secs(100), 0);
    // Re-homing: the first write faults, the rest find the tier out.
    let (vm, mem_pool, _) = pools[0];
    for block in 0..8 {
        let addr = BlockAddr::new(FileId(91), block);
        d.put(cache.put(secs(100), vm, mem_pool, addr, PageVersion::INITIAL));
    }
    cache.set_ssd_fault_schedule(outage(SimTime::ZERO));
    cache.set_policy(vm, mem_pool, CachePolicy::ssd(100));
    assert!(cache.ssd_quarantined());
    cache.set_policy(vm, mem_pool, CachePolicy::mem(100));
    // Trickle-down: a hybrid pool over its memory share is the victim.
    probe(cache, d, secs(200), 1);
    let (vm, hybrid, _) = pools[1];
    for block in 0..48 {
        let addr = BlockAddr::new(FileId(92), block);
        d.put(cache.put(secs(200), vm, hybrid, addr, PageVersion::INITIAL));
    }
    cache.set_vm_weight(vm, 1);
    cache.set_ssd_fault_schedule(outage(secs(300)));
    let (vm, other, _) = pools[3];
    for block in 0..48 {
        let addr = BlockAddr::new(FileId(93), block);
        d.put(cache.put(secs(300), vm, other, addr, PageVersion::INITIAL));
    }
}

#[test]
fn the_serial_fault_paths_are_pinned() {
    use PartitionMode::{DoubleDecker, Global, Strict};
    // `(mode, ghost admission, seed, digest)`.
    let pins = [
        (DoubleDecker, false, 0xF1_0000, 0x36d8_1633_563f_0ccd),
        (DoubleDecker, true, 0xF1_0001, 0xd248_bd09_2036_fdb4),
        (Global, false, 0xF1_0002, 0x1c4a_0ac1_7152_ac9e),
        (Global, true, 0xF1_0003, 0x1ad0_ac79_37af_5826),
        (Strict, false, 0xF1_0004, 0x801e_d7b8_7aff_f18c),
        (Strict, true, 0xF1_0005, 0xc59e_a452_d567_f777),
    ];
    for (mode, ghost, seed, pinned) in pins {
        let (digest, put_faults, t) = run(mode, ghost, seed);
        assert!(
            t.ssd_quarantines >= 2
                && t.ssd_recoveries >= 1
                && t.quarantine_invalidated_pages > 0
                && t.failed_gets > 0
                && t.failed_puts > 0
                && (t.trickle_downs > 0 || mode != PartitionMode::DoubleDecker)
                // Writes no put made failed too: a re-homing, and in
                // DoubleDecker mode with every spill admitted a trickle.
                && t.failed_puts > put_faults
                && (t.failed_puts > put_faults + 1 || ghost || mode != DoubleDecker),
            "{mode:?}, ghost {ghost}: the stream missed a fault path: {t:?}"
        );
        assert_eq!(digest, pinned, "{mode:?}, ghost {ghost}: {t:?}");
    }
}
