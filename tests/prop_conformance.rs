//! The conformance battery: one suite every engine answers to, generic
//! over the engine, run on the serial engine and on the sharded one at 1
//! and 16 shards. [`NullCache`] runs the parts that need nothing but
//! [`SecondChanceCache`].
//!
//! A seeded stream of puts, gets (scalar and batched), flushes, file
//! flushes, migrations, policy changes and pool destroys drives each
//! engine, in every partition mode, with the ghost filter off and on.
//! A disk-version oracle follows the stream: a guest write bumps a
//! block's version before its flush, a put stores the version on disk,
//! and every file belongs to one pool of its VM until a migration or a
//! destroy hands it to another. After every step:
//!
//! * **Exclusivity** — a hit takes the block out (the same get again
//!   misses), and no block is resident anywhere but in the pool that
//!   owns its file.
//! * **Never stale** — every hit, and every resident entry, carries the
//!   version on disk.
//! * **Monotone flush epochs** — no flush returns an epoch below an
//!   earlier one, and a journaling engine never returns 0.
//! * **`pool_stats` arithmetic** — each live pool's gets, hits and puts
//!   are the calls and outcomes the stream saw, no store faulted, its
//!   resident pages are its entries, and a destroyed pool has no stats.
//! * **Audit-clean** — the engine's auditor finds nothing.

use std::collections::BTreeMap;

use ddc_core::cleancache::{NullCache, SecondChanceCache};
use ddc_core::concurrent::ShardedCache;
use ddc_core::hypercache::Engine;
use ddc_core::prelude::*;

const MODES: [PartitionMode; 3] = [
    PartitionMode::DoubleDecker,
    PartitionMode::Global,
    PartitionMode::Strict,
];

/// Steps of each stream.
const STEPS: u64 = 1_500;

/// Blocks per file.
const BLOCKS: u64 = 24;

/// What the stream knows: the disk, who owns each file, the live pools
/// and what each was asked and answered.
#[derive(Default)]
struct Model {
    disk: BTreeMap<(VmId, BlockAddr), PageVersion>,
    owner: BTreeMap<(VmId, FileId), PoolId>,
    /// Live pools: `(gets, hits, puts)` each saw.
    live: BTreeMap<(VmId, PoolId), (u64, u64, u64)>,
    destroyed: Vec<(VmId, PoolId)>,
    last_epoch: u64,
    /// Hits over the whole stream, and evictions of the pools destroyed.
    hits: u64,
    evicted: u64,
}

impl Model {
    fn version(&self, vm: VmId, addr: BlockAddr) -> PageVersion {
        self.disk
            .get(&(vm, addr))
            .copied()
            .unwrap_or(PageVersion::INITIAL)
    }

    fn write(&mut self, vm: VmId, addr: BlockAddr) {
        let v = self.version(vm, addr).bump();
        self.disk.insert((vm, addr), v);
    }

    fn pools_of(&self, vm: VmId) -> Vec<PoolId> {
        let live = self.live.keys().filter(|k| k.0 == vm);
        live.map(|k| k.1).collect()
    }

    fn files_of(&self, vm: VmId, pool: PoolId) -> Vec<FileId> {
        let owned = self.owner.iter().filter(|(k, &p)| k.0 == vm && p == pool);
        owned.map(|(k, _)| k.1).collect()
    }
}

fn policy(rng: &mut SimRng) -> CachePolicy {
    let weight = [0, 40, 100, 250][rng.range_usize(0, 4)];
    match rng.range_u64(0, 3) {
        0 => CachePolicy::mem(weight),
        1 => CachePolicy::ssd(weight),
        _ => CachePolicy::hybrid(weight),
    }
}

/// Drives one seeded stream, holding the cache to the
/// [`SecondChanceCache`]-level claims itself and handing it to `deep`
/// after every step for the claims that need more.
fn battery<C: SecondChanceCache>(
    cache: &mut C,
    seed: u64,
    journaled: bool,
    what: &str,
    mut deep: impl FnMut(&C, &Model, &str),
) -> Model {
    let mut rng = SimRng::new(seed);
    let mut m = Model::default();
    for (vm, files) in [(VmId(1), 1..7), (VmId(2), 7..13)] {
        let pools = [
            cache.create_pool(vm, CachePolicy::mem(100)),
            cache.create_pool(vm, CachePolicy::hybrid(80)),
            cache.create_pool(vm, CachePolicy::ssd(60)),
        ];
        for pool in pools {
            m.live.insert((vm, pool), (0, 0, 0));
        }
        for f in files {
            m.owner.insert((vm, FileId(f)), pools[f as usize % 3]);
        }
    }
    for step in 0..STEPS {
        let now = SimTime::from_nanos(step * 1_000_000);
        let what = format!("{what}, step {step}");
        let vm = VmId(rng.range_u64(1, 3) as u32);
        let files: Vec<FileId> = m.owner.keys().filter(|k| k.0 == vm).map(|k| k.1).collect();
        let file = files[rng.range_usize(0, files.len())];
        let pool = m.owner[&(vm, file)];
        let addr = BlockAddr::new(file, rng.range_u64(0, BLOCKS));
        let mut epochs = Vec::new();
        match rng.range_u64(0, 200) {
            0..=79 => {
                let stored = cache.put(now, vm, pool, addr, m.version(vm, addr));
                m.live.get_mut(&(vm, pool)).unwrap().2 += u64::from(stored.is_stored());
            }
            80..=109 => {
                let got = cache.get(now, vm, pool, addr);
                let (mut gets, mut hits) = (1, 0);
                if let GetOutcome::Hit { version, .. } = got {
                    assert_eq!(version, m.version(vm, addr), "{what}: stale hit");
                    // Exclusive: the hit took it out.
                    let again = cache.get(now, vm, pool, addr);
                    assert_eq!(again, GetOutcome::Miss, "{what}: a hit left a copy");
                    (gets, hits) = (2, 1);
                }
                m.hits += hits;
                let counts = m.live.get_mut(&(vm, pool)).unwrap();
                (counts.0, counts.1) = (counts.0 + gets, counts.1 + hits);
            }
            110..=129 => {
                m.write(vm, addr);
                epochs.push(cache.flush(vm, pool, addr));
            }
            130..=137 => {
                let addrs: Vec<BlockAddr> = (0..4)
                    .map(|_| BlockAddr::new(file, rng.range_u64(0, BLOCKS)))
                    .collect();
                for &a in &addrs {
                    m.write(vm, a);
                }
                epochs.push(cache.flush_many(vm, pool, &addrs));
            }
            138..=141 => {
                // The file is rewritten whole.
                for block in 0..BLOCKS {
                    m.write(vm, BlockAddr::new(file, block));
                }
                epochs.push(cache.flush_file(vm, pool, file));
            }
            142..=161 => {
                let pages: Vec<(BlockAddr, PageVersion)> = (0..8)
                    .map(|_| BlockAddr::new(file, rng.range_u64(0, BLOCKS)))
                    .map(|a| (a, m.version(vm, a)))
                    .collect();
                let stored = cache.put_many(now, vm, pool, &pages);
                let n = stored.iter().filter(|o| o.is_stored()).count();
                m.live.get_mut(&(vm, pool)).unwrap().2 += n as u64;
            }
            162..=181 => {
                let addrs: Vec<BlockAddr> = (0..8)
                    .map(|_| BlockAddr::new(file, rng.range_u64(0, BLOCKS)))
                    .collect();
                let got = cache.get_many(now, vm, pool, &addrs);
                let mut taken = Vec::new();
                for (&a, outcome) in addrs.iter().zip(&got) {
                    if let GetOutcome::Hit { version, .. } = outcome {
                        assert_eq!(*version, m.version(vm, a), "{what}: stale batch hit");
                        assert!(!taken.contains(&a), "{what}: {a:?} hit twice in one batch");
                        taken.push(a);
                    }
                }
                let counts = m.live.get_mut(&(vm, pool)).unwrap();
                counts.0 += addrs.len() as u64;
                counts.1 += taken.len() as u64;
                m.hits += taken.len() as u64;
            }
            182..=189 => {
                // The file changes hands inside its VM, block by block.
                let others: Vec<PoolId> =
                    m.pools_of(vm).into_iter().filter(|&p| p != pool).collect();
                let to = others[rng.range_usize(0, others.len())];
                for block in 0..BLOCKS {
                    cache.migrate_object(vm, pool, to, BlockAddr::new(file, block));
                }
                m.owner.insert((vm, file), to);
            }
            190..=197 => cache.set_policy(vm, pool, policy(&mut rng)),
            _ => {
                // The pool goes; a fresh one inherits its files.
                m.evicted += cache.pool_stats(vm, pool).map_or(0, |s| s.evictions);
                cache.destroy_pool(vm, pool);
                m.live.remove(&(vm, pool));
                m.destroyed.push((vm, pool));
                let fresh = cache.create_pool(vm, policy(&mut rng));
                m.live.insert((vm, fresh), (0, 0, 0));
                for f in m.files_of(vm, pool) {
                    m.owner.insert((vm, f), fresh);
                }
            }
        }
        for epoch in epochs {
            assert!(
                epoch >= m.last_epoch,
                "{what}: epoch {epoch} after {}",
                m.last_epoch
            );
            assert!(!journaled || epoch > 0, "{what}: a journaled flush acked 0");
            m.last_epoch = epoch;
        }
        deep(cache, &m, &what);
    }
    m
}

/// The claims that need the engine's resident set, its stats and its
/// auditor.
fn deep_checks<E: Engine>(cache: &E, m: &Model, what: &str) {
    let mut resident: BTreeMap<(VmId, PoolId), u64> = BTreeMap::new();
    for (vm, pool, addr, version) in cache.entries() {
        assert_eq!(
            m.owner.get(&(vm, addr.file)),
            Some(&pool),
            "{what}: {vm} {addr:?} resident outside its file's pool"
        );
        assert_eq!(
            version,
            m.version(vm, addr),
            "{what}: {vm} {addr:?} resident stale"
        );
        *resident.entry((vm, pool)).or_default() += 1;
    }
    for (&(vm, pool), &(gets, hits, puts)) in &m.live {
        let s = cache.pool_stats(vm, pool).expect("a live pool has stats");
        assert_eq!(
            (s.gets, s.hits, s.puts, s.failed_gets, s.failed_puts),
            (gets, hits, puts, 0, 0),
            "{what}: {vm} {pool} stats"
        );
        let pages = resident.get(&(vm, pool)).copied().unwrap_or(0);
        assert_eq!(s.total_pages(), pages, "{what}: {vm} {pool} pages");
    }
    for &(vm, pool) in &m.destroyed {
        assert_eq!(cache.pool_stats(vm, pool), None, "{what}: {vm} {pool}");
    }
    let findings = cache.audit();
    assert!(findings.is_empty(), "{what}: {findings:?}");
}

fn configs() -> Vec<(String, CacheConfig)> {
    let mut out = Vec::new();
    for mode in MODES {
        for (name, admission) in [
            ("admit-all", AdmissionConfig::off()),
            (
                "ghost",
                AdmissionConfig {
                    ghost_window: 64,
                    ssd_ttl: 0,
                },
            ),
        ] {
            let config = CacheConfig::mem_and_ssd(24, 48)
                .with_mode(mode)
                .with_admission(admission);
            out.push((format!("{mode:?}, {name}"), config));
        }
    }
    out
}

fn conform<E: Engine>(shards: usize) {
    for (i, (name, config)) in configs().into_iter().enumerate() {
        let mut cache = E::build(config, shards);
        cache.enable_journal();
        cache.add_vm(VmId(1), 100);
        cache.add_vm(VmId(2), 300);
        let what = format!("{shards} shards, {name}");
        let m = battery(
            &mut cache,
            0xC0_F0 + i as u64,
            true,
            &what,
            deep_checks::<E>,
        );
        // The stream reached what it is about: hits, and evictions.
        let stats = m.live.keys().filter_map(|&(vm, p)| cache.pool_stats(vm, p));
        let evictions = m.evicted + stats.map(|s| s.evictions).sum::<u64>();
        let hits = m.hits;
        assert!(
            hits > 50 && evictions > 50,
            "{what}: {hits} hits, {evictions} evictions"
        );
    }
}

#[test]
fn the_serial_engine_conforms() {
    conform::<DoubleDeckerCache>(1);
}

#[test]
fn one_shard_conforms() {
    conform::<ShardedCache>(1);
}

#[test]
fn sixteen_shards_conform() {
    conform::<ShardedCache>(16);
}

/// What a get answered, without the device time the serial engine
/// charges: the version a hit served, `None` for a miss.
fn answer(outcome: &GetOutcome) -> Option<PageVersion> {
    match *outcome {
        GetOutcome::Hit { version, .. } => Some(version),
        GetOutcome::Miss => None,
        GetOutcome::Failed { .. } => panic!("no store faults here"),
    }
}

/// One engine's answers to the mixed `get_many` script: every batch's
/// outcomes, then each pool's stats (the unknown ones included).
#[allow(clippy::type_complexity)]
fn mixed_get_many<E: Engine>(
    shards: usize,
) -> (Vec<Vec<Option<PageVersion>>>, Vec<Option<PoolStats>>) {
    let mut cache = E::build(CacheConfig::mem_and_ssd(64, 64), shards);
    cache.add_vm(VmId(1), 100);
    let pools = [
        cache.create_pool(VmId(1), CachePolicy::mem(100)),
        cache.create_pool(VmId(1), CachePolicy::hybrid(80)),
        cache.create_pool(VmId(1), CachePolicy::ssd(60)),
    ];
    let gone = cache.create_pool(VmId(1), CachePolicy::mem(100));
    let never = PoolId(gone.0 + 100);
    let file = |pool: PoolId| FileId(1 + u64::from(pool.0));
    let now = SimTime::from_secs(1);
    for pool in pools.into_iter().chain([gone]) {
        let pages: Vec<(BlockAddr, PageVersion)> = (0..12)
            .map(|b| (BlockAddr::new(file(pool), b * 2), PageVersion(b + 1)))
            .collect();
        cache.put_many(now, VmId(1), pool, &pages);
    }
    cache.destroy_pool(VmId(1), gone);
    // Even blocks were stored, odd ones never were; every batch asks
    // for both, some twice, and the same batch goes to the pool that
    // was destroyed, to one that never existed and to an unknown VM.
    let batch = |pool: PoolId| -> Vec<BlockAddr> {
        [0, 1, 2, 2, 3, 7, 10, 22, 23, 40]
            .map(|b| BlockAddr::new(file(pool), b))
            .to_vec()
    };
    let mut out = Vec::new();
    for (vm, pool) in pools
        .into_iter()
        .chain([gone, never])
        .map(|p| (VmId(1), p))
        .chain([(VmId(9), pools[0])])
    {
        // Twice: what the first batch took is gone for the second.
        for _ in 0..2 {
            let got = cache.get_many(now, vm, pool, &batch(pool));
            out.push(got.iter().map(answer).collect());
        }
        out.push(vec![answer(&cache.get(now, vm, pool, batch(pool)[0]))]);
    }
    let stats = pools
        .into_iter()
        .chain([gone, never])
        .map(|p| cache.pool_stats(VmId(1), p))
        .collect();
    assert!(cache.audit().is_empty(), "{shards} shards");
    (out, stats)
}

/// A `get_many` batch that mixes hits, absent blocks and repeats, sent
/// to live pools, a destroyed pool, a pool that never existed and an
/// unknown VM: every engine answers with the serial engine's outcomes
/// and counts the serial engine's `pool_stats`.
#[test]
fn a_mixed_get_many_answers_as_the_serial_engine_does() {
    let serial = mixed_get_many::<DoubleDeckerCache>(1);
    let hits = serial.0.iter().flatten().filter(|o| o.is_some()).count();
    // Blocks 0, 2, 10 and 22 of each live pool, once each.
    assert_eq!(hits, 12);
    assert_eq!(serial.1[3..], [None, None]);
    for shards in [1, 16] {
        assert_eq!(
            mixed_get_many::<ShardedCache>(shards),
            serial,
            "{shards} shards"
        );
    }
}

#[test]
fn the_null_cache_conforms_where_it_can() {
    let mut cache = NullCache::new();
    let m = battery(&mut cache, 0xC0_F0, false, "null", |_, _, _| {});
    assert_eq!(m.hits, 0);
}
