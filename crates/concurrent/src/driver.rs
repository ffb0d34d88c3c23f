//! Multi-threaded VM driver for the sharded serving plane.
//!
//! Each guest VM drives its hypercall stream — batched writes
//! (`flush_many`), stores (`put_many`) and lookups (`get_many`) on a
//! [`HypercallChannel`] — from its own deterministic seeded RNG. The
//! driver runs in two modes:
//!
//! * **Equivalence mode** ([`run_equivalence`]) — single-threaded,
//!   round-robin across VMs, against any [`Engine`]: the serial
//!   `DoubleDeckerCache` or the sharded [`ShardedCache`]. Both runs
//!   see the *identical* hypercall stream (each VM's RNG is a
//!   deterministic fork of the config seed), so the resulting
//!   [`EquivalenceReport`] JSON must be byte-identical — this is the
//!   crate's determinism contract, enforced by the workspace property
//!   tests and `repro stress`.
//! * **Stress mode** ([`run_stress`]) — `threads` OS threads share one
//!   [`ShardedCache`], each owning a disjoint subset of the VMs. The
//!   same drive loop runs [`CrashHarness`]. After the join the run is
//!   gated on the cross-shard auditor
//!   ([`crate::audit()`]) returning zero findings and on the stale-read
//!   oracle counting zero violations.
//!
//! # Stale-read oracle
//!
//! Every VM keeps an authoritative model of its disk: a per-pool map
//! `addr → version` bumped on each simulated write (which also flushes
//! the cached copy, like a real guest invalidating a clean page). A
//! cache hit must return exactly the modeled version. The oracle stays
//! valid under concurrency because pools are VM-private: other threads
//! only ever *remove* this VM's entries (cross-shard eviction) or
//! re-insert them with the same version (hybrid trickle-down), so any
//! hit still carries the last version this VM put — a mismatch is a
//! genuine coherence bug, never a false positive.

use std::time::Duration;

use ddc_cleancache::{
    CachePolicy, GetOutcome, HypercallChannel, PageVersion, PoolId, SecondChanceCache, VmId,
};
use ddc_hypercache::{AuditFinding, CacheConfig, Engine};
use ddc_json::Json;
use ddc_metrics::{snapshot_json, CounterSnapshot};
use ddc_sim::{BreakerConfig, FaultSchedule, FxHashMap, SimDuration, SimRng, SimTime};
use ddc_storage::{
    BlockAddr, ChunkStore, FileId, RemoteConfig, RemoteCounters, RemoteError, RemoteFetchConfig,
    RemoteId,
};

use crate::audit;
use crate::sharded::{ShardedCache, ShardedRecoveryReport};

/// Remote chunk-store attachment for a driver run: one simulated store
/// shared by every pool, bound under the full fault-tolerance stack.
/// Cold misses (blocks the guests never wrote) are then served by the
/// remote instead of falling through.
#[derive(Clone, Debug)]
pub struct RemoteSetup {
    /// Latency and edge-placement model of the store.
    pub config: RemoteConfig,
    /// Fault schedule installed on the store (partitions, brownouts,
    /// edge-cache flaps). `None` = healthy network.
    pub faults: Option<FaultSchedule>,
    /// Fault-tolerance parameters every binding runs under.
    pub fetch: RemoteFetchConfig,
}

impl RemoteSetup {
    /// A store tuned to the driver's microsecond tick scale (ticks are
    /// 1µs apart, so CDN-scale millisecond RTTs would pin every fetch
    /// in flight forever and shed the whole run). Latencies are
    /// nanosecond-scale; the fault-tolerance stack keeps the same
    /// shape as the CDN defaults (3 attempts, hedging, breaker).
    pub fn for_driver(seed: u64) -> RemoteSetup {
        RemoteSetup {
            config: RemoteConfig {
                chunk_pages: 16,
                edge_rtt: SimDuration::from_nanos(300),
                origin_rtt: SimDuration::from_nanos(4_000),
                page_transfer: SimDuration::from_nanos(20),
                edge_hit_rate: 0.8,
                buffer_read: SimDuration::from_nanos(50),
                buffer_chunks: 8,
                seed,
            },
            faults: None,
            fetch: RemoteFetchConfig {
                deadline: SimDuration::from_nanos(12_000),
                max_attempts: 3,
                backoff_base: SimDuration::from_nanos(500),
                backoff_max: SimDuration::from_nanos(4_000),
                hedge_after: SimDuration::from_nanos(2_000),
                inflight_cap: 64,
                breaker: BreakerConfig {
                    threshold: 3,
                    initial_backoff: SimDuration::from_nanos(10_000),
                    max_backoff: SimDuration::from_nanos(1_000_000),
                },
            },
        }
    }

    /// Installs a fault schedule on the store.
    pub fn with_faults(mut self, faults: FaultSchedule) -> RemoteSetup {
        self.faults = Some(faults);
        self
    }
}

/// Workload shape for the driver (both modes).
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Guest VMs (one OS thread each in stress mode at `threads >=
    /// vms`; otherwise VMs are distributed round-robin over threads).
    pub vms: u32,
    /// Cleancache pools per VM (policies cycle mem/ssd/hybrid).
    pub pools_per_vm: u32,
    /// Ticks per VM; each tick issues one write+put+get batch trio
    /// against the pool `tick % pools_per_vm`.
    pub ticks: u64,
    /// Distinct block addresses per pool.
    pub working_set: u64,
    /// Simulated guest writes (version bump + `flush_many`) per tick.
    pub writes_per_tick: u64,
    /// Page stores (`put_many`) per tick.
    pub puts_per_tick: u64,
    /// Page lookups (`get_many`) per tick.
    pub gets_per_tick: u64,
    /// Capacity and partition mode of the cache under test.
    pub cache: CacheConfig,
    /// Shard count for the sharded engine.
    pub shards: usize,
    /// Root seed; every VM forks a private deterministic stream.
    pub seed: u64,
    /// Journal both engines (per-shard segments + group commit on the
    /// sharded plane, the WAL on the serial plane). With this on,
    /// `flush`/`flush_many` return real durability epochs and the
    /// equivalence contract extends to the per-VM flush-epoch
    /// watermarks. Presets leave it off (the volatile plane).
    pub journal: bool,
    /// Remote chunk store every pool is bound to (`None` = no remote
    /// tier; cold misses stay misses).
    pub remote: Option<RemoteSetup>,
}

impl StressConfig {
    /// A small configuration for CI smoke runs (a few thousand ops).
    pub fn smoke(seed: u64) -> StressConfig {
        StressConfig {
            vms: 4,
            pools_per_vm: 2,
            ticks: 200,
            working_set: 128,
            writes_per_tick: 2,
            puts_per_tick: 6,
            gets_per_tick: 6,
            cache: CacheConfig::mem_and_ssd(512, 1024),
            shards: 8,
            seed,
            journal: false,
            remote: None,
        }
    }

    /// A put-heavy storm against a deliberately undersized store: most
    /// puts force an eviction, so the run spends its time in the
    /// eviction path under thread contention. Used by the
    /// `stress_eviction_storm` work cell and this crate's contention test.
    pub fn eviction_storm(seed: u64) -> StressConfig {
        StressConfig {
            vms: 8,
            pools_per_vm: 2,
            ticks: 500,
            working_set: 512,
            writes_per_tick: 2,
            puts_per_tick: 16,
            gets_per_tick: 4,
            cache: CacheConfig::mem_and_ssd(256, 512),
            shards: 16,
            seed,
            journal: false,
            remote: None,
        }
    }

    /// A 95/5 read-heavy mix (19 gets per put). Exclusive semantics
    /// keep the steady-state hit rate low, so nearly every get is a
    /// miss, answered under its home shard's lock like a hit. Used by
    /// the `stress_read_heavy` work cell and `repro stress --read-heavy`.
    pub fn read_heavy(seed: u64) -> StressConfig {
        StressConfig {
            vms: 8,
            pools_per_vm: 2,
            ticks: 1_000,
            working_set: 256,
            writes_per_tick: 1,
            puts_per_tick: 1,
            gets_per_tick: 19,
            cache: CacheConfig::mem_and_ssd(4_096, 8_192),
            shards: 16,
            seed,
            journal: false,
            remote: None,
        }
    }

    /// The full stress configuration used by `repro stress`.
    pub fn standard(seed: u64) -> StressConfig {
        StressConfig {
            vms: 8,
            pools_per_vm: 3,
            ticks: 2_000,
            working_set: 512,
            writes_per_tick: 4,
            puts_per_tick: 12,
            gets_per_tick: 12,
            cache: CacheConfig::mem_and_ssd(4_096, 8_192),
            shards: 16,
            seed,
            journal: false,
            remote: None,
        }
    }

    /// A put-dominant mix with large per-tick batches: the workload the
    /// batched write plane exists for. Most of each tick is one big
    /// `put_many` group, so throughput tracks ops-per-lock-acquisition
    /// rather than per-op dispatch. Capacity comfortably covers the
    /// aggregate working set: the cell prices batching itself
    /// (grouping, amortized journaling, hybrid placement), not the
    /// eviction storm `eviction_storm` already measures. Used by the
    /// `stress_write_heavy` and `stress_mixed_write` work cells and
    /// `repro stress --write-heavy`.
    pub fn write_heavy(seed: u64) -> StressConfig {
        StressConfig {
            vms: 8,
            pools_per_vm: 2,
            ticks: 500,
            working_set: 512,
            writes_per_tick: 2,
            puts_per_tick: 64,
            gets_per_tick: 2,
            cache: CacheConfig::mem_and_ssd(16_384, 32_768),
            shards: 16,
            seed,
            journal: false,
            remote: None,
        }
    }

    /// The smoke mix with every pool bound to a healthy remote chunk
    /// store: cold misses now hit the simulated CDN under the full
    /// fault-tolerance stack. Used by `repro remote` and the remote
    /// determinism property tests.
    pub fn remote_smoke(seed: u64) -> StressConfig {
        StressConfig::smoke(seed).with_remote(RemoteSetup::for_driver(seed ^ 0xCD4))
    }

    /// Attaches a remote chunk store to the run.
    pub fn with_remote(mut self, remote: RemoteSetup) -> StressConfig {
        self.remote = Some(remote);
        self
    }

    /// Hypercall operations one VM issues over the whole run.
    pub fn ops_per_vm(&self) -> u64 {
        self.ticks * (self.writes_per_tick + self.puts_per_tick + self.gets_per_tick)
    }

    fn vm_weight(i: u32) -> u64 {
        100 + 50 * (i as u64 % 3)
    }

    fn pool_policy(vm_idx: u32, pool_idx: u32) -> CachePolicy {
        match (vm_idx + pool_idx) % 3 {
            0 => CachePolicy::mem(100),
            1 => CachePolicy::ssd(80),
            _ => CachePolicy::hybrid(60),
        }
    }

    fn file_of(&self, vm_idx: u32, pool_idx: u32) -> FileId {
        FileId(1 + vm_idx as u64 * self.pools_per_vm as u64 + pool_idx as u64)
    }
}

/// One guest VM's driver state: its channel, its private RNG stream and
/// the authoritative disk model backing the stale-read oracle.
struct VmWorker {
    vm: VmId,
    channel: HypercallChannel,
    rng: SimRng,
    pools: Vec<PoolId>,
    files: Vec<FileId>,
    /// Per pool: the version each block last had written to disk.
    models: Vec<FxHashMap<BlockAddr, PageVersion>>,
    working_set: u64,
    writes_per_tick: u64,
    puts_per_tick: u64,
    gets_per_tick: u64,
    stale_reads: u64,
    ops: u64,
}

/// A hypercall budget no tick reaches: the whole tick.
const WHOLE_TICK: u64 = u64::MAX;

impl VmWorker {
    /// Runs one tick against `backend`: a write batch (version bumps +
    /// `flush_many`), a put batch and a get batch checked against the
    /// disk model.
    ///
    /// A crash cuts the stream after `budget` batches-worth of progress
    /// ([`WHOLE_TICK`] for none). The write batch is all-or-nothing
    /// (`budget == 0` skips it entirely) because a guest write and its
    /// invalidating flush hypercall are one unit — a disk model that
    /// moved without its flush having been issued would make the oracle
    /// report false staleness. The put batch is then cut mid-`put_many`
    /// (a prefix of the batch lands), then the get batch; whatever the
    /// budget doesn't reach was never issued.
    fn tick(&mut self, backend: &mut impl SecondChanceCache, tick: u64, budget: u64) {
        if budget == 0 {
            return;
        }
        let now = SimTime::from_nanos(tick.wrapping_mul(1_000));
        let pi = (tick % self.pools.len() as u64) as usize;
        let pool = self.pools[pi];
        let file = self.files[pi];

        // Guest writes: the disk version moves, so the cached clean copy
        // (if any) must be invalidated — one batched flush hypercall.
        let mut written = Vec::with_capacity(self.writes_per_tick as usize);
        for _ in 0..self.writes_per_tick {
            let addr = BlockAddr::new(file, self.rng.next_below(self.working_set));
            let version = self.models[pi].entry(addr).or_insert(PageVersion::INITIAL);
            *version = version.bump();
            written.push(addr);
        }
        self.channel.flush_many(backend, pool, &written);
        let budget = budget - 1;
        let put_count = budget.min(self.puts_per_tick);
        let get_count = (budget - put_count).min(self.gets_per_tick);

        // Page-cache evictions: store the current disk version.
        let mut puts = Vec::with_capacity(put_count as usize);
        for _ in 0..put_count {
            let addr = BlockAddr::new(file, self.rng.next_below(self.working_set));
            let version = self.models[pi]
                .get(&addr)
                .copied()
                .unwrap_or(PageVersion::INITIAL);
            puts.push((addr, version));
        }
        self.channel.put_many(backend, now, pool, &puts);

        // Lookups, each hit checked against the model (stale-read
        // oracle): a hit must carry the exact modeled version.
        let mut lookups = Vec::with_capacity(get_count as usize);
        for _ in 0..get_count {
            lookups.push(BlockAddr::new(file, self.rng.next_below(self.working_set)));
        }
        let outcomes = self.channel.get_many(backend, now, pool, &lookups);
        for (addr, outcome) in lookups.iter().zip(&outcomes) {
            if let GetOutcome::Hit { version, .. } = outcome {
                let expected = self.models[pi]
                    .get(addr)
                    .copied()
                    .unwrap_or(PageVersion::INITIAL);
                if *version != expected {
                    self.stale_reads += 1;
                }
            }
        }

        self.ops += self.writes_per_tick + put_count + get_count;
    }
}

/// Drives ticks `[from, to)` with `threads` OS threads sharing `cache`
/// (VMs dealt round-robin), each thread closing its own ticks with a
/// group commit, and hands the workers back in VM order. The epoch cell
/// is monotone, so concurrent commits only ever advance it, and
/// `commit_tick` returns at once when journaling is off.
fn drive(
    cache: &ShardedCache,
    workers: Vec<VmWorker>,
    from: u64,
    to: u64,
    threads: usize,
) -> Vec<VmWorker> {
    let threads = threads.max(1);
    let mut hands: Vec<Vec<VmWorker>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, w) in workers.into_iter().enumerate() {
        hands[i % threads].push(w);
    }
    let joined: Vec<Vec<VmWorker>> = std::thread::scope(|scope| {
        let handles: Vec<_> = hands
            .into_iter()
            .map(|mut hand| {
                let mut backend = cache.clone();
                scope.spawn(move || {
                    for tick in from..to {
                        for w in &mut hand {
                            w.tick(&mut backend, tick, WHOLE_TICK);
                        }
                        backend.commit_tick();
                    }
                    hand
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let mut workers: Vec<VmWorker> = joined.into_iter().flatten().collect();
    workers.sort_by_key(|w| w.vm.0);
    workers
}

/// Registers `setup`'s chunk store (with its fault schedule) and returns
/// the id to bind pools against.
fn attach_remote(engine: &mut impl Engine, setup: &RemoteSetup) -> RemoteId {
    let mut store = ChunkStore::new(RemoteId(1), setup.config);
    if let Some(faults) = &setup.faults {
        store = store.with_faults(faults.clone());
    }
    let registered = engine.register_remote(store);
    registered.expect("fresh registry accepts the store")
}

/// Builds the VM workers and registers VMs + pools on `engine`. Pool
/// creation order is VM-major, so pool ids line up across engines.
fn build_workers(cfg: &StressConfig, engine: &mut impl Engine) -> Vec<VmWorker> {
    let mut root = SimRng::new(cfg.seed);
    let remote_id = cfg
        .remote
        .as_ref()
        .map(|setup| attach_remote(engine, setup));
    let mut workers = Vec::with_capacity(cfg.vms as usize);
    for i in 0..cfg.vms {
        let vm = VmId(i);
        engine.add_vm(vm, StressConfig::vm_weight(i));
        let mut pools = Vec::with_capacity(cfg.pools_per_vm as usize);
        let mut files = Vec::with_capacity(cfg.pools_per_vm as usize);
        for p in 0..cfg.pools_per_vm {
            let pool = engine.create_pool(vm, StressConfig::pool_policy(i, p));
            if let (Some(id), Some(setup)) = (remote_id, &cfg.remote) {
                let bound = engine.bind_remote(vm, pool, id, setup.fetch);
                bound.expect("freshly created pool binds cleanly");
            }
            pools.push(pool);
            files.push(cfg.file_of(i, p));
        }
        workers.push(VmWorker {
            vm,
            channel: HypercallChannel::new(vm),
            rng: root.fork(i as u64),
            models: vec![FxHashMap::default(); cfg.pools_per_vm as usize],
            pools,
            files,
            working_set: cfg.working_set,
            writes_per_tick: cfg.writes_per_tick,
            puts_per_tick: cfg.puts_per_tick,
            gets_per_tick: cfg.gets_per_tick,
            stale_reads: 0,
            ops: 0,
        });
    }
    workers
}

/// FNV-1a over the resident-entry dump — a compact fingerprint of the
/// entire cache contents for the byte-identity check.
fn entries_digest(entries: &[(VmId, PoolId, BlockAddr, PageVersion)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    for &(vm, pool, addr, version) in entries {
        eat(vm.0 as u64);
        eat(pool.0 as u64);
        eat(addr.file.0);
        eat(addr.block);
        eat(version.0);
    }
    hash
}

/// The canonical per-run report: every observable the determinism
/// contract covers, rendered as stable JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivalenceReport {
    /// Pretty-printed JSON; byte-identical across engines for the same
    /// [`StressConfig`].
    pub json: String,
    /// Stale reads the oracle observed (always 0 for a healthy engine).
    pub stale_reads: u64,
}

fn render_report(
    cfg: &StressConfig,
    engine: &impl Engine,
    workers: &[VmWorker],
) -> EquivalenceReport {
    let mut root = Json::object();
    let mut config = Json::object();
    config.set("vms", cfg.vms);
    config.set("pools_per_vm", cfg.pools_per_vm);
    config.set("ticks", cfg.ticks);
    config.set("working_set", cfg.working_set);
    config.set("mode", cfg.cache.mode.to_string());
    config.set("seed", cfg.seed);
    root.set("config", config);

    let mut stale_total = 0;
    let mut vm_rows = Vec::with_capacity(workers.len());
    for w in workers {
        let mut row = Json::object();
        row.set("vm", w.vm.0);
        let c = w.channel.counters();
        row.set("calls", c.calls);
        row.set("gets", c.gets);
        row.set("get_hits", c.get_hits);
        row.set("puts", c.puts);
        row.set("put_stores", c.put_stores);
        row.set("flushes", c.flushes);
        // Durability watermark the channel last observed. 0 on the
        // volatile plane (both engines), a real epoch when journaling —
        // either way part of the byte-identical contract.
        row.set("flush_epoch", w.channel.flush_epoch());
        row.set("stale_reads", w.stale_reads);
        row.set("ops", w.ops);
        stale_total += w.stale_reads;
        vm_rows.push(row);
    }
    root.set("vms_report", vm_rows);
    let entries = engine.entries();
    root.set("entries_count", entries.len());
    let digest = format!("{:016x}", entries_digest(&entries));
    root.set("entries_digest", digest);
    // The remote tier's whole fault-tolerance stack (retries, hedges,
    // breaker transitions, shed fetches; all zero with no remote) and
    // the endurance plane's device wear and spill rejections are part of
    // the byte-identical contract.
    root.set("remote_report", snapshot_json(&engine.remote_totals()));
    root.set("wear_report", snapshot_json(&engine.wear_totals()));
    root.set("pools_report", pool_stats_json(engine, workers));
    EquivalenceReport {
        json: root.to_string_pretty(),
        stale_reads: stale_total,
    }
}

/// The per-pool stats rows of a report.
fn pool_stats_json(engine: &impl Engine, workers: &[VmWorker]) -> Json {
    let mut rows = Vec::new();
    for w in workers {
        for &pool in &w.pools {
            if let Some(s) = engine.pool_stats(w.vm, pool) {
                let mut row = Json::object();
                row.set("vm", w.vm.0);
                row.set("pool", pool.0);
                row.set("mem_pages", s.mem_pages);
                row.set("ssd_pages", s.ssd_pages);
                row.set("entitlement_pages", s.entitlement_pages);
                row.set("gets", s.gets);
                row.set("hits", s.hits);
                row.set("puts", s.puts);
                row.set("evictions", s.evictions);
                row.set("ssd_writes", s.ssd_writes);
                rows.push(row);
            }
        }
    }
    rows.into()
}

/// Runs the seeded workload single-threaded (round-robin over VMs)
/// against a fresh `E` with `cfg.shards` shards and returns the
/// canonical report.
///
/// Running this once on the serial `DoubleDeckerCache` and once on
/// the [`ShardedCache`] must produce byte-identical `json` — the
/// determinism contract of the sharded plane.
pub fn run_equivalence<E: Engine>(cfg: &StressConfig) -> EquivalenceReport {
    let mut engine = E::build(cfg.cache, cfg.shards);
    if cfg.journal {
        engine.enable_journal();
    }
    let mut workers = build_workers(cfg, &mut engine);
    for tick in 0..cfg.ticks {
        for w in &mut workers {
            w.tick(&mut engine, tick, WHOLE_TICK);
        }
        // TTL demotion runs at the tick boundary on both engines — a
        // deterministic point outside any threaded fast path.
        if cfg.cache.admission.ssd_ttl > 0 {
            engine.ttl_sweep();
        }
        engine.commit_tick();
    }
    render_report(cfg, &engine, &workers)
}

/// Result of a multi-threaded stress run.
#[derive(Clone, Debug)]
pub struct StressOutcome {
    /// OS threads the run used.
    pub threads: usize,
    /// Total hypercall operations issued across all VMs.
    pub total_ops: u64,
    /// Wall-clock time of the drive phase (setup and audit excluded).
    /// For printing only: no gate and no JSON report may read it.
    pub elapsed: Duration,
    /// Hypercalls issued, summed over every VM's channel.
    pub hypercalls: u64,
    /// Lookups that hit, summed over every VM's channel.
    pub hits: u64,
    /// Stores the cache accepted, summed over every VM's channel.
    pub stores: u64,
    /// Stale reads the oracle observed across all VMs (gate: 0).
    pub stale_reads: u64,
    /// Findings from the cross-shard auditor after the join (gate:
    /// empty).
    pub findings: Vec<AuditFinding>,
    /// Aggregate remote fetch counters across every binding (all zero
    /// when the run had no remote attached).
    pub remote: RemoteCounters,
    /// [`StressOutcome::remote`] split by thirds of the run: what the
    /// bindings counted during ticks `[0, n/3)`, `[n/3, 2n/3)` and
    /// `[2n/3, n)`. Every thread joins at each boundary before the
    /// totals are read, so the split is exact at any thread count.
    pub remote_thirds: [RemoteCounters; 3],
    /// The plane the run left behind: its accessors report everything
    /// else it counted (evictions, commit epoch, compactions, batch
    /// counters, journal records, wear).
    pub cache: ShardedCache,
}

/// Field-wise `later - earlier` of two cumulative snapshots.
fn since(later: &RemoteCounters, earlier: &RemoteCounters) -> RemoteCounters {
    let mut delta = RemoteCounters::default();
    for ((name, now), (_, then)) in later.fields().into_iter().zip(earlier.fields()) {
        delta.set_field(name, now - then);
    }
    delta
}

impl StressOutcome {
    /// Aggregate operation throughput of the drive phase.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_ops as f64 / secs
        }
    }

    /// True when the run passed both gates: a clean audit and zero
    /// stale reads.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.stale_reads == 0
    }
}

/// Drives the workload with `threads` OS threads sharing one
/// [`ShardedCache`] (VMs distributed round-robin), then audits.
///
/// The total work is independent of `threads`, so outcomes at
/// different thread counts are comparable for scaling measurements.
pub fn run_stress(cfg: &StressConfig, threads: usize) -> StressOutcome {
    let threads = threads.max(1);
    let cache = ShardedCache::new(cfg.cache, cfg.shards);
    if cfg.journal {
        cache.enable_journal();
    }
    let mut workers = build_workers(cfg, &mut cache.clone());
    let cuts = [0, cfg.ticks / 3, cfg.ticks * 2 / 3, cfg.ticks];
    let mut remote_thirds = [RemoteCounters::default(); 3];
    let mut remote = RemoteCounters::default();
    let started = std::time::Instant::now();
    for (third, span) in remote_thirds.iter_mut().zip(cuts.windows(2)) {
        workers = drive(&cache, workers, span[0], span[1], threads);
        let totals = cache.remote_totals();
        *third = since(&totals, &remote);
        remote = totals;
    }
    let elapsed = started.elapsed();

    let (mut total_ops, mut stale_reads) = (0, 0);
    let (mut hypercalls, mut hits, mut stores) = (0, 0, 0);
    for w in &workers {
        total_ops += w.ops;
        stale_reads += w.stale_reads;
        let c = w.channel.counters();
        hypercalls += c.calls;
        hits += c.get_hits;
        stores += c.put_stores;
    }
    StressOutcome {
        threads,
        total_ops,
        elapsed,
        hypercalls,
        hits,
        stores,
        stale_reads,
        findings: audit::audit(&cache),
        remote,
        remote_thirds,
        cache,
    }
}

/// Deterministic crash-and-recovery harness for the sharded plane: the
/// seeded stress workload (journaling forced on), with the ability to
/// kill the plane mid-tick at a chosen hypercall boundary, snapshot the
/// per-shard segment images, recover a fresh [`ShardedCache`] from
/// (possibly mutilated) copies of them, and keep driving the *same*
/// guest workers — whose disk models then back the stale-entry oracle
/// over the survivor.
///
/// The workers' models and flush epochs are read *after* the kill, which
/// is sound even against a *mid-drive* segment snapshot: any model bump
/// after the snapshot travelled with a flush hypercall that raised the
/// guest's epoch past every record in the snapshot, so recovery's
/// per-VM epoch discard covers it ("forget, never lie").
pub struct CrashHarness {
    cfg: StressConfig,
    cache: ShardedCache,
    workers: Vec<VmWorker>,
}

impl CrashHarness {
    /// Builds the journaled sharded plane plus its guest workers.
    pub fn new(cfg: &StressConfig) -> CrashHarness {
        let mut cfg = cfg.clone();
        cfg.journal = true;
        let mut cache = ShardedCache::new(cfg.cache, cfg.shards);
        cache.enable_journal();
        let workers = build_workers(&cfg, &mut cache);
        CrashHarness {
            cfg,
            cache,
            workers,
        }
    }

    /// The live cache (e.g. to install an eviction hook that snapshots
    /// the segments *between the two eviction phases*).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Drives ticks `[from, to)` with `threads` OS threads sharing the
    /// cache (VMs dealt round-robin), each thread group-committing its
    /// own ticks. Worker order is restored after the join, so driving
    /// stays deterministic at one thread.
    pub fn drive(&mut self, from: u64, to: u64, threads: usize) {
        let workers = std::mem::take(&mut self.workers);
        self.workers = drive(&self.cache, workers, from, to, threads);
    }

    /// Runs tick `tick` but crashes mid-flight: workers before
    /// `kill_vm` complete the tick, the killed VM issues only a
    /// `budget`-bounded prefix of its hypercalls (see
    /// `VmWorker::tick` — the cut can land mid-`put_many`), and later
    /// workers plus the tick's group commit never happen, so everything
    /// since the previous commit epoch is at the mercy of the segment
    /// snapshot.
    pub fn drive_killed_tick(&mut self, tick: u64, kill_vm: usize, budget: u64) {
        let mut backend = self.cache.clone();
        for (i, w) in self.workers.iter_mut().enumerate().take(kill_vm + 1) {
            let budget = if i == kill_vm { budget } else { WHOLE_TICK };
            w.tick(&mut backend, tick, budget);
        }
    }

    /// Snapshot of the raw per-shard segment images (synced or not).
    pub fn segment_images(&self) -> Vec<Vec<u8>> {
        self.cache
            .journal_images()
            .expect("harness always journals")
    }

    /// Each guest's flush-epoch watermark — what a real guest would
    /// present to the hypervisor after the restart.
    pub fn guest_epochs(&self) -> Vec<(VmId, u64)> {
        self.workers
            .iter()
            .map(|w| (w.vm, w.channel.flush_epoch()))
            .collect()
    }

    /// Replaces the dead plane with one recovered from `segments`
    /// (typically mutilated copies of [`CrashHarness::segment_images`])
    /// and the guests' epoch watermarks, then re-seeds each guest
    /// channel with its re-journaled checkpoint epoch (monotone, like
    /// the hypervisor's `note_recovery_epoch`).
    pub fn recover(&mut self, segments: &[Vec<u8>]) -> ShardedRecoveryReport {
        let epochs = self.guest_epochs();
        let (cache, report) = ShardedCache::recover(self.cfg.cache, segments, &epochs);
        for w in &mut self.workers {
            let renewed = report
                .new_epochs
                .iter()
                .find(|(vm, _)| *vm == w.vm)
                .map(|&(_, e)| e)
                .unwrap_or(0);
            w.channel
                .set_flush_epoch(renewed.max(w.channel.flush_epoch()));
        }
        self.cache = cache;
        if let Some(setup) = self.cfg.remote.clone() {
            self.reattach_remote(&setup);
        }
        report
    }

    /// Re-establishes the remote tier on a freshly recovered plane.
    /// Bindings are not journaled, so recovery drops them; re-binding
    /// consumes the localization stash that replaying the surviving
    /// flush records accumulated. That stash can be *short* — flush
    /// records past the torn tail are gone while the guests' disks
    /// moved — so each guest then re-flushes every block it knows it
    /// wrote (its authoritative write set), exactly what a reconnecting
    /// guest does to re-establish the invalidation horizon. Only after
    /// that may the remote serve again ("forget, never lie").
    fn reattach_remote(&mut self, setup: &RemoteSetup) {
        let id = attach_remote(&mut self.cache.clone(), setup);
        for w in &self.workers {
            for &pool in &w.pools {
                // A cut that lost the pool's (or its VM's) registration
                // record leaves nothing to bind: the guest's calls on it
                // fail open from here on.
                match self.cache.bind_remote(w.vm, pool, id, setup.fetch) {
                    Ok(()) | Err(RemoteError::UnknownVm(_) | RemoteError::UnknownPool { .. }) => {}
                    Err(e) => panic!("recovered plane refused a fresh binding: {e}"),
                }
            }
        }
        let mut backend = self.cache.clone();
        for w in &mut self.workers {
            for (pi, &pool) in w.pools.iter().enumerate() {
                let mut written: Vec<BlockAddr> = w.models[pi]
                    .iter()
                    .filter(|&(_, &v)| v != PageVersion::INITIAL)
                    .map(|(&addr, _)| addr)
                    .collect();
                written.sort_unstable_by_key(|a| (a.file, a.block));
                w.channel.flush_many(&mut backend, pool, &written);
            }
        }
        self.cache.commit_tick();
    }

    /// Stale-entry oracle over the survivor: every resident entry must
    /// carry exactly the version its owner's disk model holds. Losing
    /// entries is always legal; a wrong version never is. Entries whose
    /// VM or pool no guest recognises count as stale.
    pub fn stale_entries(&self) -> u64 {
        self.stale_entries_in(&self.cache)
    }

    /// The same oracle against an *external* recovered cache — lets a
    /// prefix sweep recover many candidate caches from mutilated copies
    /// of [`CrashHarness::segment_images`] and judge each against this
    /// harness's disk models without consuming the harness.
    pub fn stale_entries_in(&self, cache: &ShardedCache) -> u64 {
        let mut stale = 0;
        for (vm, pool, addr, version) in cache.entries() {
            let Some(w) = self.workers.iter().find(|w| w.vm == vm) else {
                stale += 1;
                continue;
            };
            let Some(pi) = w.pools.iter().position(|&p| p == pool) else {
                stale += 1;
                continue;
            };
            let expected = w.models[pi]
                .get(&addr)
                .copied()
                .unwrap_or(PageVersion::INITIAL);
            if version != expected {
                stale += 1;
            }
        }
        stale
    }

    /// Stale reads the get-path oracle observed across all guests.
    pub fn stale_reads(&self) -> u64 {
        self.workers.iter().map(|w| w.stale_reads).sum()
    }

    /// Total hypercall operations issued across all guests.
    pub fn total_ops(&self) -> u64 {
        self.workers.iter().map(|w| w.ops).sum()
    }

    /// Runs the cross-shard auditor over the live plane.
    pub fn audit(&self) -> Vec<AuditFinding> {
        audit::audit(&self.cache)
    }

    /// Aggregate remote fetch counters across every binding (all zero
    /// when the config had no remote attached). Note that
    /// [`CrashHarness::recover`] re-registers a *fresh* store and fresh
    /// bindings, so the totals restart from zero at each recovery.
    pub fn remote_totals(&self) -> RemoteCounters {
        self.cache.remote_totals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_hypercache::{DoubleDeckerCache, PartitionMode};

    #[test]
    fn sharded_single_thread_matches_serial_byte_for_byte() {
        for mode in [
            PartitionMode::DoubleDecker,
            PartitionMode::Global,
            PartitionMode::Strict,
        ] {
            let mut cfg = StressConfig::smoke(7);
            cfg.cache = cfg.cache.with_mode(mode);
            let serial = run_equivalence::<DoubleDeckerCache>(&cfg);
            let sharded = run_equivalence::<ShardedCache>(&cfg);
            assert_eq!(
                serial.json, sharded.json,
                "{mode:?}: sharded run diverged from the serial engine"
            );
            assert_eq!(serial.stale_reads, 0);
            assert_eq!(sharded.stale_reads, 0);
        }
    }

    #[test]
    fn one_shard_also_matches() {
        let mut cfg = StressConfig::smoke(21);
        cfg.shards = 1;
        let serial = run_equivalence::<DoubleDeckerCache>(&cfg);
        let sharded = run_equivalence::<ShardedCache>(&cfg);
        assert_eq!(serial.json, sharded.json);
    }

    #[test]
    fn stress_smoke_is_clean_across_thread_counts() {
        for threads in [1, 2, 4] {
            let out = run_stress(&StressConfig::smoke(13), threads);
            assert!(
                out.findings.is_empty(),
                "{threads} threads: audit findings {:?}",
                out.findings
            );
            assert_eq!(out.stale_reads, 0, "{threads} threads: stale reads");
            assert_eq!(out.total_ops, StressConfig::smoke(13).ops_per_vm() * 4);
        }
    }

    #[test]
    fn eviction_storm_is_clean_under_contention() {
        // Nearly every put evicts, so the racing threads spend the run
        // in eviction behind the single-evictor gate.
        for threads in [2, 8] {
            let out = run_stress(&StressConfig::eviction_storm(0xEC0), threads);
            assert!(out.clean(), "{threads} threads: {:?}", out.findings);
            assert!(out.cache.evictions() > 0, "{threads} threads: no eviction");
        }
    }

    #[test]
    fn read_heavy_mix_matches_serial_and_stays_clean_on_a_tiny_working_set() {
        // The get-dominated mix keeps the determinism contract...
        let cfg = StressConfig::read_heavy(5);
        let serial = run_equivalence::<DoubleDeckerCache>(&cfg);
        let sharded = run_equivalence::<ShardedCache>(&cfg);
        assert_eq!(serial.json, sharded.json);
        // ...and stays clean under threads on a working set small
        // enough that every thread asks for the same few blocks.
        let tiny = StressConfig {
            working_set: 8,
            ..cfg
        };
        let out = run_stress(&tiny, 4);
        assert!(out.clean(), "{:?}", out.findings);
    }

    #[test]
    fn threaded_read_heavy_stress_counts_every_get_against_its_pool() {
        let cfg = StressConfig::read_heavy(17);
        // Pool ids are handed out in creation order, so a fresh engine
        // built the same way names the run's pools.
        let layout = build_workers(&cfg, &mut ShardedCache::new(cfg.cache, cfg.shards));
        for threads in [2, 4] {
            let out = run_stress(&cfg, threads);
            assert!(out.clean(), "{threads} threads: {:?}", out.findings);
            for w in &layout {
                for (pi, &pool) in w.pools.iter().enumerate() {
                    // A VM's ticks take its pools in turn.
                    let ticks = (0..cfg.ticks)
                        .filter(|t| t % w.pools.len() as u64 == pi as u64)
                        .count() as u64;
                    let stats = out.cache.pool_stats(w.vm, pool).expect("live pool");
                    assert_eq!(
                        stats.gets,
                        ticks * cfg.gets_per_tick,
                        "{threads} threads: {} {pool}",
                        w.vm
                    );
                }
            }
        }
    }

    #[test]
    fn equivalence_report_is_reproducible() {
        let mut cfg = StressConfig::smoke(99);
        cfg.shards = 4;
        let a = run_equivalence::<ShardedCache>(&cfg);
        let b = run_equivalence::<ShardedCache>(&cfg);
        assert_eq!(a.json, b.json);
    }

    #[test]
    fn journaled_equivalence_holds_and_reports_real_epochs() {
        let mut cfg = StressConfig::smoke(7);
        cfg.journal = true;
        let serial = run_equivalence::<DoubleDeckerCache>(&cfg);
        let sharded = run_equivalence::<ShardedCache>(&cfg);
        assert_eq!(
            serial.json, sharded.json,
            "journaled planes diverged (flush epochs are part of the report)"
        );
        assert!(
            serial.json.contains("\"flush_epoch\""),
            "report must carry the per-VM flush-epoch watermark"
        );
        // The watermarks must be real (non-zero) epochs, not the
        // volatile plane's 0 stub.
        let root = Json::parse(&sharded.json).expect("own JSON parses");
        let rows = root.get("vms_report").and_then(Json::as_array).unwrap();
        for row in rows {
            let epoch = row.get("flush_epoch").and_then(Json::as_u64).unwrap();
            assert!(epoch > 0, "journaled flush acked with the epoch-0 stub");
        }
    }

    #[test]
    fn journaled_stress_group_commits_and_stays_clean() {
        let mut cfg = StressConfig::smoke(31);
        cfg.journal = true;
        let out = run_stress(&cfg, 4);
        assert!(out.clean(), "findings: {:?}", out.findings);
        assert!(out.cache.commit_epoch() > 0, "no group commit published");
    }

    #[test]
    fn remote_equivalence_serial_vs_sharded() {
        let cfg = StressConfig::remote_smoke(11);
        let serial = run_equivalence::<DoubleDeckerCache>(&cfg);
        let sharded = run_equivalence::<ShardedCache>(&cfg);
        assert_eq!(
            serial.json, sharded.json,
            "remote fetch stack diverged between engines"
        );
        assert_eq!(serial.stale_reads, 0);
        let root = Json::parse(&serial.json).expect("own JSON parses");
        let served = root
            .get("remote_report")
            .and_then(|r| r.get("served"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(served > 0, "remote never served a cold miss");
    }

    #[test]
    fn remote_stress_is_clean_across_thread_counts() {
        for threads in [1, 4] {
            let out = run_stress(&StressConfig::remote_smoke(23), threads);
            assert!(out.clean(), "{threads} threads: {:?}", out.findings);
            assert!(out.remote.served > 0, "{threads} threads: nothing served");
        }
    }

    #[test]
    fn remote_partition_is_fail_open_and_deterministic() {
        use ddc_sim::FaultKind;
        let faults = FaultSchedule::new(99).with_window(SimTime::ZERO, None, FaultKind::Partition);
        let cfg =
            StressConfig::smoke(17).with_remote(RemoteSetup::for_driver(3).with_faults(faults));
        let serial = run_equivalence::<DoubleDeckerCache>(&cfg);
        let sharded = run_equivalence::<ShardedCache>(&cfg);
        assert_eq!(serial.json, sharded.json);
        assert_eq!(serial.stale_reads, 0, "partition must never serve stale");
        let out = run_stress(&cfg, 4);
        assert!(out.clean(), "{:?}", out.findings);
        assert!(out.remote.breaker_trips > 0, "partition never tripped");
        assert_eq!(out.remote.served, 0, "partitioned remote served data");
    }

    #[test]
    fn crash_recover_with_remote_rebinds_without_staleness() {
        let mut h = CrashHarness::new(&StressConfig::remote_smoke(0xBEEF));
        h.drive(0, 40, 1);
        h.drive_killed_tick(40, 2, 4);
        let mut segments = h.segment_images();
        let keep = segments[1].len() - segments[1].len() / 8;
        segments[1].truncate(keep);
        let report = h.recover(&segments);
        assert!(report.records_replayed > 0);
        assert_eq!(h.stale_entries(), 0);
        assert!(h.audit().is_empty(), "{:?}", h.audit());
        h.drive(41, 80, 8);
        assert_eq!(h.stale_reads(), 0, "remote served stale after recovery");
        assert!(h.audit().is_empty(), "{:?}", h.audit());
    }

    #[test]
    fn one_thread_stress_and_a_killed_tick_past_its_last_get_drive_like_the_harness() {
        let mut cfg = StressConfig::smoke(0x5AFE);
        cfg.journal = true;
        // The stress driver at one thread journals what the harness does.
        let out = run_stress(&cfg, 1);
        let mut h = CrashHarness::new(&cfg);
        h.drive(0, cfg.ticks, 1);
        assert_eq!(out.cache.journal_images(), Some(h.segment_images()));
        assert_eq!(out.cache.entries(), h.cache().entries());
        assert_eq!(out.total_ops, h.total_ops());
        // A kill budget that reaches the last get is a whole tick.
        let (mut killed, mut whole) = (CrashHarness::new(&cfg), CrashHarness::new(&cfg));
        killed.drive(0, 40, 1);
        whole.drive(0, 40, 1);
        let budget = 1 + cfg.puts_per_tick + cfg.gets_per_tick;
        killed.drive_killed_tick(40, cfg.vms as usize - 1, budget);
        killed.cache().commit_tick();
        whole.drive(40, 41, 1);
        assert_eq!(killed.segment_images(), whole.segment_images());
        assert_eq!(killed.cache().entries(), whole.cache().entries());
        assert_eq!(killed.total_ops(), whole.total_ops());
        assert_eq!(killed.stale_reads(), whole.stale_reads());
    }

    #[test]
    fn crash_harness_kill_recover_continue_is_clean() {
        let mut h = CrashHarness::new(&StressConfig::smoke(0xC4A5));
        h.drive(0, 40, 1);
        // Kill mid-tick: VM 0/1 complete tick 40, VM 2 dies mid-put_many
        // (write batch + 3 of its puts land), VM 3 never runs it.
        h.drive_killed_tick(40, 2, 4);
        let mut segments = h.segment_images();
        // Torn tail on shard 1: drop half the unsynced bytes.
        let keep = segments[1].len() - segments[1].len() / 8;
        segments[1].truncate(keep);
        let report = h.recover(&segments);
        assert!(report.records_replayed > 0);
        assert_eq!(h.stale_entries(), 0, "recovery served a stale version");
        assert!(h.audit().is_empty(), "{:?}", h.audit());
        // The survivor keeps serving: 8 threads over the same guests.
        h.drive(41, 80, 8);
        assert_eq!(h.stale_reads(), 0);
        assert!(h.audit().is_empty(), "{:?}", h.audit());
    }

    /// What a crash at the moment of `snapshot` is guaranteed to leave
    /// behind: every segment cut to its durable mark. Checks the two
    /// promises `commit_tick` makes about those marks against an epoch
    /// read *before* the snapshot was taken.
    fn durable_cut(epoch: u64, snapshot: Vec<(Vec<u8>, usize)>) -> Vec<Vec<u8>> {
        use ddc_storage::Journal;
        let mut first = u64::MAX;
        let mut durable_gens: Vec<u64> = Vec::new();
        let mut cut = Vec::with_capacity(snapshot.len());
        for (si, (mut image, durable)) in snapshot.into_iter().enumerate() {
            let bounds = Journal::record_boundaries(&image);
            assert_eq!(
                bounds.last().copied().unwrap_or(0),
                image.len(),
                "shard {si}: a snapshot under lock-all ends on a record boundary"
            );
            assert!(
                durable == 0 || bounds.binary_search(&durable).is_ok(),
                "shard {si}: durable mark {durable} splits a record"
            );
            if let Some(&(gen, _)) = Journal::replay(&image).0.first() {
                first = first.min(gen);
            }
            image.truncate(durable);
            durable_gens.extend(Journal::replay(&image).0.iter().map(|&(gen, _)| gen));
            cut.push(image);
        }
        // Every generation from the oldest one any segment still holds
        // up to the epoch must be in some durable prefix. (A compaction
        // between the epoch read and the snapshot makes this vacuous:
        // its checkpoint starts above the epoch and is synced in full.)
        durable_gens.sort_unstable();
        let mut next = first;
        for gen in durable_gens {
            if gen == next {
                next += 1;
            }
        }
        assert!(
            first > epoch || next > epoch,
            "commit epoch {epoch} but generation {next} is not durable (segments start at {first})"
        );
        cut
    }

    #[test]
    fn racing_commit_ticks_keep_every_durable_cut_gap_free_and_recoverable() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Stores this small hold the compaction threshold at its floor
        // (1,024 records), which three clients cross every ~25 ticks.
        let mut cfg = StressConfig::smoke(0xC0117);
        cfg.cache = CacheConfig::mem_and_ssd(48, 64);
        cfg.working_set = 64;
        cfg.shards = 4;
        let mut h = CrashHarness::new(&cfg);
        let cache = h.cache().clone();
        let done = AtomicBool::new(false);
        let (checks, mid_run_cut) = std::thread::scope(|scope| {
            let checker = scope.spawn(|| {
                let mut checks = 0u64;
                let mut last = None;
                while !done.load(Ordering::Acquire) {
                    let epoch = cache.commit_epoch();
                    let snapshot = cache.journal_snapshot().expect("harness journals");
                    last = Some(durable_cut(epoch, snapshot));
                    checks += 1;
                }
                (checks, last)
            });
            h.drive(0, 400, 3);
            done.store(true, Ordering::Release);
            checker.join().expect("checker panicked")
        });
        assert!(
            h.cache().journal_compactions() >= 8,
            "store too large to compact"
        );
        assert!(checks > 0, "the checker never ran beside the clients");
        assert_eq!(h.stale_reads(), 0);
        assert!(h.audit().is_empty(), "{:?}", h.audit());

        // Quiescent: every client's last tick committed everything.
        let epoch = h.cache().commit_epoch();
        let snapshot = h.cache().journal_snapshot().expect("harness journals");
        assert!(snapshot
            .iter()
            .all(|(image, durable)| *durable == image.len()));
        let final_cut = durable_cut(epoch, snapshot);

        // A crash at the checker's last mid-run cut, or now: the guests'
        // acked epochs cover whatever either cut lost.
        for (what, cut) in [("mid-run", mid_run_cut), ("final", Some(final_cut))] {
            let cut = cut.expect("checked above");
            let (recovered, report) = ShardedCache::recover(cfg.cache, &cut, &h.guest_epochs());
            assert_eq!(
                h.stale_entries_in(&recovered),
                0,
                "{what} cut: recovery resurrected a stale version ({report:?})"
            );
            let findings = audit::audit(&recovered);
            assert!(findings.is_empty(), "{what} cut: {findings:?}");
        }
    }
}
