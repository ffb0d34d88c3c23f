//! `repro work` and `repro perf` — one fixed matrix of hot-path cells.
//!
//! Each cell drives one path of the cache (direct cache-op loops on the
//! serial engine, the `ddc-concurrent` stress driver on the sharded
//! one, one guest and one end-to-end experiment) and returns its
//! **work**: what it issued and what the engine counted while serving
//! it, integers only. `repro work` runs every cell once and writes the
//! rows to `work.json`, which sits in `results/` and is compared byte
//! for byte like the figures — an extra eviction, lock visit per batch,
//! journal record or hypercall fails on every machine, with no rerun.
//! `repro perf` times the same cells and gates nothing: speed is judged
//! by alternating `ddbench` pairs (benchmark/README.md), not by a
//! wall-clock threshold on a shared runner.
//!
//! The sharded engine's cells run at one thread, where every counter it
//! keeps is a function of the seed; what threads add is covered by
//! `repro stress` (clean at 1/2/4/8 threads) and `ddbench`.

use std::time::Instant;

use ddc_core::cleancache::{ChannelCounters, HypercallChannel, SecondChanceCache};
use ddc_core::concurrent::{run_stress, StressConfig};
use ddc_core::guest::{GuestEnv, GuestOs};
use ddc_core::metrics::snapshot_json;
use ddc_core::parallel;
use ddc_core::prelude::*;
use ddc_core::storage::{Journal, JournalRecord};
use ddc_json::Json;

/// JSON schema tag of `work.json`.
pub const SCHEMA: &str = "ddc-work-v1";

/// Times `repro perf` runs each cell.
pub const REPEATS: usize = 5;

/// One cell of the matrix.
#[derive(Clone, Copy)]
pub struct Cell {
    /// Stable name (the row's key in `work.json`).
    pub name: &'static str,
    /// Op budget of a full run; `--smoke` runs a tenth of it.
    pub budget: u64,
    /// The counters the cell exists to exercise, as dotted paths into
    /// its work row. A run that leaves one at zero measured some other
    /// path than the one the cell is named for.
    pub signature: &'static [&'static str],
    run: fn(u64) -> Json,
}

/// Builds [`CELLS`] from rows of `function: full budget => [signature
/// counters]`; a cell is named after the function that runs it.
macro_rules! cells {
    ($($run:ident: $budget:literal => [$($counter:literal),+],)+) => {
        [$(Cell {
            name: stringify!($run),
            budget: $budget,
            signature: &[$($counter),+],
            run: $run,
        }),+]
    };
}

/// The matrix, in report order.
pub const CELLS: [Cell; 20] = cells![
    dd_put_get_mix: 400_000 => ["hits", "evictions"],
    global_fifo_churn: 400_000 => ["evictions", "flushes"],
    strict_partition_churn: 200_000 => ["evictions"],
    hybrid_spill_trickle: 200_000 => ["trickle_downs", "wear.ssd_pages_written"],
    ssd_admission_filter: 200_000 => ["wear.spill_rejects", "wear.spill_admits"],
    stats_entitlement_scan: 400_000 => ["entitlement_pages_read"],
    reconfig_invalidation: 200_000 => ["reconfigurations", "evictions"],
    webserver_e2e: 20_000 => ["hypercalls", "hits"],
    guest_write_fsync_delete: 200_000 => ["hypercalls", "flushes"],
    // One page-op stream issued two ways: the rows must agree on
    // everything but `hypercalls`.
    channel_batched_mix: 2_000_000 => ["hypercalls"],
    channel_unbatched_mix: 2_000_000 => ["hypercalls"],
    arena_slot_churn: 400_000 => ["flushes"],
    stress_read_heavy: 500 => ["misses"],
    stress_eviction_storm: 500 => ["evictions"],
    stress_standard: 500 => ["hits", "stores"],
    stress_standard_journaled: 500 => ["commit_epoch", "journal_records"],
    stress_write_heavy: 500 => ["batch.batched_ops", "batch.lock_acquisitions"],
    stress_mixed_write: 500 => ["batch.batched_ops", "batch.lock_acquisitions"],
    remote_miss_fetch: 500 => ["remote.served"],
    journal_append_replay: 200_000 => ["journal_bytes"],
];

impl Cell {
    /// Runs the cell once and returns its work row.
    ///
    /// # Panics
    ///
    /// Panics if the cell's own correctness assertions fail or one of
    /// its [`Cell::signature`] counters is zero.
    pub fn work(&self, smoke: bool) -> Json {
        let work = (self.run)(self.budget / if smoke { 10 } else { 1 });
        self.assert_signature(&work);
        work
    }

    fn assert_signature(&self, work: &Json) {
        for path in self.signature {
            let count = path
                .split('.')
                .try_fold(work, |at, key| at.get(key))
                .and_then(Json::as_u64);
            assert!(
                count.is_some_and(|n| n > 0),
                "{}: signature counter {path} is {count:?}",
                self.name
            );
        }
    }
}

/// Runs every cell once, fanned out over the experiment workers, and
/// returns the work rows in [`CELLS`] order.
pub fn run_work(smoke: bool) -> Vec<Json> {
    run_work_with(parallel::num_threads(), smoke)
}

/// [`run_work`] with an explicit worker count.
pub fn run_work_with(threads: usize, smoke: bool) -> Vec<Json> {
    parallel::run_cells_with(threads, CELLS.to_vec(), move |cell| cell.work(smoke))
}

/// Renders `work.json` from the rows of [`run_work`].
pub fn to_json(rows: Vec<Json>, smoke: bool) -> String {
    let mut root = Json::object();
    root.set("schema", SCHEMA);
    root.set("smoke", smoke);
    root.set(
        "cells",
        CELLS
            .iter()
            .zip(rows)
            .map(|(cell, work)| {
                let mut row = Json::object();
                row.set("name", cell.name);
                row.set("work", work);
                row
            })
            .collect::<Vec<Json>>(),
    );
    let mut s = root.to_string_pretty();
    s.push('\n');
    s
}

/// One timed cell of `repro perf`.
#[derive(Clone, Debug)]
pub struct PerfCell {
    /// The cell's name.
    pub name: &'static str,
    /// Operations one run executes.
    pub ops: u64,
    /// Fastest, median and slowest of the [`REPEATS`] runs, in
    /// wall-clock nanoseconds per operation.
    pub ns_per_op: [f64; 3],
}

/// Times every cell [`REPEATS`] times, one after another.
pub fn run_perf(smoke: bool) -> Vec<PerfCell> {
    CELLS
        .iter()
        .map(|cell| {
            let mut ops = 0;
            let mut ns: Vec<f64> = (0..REPEATS)
                .map(|_| {
                    let start = Instant::now();
                    let work = cell.work(smoke);
                    let nanos = start.elapsed().as_nanos();
                    ops = work.get("ops").and_then(Json::as_u64).unwrap_or(0);
                    nanos as f64 / ops.max(1) as f64
                })
                .collect();
            ns.sort_by(f64::total_cmp);
            PerfCell {
                name: cell.name,
                ops,
                ns_per_op: [ns[0], ns[REPEATS / 2], ns[REPEATS - 1]],
            }
        })
        .collect()
}

const NOW: SimTime = SimTime::from_secs(1);

/// What a cell issued and what came back, op by op.
#[derive(Default)]
struct Issued {
    ops: u64,
    hypercalls: u64,
    gets: u64,
    hits: u64,
    puts: u64,
    stores: u64,
    flushes: u64,
}

type PoolKey = (VmId, PoolId);

impl Issued {
    fn put(&mut self, c: &mut DoubleDeckerCache, (vm, pool): PoolKey, a: BlockAddr) {
        self.ops += 1;
        self.puts += 1;
        self.stores += u64::from(c.put(NOW, vm, pool, a, PageVersion(1)).is_stored());
    }

    fn get(&mut self, c: &mut DoubleDeckerCache, (vm, pool): PoolKey, a: BlockAddr) {
        self.ops += 1;
        self.gets += 1;
        self.hits += u64::from(matches!(c.get(NOW, vm, pool, a), GetOutcome::Hit { .. }));
    }

    fn flush(&mut self, c: &mut DoubleDeckerCache, (vm, pool): PoolKey, a: BlockAddr) {
        self.ops += 1;
        self.flushes += 1;
        c.flush(vm, pool, a);
    }

    /// The tally of a cell whose page ops all went through `channel`.
    fn through(ops: u64, channel: ChannelCounters) -> Issued {
        Issued {
            ops,
            hypercalls: channel.calls,
            gets: channel.gets,
            hits: channel.get_hits,
            puts: channel.puts,
            stores: channel.put_stores,
            flushes: channel.flushes,
        }
    }

    fn row(&self) -> Json {
        let mut o = Json::object();
        o.set("ops", self.ops);
        o.set("hypercalls", self.hypercalls);
        o.set("hits", self.hits);
        o.set("misses", self.gets - self.hits);
        o.set("stores", self.stores);
        o.set("rejects", self.puts - self.stores);
        o.set("flushes", self.flushes);
        o
    }

    /// The work row of a serial-engine cell: the tally plus what the
    /// engine counted while serving it.
    fn work(&self, c: &DoubleDeckerCache) -> Json {
        let totals = c.totals();
        let mut o = self.row();
        o.set("evictions", totals.evictions);
        o.set("trickle_downs", totals.trickle_downs);
        o.set("mem_pages", totals.mem_used_pages);
        o.set("ssd_pages", totals.ssd_used_pages);
        o.set("wear", snapshot_json(&c.wear_totals()));
        o.set("index_heap_bytes", c.index_heap_bytes());
        o
    }
}

fn addr(file: u64, block: u64) -> BlockAddr {
    BlockAddr::new(FileId(file), block)
}

fn cache(mode: PartitionMode, mem: u64, ssd: u64) -> DoubleDeckerCache {
    DoubleDeckerCache::new(CacheConfig {
        mem_capacity_pages: mem,
        ssd_capacity_pages: ssd,
        mode,
        admission: AdmissionConfig::off(),
    })
}

/// Adds one VM per `(weight, pool policies)` entry, ids from 1.
fn tenants<const N: usize>(
    c: &mut DoubleDeckerCache,
    vms: &[(u64, [CachePolicy; N])],
) -> Vec<PoolKey> {
    let mut pools = Vec::new();
    for (i, &(weight, policies)) in vms.iter().enumerate() {
        let vm = VmId(i as u32 + 1);
        c.add_vm(vm, weight);
        pools.extend(policies.map(|p| (vm, c.create_pool(vm, p))));
    }
    pools
}

/// Mixed put/get traffic over two VMs × two mem pools, 1,024 distinct
/// blocks over a 512-page store: the steady-state data path under
/// DoubleDecker weighted eviction.
fn dd_put_get_mix(ops: u64) -> Json {
    let mut c = cache(PartitionMode::DoubleDecker, 512, 0);
    let pools = tenants(
        &mut c,
        &[
            (100, [CachePolicy::mem(60), CachePolicy::mem(40)]),
            (200, [CachePolicy::mem(100), CachePolicy::mem(50)]),
        ],
    );
    let mut t = Issued::default();
    let mut i = 0u64;
    while t.ops < ops {
        t.put(&mut c, pools[(i % 4) as usize], addr(i % 16, i % 1024));
        if i.is_multiple_of(2) && t.ops < ops {
            let back = i.saturating_sub(512);
            t.get(
                &mut c,
                pools[(back % 4) as usize],
                addr(back % 16, back % 1024),
            );
        }
        i += 1;
    }
    t.work(&c)
}

/// Overwrite/flush churn in Global mode over a working set 3× the
/// store: puts evict FIFO-globally, a merge over every pool's queue,
/// and every removal unlinks its entry from the middle of a queue.
fn global_fifo_churn(ops: u64) -> Json {
    let mut c = cache(PartitionMode::Global, 1024, 0);
    let pools = tenants(&mut c, &[(100, [CachePolicy::mem(100)]); 4]);
    let mut t = Issued::default();
    let mut i = 0u64;
    while t.ops < ops {
        let pool = pools[(i % 4) as usize];
        let a = addr(i % 8, i % 3072);
        t.put(&mut c, pool, a);
        if i.is_multiple_of(3) && t.ops < ops {
            t.flush(&mut c, pool, a);
        }
        i += 1;
    }
    t.work(&c)
}

/// Put churn past the hard partitions of Strict mode (375 blocks a
/// pool against a 256-page share): every put runs the per-put
/// entitlement precheck and most evict from their own pool.
fn strict_partition_churn(ops: u64) -> Json {
    let mut c = cache(PartitionMode::Strict, 1024, 0);
    let pools = tenants(
        &mut c,
        &[(100, [CachePolicy::mem(100), CachePolicy::mem(100)]); 2],
    );
    let mut t = Issued::default();
    let mut i = 0u64;
    while t.ops < ops {
        t.put(&mut c, pools[(i % 4) as usize], addr(i % 4, i % 1500));
        i += 1;
    }
    t.work(&c)
}

/// Two hybrid pools spilling from a small memory share to SSD. Every
/// 4,096 puts they trade memory weights 3:1 ↔ 1:3: the pool that shrank
/// sits over its entitlement, the other's memory puts evict from it,
/// and those evictions trickle down to the SSD share. (A hybrid pool
/// never outgrows a *fixed* memory entitlement, so without the trade
/// nothing is ever evicted from memory and nothing trickles.)
fn hybrid_spill(ops: u64, admission: AdmissionConfig) -> Json {
    let mut c =
        DoubleDeckerCache::new(CacheConfig::mem_and_ssd(1024, 4096).with_admission(admission));
    let pools = tenants(
        &mut c,
        &[(100, [CachePolicy::hybrid(100), CachePolicy::hybrid(100)])],
    );
    let mut t = Issued::default();
    let mut i = 0u64;
    while t.ops < ops {
        if i.is_multiple_of(4096) {
            let heavy = (i / 4096 % 2) as usize;
            c.set_policy(VmId(1), pools[heavy].1, CachePolicy::hybrid(300));
            c.set_policy(VmId(1), pools[1 - heavy].1, CachePolicy::hybrid(100));
        }
        t.put(&mut c, pools[(i % 2) as usize], addr(i % 8, i % 4000));
        if i.is_multiple_of(5) && t.ops < ops {
            let back = i.saturating_sub(700);
            t.get(
                &mut c,
                pools[(back % 2) as usize],
                addr(back % 8, back % 4000),
            );
        }
        i += 1;
    }
    t.work(&c)
}

fn hybrid_spill_trickle(ops: u64) -> Json {
    hybrid_spill(ops, AdmissionConfig::off())
}

/// The hybrid spill path with the ghost admission filter engaged: every
/// mem→SSD spill pays the filter's table probe plus sliding-window
/// prune, and get hits on SSD-resident blocks pay the re-arm note. Its
/// row against `hybrid_spill_trickle`'s (same traffic, filter off) is
/// what the endurance plane costs and saves.
fn ssd_admission_filter(ops: u64) -> Json {
    hybrid_spill(ops, AdmissionConfig::ghost(2048))
}

/// GET_STATS over a wide host: every `pool_stats` call resolves the
/// pool's entitlement (two binary searches into the cached share table).
fn stats_entitlement_scan(ops: u64) -> Json {
    let mut c = cache(PartitionMode::DoubleDecker, 8192, 0);
    let widths = [50, 75, 100, 125].map(CachePolicy::mem);
    let vms: Vec<_> = (1..=8).map(|v| (50 + v * 10, widths)).collect();
    let pools = tenants(&mut c, &vms);
    let mut t = Issued::default();
    for &pool in &pools {
        for b in 0..8 {
            t.put(&mut c, pool, addr(u64::from(pool.0 .0), b));
        }
    }
    let mut entitlement_pages_read = 0;
    let mut i = 0usize;
    while t.ops < ops {
        let (vm, pool) = pools[i % pools.len()];
        entitlement_pages_read += c.pool_stats(vm, pool).map_or(0, |s| s.entitlement_pages);
        t.ops += 1;
        i += 1;
    }
    let mut o = t.work(&c);
    o.set("entitlement_pages_read", entitlement_pages_read);
    o
}

/// Evicting puts interleaved with control-plane weight changes: the
/// worst case for entitlement caching (every reconfiguration moves the
/// share table's inputs, the next eviction rebuilds it).
fn reconfig_invalidation(ops: u64) -> Json {
    let mut c = cache(PartitionMode::DoubleDecker, 1024, 0);
    let pools = tenants(&mut c, &[(100, [CachePolicy::mem(100)]); 4]);
    let mut t = Issued::default();
    let mut reconfigurations = 0u64;
    let mut i = 0u64;
    while t.ops < ops {
        if i.is_multiple_of(64) {
            c.set_vm_weight(VmId((i / 64 % 4 + 1) as u32), 50 + i % 200);
            reconfigurations += 1;
            t.ops += 1;
        }
        t.put(&mut c, pools[(i % 4) as usize], addr(i % 8, i % 2048));
        i += 1;
    }
    let mut o = t.work(&c);
    o.set("reconfigurations", reconfigurations);
    o
}

/// Pages per hypercall of the batched channel cell.
const CHANNEL_BATCH: u64 = 32;

/// The shared body of the channel pair: one put/get/flush page-op
/// stream, issued either as [`CHANNEL_BATCH`]-page vectorized hypercalls
/// or one call per page. The two rows differ in `hypercalls` and in
/// nothing else; that difference is what batching amortizes.
fn channel_mix(ops: u64, batched: bool) -> Json {
    let mut c = cache(PartitionMode::DoubleDecker, 4096, 0);
    c.add_vm(VmId(1), 100);
    let pool = c.create_pool(VmId(1), CachePolicy::mem(100));
    let mut ch = HypercallChannel::new(VmId(1));
    let mut done = 0;
    let mut i = 0u64;
    while done < ops {
        let puts: Vec<(BlockAddr, PageVersion)> = (0..CHANNEL_BATCH)
            .map(|k| (addr((i + k) % 8, (i + k) % 2048), PageVersion(1)))
            .collect();
        if batched {
            ch.put_many(&mut c, NOW, pool, &puts);
        } else {
            for &(a, v) in &puts {
                ch.put(&mut c, NOW, pool, a, v);
            }
        }
        done += CHANNEL_BATCH;
        let back = i.saturating_sub(512);
        let gets: Vec<BlockAddr> = (0..CHANNEL_BATCH)
            .map(|k| addr((back + k) % 8, (back + k) % 2048))
            .collect();
        if batched {
            ch.get_many(&mut c, NOW, pool, &gets);
        } else {
            for &a in &gets {
                ch.get(&mut c, NOW, pool, a);
            }
        }
        done += CHANNEL_BATCH;
        if i.is_multiple_of(CHANNEL_BATCH * 4) {
            let flushes: Vec<BlockAddr> = (0..CHANNEL_BATCH)
                .map(|k| addr((i + k) % 8, (i + k) % 2048))
                .collect();
            if batched {
                ch.flush_many(&mut c, pool, &flushes);
            } else {
                for &a in &flushes {
                    ch.flush(&mut c, pool, a);
                }
            }
            done += CHANNEL_BATCH;
        }
        i += CHANNEL_BATCH;
    }
    Issued::through(done, ch.counters()).work(&c)
}

fn channel_batched_mix(ops: u64) -> Json {
    channel_mix(ops, true)
}

fn channel_unbatched_mix(ops: u64) -> Json {
    channel_mix(ops, false)
}

/// Slab alloc/free heavy mix: puts populate the arena, flushes return
/// slots to the free-list, and the interleave keeps both the free-list
/// pop (reuse) and push (grow) paths hot along with overwrite-in-place.
/// It never evicts, so the time is pure index work.
fn arena_slot_churn(ops: u64) -> Json {
    let mut c = cache(PartitionMode::DoubleDecker, 8192, 0);
    let pools = tenants(
        &mut c,
        &[(100, [CachePolicy::mem(100), CachePolicy::mem(100)])],
    );
    let mut t = Issued::default();
    let mut i = 0u64;
    while t.ops < ops {
        t.put(&mut c, pools[(i % 2) as usize], addr(i % 16, i % 2048));
        // Flush a trailing window: slots free in a different order than
        // they were allocated, so the free-list actually cycles instead
        // of behaving like a bump allocator.
        if i.is_multiple_of(2) && t.ops < ops {
            let back = i.saturating_sub(96);
            t.flush(
                &mut c,
                pools[(back % 2) as usize],
                addr(back % 16, back % 2048),
            );
        }
        i += 1;
    }
    t.work(&c)
}

/// One end-to-end cell: a webserver VM through guest page cache,
/// cleancache channel and hypervisor cache, covering the full stack the
/// `repro` figures exercise. The budget is virtual milliseconds.
fn webserver_e2e(virtual_ms: u64) -> Json {
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(4096)));
    let vm = host.boot_vm(64, 100);
    let cg = host.create_container(vm, "web", 64, CachePolicy::mem(100));
    let web = Webserver::new(
        "web/t0",
        vm,
        cg,
        WebConfig {
            files: 200,
            ..WebConfig::default()
        },
        42,
    );
    let mut exp = Experiment::new(host, SimDuration::from_secs(1));
    exp.add_thread(Box::new(web));
    let report = exp.run_until(SimTime::from_nanos(virtual_ms * 1_000_000));
    let host = exp.host();
    Issued::through(report.threads[0].ops, host.guest(vm).channel().counters()).work(host.cache())
}

/// The guest's write path with nothing around it: one cgroup held at
/// 2,048 resident pages over a memory-only hypervisor cache, writing
/// through 128 files × 64 blocks, with an `fsync` of the file last
/// written after every 32 writes and a `delete_file` after every 64.
/// Each write asks the page cache how many pages are dirty and which
/// are oldest, each fsync and delete asks for one file's pages, and
/// each delete makes the engine drop one file — so a scan of either
/// resident set coming back multiplies this cell's cost.
fn guest_write_fsync_delete(ops: u64) -> Json {
    const FILES: u64 = 128;
    const BLOCKS: u64 = 64;
    let mut backend = cache(PartitionMode::DoubleDecker, 4096, 0);
    backend.add_vm(VmId(1), 100);
    let mut disk = Device::hdd();
    let mut env = GuestEnv {
        backend: &mut backend,
        disk: &mut disk,
    };
    let mut guest = GuestOs::new(VmId(1), GuestConfig::with_mem_mb(64));
    let cg = guest.create_cgroup(&mut env, "writer", 2048, CachePolicy::mem(100));
    let mut now = NOW;
    let mut done = 0;
    let mut i = 0u64;
    while done < ops {
        let a = addr(1 + i % FILES, (i / FILES) % BLOCKS);
        now = guest.write(&mut env, now, cg, a).finish;
        done += 1;
        i += 1;
        if i.is_multiple_of(32) {
            now = guest.fsync(&mut env, now, cg, a.file);
            done += 1;
        }
        if i.is_multiple_of(64) {
            guest.delete_file(&mut env, cg, FileId(1 + (i / 64) % FILES));
            done += 1;
        }
    }
    Issued::through(done, guest.channel().counters()).work(&backend)
}

/// Drives `cfg` for `ticks` ticks on one thread of the sharded engine
/// and returns everything the plane counted.
fn stress_work(cfg: StressConfig, ticks: u64) -> Json {
    let cfg = StressConfig { ticks, ..cfg };
    let out = run_stress(&cfg, 1);
    assert!(
        out.clean(),
        "stress cell violated its gates: {} stale reads, findings {:?}",
        out.stale_reads,
        out.findings
    );
    let issued = |per_tick: u64| u64::from(cfg.vms) * ticks * per_tick;
    let plane = &out.cache;
    let mut o = Json::object();
    o.set("ops", out.total_ops);
    o.set("hypercalls", out.hypercalls);
    o.set("hits", out.hits);
    o.set("misses", issued(cfg.gets_per_tick) - out.hits);
    o.set("stores", out.stores);
    o.set("rejects", issued(cfg.puts_per_tick) - out.stores);
    o.set("flushes", issued(cfg.writes_per_tick));
    o.set("evictions", plane.evictions());
    o.set("trickle_downs", plane.trickle_downs());
    o.set("mem_pages", plane.mem_used_pages());
    o.set("ssd_pages", plane.ssd_used_pages());
    o.set("commit_epoch", plane.commit_epoch());
    o.set("journal_records", plane.journal_records().unwrap_or(0));
    let images = plane.journal_images().unwrap_or_default();
    o.set("journal_bytes", images.iter().map(Vec::len).sum::<usize>());
    o.set("journal_compactions", plane.journal_compactions());
    o.set("batch", snapshot_json(&plane.batch_counters()));
    o.set("remote", snapshot_json(&out.remote));
    o.set("wear", snapshot_json(&plane.wear_totals()));
    o.set("index_heap_bytes", plane.index_heap_bytes());
    o
}

/// 95/5 get/put: in an exclusive cache's steady state nearly every get
/// is a miss, answered in its batch's one home-shard visit.
fn stress_read_heavy(ticks: u64) -> Json {
    stress_work(StressConfig::read_heavy(0x9EAD), ticks)
}

/// A put storm against an undersized store: nearly every put runs the
/// eviction path.
fn stress_eviction_storm(ticks: u64) -> Json {
    stress_work(StressConfig::eviction_storm(0xEC0), ticks)
}

fn stress_standard(ticks: u64) -> Json {
    stress_work(StressConfig::standard(0xD1CE), ticks)
}

/// The standard mix with per-shard journaling and a group commit per
/// tick (DESIGN.md §14): its row against `stress_standard`'s is the
/// durable path's extra work, and the two must agree on everything the
/// journal does not touch.
fn stress_standard_journaled(ticks: u64) -> Json {
    stress_work(
        StressConfig {
            journal: true,
            ..StressConfig::standard(0xD1CE)
        },
        ticks,
    )
}

/// Put-dominant: most of each tick is one 64-page `put_many` group, so
/// the row's `batch.lock_acquisitions` per `batch.batched_ops` is the
/// amortization the batch plane achieves. Pools alternate mem/ssd/hybrid
/// policies, so hybrid placement under the home-shard lock is on the path.
fn stress_write_heavy(ticks: u64) -> Json {
    stress_work(StressConfig::write_heavy(0xBA7C), ticks)
}

/// Equal thirds of flush, put and get batches per tick, so every
/// `*_many` entry point is on the path.
fn stress_mixed_write(ticks: u64) -> Json {
    stress_work(
        StressConfig {
            writes_per_tick: 16,
            puts_per_tick: 24,
            gets_per_tick: 24,
            ..StressConfig::write_heavy(0x3117)
        },
        ticks,
    )
}

/// The smoke mix with every pool bound to a simulated chunk-store
/// remote: misses walk the full fetch path (buffer probe, breaker
/// check, hedge/retry bookkeeping, chunk staging).
fn remote_miss_fetch(ticks: u64) -> Json {
    stress_work(StressConfig::remote_smoke(0x6E07), ticks)
}

/// The journal's record kernel with no engine around it: one seeded
/// stream of `Put` (half), `Take` and `Flush` records appended in
/// 32-record `append_run` groups (the shape `drain_scratch` hands a
/// segment), synced, and the durable image replayed. Framing, checksum
/// and decode are all the cell does. Ops = records appended + records
/// replayed.
fn journal_append_replay(records: u64) -> Json {
    const RUN: u64 = 32;
    let mut rng = SimRng::new(0x10C);
    let mut journal = Journal::new();
    let mut run = Vec::with_capacity(RUN as usize);
    let mut appended = 0;
    while appended < records {
        run.clear();
        for _ in 0..RUN {
            let (vm, pool) = (rng.range_u64(1, 3) as u32, rng.range_u64(1, 3) as u32);
            let addr = addr(rng.range_u64(0, 16), rng.range_u64(0, 8192));
            run.push(match rng.next_below(4) {
                0 => JournalRecord::Take { vm, pool, addr },
                1 => JournalRecord::Flush { vm, pool, addr },
                _ => JournalRecord::Put {
                    vm,
                    pool,
                    addr,
                    version: appended,
                    placement: (appended % 2) as u8,
                },
            });
        }
        journal.append_run(&run, appended + 1);
        appended += RUN;
    }
    journal.sync();
    let (replayed, stats) = Journal::replay(&journal.bytes()[..journal.durable_len()]);
    assert!(
        replayed.len() as u64 == appended && !stats.torn_tail && !stats.corrupt,
        "journal cell replayed {stats} of {appended} records appended"
    );
    let mut o = Json::object();
    o.set("ops", appended + replayed.len() as u64);
    o.set("journal_records", appended);
    o.set("journal_bytes", journal.durable_len());
    o.set("records_replayed", replayed.len());
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(work: &Json, key: &str) -> u64 {
        work.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("row has no integer {key}: {work}"))
    }

    /// Every value of a work row is a non-negative integer, at any depth.
    fn integers_only(v: &Json) -> bool {
        match v {
            Json::Obj(members) => members.iter().all(|(_, v)| integers_only(v)),
            other => other.as_u64().is_some(),
        }
    }

    #[test]
    fn matrix_runs_and_counts_ops() {
        // The smoke budget drives every cell through its workload shape;
        // `Cell::work` itself asserts each signature counter non-zero,
        // and no cell may be exempt from that.
        let rows = run_work_with(2, true);
        assert_eq!(rows.len(), CELLS.len());
        for (cell, work) in CELLS.iter().zip(&rows) {
            assert!(!cell.signature.is_empty(), "{}: no signature", cell.name);
            assert!(count(work, "ops") > 0, "{}", cell.name);
            assert!(integers_only(work), "{}: {work}", cell.name);
        }
        let doc = Json::parse(&to_json(rows, true)).expect("own JSON parses");
        let cells = doc.get("cells").and_then(Json::as_array).expect("cells");
        assert_eq!(cells.len(), CELLS.len());
        assert_eq!(
            cells[0].get("name").and_then(Json::as_str),
            Some(CELLS[0].name)
        );
    }

    #[test]
    fn committed_work_rows_carry_their_signatures() {
        // The golden file is what CI compares against, so it is the
        // file that must not go vacuous: one row per cell, signature
        // counters non-zero at the full budget, and — only reachable at
        // that budget — a journaled run long enough to compact.
        let golden = include_str!("../../../../results/work.json");
        let doc = Json::parse(golden).expect("results/work.json parses");
        let rows = doc.get("cells").and_then(Json::as_array).expect("cells");
        assert_eq!(rows.len(), CELLS.len());
        for (cell, row) in CELLS.iter().zip(rows) {
            assert_eq!(row.get("name").and_then(Json::as_str), Some(cell.name));
            let work = row.get("work").expect("work");
            cell.assert_signature(work);
            assert!(integers_only(work), "{}: {work}", cell.name);
            if cell.name == "stress_standard_journaled" {
                assert!(count(work, "journal_compactions") > 0);
            }
        }
    }

    #[test]
    fn journaled_and_volatile_stress_cells_do_identical_work() {
        // The two rows are only a durability tax if both cells serve the
        // same op stream the same way: every counter the journal does
        // not own must agree.
        let (volatile, journaled) = (stress_standard(20), stress_standard_journaled(20));
        for key in [
            "ops",
            "hypercalls",
            "hits",
            "stores",
            "evictions",
            "trickle_downs",
            "mem_pages",
            "ssd_pages",
        ] {
            assert_eq!(count(&volatile, key), count(&journaled, key), "{key}");
        }
        assert_eq!(volatile.get("wear"), journaled.get("wear"));
        assert_eq!(count(&volatile, "journal_records"), 0);
        assert!(count(&journaled, "journal_bytes") > 0);
    }

    #[test]
    fn journal_cell_replays_every_record_it_appends() {
        // At its smoke budget: 625 whole runs, each record counted once
        // going in and once coming back (the cell itself asserts that
        // the replay was complete and clean).
        assert_eq!(count(&journal_append_replay(20_000), "ops"), 40_000);
        // A budget that is not a multiple of the run finishes the run.
        assert_eq!(count(&journal_append_replay(33), "ops"), 128);
    }

    #[test]
    fn batched_and_unbatched_channel_cells_do_identical_work() {
        // Same page ops, same outcomes, same engine state; the batched
        // cell just crosses the hypercall boundary far less often.
        let (batched, unbatched) = (channel_mix(5_000, true), channel_mix(5_000, false));
        let (Json::Obj(b), Json::Obj(u)) = (&batched, &unbatched) else {
            panic!("work rows are objects");
        };
        for ((key, b), (_, u)) in b.iter().zip(u) {
            if key != "hypercalls" {
                assert_eq!(b, u, "{key}");
            }
        }
        assert!(count(&batched, "hypercalls") * 8 < count(&unbatched, "hypercalls"));
        assert_eq!(count(&unbatched, "hypercalls"), count(&unbatched, "ops"));
    }
}
