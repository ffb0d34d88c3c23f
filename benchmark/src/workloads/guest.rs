//! `guest-read-evict` and `guest-durable-write`: real guests
//! (`GuestOs`: page cache, reclaim, cleancache) over one shared
//! `ShardedCache`, one guest per client thread.
//!
//! Both use the same composition and differ only in their [`Shape`]:
//! the read/evict shape keeps the journal off and the guests reading a
//! working set three times the cache, so the read plane, the put paths
//! and eviction do the work; the durable/write shape journals, commits
//! every 64 guest ops, spills to SSD behind the ghost filter and ends
//! with a crash-recovery check, so the journal, flush and wear paths
//! do.

use std::sync::Arc;
use std::time::Instant;

use ddc_core::cleancache::{CachePolicy, ChannelCounters, VmId};
use ddc_core::concurrent::ShardedCache;
use ddc_core::guest::{CgroupId, GuestConfig, GuestEnv, GuestOs};
use ddc_core::hypercache::{AdmissionConfig, CacheConfig};
use ddc_core::hypervisor::vm_file;
use ddc_core::sim::{SimRng, SimTime};
use ddc_core::storage::{BlockAddr, Device, FileId};
use ddc_core::workloads::Zipf;

use super::{
    closed_loop, mean_engine_ns, ratio, run_passes, segments_wall_s, set_channel_metrics,
    set_segment_spread, set_sharded_engine_metrics, set_span_metrics, set_wear_metrics,
    sum_channels, traced_loop, wear_delta, Args, Client, Outcome, Pass, Work, CLIENTS,
};
use crate::spec::{RECOVER_REPEATS, SEGMENTS, TRACE_MAX_DRIVER_OPS};
use crate::stats::median;
use crate::trace::{Aggregate, SpanLog, SpanName};
use crate::wrappers::Backend;

/// Guest RAM, MiB (4,096 pages of 64 KiB).
const GUEST_MEM_MB: u64 = 256;
/// Hard limit of each of a guest's two cgroups, pages.
const CGROUP_LIMIT_PAGES: u64 = 1_536;
/// Blocks each cgroup's clients address (a power of two).
const BLOCKS_PER_CGROUP: u64 = 32_768;
/// Blocks per file, so fsync and delete act on 64-block files.
const BLOCKS_PER_FILE: u64 = 64;
/// Skew of the block popularity.
const ZIPF_THETA: f64 = 0.9;
/// Shards of the shared engine.
const SHARDS: usize = 16;
/// Engine capacity: the two guests' 131,072 blocks are about three
/// times this.
const MEM_PAGES: u64 = 8_192;
const SSD_PAGES: u64 = 32_768;
/// Share of the timed ops run again on the recovered cache.
const SURVIVOR_SHARE: u64 = 20;

/// The block popularity every client samples from.
pub fn popularity() -> Arc<Zipf> {
    Arc::new(Zipf::new(BLOCKS_PER_CGROUP as usize, ZIPF_THETA))
}

/// What distinguishes the two guest workloads.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Journal the engine and end with a recovery check.
    pub journal: bool,
    /// Spill admission of the engine.
    pub admission: AdmissionConfig,
    /// Cache policy of each guest's two cgroups.
    pub policies: [CachePolicy; 2],
    /// Share of block ops that write.
    pub write_share: f64,
    /// An fsync of the file last written follows every this many
    /// writes (0: never).
    pub fsync_every: u32,
    /// One op in this many deletes a whole file (0: never).
    pub delete_one_in: u64,
    /// `commit_tick` every this many guest ops per client (0: never).
    pub commit_every: u64,
}

impl Shape {
    /// `guest-read-evict`: 95 % reads, journal and admission off.
    pub fn read_evict() -> Shape {
        Shape {
            journal: false,
            admission: AdmissionConfig::off(),
            policies: [CachePolicy::mem(50), CachePolicy::hybrid(50)],
            write_share: 0.05,
            fsync_every: 0,
            delete_one_in: 0,
            commit_every: 0,
        }
    }

    /// `guest-durable-write`: two reads per write, an fsync every 32
    /// writes, a file delete every 2,048 ops; journal on, group commit
    /// every 64 ops, ghost admission in front of the SSD.
    pub fn durable_write() -> Shape {
        Shape {
            journal: true,
            admission: AdmissionConfig::ghost(2048),
            policies: [CachePolicy::ssd(50), CachePolicy::hybrid(50)],
            write_share: 1.0 / 3.0,
            fsync_every: 32,
            delete_one_in: 2048,
            commit_every: 64,
        }
    }

    /// The engine configuration the shape runs on.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig::mem_and_ssd(MEM_PAGES, SSD_PAGES).with_admission(self.admission)
    }
}

/// One guest operation of the generated stream *G*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuestOp {
    /// `GuestOs::read` of one block.
    Read(CgroupId, BlockAddr),
    /// `GuestOs::write` of one block.
    Write(CgroupId, BlockAddr),
    /// `GuestOs::fsync` of one file.
    Fsync(CgroupId, FileId),
    /// `GuestOs::delete_file`.
    Delete(CgroupId, FileId),
}

/// The benchmark's seeded generator of guest ops.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: SimRng,
    zipf: Arc<Zipf>,
    vm: VmId,
    cgroups: [CgroupId; 2],
    write_share: f64,
    fsync_every: u32,
    delete_one_in: u64,
    writes: u32,
    fsync_due: Option<(CgroupId, FileId)>,
}

impl OpGen {
    /// A generator for guest `vm` whose cgroups are `cgroups`.
    pub fn new(
        shape: &Shape,
        rng: SimRng,
        zipf: Arc<Zipf>,
        vm: VmId,
        cgroups: [CgroupId; 2],
    ) -> OpGen {
        OpGen {
            rng,
            zipf,
            vm,
            cgroups,
            write_share: shape.write_share,
            fsync_every: shape.fsync_every,
            delete_one_in: shape.delete_one_in,
            writes: 0,
            fsync_due: None,
        }
    }

    fn file(&self, cgroup: usize, index: u64) -> FileId {
        let files_per_cgroup = BLOCKS_PER_CGROUP / BLOCKS_PER_FILE;
        vm_file(self.vm, cgroup as u64 * files_per_cgroup + index)
    }

    /// The next op of the stream.
    pub fn next_op(&mut self) -> GuestOp {
        if let Some((cg, file)) = self.fsync_due.take() {
            return GuestOp::Fsync(cg, file);
        }
        let c = self.rng.next_below(2) as usize;
        let cg = self.cgroups[c];
        if self.delete_one_in > 0 && self.rng.next_below(self.delete_one_in) == 0 {
            let index = self.rng.next_below(BLOCKS_PER_CGROUP / BLOCKS_PER_FILE);
            return GuestOp::Delete(cg, self.file(c, index));
        }
        // Popularity rank → block through an odd multiplier (a
        // bijection on a power-of-two range), so hot blocks spread
        // over files instead of filling the first one.
        let rank = self.zipf.sample(&mut self.rng) as u64;
        let block = rank.wrapping_mul(40_503) & (BLOCKS_PER_CGROUP - 1);
        let addr = BlockAddr::new(
            self.file(c, block / BLOCKS_PER_FILE),
            block % BLOCKS_PER_FILE,
        );
        if self.rng.chance(self.write_share) {
            self.writes += 1;
            if self.fsync_every > 0 && self.writes.is_multiple_of(self.fsync_every) {
                self.fsync_due = Some((cg, addr.file));
            }
            GuestOp::Write(cg, addr)
        } else {
            GuestOp::Read(cg, addr)
        }
    }
}

/// One client thread's guest: the OS model, its private virtual disk,
/// its generator and its virtual clock.
pub struct GuestClient {
    /// The guest OS model under test.
    pub guest: GuestOs,
    /// The guest's private virtual disk.
    pub disk: Device,
    gen: OpGen,
    /// The client's virtual clock: each op starts when the last ended.
    pub now: SimTime,
    /// Guest ops applied so far.
    pub ops: u64,
    commit_every: u64,
    since_commit: u64,
}

impl GuestClient {
    /// Boots guest `vm` on `backend` with the shape's two cgroups.
    pub fn boot<B: Backend>(
        shape: &Shape,
        vm: VmId,
        backend: &mut B,
        rng: SimRng,
        zipf: Arc<Zipf>,
    ) -> GuestClient {
        let mut guest = GuestOs::new(vm, GuestConfig::with_mem_mb(GUEST_MEM_MB));
        let mut disk = Device::hdd();
        let mut env = GuestEnv {
            backend,
            disk: &mut disk,
        };
        let cgroups = [
            guest.create_cgroup(&mut env, "a", CGROUP_LIMIT_PAGES, shape.policies[0]),
            guest.create_cgroup(&mut env, "b", CGROUP_LIMIT_PAGES, shape.policies[1]),
        ];
        GuestClient {
            guest,
            disk,
            gen: OpGen::new(shape, rng, zipf, vm, cgroups),
            now: SimTime::ZERO,
            ops: 0,
            commit_every: shape.commit_every,
            since_commit: 0,
        }
    }

    /// Applies one op of *G* through the guest, then commits if the
    /// shape's group-commit interval is up.
    pub fn apply<B: Backend>(&mut self, backend: &mut B, op: GuestOp, op_id: u32) {
        let name = match op {
            GuestOp::Read(..) => SpanName::GuestRead,
            GuestOp::Write(..) => SpanName::GuestWrite,
            GuestOp::Fsync(..) => SpanName::GuestFsync,
            GuestOp::Delete(..) => SpanName::GuestDelete,
        };
        let span = backend.open_op(name, op_id);
        {
            let mut env = GuestEnv {
                backend,
                disk: &mut self.disk,
            };
            match op {
                GuestOp::Read(cg, addr) => {
                    self.now = self.guest.read(&mut env, self.now, cg, addr).finish;
                }
                GuestOp::Write(cg, addr) => {
                    self.now = self.guest.write(&mut env, self.now, cg, addr).finish;
                }
                GuestOp::Fsync(cg, file) => {
                    self.now = self.guest.fsync(&mut env, self.now, cg, file);
                }
                GuestOp::Delete(cg, file) => self.guest.delete_file(&mut env, cg, file),
            }
        }
        backend.close(span);
        self.ops += 1;
        self.since_commit += 1;
        if self.since_commit == self.commit_every {
            self.since_commit = 0;
            backend.commit();
        }
    }

    /// Draws the next op of *G* without applying it.
    pub fn next_op(&mut self) -> GuestOp {
        self.gen.next_op()
    }

    /// `reads_by_level` summed over the guest's cgroups:
    /// `[page cache, cleancache, disk]`.
    pub fn reads_by_level(&self) -> [u64; 3] {
        let mut sum = [0; 3];
        for cg in self.guest.cgroup_ids() {
            for (s, r) in sum.iter_mut().zip(self.guest.cgroup(cg).reads_by_level) {
                *s += r;
            }
        }
        sum
    }
}

impl Client for GuestClient {
    fn step<B: Backend>(&mut self, backend: &mut B, op_id: u32) -> u64 {
        let span = backend.open_op(SpanName::Gen, op_id);
        let op = self.gen.next_op();
        backend.close(span);
        self.apply(backend, op, op_id);
        1
    }
}

/// The built workload: one engine, one guest and one engine handle per
/// client thread.
pub struct Rig {
    /// The shared engine.
    pub cache: ShardedCache,
    config: CacheConfig,
    /// One guest per client thread.
    pub clients: Vec<GuestClient>,
    /// Each client's clone of the engine (its private read replica).
    pub handles: Vec<ShardedCache>,
}

/// Counters the quality metrics are deltas of.
struct Snapshot {
    reads: [u64; 3],
    per_client: Vec<(u64, SimTime)>,
    wear: ddc_core::storage::wear::WearCounters,
}

impl Rig {
    /// Builds the engine and its [`CLIENTS`] guests from `seed`.
    fn build(shape: &Shape, seed: u64) -> Rig {
        let config = shape.cache_config();
        let cache = ShardedCache::new(config, SHARDS);
        if shape.journal {
            cache.enable_journal();
        }
        let zipf = popularity();
        let mut seeds = SimRng::new(seed);
        let mut clients = Vec::with_capacity(CLIENTS);
        let mut handles = Vec::with_capacity(CLIENTS);
        for t in 0..CLIENTS {
            let vm = VmId(t as u32 + 1);
            cache.add_vm(vm, 100);
            let mut handle = cache.clone();
            let rng = seeds.fork(t as u64);
            clients.push(GuestClient::boot(
                shape,
                vm,
                &mut handle,
                rng,
                Arc::clone(&zipf),
            ));
            handles.push(handle);
        }
        Rig {
            cache,
            config,
            clients,
            handles,
        }
    }

    /// Builds and warms up: page caches and the engine fill until the
    /// engine evicts.
    pub fn warmed(shape: &Shape, args: &Args, warm_ops: u64) -> Rig {
        let mut rig = Rig::build(shape, args.seed);
        closed_loop(
            &mut rig.clients,
            &mut rig.handles,
            args.threads,
            warm_ops,
            1,
        );
        rig
    }

    fn snapshot(&self) -> Snapshot {
        let mut reads = [0; 3];
        for c in &self.clients {
            for (s, r) in reads.iter_mut().zip(c.reads_by_level()) {
                *s += r;
            }
        }
        Snapshot {
            reads,
            per_client: self.clients.iter().map(|c| (c.ops, c.now)).collect(),
            wear: self.cache.wear_totals(),
        }
    }

    fn channel_sum(&self) -> ChannelCounters {
        sum_channels(self.clients.iter().map(|c| c.guest.channel().counters()))
    }

    fn stale_hits(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.guest.counters().stale_cleancache_hits)
            .sum()
    }

    /// The durable journal image: every segment cut to what was
    /// flushed. A killed process would keep the operating system's
    /// cache, so the test itself discards the unflushed bytes.
    fn durable_image(&self) -> Vec<Vec<u8>> {
        let images = self.cache.journal_images().expect("journaling on");
        let lens = self.cache.journal_durable_lens().expect("journaling on");
        images
            .into_iter()
            .zip(lens)
            .map(|(mut image, len)| {
                image.truncate(len);
                image
            })
            .collect()
    }

    fn guest_epochs(&self) -> Vec<(VmId, u64)> {
        self.clients
            .iter()
            .map(|c| (c.guest.vm(), c.guest.flush_epoch()))
            .collect()
    }
}

/// Entries of `cache` whose version is not what the owning guest's disk
/// holds — what a guest would read stale after the restart.
fn stale_entries(clients: &[GuestClient], cache: &ShardedCache) -> u64 {
    cache
        .entries()
        .iter()
        .filter(|(vm, _, addr, version)| {
            clients
                .iter()
                .find(|c| c.guest.vm() == *vm)
                .is_none_or(|c| c.guest.disk_version(*addr) != *version)
        })
        .count() as u64
}

/// `[hit_ratio, sim_ops_per_sim_s, ssd_write_amp]` of the timed phase,
/// from counter deltas.
fn quality(before: &Snapshot, after: &Snapshot) -> [f64; 3] {
    let hits = after.reads[1] - before.reads[1];
    let disk = after.reads[2] - before.reads[2];
    let sim_rate: f64 = before
        .per_client
        .iter()
        .zip(&after.per_client)
        .map(|(b, a)| (a.0 - b.0) as f64 / (a.1 - b.1).as_secs_f64())
        .sum();
    let wear = wear_delta(after.wear, before.wear);
    [
        ratio(hits, hits + disk),
        sim_rate,
        ratio(wear.ssd_pages_written, wear.pages_admitted),
    ]
}

/// Oracles every run ends with: no stale second-chance hit, no failed
/// outcome, a clean audit.
fn verify_live(rig: &Rig, out: &mut Outcome) {
    out.fail("stale second-chance hits", rig.stale_hits());
    out.fail(
        "Failed get/put outcomes (fail-opens)",
        rig.channel_sum().fail_opens,
    );
    out.fail(
        "concurrent::audit findings",
        ddc_core::concurrent::audit(&rig.cache).len() as u64,
    );
}

/// What [`recover_and_continue`] measured.
struct Recovery {
    report: ddc_core::concurrent::ShardedRecoveryReport,
    /// Median seconds of the recoveries.
    secs: f64,
    /// Bytes of the durable image recovered from.
    image_bytes: u64,
}

/// Crash-recovery oracle of the journaled shape: final commit, the
/// engine dies (its memory is gone before recovery starts, as after a
/// real crash), recover from the durable image only, every recovered
/// entry must match its guest's disk, and the guests keep running on
/// the survivor without a stale hit.
fn recover_and_continue(
    rig: Rig,
    out: &mut Outcome,
    threads: usize,
    survivor_ops: u64,
    repeats: usize,
) -> (Rig, Recovery) {
    rig.cache.commit_tick();
    let image = rig.durable_image();
    let epochs = rig.guest_epochs();
    let Rig {
        config,
        mut clients,
        ..
    } = rig;
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t0 = Instant::now();
        let recovered = ShardedCache::recover(config, &image, &epochs);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(recovered);
    }
    let (survivor, report) = last.expect("at least one recovery");
    out.fail(
        "stale recovered entries",
        stale_entries(&clients, &survivor),
    );

    for c in &mut clients {
        let vm = c.guest.vm();
        let renewed = report
            .new_epochs
            .iter()
            .find(|(v, _)| *v == vm)
            .map_or(0, |&(_, e)| e);
        c.guest
            .note_recovery_epoch(renewed.max(c.guest.flush_epoch()));
    }
    let mut rig = Rig {
        handles: clients.iter().map(|_| survivor.clone()).collect(),
        cache: survivor,
        config,
        clients,
    };
    let segments = closed_loop(&mut rig.clients, &mut rig.handles, threads, survivor_ops, 1);
    out.attempted += segments.iter().map(|s| s.ops).sum::<u64>();
    verify_live(&rig, out);
    let recovery = Recovery {
        report,
        secs: median(&times),
        image_bytes: image.iter().map(|s| s.len() as u64).sum(),
    };
    (rig, recovery)
}

/// The untraced run: end-to-end metrics.
pub fn run(shape: &Shape, args: &Args, out: &mut Outcome) {
    let work = Work::of(args);
    // With one client nothing races, so every count repeats.
    run_passes(out, args.threads == 1, |out| {
        let t0 = Instant::now();
        let mut rig = Rig::warmed(shape, args, work.warm);
        let setup_s = t0.elapsed().as_secs_f64();
        if !args.smoke {
            assert!(
                rig.cache.evictions() > 0,
                "warm-up must fill the engine until it evicts"
            );
        }

        let before = rig.snapshot();
        let segments = closed_loop(
            &mut rig.clients,
            &mut rig.handles,
            args.threads,
            work.timed,
            SEGMENTS,
        );
        let quality = quality(&before, &rig.snapshot());

        verify_live(&rig, out);
        if shape.journal {
            recover_and_continue(rig, out, args.threads, work.timed / SURVIVOR_SHARE, 1);
        }
        Pass {
            setup_s,
            segments,
            quality,
        }
    });
    out.info
        .push(("warm_ops_per_client", work.warm.to_string()));
    out.info
        .push(("timed_ops_per_client_per_pass", work.timed.to_string()));
}

/// One traced pass over the cut stream from a fresh build, on
/// `threads` threads; returns the rig, its counters before the pass,
/// the spans and the wall seconds.
fn traced_pass(
    shape: &Shape,
    args: &Args,
    work: Work,
    threads: usize,
) -> (Rig, Snapshot, Vec<SpanLog>, f64) {
    let mut rig = Rig::warmed(shape, args, work.warm);
    let before = rig.snapshot();
    let (logs, wall) = traced_loop(&mut rig.clients, &mut rig.handles, threads, work.timed);
    (rig, before, logs, wall)
}

/// The traced run: per-layer metrics.
pub fn trace(shape: &Shape, args: &Args, out: &mut Outcome) {
    let work = Work::of(args).cut(TRACE_MAX_DRIVER_OPS);

    // One discarded build first: the passes below are compared with
    // each other, so none of them should be the one that grows the heap.
    drop(Rig::warmed(shape, args, work.warm));
    // The same ops untraced, for the overhead ratio and segment spread.
    let mut plain = Rig::warmed(shape, args, work.warm);
    let segments = closed_loop(
        &mut plain.clients,
        &mut plain.handles,
        args.threads,
        work.timed,
        SEGMENTS,
    );
    set_segment_spread(out, &segments);
    let untraced_wall = segments_wall_s(&segments);
    drop(plain);

    let (rig, before, logs, traced_wall) = traced_pass(shape, args, work, args.threads);
    let after = rig.snapshot();
    super::maybe_dump(args, &logs);
    let mut agg = Aggregate::from_logs(&logs);
    drop(logs);
    set_span_metrics(
        out,
        &mut agg,
        work.timed * CLIENTS as u64,
        traced_wall,
        untraced_wall,
    );

    out.set("guest.read_s", agg.get(SpanName::GuestRead).total_s());
    out.set("guest.write_s", agg.get(SpanName::GuestWrite).total_s());
    out.set("guest.fsync_s", agg.get(SpanName::GuestFsync).total_s());
    let guest_calls = agg.merged(&[
        SpanName::GuestRead,
        SpanName::GuestWrite,
        SpanName::GuestFsync,
        SpanName::GuestDelete,
    ]);
    out.set("guest.self_s", guest_calls.self_s());
    for (key, span, p) in [
        ("guest.read_p50_ns", SpanName::GuestRead, 0.5),
        ("guest.read_p99_ns", SpanName::GuestRead, 0.99),
        ("guest.write_p50_ns", SpanName::GuestWrite, 0.5),
        ("guest.write_p99_ns", SpanName::GuestWrite, 0.99),
    ] {
        out.set(key, agg.get(span).percentile_ns(p));
    }

    // Counts at the same boundaries, over the traced phase only where
    // the program lets us take a delta.
    out.set(
        "guest.reads_pagecache",
        (after.reads[0] - before.reads[0]) as f64,
    );
    out.set(
        "guest.reads_cleancache",
        (after.reads[1] - before.reads[1]) as f64,
    );
    out.set(
        "guest.reads_disk",
        (after.reads[2] - before.reads[2]) as f64,
    );
    let (mut puts, mut writebacks) = (0, 0);
    let (mut hdd_reads, mut hdd_writes, mut hdd_busy) = (0, 0, 0.0);
    for c in &rig.clients {
        let g = c.guest.counters();
        puts += g.cleancache_puts;
        writebacks += g.writebacks;
        hdd_reads += c.disk.reads();
        hdd_writes += c.disk.writes();
        hdd_busy += c.disk.busy_time().as_secs_f64();
    }
    out.set("guest.cleancache_puts", puts as f64);
    out.set("guest.writebacks", writebacks as f64);
    out.set("guest.stale_hits", rig.stale_hits() as f64);
    out.set("device.hdd_reads", hdd_reads as f64);
    out.set("device.hdd_writes", hdd_writes as f64);
    out.set("device.hdd_busy_sim_s", hdd_busy);
    let channel = rig.channel_sum();
    set_channel_metrics(out, &channel);
    set_sharded_engine_metrics(out, &rig.cache, &rig.handles, &channel);
    set_wear_metrics(out, wear_delta(after.wear, before.wear));
    verify_live(&rig, out);

    if shape.journal {
        let live_entries = rig.cache.entries().len() as u64;
        let (_, r) = recover_and_continue(
            rig,
            out,
            args.threads,
            work.timed / SURVIVOR_SHARE,
            RECOVER_REPEATS,
        );
        out.set("journal.bytes_at_end", r.image_bytes as f64);
        out.set(
            "journal.bytes_per_live_entry",
            ratio(r.image_bytes, live_entries),
        );
        out.set("journal.recover_s", r.secs);
        out.set(
            "journal.recover_records_replayed",
            r.report.records_replayed as f64,
        );
        out.set(
            "journal.recover_gap_discarded",
            r.report.gap_discarded as f64,
        );
        out.set("journal.recover_entries", r.report.recovered_entries as f64);
        out.set(
            "journal.recover_ns_per_record",
            r.secs * 1e9 / r.report.records_replayed.max(1) as f64,
        );
    } else {
        drop(rig);
    }

    // Waiting: the same stream on one thread has no one to wait for.
    if args.threads > 1 {
        let contended = mean_engine_ns(&agg);
        let (_, _, logs, _) = traced_pass(shape, args, work, 1);
        let alone = mean_engine_ns(&Aggregate::from_logs(&logs));
        out.set("engine.wait_ns_per_call", contended - alone);
    }
    out.info
        .push(("warm_ops_per_client", work.warm.to_string()));
    out.info
        .push(("traced_ops_per_client", work.timed.to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_core::cleancache::{PageVersion, SecondChanceCache};

    fn small_args(workload: &str) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 1,
            smoke: true,
            threads: 1,
            dump_spans: false,
        }
    }

    #[test]
    fn generator_repeats_for_a_seed_and_mixes_ops() {
        let shape = Shape::durable_write();
        let zipf = popularity();
        let make = |seed| {
            OpGen::new(
                &shape,
                SimRng::new(seed),
                Arc::clone(&zipf),
                VmId(1),
                [CgroupId(0), CgroupId(1)],
            )
        };
        let (mut a, mut b, mut c) = (make(1), make(1), make(2));
        let ops_a: Vec<GuestOp> = (0..20_000).map(|_| a.next_op()).collect();
        let ops_b: Vec<GuestOp> = (0..20_000).map(|_| b.next_op()).collect();
        let ops_c: Vec<GuestOp> = (0..20_000).map(|_| c.next_op()).collect();
        assert_eq!(ops_a, ops_b);
        assert_ne!(ops_a, ops_c);
        let count = |f: fn(&GuestOp) -> bool| ops_a.iter().filter(|o| f(o)).count();
        let writes = count(|o| matches!(o, GuestOp::Write(..)));
        let fsyncs = count(|o| matches!(o, GuestOp::Fsync(..)));
        let deletes = count(|o| matches!(o, GuestOp::Delete(..)));
        assert!((6_000..7_400).contains(&writes), "{writes}");
        assert_eq!(fsyncs, writes / 32);
        assert!((2..30).contains(&deletes), "{deletes}");
        // An fsync names the file of the write just before it.
        let i = ops_a
            .iter()
            .position(|o| matches!(o, GuestOp::Fsync(..)))
            .unwrap();
        match (ops_a[i - 1], ops_a[i]) {
            (GuestOp::Write(cg, addr), GuestOp::Fsync(cg2, file)) => {
                assert_eq!((cg, addr.file), (cg2, file));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn smoke_runs_are_correct_and_report_every_metric() {
        for (name, shape) in [
            ("guest-read-evict", Shape::read_evict()),
            ("guest-durable-write", Shape::durable_write()),
        ] {
            let mut out = Outcome::default();
            run(&shape, &small_args(name), &mut out);
            assert_eq!(out.failures, [], "{name}");
            assert!(out.attempted > 0);
            for key in [
                "setup_s",
                "ops_per_s",
                "hit_ratio",
                "sim_ops_per_sim_s",
                "ssd_write_amp",
            ] {
                assert!(out.metrics[key] > 0.0, "{name} {key}");
            }
        }
    }

    /// The exit code depends on this: a stale version planted in the
    /// engine behind the guest's back must surface as failed ops, both
    /// through the live read path and through the recovered-cache sweep.
    #[test]
    fn an_injected_stale_version_fails_the_run() {
        let shape = Shape::durable_write();
        let mut rig = Rig::warmed(&shape, &small_args("guest-durable-write"), 20_000);
        let mut out = Outcome::default();
        verify_live(&rig, &mut out);
        assert_eq!(out.failed(), 0, "{:?}", out.failures);

        // Plant version 999 of a block the guest has never written
        // (its disk holds the initial version) in the guest's own pool.
        let vm = rig.clients[0].guest.vm();
        let cg = rig.clients[0].guest.cgroup_ids()[0];
        let pool = rig.clients[0].guest.cgroup(cg).pool().unwrap();
        let addr = BlockAddr::new(vm_file(vm, 1_000_000), 0);
        let stored = rig.handles[0].put(rig.clients[0].now, vm, pool, addr, PageVersion(999));
        assert!(stored.is_stored());

        // The recovered-cache sweep sees it...
        let mut swept = Outcome::default();
        swept.fail(
            "stale recovered entries",
            stale_entries(&rig.clients, &rig.cache),
        );
        assert_eq!(swept.failed(), 1);
        // ...and so does the guest's own read path (which, in a debug
        // build, asserts on the spot instead of counting).
        if cfg!(debug_assertions) {
            return;
        }
        rig.clients[0].apply(&mut rig.handles[0], GuestOp::Read(cg, addr), 0);
        let mut live = Outcome::default();
        verify_live(&rig, &mut live);
        assert_eq!(live.failed(), 1, "{:?}", live.failures);
        assert_eq!(live.failures[0].0, "stale second-chance hits");
    }

    #[test]
    fn recovery_keeps_the_cache_and_the_guests_running() {
        let shape = Shape::durable_write();
        let rig = Rig::warmed(&shape, &small_args("guest-durable-write"), 30_000);
        let live = rig.cache.entries().len() as u64;
        assert!(live > 0);
        let mut out = Outcome::default();
        let (rig, r) = recover_and_continue(rig, &mut out, 1, 2_000, 2);
        assert_eq!(out.failed(), 0, "{:?}", out.failures);
        assert_eq!(out.attempted, 2_000 * CLIENTS as u64);
        assert_eq!(
            r.report.recovered_entries, live,
            "a clean cut loses nothing"
        );
        assert_eq!(r.report.gap_discarded, 0);
        assert!(r.secs > 0.0 && r.image_bytes > 0);
        assert!(rig.cache.journal_enabled(), "the survivor journals on");
    }
}
