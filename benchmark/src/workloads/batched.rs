//! `engine-batched`: no guest. Each client is a `HypercallChannel` on
//! its own clone of one journaled `ShardedCache` and issues, per tick,
//! one `flush_many`, one `put_many` and one `get_many`, then commits —
//! the `StressConfig::write_heavy` shape, with the loop living here so
//! every call can be timed. The cache holds the whole working set, so
//! nothing evicts: this is the same engine as the guest workloads used
//! through its vectorised group paths only.

use std::time::Instant;

use ddc_core::cleancache::{
    CachePolicy, ChannelCounters, GetOutcome, HypercallChannel, PageVersion, PoolId, VmId,
};
use ddc_core::concurrent::ShardedCache;
use ddc_core::hypercache::CacheConfig;
use ddc_core::sim::{SimRng, SimTime};
use ddc_core::storage::wear::WearCounters;
use ddc_core::storage::{BlockAddr, FileId};

use super::{
    closed_loop, mean_engine_ns, ratio, run_passes, segments_wall_s, set_channel_metrics,
    set_segment_spread, set_sharded_engine_metrics, set_span_metrics, set_wear_metrics,
    sum_channels, traced_loop, wear_delta, Args, Client, Outcome, Pass, Work, CLIENTS,
};
use crate::spec::SEGMENTS;
use crate::trace::{Aggregate, SpanLog, SpanName};
use crate::wrappers::Backend;

const SHARDS: usize = 16;
/// Capacity ≥ the working set (2 VMs × 2 pools × 8,192 blocks).
const MEM_PAGES: u64 = 16_384;
const SSD_PAGES: u64 = 65_536;
const POOLS_PER_VM: usize = 2;
const BLOCKS_PER_POOL: u64 = 8_192;
const FLUSHES_PER_TICK: usize = 8;
const PUTS_PER_TICK: usize = 32;
const GETS_PER_TICK: usize = 32;
/// Ticks the traced run is cut to (2.9 M page ops).
const TRACE_MAX_TICKS: u64 = 40_000;
/// Page ops per driver op (one tick).
pub const OPS_PER_TICK: u64 = (FLUSHES_PER_TICK + PUTS_PER_TICK + GETS_PER_TICK) as u64;

/// One VM's batched hypercall client with its disk model (the version
/// each block last had written), which is the stale-read oracle.
pub struct BatchClient {
    channel: HypercallChannel,
    rng: SimRng,
    pools: [PoolId; POOLS_PER_VM],
    files: [FileId; POOLS_PER_VM],
    disk: [Vec<PageVersion>; POOLS_PER_VM],
    tick: u64,
    /// The client's virtual clock.
    pub now: SimTime,
    /// Hits whose version was not the disk model's.
    pub stale_hits: u64,
    flushes: Vec<BlockAddr>,
    puts: Vec<(BlockAddr, PageVersion)>,
    gets: Vec<BlockAddr>,
}

impl BatchClient {
    fn new(index: u32, backend: &mut ShardedCache, rng: SimRng) -> BatchClient {
        let vm = VmId(index + 1);
        backend.add_vm(vm, 100 + 50 * u64::from(index % 3));
        let mut channel = HypercallChannel::new(vm);
        // The write_heavy policy rotation: mem / ssd / hybrid.
        let policy = |pool: u32| match (index + pool) % 3 {
            0 => CachePolicy::mem(100),
            1 => CachePolicy::ssd(80),
            _ => CachePolicy::hybrid(60),
        };
        let pools = [
            channel.create_pool(backend, policy(0)),
            channel.create_pool(backend, policy(1)),
        ];
        let file = |pool: u64| FileId(1 + u64::from(index) * POOLS_PER_VM as u64 + pool);
        BatchClient {
            channel,
            rng,
            pools,
            files: [file(0), file(1)],
            disk: [
                vec![PageVersion::INITIAL; BLOCKS_PER_POOL as usize],
                vec![PageVersion::INITIAL; BLOCKS_PER_POOL as usize],
            ],
            tick: 0,
            now: SimTime::ZERO,
            stale_hits: 0,
            flushes: Vec::with_capacity(FLUSHES_PER_TICK),
            puts: Vec::with_capacity(PUTS_PER_TICK),
            gets: Vec::with_capacity(GETS_PER_TICK),
        }
    }

    /// Draws one tick's three batches. A guest write moves the disk
    /// version, so the cached copy must be flushed; a put stores the
    /// current disk version; a lookup may hit only that version.
    fn generate(&mut self, p: usize) {
        let file = self.files[p];
        self.flushes.clear();
        for _ in 0..FLUSHES_PER_TICK {
            let block = self.rng.next_below(BLOCKS_PER_POOL);
            let v = &mut self.disk[p][block as usize];
            *v = v.bump();
            self.flushes.push(BlockAddr::new(file, block));
        }
        self.puts.clear();
        for _ in 0..PUTS_PER_TICK {
            let block = self.rng.next_below(BLOCKS_PER_POOL);
            self.puts
                .push((BlockAddr::new(file, block), self.disk[p][block as usize]));
        }
        self.gets.clear();
        for _ in 0..GETS_PER_TICK {
            let block = self.rng.next_below(BLOCKS_PER_POOL);
            self.gets.push(BlockAddr::new(file, block));
        }
    }
}

impl Client for BatchClient {
    fn step<B: Backend>(&mut self, backend: &mut B, op: u32) -> u64 {
        let p = (self.tick % POOLS_PER_VM as u64) as usize;
        self.tick += 1;
        let span = backend.open_op(SpanName::Gen, op);
        self.generate(p);
        backend.close(span);

        let span = backend.open_op(SpanName::ChannelTick, op);
        let pool = self.pools[p];
        let call_cost = HypercallChannel::DEFAULT_CALL_COST;
        self.channel.flush_many(backend, pool, &self.flushes);
        self.now += call_cost;
        let mut finish = self.now + call_cost;
        for out in self.channel.put_many(backend, self.now, pool, &self.puts) {
            if let ddc_core::cleancache::PutOutcome::Stored { finish: f } = out {
                finish = finish.max(f);
            }
        }
        self.now = finish;
        let mut finish = self.now + call_cost;
        let outcomes = self.channel.get_many(backend, self.now, pool, &self.gets);
        for (addr, out) in self.gets.iter().zip(outcomes) {
            if let GetOutcome::Hit { finish: f, version } = out {
                finish = finish.max(f);
                if version != self.disk[p][addr.block as usize] {
                    self.stale_hits += 1;
                }
            }
        }
        self.now = finish;
        backend.commit();
        backend.close(span);
        OPS_PER_TICK
    }
}

/// The built workload.
pub struct Rig {
    cache: ShardedCache,
    clients: Vec<BatchClient>,
    handles: Vec<ShardedCache>,
}

impl Rig {
    fn build(seed: u64) -> Rig {
        let cache = ShardedCache::new(CacheConfig::mem_and_ssd(MEM_PAGES, SSD_PAGES), SHARDS);
        cache.enable_journal();
        let mut seeds = SimRng::new(seed);
        let mut clients = Vec::with_capacity(CLIENTS);
        let mut handles = Vec::with_capacity(CLIENTS);
        for t in 0..CLIENTS {
            let mut handle = cache.clone();
            clients.push(BatchClient::new(
                t as u32,
                &mut handle,
                seeds.fork(t as u64),
            ));
            handles.push(handle);
        }
        Rig {
            cache,
            clients,
            handles,
        }
    }

    fn warmed(args: &Args, warm_ticks: u64) -> Rig {
        let mut rig = Rig::build(args.seed);
        closed_loop(
            &mut rig.clients,
            &mut rig.handles,
            args.threads,
            warm_ticks,
            1,
        );
        rig
    }

    fn channel_sum(&self) -> ChannelCounters {
        sum_channels(self.clients.iter().map(|c| c.channel.counters()))
    }

    fn clocks(&self) -> Vec<(u64, SimTime)> {
        self.clients.iter().map(|c| (c.tick, c.now)).collect()
    }
}

fn verify(rig: &Rig, out: &mut Outcome) {
    out.fail(
        "stale hits against the disk model",
        rig.clients.iter().map(|c| c.stale_hits).sum(),
    );
    out.fail(
        "Failed get/put outcomes (fail-opens)",
        rig.channel_sum().fail_opens,
    );
    out.fail(
        "concurrent::audit findings",
        ddc_core::concurrent::audit(&rig.cache).len() as u64,
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, out: &mut Outcome) {
    let work = Work::of(args);
    // Each client has keys of its own and nothing evicts, so every
    // count repeats whatever the interleaving.
    run_passes(out, true, |out| {
        let t0 = Instant::now();
        let mut rig = Rig::warmed(args, work.warm);
        let setup_s = t0.elapsed().as_secs_f64();

        let (chan_before, wear_before, clocks_before) =
            (rig.channel_sum(), rig.cache.wear_totals(), rig.clocks());
        let segments = closed_loop(
            &mut rig.clients,
            &mut rig.handles,
            args.threads,
            work.timed,
            SEGMENTS,
        );

        let chan = rig.channel_sum();
        let sim_rate: f64 = clocks_before
            .iter()
            .zip(rig.clocks())
            .map(|(b, a)| ((a.0 - b.0) * OPS_PER_TICK) as f64 / (a.1 - b.1).as_secs_f64())
            .sum();
        let wear = wear_delta(rig.cache.wear_totals(), wear_before);
        verify(&rig, out);
        Pass {
            setup_s,
            segments,
            quality: [
                ratio(
                    chan.get_hits - chan_before.get_hits,
                    chan.gets - chan_before.gets,
                ),
                sim_rate,
                ratio(wear.ssd_pages_written, wear.pages_admitted),
            ],
        }
    });
    out.info
        .push(("warm_ticks_per_client", work.warm.to_string()));
    out.info
        .push(("timed_ticks_per_client_per_pass", work.timed.to_string()));
    out.info
        .push(("page_ops_per_tick", OPS_PER_TICK.to_string()));
}

/// One traced pass over the cut stream from a fresh build, on
/// `threads` threads; returns the rig, its wear before the pass, the
/// spans and the wall seconds.
fn traced_pass(args: &Args, work: Work, threads: usize) -> (Rig, WearCounters, Vec<SpanLog>, f64) {
    let mut rig = Rig::warmed(args, work.warm);
    let wear_before = rig.cache.wear_totals();
    let (logs, wall) = traced_loop(&mut rig.clients, &mut rig.handles, threads, work.timed);
    (rig, wear_before, logs, wall)
}

/// The traced run: per-layer metrics.
pub fn trace(args: &Args, out: &mut Outcome) {
    let work = Work::of(args).cut(TRACE_MAX_TICKS);

    // One discarded build first: the passes below are compared with
    // each other, so none of them should be the one that grows the heap.
    drop(Rig::warmed(args, work.warm));
    let mut plain = Rig::warmed(args, work.warm);
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

    let (rig, wear_before, logs, traced_wall) = traced_pass(args, work, args.threads);
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
    let channel = rig.channel_sum();
    set_channel_metrics(out, &channel);
    set_sharded_engine_metrics(out, &rig.cache, &rig.handles, &channel);
    set_wear_metrics(out, wear_delta(rig.cache.wear_totals(), wear_before));
    let image_bytes: u64 = rig
        .cache
        .journal_images()
        .expect("journaling on")
        .iter()
        .map(|s| s.len() as u64)
        .sum();
    out.set("journal.bytes_at_end", image_bytes as f64);
    out.set(
        "journal.bytes_per_live_entry",
        ratio(image_bytes, rig.cache.entries().len() as u64),
    );
    verify(&rig, out);
    drop(rig);

    if args.threads > 1 {
        let contended = mean_engine_ns(&agg);
        let (_, _, logs, _) = traced_pass(args, work, 1);
        let alone = mean_engine_ns(&Aggregate::from_logs(&logs));
        out.set("engine.wait_ns_per_call", contended - alone);
    }
    out.info
        .push(("warm_ticks_per_client", work.warm.to_string()));
    out.info
        .push(("traced_ticks_per_client", work.timed.to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args() -> Args {
        Args {
            workload: "engine-batched".to_owned(),
            seed: 11,
            seconds: 1,
            smoke: true,
            threads: 1,
            dump_spans: false,
        }
    }

    #[test]
    fn smoke_run_is_correct_and_nothing_evicts() {
        let mut out = Outcome::default();
        run(&args(), &mut out);
        assert_eq!(out.failures, []);
        assert_eq!(out.attempted % OPS_PER_TICK, 0);
        assert!(out.metrics["hit_ratio"] > 0.0 && out.metrics["hit_ratio"] < 1.0);
        assert!(out.metrics["ssd_write_amp"] > 0.0);
        assert!(out.metrics["sim_ops_per_sim_s"] > 0.0);
        let rig = Rig::warmed(&args(), 500);
        assert_eq!(rig.cache.evictions(), 0);
    }

    #[test]
    fn the_disk_model_catches_a_stale_version() {
        let mut rig = Rig::warmed(&args(), 50);
        let mut out = Outcome::default();
        verify(&rig, &mut out);
        assert_eq!(out.failed(), 0);
        // Age every block's disk version behind the cache's back: the
        // copies the cache still holds are now stale, and no flush told
        // it so.
        for v in rig.clients[0].disk.iter_mut().flatten() {
            *v = v.bump();
        }
        for op in 0..50 {
            rig.clients[0].step(&mut rig.handles[0], op);
        }
        let mut out = Outcome::default();
        verify(&rig, &mut out);
        assert!(out.failed() > 0);
        assert_eq!(out.failures[0].0, "stale hits against the disk model");
    }
}
