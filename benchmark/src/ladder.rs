//! The layer ladder and the two micro-rungs.
//!
//! One seeded guest-op stream *G* (the `guest-durable-write` shape,
//! guest 0) is pushed through a `Recorder`, which captures the
//! hypercall stream *S* it causes. *S* is then replayed single-threaded
//! at each boundary below the guest — bare `index::Pool`, serial
//! engine, sharded engine, sharded engine with journal, through the
//! hypercall channel — and *G* itself through `GuestOs`, with and
//! without its generator. Every rung is reported in nanoseconds per op
//! of *G*, so the cost of a layer is the difference of two adjacent
//! rungs, and because the stream is fixed the counts repeat exactly.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use ddc_core::cleancache::{
    CachePolicy, GetOutcome, HypercallChannel, PageVersion, PoolId, PoolStats, PutOutcome,
    SecondChanceCache, VmId,
};
use ddc_core::concurrent::ShardedCache;
use ddc_core::guest::PageCache;
use ddc_core::hypercache::index::{Placement, Pool};
use ddc_core::hypercache::DoubleDeckerCache;
use ddc_core::sim::{SimRng, SimTime};
use ddc_core::storage::{BlockAddr, FileId, Journal, JournalRecord};

use crate::spec::{LADDER_GUEST_OPS, LADDER_REPEATS};
use crate::stats::median;
use crate::workloads::guest::{popularity, GuestClient, GuestOp, Shape};
use crate::workloads::{Client, Outcome};
use crate::wrappers::{replay, Backend, Call, Recorder};

const VM: VmId = VmId(1);
const SHARDS: usize = 16;
/// Ops of each micro-rung.
const MICRO_OPS: u64 = 200_000;

/// The lowest rung: *S* into bare `index::Pool`s — one hash probe and a
/// FIFO per op, with `pop_oldest` at capacity standing in for every
/// policy above it.
struct BareIndex {
    pools: Vec<Pool>,
    capacity: u64,
    seq: u64,
}

impl BareIndex {
    fn new(capacity: u64) -> BareIndex {
        BareIndex {
            pools: Vec::new(),
            capacity,
            seq: 0,
        }
    }

    fn pool(&mut self, id: PoolId) -> &mut Pool {
        // Ids are dealt from 1, like the engines'.
        &mut self.pools[id.0 as usize - 1]
    }

    fn insert(&mut self, id: PoolId, addr: BlockAddr, version: PageVersion) {
        if self.pools.iter().map(Pool::total_used).sum::<u64>() >= self.capacity {
            self.pool(id).pop_oldest(Placement::Mem);
        }
        self.seq += 1;
        let seq = self.seq;
        self.pool(id).insert(addr, Placement::Mem, version, seq);
    }
}

impl SecondChanceCache for BareIndex {
    fn create_pool(&mut self, vm: VmId, policy: CachePolicy) -> PoolId {
        self.pools.push(Pool::new(vm, policy));
        PoolId(self.pools.len() as u32)
    }

    fn destroy_pool(&mut self, _vm: VmId, pool: PoolId) {
        self.pool(pool).drain();
    }

    fn set_policy(&mut self, _vm: VmId, pool: PoolId, policy: CachePolicy) {
        self.pool(pool).set_policy(policy);
    }

    fn migrate_object(&mut self, _vm: VmId, from: PoolId, to: PoolId, addr: BlockAddr) {
        if let Some(slot) = self.pool(from).remove(addr) {
            self.insert(to, addr, slot.version);
        }
    }

    fn pool_stats(&self, _vm: VmId, _pool: PoolId) -> Option<PoolStats> {
        None
    }

    fn get(&mut self, now: SimTime, _vm: VmId, pool: PoolId, addr: BlockAddr) -> GetOutcome {
        match self.pool(pool).remove(addr) {
            Some(slot) => GetOutcome::Hit {
                finish: now,
                version: slot.version,
            },
            None => GetOutcome::Miss,
        }
    }

    fn put(
        &mut self,
        now: SimTime,
        _vm: VmId,
        pool: PoolId,
        addr: BlockAddr,
        version: PageVersion,
    ) -> PutOutcome {
        self.insert(pool, addr, version);
        PutOutcome::Stored { finish: now }
    }

    fn flush(&mut self, _vm: VmId, pool: PoolId, addr: BlockAddr) -> u64 {
        self.pool(pool).remove(addr);
        0
    }

    fn flush_file(&mut self, _vm: VmId, pool: PoolId, file: FileId) -> u64 {
        self.pool(pool).remove_file(file);
        0
    }
}

impl Backend for BareIndex {
    fn commit(&mut self) {}
}

/// Replays *S* through a `HypercallChannel` (the `channel` rung).
/// Returns the number of hits, so the work cannot be optimised away.
fn replay_through_channel<C: Backend>(calls: &[Call], backend: &mut C) -> u64 {
    let mut channel = HypercallChannel::new(VM);
    let mut hits = 0;
    for call in calls {
        match *call {
            Call::CreatePool { policy, .. } => {
                channel.create_pool(backend, policy);
            }
            Call::Get {
                now, pool, addr, ..
            } => hits += u64::from(channel.get(backend, now, pool, addr).is_hit()),
            Call::Put {
                now,
                pool,
                addr,
                version,
                ..
            } => {
                channel.put(backend, now, pool, addr, version);
            }
            Call::Flush { pool, addr } => {
                channel.flush(backend, pool, addr);
            }
            Call::FlushFile { pool, file } => {
                channel.flush_file(backend, pool, file);
            }
            Call::Migrate { from, to, addr } => channel.migrate_object(backend, from, to, addr),
            Call::Tick => backend.commit(),
        }
    }
    hits
}

fn sharded(shape: &Shape, journal: bool) -> ShardedCache {
    let cache = ShardedCache::new(shape.cache_config(), SHARDS);
    if journal {
        cache.enable_journal();
    }
    cache.add_vm(VM, 100);
    cache
}

fn boot(shape: &Shape, seed: u64, backend: &mut impl Backend) -> GuestClient {
    GuestClient::boot(shape, VM, backend, SimRng::new(seed).fork(0), popularity())
}

/// Runs every pass [`LADDER_REPEATS`] times, round-robin — a slow
/// spell of the machine then hits all rungs alike and cancels in
/// their differences — and returns each pass's median in ns per
/// `ops`. A pass builds untimed, then returns the seconds its timed
/// part took.
fn medians_ns_per_op(ops: u64, passes: &mut [&mut dyn FnMut() -> f64]) -> Vec<f64> {
    let mut times = vec![Vec::with_capacity(LADDER_REPEATS); passes.len()];
    for _ in 0..LADDER_REPEATS {
        for (pass, t) in passes.iter_mut().zip(&mut times) {
            t.push(pass());
        }
    }
    times.iter().map(|t| median(t) * 1e9 / ops as f64).collect()
}

/// Seconds `f` took, and its result (kept alive so the work is real).
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let result = black_box(f());
    (t0.elapsed().as_secs_f64(), result)
}

/// Seconds replaying `calls` into `backend` took; outcomes that differ
/// from the recording are added to `mismatches`.
fn checked_replay<B: Backend>(calls: &[Call], mut backend: B, mismatches: &Cell<u64>) -> f64 {
    let (secs, tally) = timed(|| replay(calls, VM, &mut backend));
    mismatches.set(mismatches.get() + tally.mismatches);
    secs
}

/// The recorded streams of one seed.
pub struct Streams {
    /// The guest ops *G*.
    pub guest_ops: Vec<GuestOp>,
    /// The hypercalls *S* they caused (commit points included).
    pub calls: Vec<Call>,
}

/// Generates *G* and records *S* by running guest 0 of
/// `guest-durable-write` over a journaled sharded engine.
pub fn record(seed: u64, guest_ops: u64) -> Streams {
    let shape = Shape::durable_write();
    let mut recorder = Recorder::new(sharded(&shape, true));
    let mut client = boot(&shape, seed, &mut recorder);
    let mut ops = Vec::with_capacity(guest_ops as usize);
    for i in 0..guest_ops {
        let op = client.next_op();
        ops.push(op);
        client.apply(&mut recorder, op, i as u32);
    }
    Streams {
        guest_ops: ops,
        calls: recorder.into_calls(),
    }
}

/// Runs the ladder and the micro-rungs for `seed` and writes the
/// `ladder.*`, `layer.*`, `pagecache.*` and `journal.*_ns_per_record`
/// metrics. `smoke` replays a tenth of the stream.
pub fn measure(seed: u64, smoke: bool, out: &mut Outcome) {
    let shape = Shape::durable_write();
    let streams = record(seed, LADDER_GUEST_OPS / if smoke { 10 } else { 1 });
    let (g, s) = (&streams.guest_ops, &streams.calls);
    let n = g.len() as u64;
    out.set("ladder.guest_ops", n as f64);
    out.set(
        "ladder.stream_calls",
        s.iter().filter(|c| !matches!(c, Call::Tick)).count() as f64,
    );

    // Replaying into the engines must reproduce the recorded outcomes:
    // the serial and sharded engines are equivalent on one thread.
    let mismatches = Cell::new(0);
    let config = shape.cache_config();
    let capacity = config.mem_capacity_pages + config.ssd_capacity_pages;
    let mut index = || {
        let mut b = BareIndex::new(capacity);
        timed(|| replay(s, VM, &mut b)).0
    };
    let mut serial = || {
        let mut b = DoubleDeckerCache::new(config);
        b.add_vm(VM, 100);
        checked_replay(s, b, &mismatches)
    };
    let mut sharded_plain = || checked_replay(s, sharded(&shape, false), &mismatches);
    let mut sharded_journal = || checked_replay(s, sharded(&shape, true), &mismatches);
    let mut channel = || {
        let mut b = sharded(&shape, true);
        timed(|| replay_through_channel(s, &mut b)).0
    };
    let mut guest = || {
        let mut b = sharded(&shape, true);
        let mut client = boot(&shape, seed, &mut b);
        let pass = timed(|| {
            for (i, op) in g.iter().enumerate() {
                client.apply(&mut b, *op, i as u32);
            }
            client.now
        });
        pass.0
    };
    let mut generator = || {
        let mut b = sharded(&shape, true);
        let mut client = boot(&shape, seed, &mut b);
        let pass = timed(|| {
            for i in 0..n {
                client.step(&mut b, i as u32);
            }
            client.now
        });
        pass.0
    };
    let medians = medians_ns_per_op(
        n,
        &mut [
            &mut index,
            &mut serial,
            &mut sharded_plain,
            &mut sharded_journal,
            &mut channel,
            &mut guest,
            &mut generator,
        ],
    );
    out.fail("ladder replay outcome mismatches", mismatches.get());

    let keys = [
        "ladder.index.ns_per_op",
        "ladder.serial.ns_per_op",
        "ladder.sharded.ns_per_op",
        "ladder.sharded_journal.ns_per_op",
        "ladder.channel.ns_per_op",
        "ladder.guest.ns_per_op",
        "ladder.generator.ns_per_op",
    ];
    let rungs: Vec<(&'static str, f64)> = keys.into_iter().zip(medians).collect();
    for &(key, value) in &rungs {
        out.set(key, value);
    }
    let layers = [
        "layer.policy.ns_per_op",
        "layer.concurrency.ns_per_op",
        "layer.journal.ns_per_op",
        "layer.channel.ns_per_op",
        "layer.guest.ns_per_op",
        "layer.generator.ns_per_op",
    ];
    for (key, pair) in layers.into_iter().zip(rungs.windows(2)) {
        out.set(key, pair[1].1 - pair[0].1);
    }

    out.set("pagecache.ns_per_op", pagecache_rung(seed));
    let (append, replay_ns) = journal_rungs(seed);
    out.set("journal.append_ns_per_record", append);
    out.set("journal.replay_ns_per_record", replay_ns);
}

/// `PageCache` alone: touch, insert on a miss, `pop_lru` at a 1,536-page
/// limit, over a Zipf stream — the guest's first-chance cache without
/// the guest around it.
fn pagecache_rung(seed: u64) -> f64 {
    let zipf = popularity();
    let mut pass = || {
        let mut rng = SimRng::new(seed);
        let mut cache = PageCache::new();
        let t0 = Instant::now();
        for _ in 0..MICRO_OPS {
            let addr = BlockAddr::new(FileId(1), zipf.sample(&mut rng) as u64);
            if cache.touch(addr).is_none() {
                if cache.len() >= 1_536 {
                    black_box(cache.pop_lru());
                }
                cache.insert(addr, false, PageVersion::INITIAL);
            }
        }
        black_box(cache.len());
        t0.elapsed().as_secs_f64()
    };
    medians_ns_per_op(MICRO_OPS, &mut [&mut pass])[0]
}

/// `Journal` alone: `append_run` of 32-record runs with a `sync` every
/// second run, then `replay` of the image. Returns
/// `(append ns/record, replay ns/record)`.
fn journal_rungs(seed: u64) -> (f64, f64) {
    let mut rng = SimRng::new(seed);
    let records: Vec<JournalRecord> = (0..MICRO_OPS)
        .map(|i| JournalRecord::Put {
            vm: 1,
            pool: 1 + (i % 2) as u32,
            addr: BlockAddr::new(FileId(1), rng.next_below(32_768)),
            version: i,
            placement: (i % 2) as u8,
        })
        .collect();
    let mut image = Vec::new();
    let mut append = || {
        let mut journal = Journal::new();
        let t0 = Instant::now();
        let mut gen = 1;
        for (i, run) in records.chunks(32).enumerate() {
            gen = journal.append_run(run, gen);
            if i % 2 == 1 {
                journal.sync();
            }
        }
        journal.sync();
        let secs = t0.elapsed().as_secs_f64();
        image = journal.bytes().to_vec();
        secs
    };
    let append = medians_ns_per_op(MICRO_OPS, &mut [&mut append])[0];
    let mut replay_image = || {
        let t0 = Instant::now();
        let (replayed, stats) = Journal::replay(&image);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(replayed.len() as u64, MICRO_OPS);
        assert!(!stats.torn_tail && !stats.corrupt);
        secs
    };
    let replay_ns = medians_ns_per_op(MICRO_OPS, &mut [&mut replay_image])[0];
    (append, replay_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_recorded_stream_repeats_exactly_for_a_seed() {
        let a = record(9, 3_000);
        let b = record(9, 3_000);
        let c = record(10, 3_000);
        assert_eq!(a.guest_ops, b.guest_ops);
        assert_eq!(a.calls, b.calls);
        assert_ne!(a.calls, c.calls);
        assert!(
            a.calls.len() > a.guest_ops.len(),
            "misses cost several calls"
        );
        assert!(a.calls.iter().any(|c| matches!(c, Call::Tick)));
    }

    #[test]
    fn every_engine_rung_reproduces_the_recorded_outcomes() {
        let shape = Shape::durable_write();
        let streams = record(9, 20_000);
        let hits = streams
            .calls
            .iter()
            .filter(|c| matches!(c, Call::Get { hit: Some(_), .. }))
            .count() as u64;
        assert!(hits > 0);

        let mut serial = DoubleDeckerCache::new(shape.cache_config());
        serial.add_vm(VM, 100);
        let t = replay(&streams.calls, VM, &mut serial);
        assert_eq!((t.mismatches, t.hits), (0, hits), "serial engine");
        for journal in [false, true] {
            let mut engine = sharded(&shape, journal);
            let t = replay(&streams.calls, VM, &mut engine);
            assert_eq!(
                (t.mismatches, t.hits),
                (0, hits),
                "sharded, journal {journal}"
            );
        }
        let mut engine = sharded(&shape, true);
        assert_eq!(replay_through_channel(&streams.calls, &mut engine), hits);
    }

    #[test]
    fn bare_index_holds_at_most_its_capacity() {
        let streams = record(9, 20_000);
        let mut index = BareIndex::new(64);
        let t = replay(&streams.calls, VM, &mut index);
        assert!(t.stores > 64);
        let used: u64 = index.pools.iter().map(Pool::total_used).sum();
        assert!(used <= 64, "{used}");
    }

    #[test]
    fn micro_rungs_measure_something() {
        assert!(pagecache_rung(1) > 0.0);
        let (append, replay_ns) = journal_rungs(1);
        assert!(append > 0.0 && replay_ns > 0.0);
    }
}
