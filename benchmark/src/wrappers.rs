//! Wrappers the benchmark installs around public seams of the program:
//! a tracing and a recording [`SecondChanceCache`] between the
//! hypercall channel and the engine, and a timing [`WorkloadThread`].
//! The untraced run uses none of them.

use std::cell::RefCell;
use std::rc::Rc;

use ddc_core::cleancache::{
    CachePolicy, GetOutcome, PageVersion, PoolId, PoolStats, PutOutcome, SecondChanceCache, VmId,
};
use ddc_core::concurrent::ShardedCache;
use ddc_core::guest::CgroupId;
use ddc_core::hypercache::DoubleDeckerCache;
use ddc_core::hypervisor::Host;
use ddc_core::metrics::OpsRecorder;
use ddc_core::sim::SimTime;
use ddc_core::storage::{BlockAddr, FileId};
use ddc_core::workloads::WorkloadThread;

use crate::trace::{SpanLog, SpanName};

/// A cache backend as the closed-loop drivers see it: the hypercall
/// surface plus the driver's group-commit point and span hooks. The
/// engines implement the hooks as no-ops, so the untraced run pays
/// nothing; [`TracedBackend`] records, [`Recorder`] captures.
pub trait Backend: SecondChanceCache {
    /// The driver's group-commit point (`commit_tick` on the sharded
    /// engine; the serial engine syncs per operation).
    fn commit(&mut self);

    /// Opens a top-level span for driver op `op`.
    #[inline(always)]
    fn open_op(&mut self, _name: SpanName, _op: u32) -> u32 {
        0
    }

    /// Closes the span [`open_op`](Self::open_op) returned.
    #[inline(always)]
    fn close(&mut self, _id: u32) {}
}

impl Backend for ShardedCache {
    fn commit(&mut self) {
        self.commit_tick();
    }
}

impl Backend for DoubleDeckerCache {
    fn commit(&mut self) {}
}

/// Records one span per engine call, classed by outcome, under
/// whatever span the driver has open.
#[derive(Debug)]
pub struct TracedBackend<C> {
    inner: C,
    log: SpanLog,
}

impl<C: Backend> TracedBackend<C> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: C, log: SpanLog) -> TracedBackend<C> {
        TracedBackend { inner, log }
    }

    /// Unwraps into the backend and the recorded spans.
    pub fn into_parts(self) -> (C, SpanLog) {
        (self.inner, self.log)
    }

    fn span<R>(&mut self, name: SpanName, f: impl FnOnce(&mut C) -> R) -> R {
        let id = self.log.open_child(name);
        let out = f(&mut self.inner);
        self.log.close(id);
        out
    }
}

impl<C: Backend> Backend for TracedBackend<C> {
    fn commit(&mut self) {
        self.span(SpanName::JournalCommit, C::commit);
    }

    fn open_op(&mut self, name: SpanName, op: u32) -> u32 {
        self.log.open_op(name, op)
    }

    fn close(&mut self, id: u32) {
        self.log.close(id);
    }
}

impl<C: Backend> SecondChanceCache for TracedBackend<C> {
    fn create_pool(&mut self, vm: VmId, policy: CachePolicy) -> PoolId {
        self.span(SpanName::EngineControl, |c| c.create_pool(vm, policy))
    }

    fn destroy_pool(&mut self, vm: VmId, pool: PoolId) {
        self.span(SpanName::EngineControl, |c| c.destroy_pool(vm, pool));
    }

    fn set_policy(&mut self, vm: VmId, pool: PoolId, policy: CachePolicy) {
        self.span(SpanName::EngineControl, |c| c.set_policy(vm, pool, policy));
    }

    fn migrate_object(&mut self, vm: VmId, from: PoolId, to: PoolId, addr: BlockAddr) {
        self.span(SpanName::EngineControl, |c| {
            c.migrate_object(vm, from, to, addr)
        });
    }

    fn pool_stats(&self, vm: VmId, pool: PoolId) -> Option<PoolStats> {
        self.inner.pool_stats(vm, pool)
    }

    fn get(&mut self, now: SimTime, vm: VmId, pool: PoolId, addr: BlockAddr) -> GetOutcome {
        let id = self.log.open_child(SpanName::EngineGetMiss);
        let out = self.inner.get(now, vm, pool, addr);
        if out.is_hit() {
            self.log.close_as(id, SpanName::EngineGetHit);
        } else {
            self.log.close(id);
        }
        out
    }

    fn put(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        addr: BlockAddr,
        version: PageVersion,
    ) -> PutOutcome {
        self.span(SpanName::EnginePut, |c| c.put(now, vm, pool, addr, version))
    }

    fn flush(&mut self, vm: VmId, pool: PoolId, addr: BlockAddr) -> u64 {
        self.span(SpanName::EngineFlush, |c| c.flush(vm, pool, addr))
    }

    fn flush_file(&mut self, vm: VmId, pool: PoolId, file: FileId) -> u64 {
        self.span(SpanName::EngineFlush, |c| c.flush_file(vm, pool, file))
    }

    fn get_many(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        addrs: &[BlockAddr],
    ) -> Vec<GetOutcome> {
        self.span(SpanName::EngineMany, |c| c.get_many(now, vm, pool, addrs))
    }

    fn put_many(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        pages: &[(BlockAddr, PageVersion)],
    ) -> Vec<PutOutcome> {
        self.span(SpanName::EngineMany, |c| c.put_many(now, vm, pool, pages))
    }

    fn flush_many(&mut self, vm: VmId, pool: PoolId, addrs: &[BlockAddr]) -> u64 {
        self.span(SpanName::EngineMany, |c| c.flush_many(vm, pool, addrs))
    }
}

/// One recorded hypercall with what the engine answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `create_pool`; answered with the pool id.
    CreatePool {
        /// Policy asked for.
        policy: CachePolicy,
        /// Pool id returned.
        pool: PoolId,
    },
    /// `get`; `hit` is the version served, if any.
    Get {
        /// Virtual time of the call.
        now: SimTime,
        /// Pool looked up.
        pool: PoolId,
        /// Block looked up.
        addr: BlockAddr,
        /// Version served on a hit.
        hit: Option<PageVersion>,
    },
    /// `put`; `stored` is whether the engine kept the page.
    Put {
        /// Virtual time of the call.
        now: SimTime,
        /// Target pool.
        pool: PoolId,
        /// Block stored.
        addr: BlockAddr,
        /// Version stored.
        version: PageVersion,
        /// Whether the engine accepted it.
        stored: bool,
    },
    /// `flush` of one block.
    Flush {
        /// Pool flushed.
        pool: PoolId,
        /// Block flushed.
        addr: BlockAddr,
    },
    /// `flush_file`.
    FlushFile {
        /// Pool flushed.
        pool: PoolId,
        /// File flushed.
        file: FileId,
    },
    /// `migrate_object`.
    Migrate {
        /// Pool the block may sit in.
        from: PoolId,
        /// Pool it moves to.
        to: PoolId,
        /// The block.
        addr: BlockAddr,
    },
    /// The driver's group-commit point (not a trait call).
    Tick,
}

/// Captures the hypercall stream a guest issues, with outcomes, while
/// passing every call through to `inner`.
#[derive(Debug)]
pub struct Recorder<C> {
    inner: C,
    calls: Vec<Call>,
    unrecorded: u64,
}

impl<C: SecondChanceCache> Recorder<C> {
    /// Wraps `inner` with an empty recording.
    pub fn new(inner: C) -> Recorder<C> {
        Recorder {
            inner,
            calls: Vec::new(),
            unrecorded: 0,
        }
    }

    /// The wrapped backend.
    #[cfg(test)]
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The recorded stream. Panics if the guest issued a call kind the
    /// recording cannot represent (a replay would then diverge).
    pub fn into_calls(self) -> Vec<Call> {
        assert_eq!(
            self.unrecorded, 0,
            "the recorded stream is missing calls the guest issued"
        );
        self.calls
    }
}

impl<C: Backend> Backend for Recorder<C> {
    fn commit(&mut self) {
        self.calls.push(Call::Tick);
        self.inner.commit();
    }
}

impl<C: SecondChanceCache> SecondChanceCache for Recorder<C> {
    fn create_pool(&mut self, vm: VmId, policy: CachePolicy) -> PoolId {
        let pool = self.inner.create_pool(vm, policy);
        self.calls.push(Call::CreatePool { policy, pool });
        pool
    }

    fn destroy_pool(&mut self, vm: VmId, pool: PoolId) {
        self.unrecorded += 1;
        self.inner.destroy_pool(vm, pool);
    }

    fn set_policy(&mut self, vm: VmId, pool: PoolId, policy: CachePolicy) {
        self.unrecorded += 1;
        self.inner.set_policy(vm, pool, policy);
    }

    fn migrate_object(&mut self, vm: VmId, from: PoolId, to: PoolId, addr: BlockAddr) {
        self.calls.push(Call::Migrate { from, to, addr });
        self.inner.migrate_object(vm, from, to, addr);
    }

    fn pool_stats(&self, vm: VmId, pool: PoolId) -> Option<PoolStats> {
        self.inner.pool_stats(vm, pool)
    }

    fn get(&mut self, now: SimTime, vm: VmId, pool: PoolId, addr: BlockAddr) -> GetOutcome {
        let out = self.inner.get(now, vm, pool, addr);
        let hit = match out {
            GetOutcome::Hit { version, .. } => Some(version),
            _ => None,
        };
        self.calls.push(Call::Get {
            now,
            pool,
            addr,
            hit,
        });
        out
    }

    fn put(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        addr: BlockAddr,
        version: PageVersion,
    ) -> PutOutcome {
        let out = self.inner.put(now, vm, pool, addr, version);
        self.calls.push(Call::Put {
            now,
            pool,
            addr,
            version,
            stored: out.is_stored(),
        });
        out
    }

    fn flush(&mut self, vm: VmId, pool: PoolId, addr: BlockAddr) -> u64 {
        self.calls.push(Call::Flush { pool, addr });
        self.inner.flush(vm, pool, addr)
    }

    fn flush_file(&mut self, vm: VmId, pool: PoolId, file: FileId) -> u64 {
        self.calls.push(Call::FlushFile { pool, file });
        self.inner.flush_file(vm, pool, file)
    }

    fn get_many(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        addrs: &[BlockAddr],
    ) -> Vec<GetOutcome> {
        self.unrecorded += 1;
        self.inner.get_many(now, vm, pool, addrs)
    }

    fn put_many(
        &mut self,
        now: SimTime,
        vm: VmId,
        pool: PoolId,
        pages: &[(BlockAddr, PageVersion)],
    ) -> Vec<PutOutcome> {
        self.unrecorded += 1;
        self.inner.put_many(now, vm, pool, pages)
    }

    fn flush_many(&mut self, vm: VmId, pool: PoolId, addrs: &[BlockAddr]) -> u64 {
        self.unrecorded += 1;
        self.inner.flush_many(vm, pool, addrs)
    }
}

/// What replaying a recorded stream observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayTally {
    /// Calls issued (ticks excluded).
    pub calls: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Stores the engine kept.
    pub stores: u64,
    /// Calls whose outcome differed from the recording.
    pub mismatches: u64,
}

/// Replays `calls` straight into `backend` as VM `vm`, committing at
/// every recorded commit point, and tallies the outcomes against the
/// recording.
pub fn replay<C: Backend>(calls: &[Call], vm: VmId, backend: &mut C) -> ReplayTally {
    let mut tally = ReplayTally::default();
    for call in calls {
        tally.calls += 1;
        match *call {
            Call::CreatePool { policy, pool } => {
                tally.mismatches += u64::from(backend.create_pool(vm, policy) != pool);
            }
            Call::Get {
                now,
                pool,
                addr,
                hit,
            } => {
                let got = match backend.get(now, vm, pool, addr) {
                    GetOutcome::Hit { version, .. } => Some(version),
                    _ => None,
                };
                tally.hits += u64::from(got.is_some());
                tally.mismatches += u64::from(got != hit);
            }
            Call::Put {
                now,
                pool,
                addr,
                version,
                stored,
            } => {
                let kept = backend.put(now, vm, pool, addr, version).is_stored();
                tally.stores += u64::from(kept);
                tally.mismatches += u64::from(kept != stored);
            }
            Call::Flush { pool, addr } => {
                backend.flush(vm, pool, addr);
            }
            Call::FlushFile { pool, file } => {
                backend.flush_file(vm, pool, file);
            }
            Call::Migrate { from, to, addr } => backend.migrate_object(vm, from, to, addr),
            Call::Tick => {
                tally.calls -= 1;
                backend.commit();
            }
        }
    }
    tally
}

/// Times every `step` of a workload thread into a shared span log
/// (the experiment runner is single-threaded, so the log is an `Rc`).
pub struct TimedThread<T> {
    inner: T,
    name: SpanName,
    log: Rc<RefCell<SpanLog>>,
}

impl<T: WorkloadThread> TimedThread<T> {
    /// Wraps `inner`; its steps are recorded as `name` spans.
    pub fn new(inner: T, name: SpanName, log: Rc<RefCell<SpanLog>>) -> TimedThread<T> {
        TimedThread { inner, name, log }
    }
}

impl<T: WorkloadThread> WorkloadThread for TimedThread<T> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn vm(&self) -> VmId {
        self.inner.vm()
    }

    fn cgroup(&self) -> CgroupId {
        self.inner.cgroup()
    }

    fn step(&mut self, host: &mut Host, now: SimTime) -> SimTime {
        let id = self.log.borrow_mut().open_child(self.name);
        let next = self.inner.step(host, now);
        self.log.borrow_mut().close(id);
        next
    }

    fn recorder(&self) -> &OpsRecorder {
        self.inner.recorder()
    }

    fn recorder_mut(&mut self) -> &mut OpsRecorder {
        self.inner.recorder_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_core::hypercache::CacheConfig;
    use std::time::Instant;

    fn addr(b: u64) -> BlockAddr {
        BlockAddr::new(FileId(9), b)
    }

    /// A small put/get/flush mix with evictions (capacity 8).
    fn drive(backend: &mut dyn SecondChanceCache, vm: VmId) {
        let pool = backend.create_pool(vm, CachePolicy::mem(100));
        let other = backend.create_pool(vm, CachePolicy::mem(50));
        let mut x = 12345u64;
        for i in 0..400u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = addr((x >> 33) % 24);
            let now = SimTime::from_nanos(i * 1000);
            match i % 5 {
                0 | 1 => {
                    backend.put(now, vm, pool, a, PageVersion(i / 7));
                }
                2 => {
                    backend.get(now, vm, pool, a);
                }
                3 => {
                    backend.migrate_object(vm, pool, other, a);
                    backend.get(now, vm, other, a);
                }
                _ => {
                    backend.flush(vm, pool, a);
                }
            }
        }
        backend.flush_file(vm, pool, FileId(9));
    }

    #[test]
    fn recorder_replay_round_trip_reproduces_outcomes() {
        let vm = VmId(1);
        let mut engine = DoubleDeckerCache::new(CacheConfig::mem_only(8));
        engine.add_vm(vm, 100);
        let mut rec = Recorder::new(engine);
        drive(&mut rec, vm);
        rec.commit();
        let recorded_entries = rec.inner().entries();
        let calls = rec.into_calls();
        let hits = calls
            .iter()
            .filter(|c| matches!(c, Call::Get { hit: Some(_), .. }))
            .count() as u64;
        assert!(hits > 0, "the mix must produce hits to be a real check");

        let mut fresh = DoubleDeckerCache::new(CacheConfig::mem_only(8));
        fresh.add_vm(vm, 100);
        let tally = replay(&calls, vm, &mut fresh);
        assert_eq!(tally.mismatches, 0);
        assert_eq!(tally.hits, hits);
        assert_eq!(calls.last(), Some(&Call::Tick));
        assert_eq!(tally.calls as usize, calls.len() - 1, "ticks are not calls");
        assert_eq!(fresh.entries(), recorded_entries);

        // A differently sized engine answers differently: the tally
        // must see it.
        let mut small = DoubleDeckerCache::new(CacheConfig::mem_only(2));
        small.add_vm(vm, 100);
        assert!(replay(&calls, vm, &mut small).mismatches > 0);
    }

    #[test]
    #[should_panic(expected = "missing calls")]
    fn recorder_refuses_streams_it_cannot_represent() {
        let mut engine = DoubleDeckerCache::new(CacheConfig::mem_only(8));
        engine.add_vm(VmId(1), 100);
        let mut rec = Recorder::new(engine);
        let pool = rec.create_pool(VmId(1), CachePolicy::mem(100));
        rec.flush_many(VmId(1), pool, &[addr(1)]);
        rec.into_calls();
    }

    #[test]
    fn traced_backend_classes_calls_by_outcome() {
        let vm = VmId(1);
        let mut engine = DoubleDeckerCache::new(CacheConfig::mem_only(8));
        engine.add_vm(vm, 100);
        let mut traced = TracedBackend::new(engine, SpanLog::new(Instant::now()));
        let pool = traced.create_pool(vm, CachePolicy::mem(100));
        let op = traced.open_op(SpanName::GuestRead, 5);
        traced.put(SimTime::ZERO, vm, pool, addr(1), PageVersion(1));
        assert!(traced.get(SimTime::ZERO, vm, pool, addr(1)).is_hit());
        assert!(!traced.get(SimTime::ZERO, vm, pool, addr(1)).is_hit());
        traced.flush(vm, pool, addr(1));
        traced.get_many(SimTime::ZERO, vm, pool, &[addr(1), addr(2)]);
        traced.close(op);
        let (_, log) = traced.into_parts();
        let names: Vec<SpanName> = log.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                SpanName::EngineControl,
                SpanName::GuestRead,
                SpanName::EnginePut,
                SpanName::EngineGetHit,
                SpanName::EngineGetMiss,
                SpanName::EngineFlush,
                SpanName::EngineMany,
            ]
        );
        assert!(log.spans()[2..].iter().all(|s| s.parent == 1 && s.op == 5));
    }
}
