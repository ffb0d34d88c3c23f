//! The guest→hypervisor hypercall channel.
//!
//! Every cleancache operation issued from inside a VM traps to the
//! hypervisor via a VMCALL and copies its arguments to host memory (paper
//! §4). The channel charges that fixed cost on the caller's virtual clock
//! and keeps the per-VM operation counters used in the evaluation.
//!
//! # Failure semantics (fail-open)
//!
//! The channel is the guest's failure boundary. Cleancache is best-effort
//! by contract, so every data-path failure degrades to the slow path
//! rather than an error the guest has to handle:
//!
//! * a backend `get` failure is translated to a **miss** (the guest falls
//!   back to its virtual disk) and counted in
//!   [`ChannelCounters::fail_opens`],
//! * a *dropped* call (injected via [`FaultSchedule`]) behaves like a
//!   miss / rejection and is counted in
//!   [`ChannelCounters::dropped_calls`],
//! * repeated `put` failures trip a **circuit breaker**: the channel
//!   stops issuing puts to the failing store and probes for recovery
//!   with exponential backoff, so a sick backend is not hammered with
//!   hypercalls that will fail anyway.
//!
//! Only `get`/`put` may fail or drop. `flush` and the control operations
//! are defined reliable: a dropped flush would leave a stale page in the
//! cache and break coherence, so invalidations are modelled as
//! synchronous-reliable (the real implementation spins until the
//! hypercall is acknowledged).

use ddc_sim::{BreakerConfig, CircuitBreaker, FaultDecision, FaultSchedule, SimDuration, SimTime};
use ddc_storage::{BlockAddr, FileId};

use crate::{
    CachePolicy, GetOutcome, PageVersion, PoolId, PoolStats, PutOutcome, SecondChanceCache, VmId,
};

/// Counters kept by a [`HypercallChannel`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Total hypercalls issued (all operation kinds).
    pub calls: u64,
    /// `get` operations issued.
    pub gets: u64,
    /// `get` operations that hit.
    pub get_hits: u64,
    /// `put` operations issued.
    pub puts: u64,
    /// `put` operations accepted.
    pub put_stores: u64,
    /// `flush` operations issued (block and whole-file).
    pub flushes: u64,
    /// Control-plane operations (pool lifecycle, policy, stats).
    pub control_ops: u64,
    /// Backend failures served fail-open: `get` failures translated
    /// into misses, `put` failures the guest treats as not-retained.
    pub fail_opens: u64,
    /// Data-path calls dropped by the channel's fault schedule.
    pub dropped_calls: u64,
    /// Times the put circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Puts skipped locally while the breaker was open.
    pub breaker_skipped_puts: u64,
    /// Times an open breaker's probe put succeeded and closed it.
    pub breaker_recoveries: u64,
}

// The put circuit breaker is the shared `ddc_sim::CircuitBreaker` state
// machine, configured with this channel's thresholds below.

/// The per-VM hypercall path to a second-chance cache backend.
///
/// The channel does not own the backend: the host owns it, and the guest
/// passes `&mut dyn SecondChanceCache` per call. This mirrors the real
/// structure (the cache store lives in the hypervisor; the guest merely
/// traps into it) and keeps the simulation single-owner.
///
/// # Example
///
/// ```
/// use ddc_cleancache::{CachePolicy, HypercallChannel, NullCache, VmId};
/// use ddc_sim::SimTime;
/// use ddc_storage::{BlockAddr, FileId};
///
/// let mut backend = NullCache::new();
/// let mut chan = HypercallChannel::new(VmId(0));
/// let pool = chan.create_pool(&mut backend, CachePolicy::default());
/// let out = chan.get(&mut backend, SimTime::ZERO, pool, BlockAddr::new(FileId(1), 0));
/// assert!(!out.is_hit()); // NullCache always misses
/// assert_eq!(chan.counters().gets, 1);
/// ```
///
/// Line-aligned: one thread writes a channel's counters on every call,
/// and callers keep one channel per VM side by side (a `Vec` of guests
/// or clients), so two VMs' channels must not share a cache line
/// whatever the channel's size is.
#[derive(Clone, Debug)]
#[repr(align(64))]
pub struct HypercallChannel {
    vm: VmId,
    counters: ChannelCounters,
    faults: Option<FaultSchedule>,
    breaker: CircuitBreaker,
    flush_epoch: u64,
}

impl HypercallChannel {
    /// VMCALL + argument copy cost, charged on entry and again on return:
    /// ~2 µs, the order of magnitude measured for KVM hypercalls on the
    /// paper's era of hardware.
    pub const DEFAULT_CALL_COST: SimDuration = SimDuration::from_micros(2);

    /// Consecutive put failures that trip the circuit breaker open.
    pub const BREAKER_THRESHOLD: u32 = 3;

    /// First recovery-probe delay after the breaker trips.
    pub const BREAKER_INITIAL_BACKOFF: SimDuration = SimDuration::from_millis(10);

    /// Backoff ceiling for repeated failed probes.
    pub const BREAKER_MAX_BACKOFF: SimDuration = SimDuration::from_secs(10);

    /// Creates a channel for a VM.
    pub fn new(vm: VmId) -> HypercallChannel {
        HypercallChannel {
            vm,
            counters: ChannelCounters::default(),
            faults: None,
            breaker: CircuitBreaker::new(BreakerConfig {
                threshold: Self::BREAKER_THRESHOLD,
                initial_backoff: Self::BREAKER_INITIAL_BACKOFF,
                max_backoff: Self::BREAKER_MAX_BACKOFF,
            }),
            flush_epoch: 0,
        }
    }

    /// The VM this channel belongs to.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// Accumulated counters.
    pub fn counters(&self) -> ChannelCounters {
        self.counters
    }

    /// Attaches (or clears) a fault schedule dropping data-path calls.
    /// Only `get`/`put` consult it; flush and control operations are
    /// reliable by definition (see the module docs).
    pub fn set_fault_schedule(&mut self, faults: Option<FaultSchedule>) {
        self.faults = faults;
    }

    /// Whether the put circuit breaker is currently open.
    pub fn breaker_open(&self) -> bool {
        self.breaker.is_open()
    }

    /// The guest's **flush epoch**: the largest journal generation any
    /// acked flush hypercall returned. Because flushes are
    /// synchronous-reliable and the backend journals them durably before
    /// acking, every page version this VM has invalidated is covered by
    /// a journal record at or below this generation — crash recovery
    /// uses it to guarantee no invalidated version is resurrected.
    pub fn flush_epoch(&self) -> u64 {
        self.flush_epoch
    }

    /// Installs a recovery-issued flush epoch (after the hypervisor
    /// cache warm-restarts with a fresh journal, the checkpoint assigns
    /// each VM a new epoch in the new generation sequence).
    pub fn set_flush_epoch(&mut self, epoch: u64) {
        self.flush_epoch = epoch;
    }

    /// Opens one data-path trap at `now`: counts the call and consults
    /// the fault schedule once. Returns the call's cost (the trap cost,
    /// stretched by a `Slow` decision), or `None` when the call (or its
    /// reply) was lost: the cost is paid but the guest learns nothing.
    fn trap(&mut self, now: SimTime) -> Option<SimDuration> {
        self.counters.calls += 1;
        let decision = match &mut self.faults {
            Some(f) => f.decide(now),
            None => FaultDecision::Ok,
        };
        match decision {
            FaultDecision::Error | FaultDecision::Stall(_) => {
                self.counters.dropped_calls += 1;
                None
            }
            FaultDecision::Slow(extra) => Some(Self::DEFAULT_CALL_COST + extra),
            // The channel has no edge cache; a flap decision is a no-op.
            FaultDecision::Ok | FaultDecision::EdgeMiss => Some(Self::DEFAULT_CALL_COST),
        }
    }

    /// [`trap`](Self::trap) for a put of `pages` pages: while the
    /// breaker is open they are skipped locally (no trap, no cost), and
    /// a dropped call counts toward a trip.
    fn trap_put(&mut self, now: SimTime, pages: u64) -> Option<SimDuration> {
        if !self.breaker.allows(now) {
            self.counters.breaker_skipped_puts += pages;
            return None;
        }
        self.counters.puts += pages;
        let cost = self.trap(now);
        if cost.is_none() {
            self.breaker_note_failure(now);
        }
        cost
    }

    /// What the guest sees of one backend get: a hit pays the return
    /// trip, a failure is served fail-open as a miss.
    fn settle_get(&mut self, out: &mut GetOutcome, cost: SimDuration) {
        match out {
            GetOutcome::Hit { finish, .. } => {
                self.counters.get_hits += 1;
                *finish += cost;
            }
            GetOutcome::Miss => {}
            GetOutcome::Failed { .. } => {
                self.counters.fail_opens += 1;
                *out = GetOutcome::Miss;
            }
        }
    }

    /// What the guest sees of one backend put, noted on the breaker.
    /// A store or a policy rejection shows the backend reachable and
    /// resets it. A failure counts toward a trip, and the guest goes on
    /// as if the page were merely not retained (fail-open).
    fn settle_put(&mut self, now: SimTime, out: &mut PutOutcome, cost: SimDuration) {
        match out {
            PutOutcome::Stored { finish } => {
                self.counters.put_stores += 1;
                self.breaker_note_success();
                *finish += cost;
            }
            PutOutcome::Rejected => self.breaker_note_success(),
            PutOutcome::Failed { finish } => {
                self.counters.fail_opens += 1;
                self.breaker_note_failure(now);
                *finish += cost;
            }
        }
    }

    /// Records a put failure on the breaker; trips it after
    /// [`BREAKER_THRESHOLD`](Self::BREAKER_THRESHOLD) consecutive
    /// failures, doubles the backoff on a failed probe.
    fn breaker_note_failure(&mut self, now: SimTime) {
        if self.breaker.note_failure(now) {
            self.counters.breaker_trips += 1;
        }
    }

    /// Records a successful (or policy-rejected) put: the backend is
    /// reachable, so the breaker closes / the failure streak resets.
    fn breaker_note_success(&mut self) {
        if self.breaker.note_success() {
            self.counters.breaker_recoveries += 1;
        }
    }

    /// CREATE_CGROUP hypercall.
    pub fn create_pool(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        policy: CachePolicy,
    ) -> PoolId {
        self.counters.calls += 1;
        self.counters.control_ops += 1;
        backend.create_pool(self.vm, policy)
    }

    /// DESTROY_CGROUP hypercall.
    pub fn destroy_pool(&mut self, backend: &mut dyn SecondChanceCache, pool: PoolId) {
        self.counters.calls += 1;
        self.counters.control_ops += 1;
        backend.destroy_pool(self.vm, pool);
    }

    /// SET_CG_WEIGHT hypercall.
    pub fn set_policy(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        pool: PoolId,
        policy: CachePolicy,
    ) {
        self.counters.calls += 1;
        self.counters.control_ops += 1;
        backend.set_policy(self.vm, pool, policy);
    }

    /// MIGRATE_OBJECT hypercall.
    pub fn migrate_object(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        from: PoolId,
        to: PoolId,
        addr: BlockAddr,
    ) {
        self.counters.calls += 1;
        self.counters.control_ops += 1;
        backend.migrate_object(self.vm, from, to, addr);
    }

    /// GET_STATS hypercall.
    pub fn pool_stats(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        pool: PoolId,
    ) -> Option<PoolStats> {
        self.counters.calls += 1;
        self.counters.control_ops += 1;
        backend.pool_stats(self.vm, pool)
    }

    /// `get` hypercall: lookup-and-remove. The returned finish time
    /// includes the hypercall cost.
    ///
    /// Fail-open: a backend [`GetOutcome::Failed`] or a dropped call is
    /// translated to a miss — the guest falls back to its virtual disk
    /// and never observes the failure directly.
    pub fn get(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        now: SimTime,
        pool: PoolId,
        addr: BlockAddr,
    ) -> GetOutcome {
        self.counters.gets += 1;
        let Some(cost) = self.trap(now) else {
            return GetOutcome::Miss;
        };
        let mut out = backend.get(now + cost, self.vm, pool, addr);
        self.settle_get(&mut out, cost);
        out
    }

    /// `put` hypercall: store a clean evicted page.
    ///
    /// Backend failures feed the circuit breaker; while it is open, puts
    /// are skipped locally (no hypercall is issued, no cost charged)
    /// until the next scheduled recovery probe.
    pub fn put(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        now: SimTime,
        pool: PoolId,
        addr: BlockAddr,
        version: PageVersion,
    ) -> PutOutcome {
        let Some(cost) = self.trap_put(now, 1) else {
            return PutOutcome::Rejected;
        };
        let mut out = backend.put(now + cost, self.vm, pool, addr, version);
        self.settle_put(now, &mut out, cost);
        out
    }

    /// `flush` hypercall for one block. Returns the backend's flush
    /// epoch for this invalidation (0 if unjournaled) and
    /// folds it into [`HypercallChannel::flush_epoch`].
    pub fn flush(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        pool: PoolId,
        addr: BlockAddr,
    ) -> u64 {
        self.counters.calls += 1;
        self.counters.flushes += 1;
        let epoch = backend.flush(self.vm, pool, addr);
        self.flush_epoch = self.flush_epoch.max(epoch);
        epoch
    }

    /// `flush` hypercall for a whole file. Epoch semantics as
    /// [`HypercallChannel::flush`].
    pub fn flush_file(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        pool: PoolId,
        file: FileId,
    ) -> u64 {
        self.counters.calls += 1;
        self.counters.flushes += 1;
        let epoch = backend.flush_file(self.vm, pool, file);
        self.flush_epoch = self.flush_epoch.max(epoch);
        epoch
    }

    // ------------------------------------------------------------------
    // Batched hypercalls: one VMCALL carries a whole sampling tick's ops.
    //
    // Per-operation counters (`gets`, `puts`, `flushes`, hit/store/fail
    // tallies) advance exactly as if each op were issued alone; only
    // `calls` — and with it the fixed trap cost and the fault-schedule /
    // breaker consultations — is charged once per batch. An empty batch
    // charges nothing.
    // ------------------------------------------------------------------

    /// Batched `get` hypercall: one trap, one outcome per address with
    /// [`HypercallChannel::get`] semantics. A dropped batch loses every
    /// lookup in it (all misses, one `dropped_calls` tick).
    pub fn get_many(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        now: SimTime,
        pool: PoolId,
        addrs: &[BlockAddr],
    ) -> Vec<GetOutcome> {
        if addrs.is_empty() {
            return Vec::new();
        }
        self.counters.gets += addrs.len() as u64;
        let Some(cost) = self.trap(now) else {
            return vec![GetOutcome::Miss; addrs.len()];
        };
        // Settled in place: batching must never cost an extra
        // allocation-and-move pass over what the per-op loop pays.
        let mut outs = backend.get_many(now + cost, self.vm, pool, addrs);
        for out in &mut outs {
            self.settle_get(out, cost);
        }
        outs
    }

    /// Batched `put` hypercall: one trap, one outcome per page with
    /// [`HypercallChannel::put`] semantics. An open breaker skips the
    /// whole batch locally (no trap, no cost); per-page backend outcomes
    /// feed the breaker exactly as individual puts would.
    pub fn put_many(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        now: SimTime,
        pool: PoolId,
        pages: &[(BlockAddr, PageVersion)],
    ) -> Vec<PutOutcome> {
        if pages.is_empty() {
            return Vec::new();
        }
        let Some(cost) = self.trap_put(now, pages.len() as u64) else {
            return vec![PutOutcome::Rejected; pages.len()];
        };
        let mut outs = backend.put_many(now + cost, self.vm, pool, pages);
        for out in &mut outs {
            self.settle_put(now, out, cost);
        }
        outs
    }

    /// Batched `flush` hypercall: one trap invalidating every address,
    /// returning the largest flush epoch produced (folded into
    /// [`HypercallChannel::flush_epoch`]). Flushes stay reliable —
    /// batching never consults the fault schedule.
    pub fn flush_many(
        &mut self,
        backend: &mut dyn SecondChanceCache,
        pool: PoolId,
        addrs: &[BlockAddr],
    ) -> u64 {
        if addrs.is_empty() {
            return 0;
        }
        self.counters.calls += 1;
        self.counters.flushes += addrs.len() as u64;
        let epoch = backend.flush_many(self.vm, pool, addrs);
        self.flush_epoch = self.flush_epoch.max(epoch);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullCache;

    fn addr() -> BlockAddr {
        BlockAddr::new(FileId(1), 0)
    }

    #[test]
    fn channels_side_by_side_share_no_cache_line() {
        assert_eq!(std::mem::align_of::<HypercallChannel>(), 64);
        assert_eq!(std::mem::size_of::<HypercallChannel>() % 64, 0);
    }

    #[test]
    fn counters_track_ops() {
        let mut b = NullCache::new();
        let mut ch = HypercallChannel::new(VmId(3));
        assert_eq!(ch.vm(), VmId(3));
        let pool = ch.create_pool(&mut b, CachePolicy::default());
        ch.get(&mut b, SimTime::ZERO, pool, addr());
        ch.put(&mut b, SimTime::ZERO, pool, addr(), PageVersion(0));
        ch.flush(&mut b, pool, addr());
        ch.flush_file(&mut b, pool, FileId(1));
        ch.pool_stats(&mut b, pool);
        ch.set_policy(&mut b, pool, CachePolicy::ssd(100));
        ch.migrate_object(&mut b, pool, pool, addr());
        ch.destroy_pool(&mut b, pool);
        let c = ch.counters();
        assert_eq!(c.calls, 9);
        assert_eq!(c.gets, 1);
        assert_eq!(c.get_hits, 0);
        assert_eq!(c.puts, 1);
        assert_eq!(c.put_stores, 0);
        assert_eq!(c.flushes, 2);
        assert_eq!(c.control_ops, 5);
    }

    #[test]
    fn batched_ops_charge_one_call_per_batch() {
        let mut b = NullCache::new();
        let mut ch = HypercallChannel::new(VmId(1));
        let pool = ch.create_pool(&mut b, CachePolicy::default());
        let addrs: Vec<BlockAddr> = (0..5).map(|i| BlockAddr::new(FileId(1), i)).collect();
        let pages: Vec<(BlockAddr, PageVersion)> =
            addrs.iter().map(|&a| (a, PageVersion(1))).collect();
        let outs = ch.get_many(&mut b, SimTime::ZERO, pool, &addrs);
        assert_eq!(outs.len(), 5);
        let outs = ch.put_many(&mut b, SimTime::ZERO, pool, &pages);
        assert_eq!(outs.len(), 5);
        ch.flush_many(&mut b, pool, &addrs);
        let c = ch.counters();
        assert_eq!(c.calls, 4, "create_pool + three batched traps");
        assert_eq!(c.gets, 5);
        assert_eq!(c.puts, 5);
        assert_eq!(c.flushes, 5);
        // Empty batches are free: no trap, no per-op counters.
        ch.get_many(&mut b, SimTime::ZERO, pool, &[]);
        ch.put_many(&mut b, SimTime::ZERO, pool, &[]);
        assert_eq!(ch.flush_many(&mut b, pool, &[]), 0);
        assert_eq!(ch.counters().calls, 4);
    }

    #[test]
    fn batched_puts_respect_open_breaker() {
        let mut b = Flaky {
            failing: true,
            puts_seen: 0,
        };
        let mut ch = HypercallChannel::new(VmId(0));
        let pages: Vec<(BlockAddr, PageVersion)> = (0..HypercallChannel::BREAKER_THRESHOLD as u64)
            .map(|i| (BlockAddr::new(FileId(1), i), PageVersion(0)))
            .collect();
        // One failing batch trips the breaker: each per-page failure
        // counts, exactly as individual puts would.
        let outs = ch.put_many(&mut b, SimTime::ZERO, PoolId(0), &pages);
        assert!(outs.iter().all(|o| o.is_failed()));
        assert!(ch.breaker_open());
        assert_eq!(ch.counters().breaker_trips, 1);
        let seen = b.puts_seen;
        // While open, the whole batch is skipped locally — no trap.
        let outs = ch.put_many(&mut b, SimTime::ZERO, PoolId(0), &pages);
        assert!(outs.iter().all(|o| *o == PutOutcome::Rejected));
        assert_eq!(b.puts_seen, seen);
        assert_eq!(
            ch.counters().breaker_skipped_puts,
            pages.len() as u64,
            "every page of the skipped batch is counted"
        );
    }

    #[test]
    fn batched_gets_fail_open_per_page() {
        let mut b = Flaky {
            failing: true,
            puts_seen: 0,
        };
        let mut ch = HypercallChannel::new(VmId(0));
        let addrs = [addr(), BlockAddr::new(FileId(1), 1)];
        let outs = ch.get_many(&mut b, SimTime::ZERO, PoolId(0), &addrs);
        assert!(outs.iter().all(|o| *o == GetOutcome::Miss));
        assert_eq!(ch.counters().fail_opens, 2);
        assert_eq!(ch.counters().calls, 1);
    }

    #[test]
    fn call_cost_is_charged() {
        // A backend that records the entry time it was called with.
        struct Probe {
            seen: Option<SimTime>,
        }
        impl SecondChanceCache for Probe {
            fn create_pool(&mut self, _: VmId, _: CachePolicy) -> PoolId {
                PoolId(0)
            }
            fn destroy_pool(&mut self, _: VmId, _: PoolId) {}
            fn set_policy(&mut self, _: VmId, _: PoolId, _: CachePolicy) {}
            fn migrate_object(&mut self, _: VmId, _: PoolId, _: PoolId, _: BlockAddr) {}
            fn pool_stats(&self, _: VmId, _: PoolId) -> Option<PoolStats> {
                None
            }
            fn get(&mut self, now: SimTime, _: VmId, _: PoolId, _: BlockAddr) -> GetOutcome {
                self.seen = Some(now);
                GetOutcome::Hit {
                    finish: now,
                    version: PageVersion(7),
                }
            }
            fn put(
                &mut self,
                now: SimTime,
                _: VmId,
                _: PoolId,
                _: BlockAddr,
                _: PageVersion,
            ) -> PutOutcome {
                PutOutcome::Stored { finish: now }
            }
            fn flush(&mut self, _: VmId, _: PoolId, _: BlockAddr) -> u64 {
                0
            }
            fn flush_file(&mut self, _: VmId, _: PoolId, _: FileId) -> u64 {
                0
            }
        }

        let mut probe = Probe { seen: None };
        let cost = HypercallChannel::DEFAULT_CALL_COST;
        let mut ch = HypercallChannel::new(VmId(0));
        let out = ch.get(&mut probe, SimTime::ZERO, PoolId(0), addr());
        // Backend entered after one call cost...
        assert_eq!(probe.seen, Some(SimTime::ZERO + cost));
        // ...and the caller resumes after the return trip.
        match out {
            GetOutcome::Hit { finish, version } => {
                assert_eq!(finish, SimTime::ZERO + cost + cost);
                assert_eq!(version, PageVersion(7));
            }
            _ => panic!("expected hit"),
        }
        let put = ch.put(&mut probe, SimTime::ZERO, PoolId(0), addr(), PageVersion(0));
        match put {
            PutOutcome::Stored { finish } => assert_eq!(finish, SimTime::ZERO + cost + cost),
            _ => panic!("expected store"),
        }
        assert_eq!(ch.counters().get_hits, 1);
        assert_eq!(ch.counters().put_stores, 1);
    }

    /// A backend whose data path fails on demand.
    struct Flaky {
        failing: bool,
        puts_seen: u64,
    }
    impl SecondChanceCache for Flaky {
        fn create_pool(&mut self, _: VmId, _: CachePolicy) -> PoolId {
            PoolId(0)
        }
        fn destroy_pool(&mut self, _: VmId, _: PoolId) {}
        fn set_policy(&mut self, _: VmId, _: PoolId, _: CachePolicy) {}
        fn migrate_object(&mut self, _: VmId, _: PoolId, _: PoolId, _: BlockAddr) {}
        fn pool_stats(&self, _: VmId, _: PoolId) -> Option<PoolStats> {
            None
        }
        fn get(&mut self, now: SimTime, _: VmId, _: PoolId, _: BlockAddr) -> GetOutcome {
            if self.failing {
                GetOutcome::Failed { finish: now }
            } else {
                GetOutcome::Hit {
                    finish: now,
                    version: PageVersion(1),
                }
            }
        }
        fn put(
            &mut self,
            now: SimTime,
            _: VmId,
            _: PoolId,
            _: BlockAddr,
            _: PageVersion,
        ) -> PutOutcome {
            self.puts_seen += 1;
            if self.failing {
                PutOutcome::Failed { finish: now }
            } else {
                PutOutcome::Stored { finish: now }
            }
        }
        fn flush(&mut self, _: VmId, _: PoolId, _: BlockAddr) -> u64 {
            0
        }
        fn flush_file(&mut self, _: VmId, _: PoolId, _: FileId) -> u64 {
            0
        }
    }

    /// A backend that fails in 40-op streaks and between them mixes
    /// hits, misses, stores and rejections.
    struct Streaky(u64);
    impl SecondChanceCache for Streaky {
        fn create_pool(&mut self, _: VmId, _: CachePolicy) -> PoolId {
            PoolId(0)
        }
        fn destroy_pool(&mut self, _: VmId, _: PoolId) {}
        fn set_policy(&mut self, _: VmId, _: PoolId, _: CachePolicy) {}
        fn migrate_object(&mut self, _: VmId, _: PoolId, _: PoolId, _: BlockAddr) {}
        fn pool_stats(&self, _: VmId, _: PoolId) -> Option<PoolStats> {
            None
        }
        fn get(&mut self, now: SimTime, _: VmId, _: PoolId, _: BlockAddr) -> GetOutcome {
            self.0 += 1;
            match (self.0 / 40 % 2, self.0 % 3) {
                (1, _) => GetOutcome::Failed { finish: now },
                (_, 0) => GetOutcome::Miss,
                _ => GetOutcome::Hit {
                    finish: now + SimDuration::from_micros(self.0 % 5),
                    version: PageVersion(self.0),
                },
            }
        }
        fn put(
            &mut self,
            now: SimTime,
            _: VmId,
            _: PoolId,
            _: BlockAddr,
            _: PageVersion,
        ) -> PutOutcome {
            self.0 += 1;
            match (self.0 / 40 % 2, self.0 % 4) {
                (1, _) => PutOutcome::Failed { finish: now },
                (_, 0) => PutOutcome::Rejected,
                _ => PutOutcome::Stored {
                    finish: now + SimDuration::from_micros(self.0 % 3),
                },
            }
        }
        fn flush(&mut self, _: VmId, _: PoolId, _: BlockAddr) -> u64 {
            0
        }
        fn flush_file(&mut self, _: VmId, _: PoolId, _: FileId) -> u64 {
            0
        }
    }

    /// A scalar get or put and a batch of one cross the same trap: the
    /// same outcome (finish included), counters and breaker state, call
    /// after call, through drops, fail-opens, trips and recoveries.
    #[test]
    fn a_scalar_call_and_a_one_element_batch_are_one_trap() {
        use ddc_sim::{FaultKind, SimRng};
        let brownout = FaultKind::Brownout {
            rate: 0.3,
            extra: SimDuration::from_micros(7),
        };
        let mut scalar = HypercallChannel::new(VmId(1));
        let mut batched = HypercallChannel::new(VmId(1));
        for ch in [&mut scalar, &mut batched] {
            ch.set_fault_schedule(Some(FaultSchedule::new(0xB0).with_window(
                SimTime::ZERO,
                None,
                brownout,
            )));
        }
        let (mut one, mut many) = (Streaky(0), Streaky(0));
        let mut rng = SimRng::new(37);
        let mut now = SimTime::ZERO;
        for _ in 0..4_000 {
            now += SimDuration::from_micros(rng.range_u64(0, 3_001));
            let a = BlockAddr::new(FileId(1), rng.range_u64(0, 64));
            if rng.chance(0.5) {
                let got = scalar.get(&mut one, now, PoolId(0), a);
                assert_eq!(vec![got], batched.get_many(&mut many, now, PoolId(0), &[a]));
            } else {
                let page = (a, PageVersion(1));
                let put = scalar.put(&mut one, now, PoolId(0), a, page.1);
                assert_eq!(
                    vec![put],
                    batched.put_many(&mut many, now, PoolId(0), &[page])
                );
            }
            assert_eq!(scalar.counters(), batched.counters());
            assert_eq!(scalar.breaker_open(), batched.breaker_open());
        }
        let c = scalar.counters();
        assert!(
            c.dropped_calls > 0
                && c.fail_opens > 0
                && c.breaker_trips > 0
                && c.breaker_recoveries > 0
                && c.breaker_skipped_puts > 0,
            "the run missed a fault path: {c:?}"
        );
    }

    #[test]
    fn failed_get_is_fail_open_miss() {
        let mut b = Flaky {
            failing: true,
            puts_seen: 0,
        };
        let mut ch = HypercallChannel::new(VmId(0));
        let out = ch.get(&mut b, SimTime::ZERO, PoolId(0), addr());
        assert_eq!(out, GetOutcome::Miss, "guest sees a plain miss");
        assert_eq!(ch.counters().fail_opens, 1);
        assert_eq!(ch.counters().get_hits, 0);
    }

    #[test]
    fn breaker_trips_after_threshold_and_probes_recovery() {
        let mut b = Flaky {
            failing: true,
            puts_seen: 0,
        };
        let mut ch = HypercallChannel::new(VmId(0));
        let mut now = SimTime::ZERO;
        // Threshold consecutive failures trip the breaker.
        for _ in 0..HypercallChannel::BREAKER_THRESHOLD {
            assert!(!ch.breaker_open());
            let out = ch.put(&mut b, now, PoolId(0), addr(), PageVersion(0));
            assert!(out.is_failed());
            now += SimDuration::from_micros(10);
        }
        assert!(ch.breaker_open());
        assert_eq!(ch.counters().breaker_trips, 1);
        let puts_at_trip = b.puts_seen;
        // While open and before the probe time, puts are skipped locally.
        let out = ch.put(&mut b, now, PoolId(0), addr(), PageVersion(0));
        assert_eq!(out, PutOutcome::Rejected);
        assert_eq!(b.puts_seen, puts_at_trip, "no hypercall issued");
        assert_eq!(ch.counters().breaker_skipped_puts, 1);
        // A failed probe doubles the backoff...
        now += HypercallChannel::BREAKER_INITIAL_BACKOFF;
        assert!(ch
            .put(&mut b, now, PoolId(0), addr(), PageVersion(0))
            .is_failed());
        assert_eq!(
            b.puts_seen,
            puts_at_trip + 1,
            "the probe reached the backend"
        );
        // ...so a put after the *old* backoff is still skipped.
        now += HypercallChannel::BREAKER_INITIAL_BACKOFF;
        assert_eq!(
            ch.put(&mut b, now, PoolId(0), addr(), PageVersion(0)),
            PutOutcome::Rejected
        );
        assert_eq!(b.puts_seen, puts_at_trip + 1);
        // Once the backend heals, the next probe closes the breaker.
        b.failing = false;
        now += SimDuration::from_secs(30);
        assert!(ch
            .put(&mut b, now, PoolId(0), addr(), PageVersion(0))
            .is_stored());
        assert!(!ch.breaker_open());
        assert_eq!(ch.counters().breaker_recoveries, 1);
        // And subsequent puts flow normally.
        assert!(ch
            .put(&mut b, now, PoolId(0), addr(), PageVersion(0))
            .is_stored());
    }

    #[test]
    fn policy_rejection_does_not_trip_breaker() {
        let mut b = NullCache::new();
        let mut ch = HypercallChannel::new(VmId(0));
        let pool = ch.create_pool(&mut b, CachePolicy::default());
        for _ in 0..20 {
            assert_eq!(
                ch.put(&mut b, SimTime::ZERO, pool, addr(), PageVersion(0)),
                PutOutcome::Rejected
            );
        }
        assert!(!ch.breaker_open());
        assert_eq!(ch.counters().breaker_trips, 0);
    }

    #[test]
    fn dropped_calls_fail_open_and_flushes_stay_reliable() {
        use ddc_sim::{FaultKind, FaultSchedule};
        struct FlushCounter {
            flushes: u64,
        }
        impl SecondChanceCache for FlushCounter {
            fn create_pool(&mut self, _: VmId, _: CachePolicy) -> PoolId {
                PoolId(0)
            }
            fn destroy_pool(&mut self, _: VmId, _: PoolId) {}
            fn set_policy(&mut self, _: VmId, _: PoolId, _: CachePolicy) {}
            fn migrate_object(&mut self, _: VmId, _: PoolId, _: PoolId, _: BlockAddr) {}
            fn pool_stats(&self, _: VmId, _: PoolId) -> Option<PoolStats> {
                None
            }
            fn get(&mut self, _: SimTime, _: VmId, _: PoolId, _: BlockAddr) -> GetOutcome {
                GetOutcome::Hit {
                    finish: SimTime::ZERO,
                    version: PageVersion(1),
                }
            }
            fn put(
                &mut self,
                now: SimTime,
                _: VmId,
                _: PoolId,
                _: BlockAddr,
                _: PageVersion,
            ) -> PutOutcome {
                PutOutcome::Stored { finish: now }
            }
            fn flush(&mut self, _: VmId, _: PoolId, _: BlockAddr) -> u64 {
                self.flushes += 1;
                self.flushes
            }
            fn flush_file(&mut self, _: VmId, _: PoolId, _: FileId) -> u64 {
                self.flushes += 1;
                self.flushes
            }
        }
        let mut b = FlushCounter { flushes: 0 };
        let mut ch = HypercallChannel::new(VmId(0));
        ch.set_fault_schedule(Some(FaultSchedule::new(1).with_window(
            SimTime::ZERO,
            None,
            FaultKind::TransientErrors { rate: 1.0 },
        )));
        // Every data-path call drops...
        assert_eq!(
            ch.get(&mut b, SimTime::ZERO, PoolId(0), addr()),
            GetOutcome::Miss
        );
        assert_eq!(ch.counters().dropped_calls, 1);
        // ...but flushes always reach the backend (coherence-critical).
        assert_eq!(ch.flush(&mut b, PoolId(0), addr()), 1);
        assert_eq!(ch.flush_file(&mut b, PoolId(0), FileId(1)), 2);
        assert_eq!(b.flushes, 2);
        assert_eq!(
            ch.flush_epoch(),
            2,
            "the channel remembers the max acked flush generation"
        );
        ch.set_flush_epoch(10);
        assert_eq!(ch.flush_epoch(), 10);
    }
}
