//! Simulated remote chunk store and its fault-tolerance stack.
//!
//! The third tier of the hierarchy: a derivative cloud boots VMs from
//! pooled images held in an object store behind a CDN edge cache, read
//! over the network in fixed-size **chunks** of consecutive pages. A
//! [`ChunkStore`] models that backend's latency (per-request RTT split
//! by edge-cache hit/miss plus a per-page bandwidth term) and consults a
//! [`FaultSchedule`] through the *keyed* decision path, so fault fates
//! are a pure function of `(seed, chunk, attempt)` — identical across
//! thread counts and consultation orders.
//!
//! On top of the raw device sits the reusable fault-tolerance stack the
//! cache engines share, one [`RemoteBinding`] per bound pool:
//!
//! * **deadlines** — every fetch carries an absolute deadline; a request
//!   that cannot finish in time is abandoned, never awaited,
//! * **seeded retries** — failed attempts retry with exponential backoff
//!   and deterministic jitter drawn from [`ddc_sim::keyed_unit`],
//! * **hedged reads** — when the primary attempt's latency exceeds a
//!   threshold, a second request is launched and the first response
//!   wins (the loser is cancelled),
//! * **circuit breaking** — consecutive fetch failures open a shared
//!   [`CircuitBreaker`] ([`ddc_sim::CircuitBreaker`]); while open,
//!   fetches are skipped locally until the half-open probe,
//! * **bounded in-flight** — each binding caps outstanding fetches and
//!   sheds excess load to a miss,
//! * **fail-open degradation** — every failure mode above degrades to a
//!   cache miss. The remote can make the cache slower or emptier, never
//!   wrong: a block the guest has invalidated (flushed) is *localized*
//!   and never served from the remote again.
//!
//! All state lives per binding and is only ever touched by the bound
//! pool's owning VM, so the stack is deterministic under any thread
//! count — the byte-identical report contract extends to network faults.

use std::collections::VecDeque;
use std::sync::Arc;

use ddc_sim::{
    keyed_unit, BreakerConfig, CircuitBreaker, FaultDecision, FaultSchedule, SimDuration, SimTime,
};

use crate::{BlockAddr, FileId, PAGE_SIZE};

/// Identifier of one registered remote chunk store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RemoteId(pub u32);

impl std::fmt::Display for RemoteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "remote{}", self.0)
    }
}

/// Typed errors for remote registration and binding. The control plane
/// returns these instead of panicking so a misconfigured host degrades
/// to an error the caller can handle (matching the de-panicked
/// unknown-id handling elsewhere in the stack).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteError {
    /// The referenced remote id was never registered.
    UnknownRemote(RemoteId),
    /// A remote with this id is already registered.
    AlreadyRegistered(RemoteId),
    /// The referenced VM is unknown to the engine.
    UnknownVm(u32),
    /// The referenced pool is unknown to the engine.
    UnknownPool {
        /// Raw id of the VM the lookup used.
        vm: u32,
        /// Raw id of the pool that was not found.
        pool: u32,
    },
    /// The pool already has a remote binding.
    AlreadyBound {
        /// Raw id of the owning VM.
        vm: u32,
        /// Raw id of the already-bound pool.
        pool: u32,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::UnknownRemote(id) => write!(f, "unknown remote {id}"),
            RemoteError::AlreadyRegistered(id) => write!(f, "{id} is already registered"),
            RemoteError::UnknownVm(vm) => write!(f, "unknown vm {vm}"),
            RemoteError::UnknownPool { vm, pool } => write!(f, "unknown pool {pool} of vm {vm}"),
            RemoteError::AlreadyBound { vm, pool } => {
                write!(f, "pool {pool} of vm {vm} is already bound to a remote")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

/// One chunk of a backing image: `chunk_pages` consecutive pages of one
/// file, the remote's unit of transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkKey {
    /// Backing file the chunk belongs to.
    pub file: FileId,
    /// Chunk index within the file (`block / chunk_pages`).
    pub index: u64,
}

impl ChunkKey {
    /// The chunk containing `addr` at the given chunk size.
    pub fn of(addr: BlockAddr, chunk_pages: u64) -> ChunkKey {
        ChunkKey {
            file: addr.file,
            index: addr.block / chunk_pages,
        }
    }

    /// The page addresses the chunk covers, in ascending block order.
    pub fn pages(&self, chunk_pages: u64) -> impl Iterator<Item = BlockAddr> + '_ {
        let first = self.index * chunk_pages;
        let file = self.file;
        (first..first + chunk_pages).map(move |b| BlockAddr::new(file, b))
    }

    /// A stable 64-bit identity used for keyed fault decisions and edge
    /// placement; identical for every VM reading the same image chunk,
    /// which is what makes shared-prefix boot storms dedup at the edge.
    pub fn hash64(&self) -> u64 {
        self.file
            .0
            .rotate_left(32)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ self.index
    }
}

/// Latency and edge-cache parameters of a [`ChunkStore`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RemoteConfig {
    /// Pages per chunk (the remote's range-read unit).
    pub chunk_pages: u64,
    /// Round trip to the CDN edge (request setup + first byte).
    pub edge_rtt: SimDuration,
    /// Round trip to the origin object store on an edge miss.
    pub origin_rtt: SimDuration,
    /// Per-page transfer time once streaming (bandwidth term).
    pub page_transfer: SimDuration,
    /// Probability a chunk is resident in the edge cache. Derived per
    /// chunk from the store seed, so every VM fetching the same image
    /// chunk sees the same placement (CDN dedup across tenants).
    pub edge_hit_rate: f64,
    /// Cost of serving a page out of a binding's readahead buffer.
    pub buffer_read: SimDuration,
    /// Chunks a binding's readahead buffer retains (FIFO).
    pub buffer_chunks: usize,
    /// Seed for keyed fault decisions and edge placement.
    pub seed: u64,
}

impl RemoteConfig {
    /// An object store behind a CDN: ~2 ms to the edge, ~40 ms to the
    /// origin, ~200 MB/s streaming, 64-page chunks, warm edge.
    pub fn cdn(seed: u64) -> RemoteConfig {
        RemoteConfig {
            chunk_pages: 64,
            edge_rtt: SimDuration::from_millis(2),
            origin_rtt: SimDuration::from_millis(40),
            page_transfer: SimDuration::from_nanos(PAGE_SIZE * 1_000_000_000 / 200_000_000),
            edge_hit_rate: 0.8,
            buffer_read: SimDuration::from_micros(5),
            buffer_chunks: 8,
            seed,
        }
    }
}

/// The fate of one network attempt against a [`ChunkStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The chunk arrives `latency` after the attempt was issued.
    Served {
        /// Time from issue to last byte.
        latency: SimDuration,
        /// Whether the edge cache served it (vs the origin).
        edge_hit: bool,
    },
    /// An error response arrives `after` the attempt was issued.
    Failed {
        /// Time from issue to the error response.
        after: SimDuration,
    },
    /// The request hangs for `after` and then fails — the shape that
    /// eats deadlines instead of failing fast.
    Stalled {
        /// Time from issue until the hang resolves into a failure.
        after: SimDuration,
    },
}

/// Salt space separating hedge attempts from primary attempts in the
/// keyed decision stream.
const HEDGE_SALT: u64 = 1 << 63;
/// Salt separating edge-placement draws from fault draws.
const EDGE_SALT: u64 = 0xED6E_CAC4_E000_0001;
/// Salt separating retry-jitter draws from fault draws.
const JITTER_SALT: u64 = 0x0115_7E55_0000_0002;

/// A simulated remote chunk store (object store behind a CDN edge).
///
/// The store is immutable once built — configuration, fault schedule and
/// edge placement are all evaluated through stateless keyed hashes — so
/// one `Arc<ChunkStore>` is safely shared by every binding and thread.
/// All mutable fault-tolerance state lives in the per-pool
/// [`RemoteBinding`].
#[derive(Clone, Debug)]
pub struct ChunkStore {
    id: RemoteId,
    config: RemoteConfig,
    faults: Option<FaultSchedule>,
}

impl ChunkStore {
    /// A store with the given id and parameters and no fault schedule.
    pub fn new(id: RemoteId, config: RemoteConfig) -> ChunkStore {
        ChunkStore {
            id,
            config,
            faults: None,
        }
    }

    /// Attaches a fault schedule (consulted via the keyed decision path).
    pub fn with_faults(mut self, faults: FaultSchedule) -> ChunkStore {
        self.faults = Some(faults);
        self
    }

    /// This store's id.
    pub fn id(&self) -> RemoteId {
        self.id
    }

    /// This store's parameters.
    pub fn config(&self) -> RemoteConfig {
        self.config
    }

    /// Whether `chunk` is resident in the edge cache — a pure function
    /// of `(store seed, chunk)`, shared across all tenants.
    pub fn edge_resident(&self, chunk: ChunkKey) -> bool {
        keyed_unit(self.config.seed ^ EDGE_SALT, chunk.hash64()) < self.config.edge_hit_rate
    }

    /// Full-chunk service time through the given path.
    fn chunk_latency(&self, edge_hit: bool) -> SimDuration {
        let rtt = if edge_hit {
            self.config.edge_rtt
        } else {
            self.config.origin_rtt
        };
        rtt + self.config.page_transfer * self.config.chunk_pages
    }

    /// Evaluates one network attempt for `chunk` issued at `at`. `salt`
    /// distinguishes retries and hedges of the same logical fetch so
    /// each attempt gets an independent (but deterministic) fate.
    pub fn attempt(&self, at: SimTime, chunk: ChunkKey, salt: u64) -> AttemptOutcome {
        let edge_hit = self.edge_resident(chunk);
        let decision = match &self.faults {
            Some(f) => f.decide_keyed(at, chunk.hash64().rotate_left(17) ^ salt),
            None => FaultDecision::Ok,
        };
        match decision {
            FaultDecision::Ok => AttemptOutcome::Served {
                latency: self.chunk_latency(edge_hit),
                edge_hit,
            },
            FaultDecision::Slow(extra) => AttemptOutcome::Served {
                latency: self.chunk_latency(edge_hit) + extra,
                edge_hit,
            },
            FaultDecision::EdgeMiss => AttemptOutcome::Served {
                latency: self.chunk_latency(false),
                edge_hit: false,
            },
            // Errors surface after one RTT on whichever path was tried.
            FaultDecision::Error => AttemptOutcome::Failed {
                after: if edge_hit {
                    self.config.edge_rtt
                } else {
                    self.config.origin_rtt
                },
            },
            FaultDecision::Stall(stall) => AttemptOutcome::Stalled { after: stall },
        }
    }
}

/// The registry of remote chunk stores a host serves images from.
#[derive(Clone, Debug, Default)]
pub struct RemoteRegistry {
    stores: Vec<Arc<ChunkStore>>,
}

impl RemoteRegistry {
    /// An empty registry.
    pub fn new() -> RemoteRegistry {
        RemoteRegistry::default()
    }

    /// Registers a store, rejecting duplicate ids with a typed error.
    pub fn register(&mut self, store: ChunkStore) -> Result<Arc<ChunkStore>, RemoteError> {
        if self.stores.iter().any(|s| s.id() == store.id()) {
            return Err(RemoteError::AlreadyRegistered(store.id()));
        }
        let store = Arc::new(store);
        self.stores.push(Arc::clone(&store));
        Ok(store)
    }

    /// Looks a store up by id.
    pub fn get(&self, id: RemoteId) -> Result<Arc<ChunkStore>, RemoteError> {
        self.stores
            .iter()
            .find(|s| s.id() == id)
            .cloned()
            .ok_or(RemoteError::UnknownRemote(id))
    }

    /// Number of registered stores.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether no store is registered.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }
}

/// Fault-tolerance parameters of a [`RemoteBinding`]'s fetch path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteFetchConfig {
    /// Absolute budget for one logical fetch, retries and hedges
    /// included; a fetch that cannot finish in time fails at the
    /// deadline (and degrades to a miss).
    pub deadline: SimDuration,
    /// Maximum primary attempts per fetch (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry (doubles per attempt).
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_max: SimDuration,
    /// Primary latency above which a hedged second request launches.
    pub hedge_after: SimDuration,
    /// Maximum fetches outstanding per binding; excess is shed to miss.
    pub inflight_cap: usize,
    /// Thresholds of the per-binding circuit breaker.
    pub breaker: BreakerConfig,
}

impl Default for RemoteFetchConfig {
    fn default() -> RemoteFetchConfig {
        RemoteFetchConfig {
            deadline: SimDuration::from_millis(250),
            max_attempts: 3,
            backoff_base: SimDuration::from_millis(5),
            backoff_max: SimDuration::from_millis(40),
            hedge_after: SimDuration::from_millis(20),
            inflight_cap: 16,
            breaker: BreakerConfig {
                threshold: 3,
                initial_backoff: SimDuration::from_millis(50),
                max_backoff: SimDuration::from_secs(10),
            },
        }
    }
}

/// Counters kept by one [`RemoteBinding`] (aggregated into engine
/// totals; deterministic because each binding is single-owner).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemoteCounters {
    /// Logical fetches issued (before shedding/breaker short-circuits).
    pub fetches: u64,
    /// Fetches that served a chunk within the deadline.
    pub served: u64,
    /// Fetches that failed after retries/deadline (degraded to miss).
    pub failed: u64,
    /// Fetches shed because the in-flight cap was reached.
    pub shed: u64,
    /// Fetches skipped locally while the breaker was open.
    pub breaker_skipped: u64,
    /// Times the binding's breaker tripped open.
    pub breaker_trips: u64,
    /// Times an open breaker's probe fetch succeeded and closed it.
    pub breaker_recoveries: u64,
    /// Retry attempts issued after failed primaries.
    pub retries: u64,
    /// Fetches abandoned at their deadline.
    pub timeouts: u64,
    /// Hedged second requests launched.
    pub hedges: u64,
    /// Hedges whose response beat the primary (first-wins).
    pub hedge_wins: u64,
    /// Served fetches answered by the edge cache.
    pub edge_hits: u64,
    /// Served fetches that went to the origin.
    pub origin_fetches: u64,
    /// Pages served out of the readahead buffer.
    pub readahead_hits: u64,
}

ddc_metrics::counter_snapshot!(RemoteCounters, "remote", {
    fetches,
    served,
    failed,
    shed,
    breaker_skipped,
    breaker_trips,
    breaker_recoveries,
    retries,
    timeouts,
    hedges,
    hedge_wins,
    edge_hits,
    origin_fetches,
    readahead_hits,
});

/// One event on a fetch's timeline, for determinism property tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteTraceEvent {
    /// When the event happened.
    pub at: SimTime,
    /// What happened (`"attempt"`, `"retry"`, `"hedge"`, `"served"`,
    /// `"failed"`, `"shed"`, `"breaker-open"`).
    pub kind: &'static str,
}

/// Result of one remote lookup through a binding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteLookup {
    /// The page is served (always the image's initial contents) and the
    /// data is available at `finish`.
    Served {
        /// When the page is available to the guest.
        finish: SimTime,
    },
    /// The remote cannot serve the page (localized, shed, breaker open,
    /// or the fetch failed) — fail-open, surfaces as a cache miss.
    Miss,
}

/// Per-pool remote binding: the fault-tolerance stack plus the
/// stale-safety bookkeeping that keeps the remote honest.
///
/// A binding serves only pages the guest has never invalidated. A
/// `flush` **localizes** its address — from then on the block belongs to
/// the guest's own disk and the remote never serves it again, which is
/// exactly the cleancache coherence rule (the kernel flushes a block
/// before writing its backing file).
#[derive(Clone, Debug)]
pub struct RemoteBinding {
    store: Arc<ChunkStore>,
    config: RemoteFetchConfig,
    breaker: CircuitBreaker,
    /// Finish times of outstanding fetches (small: bounded by the cap).
    inflight: Vec<SimTime>,
    /// Readahead buffer: pages of recently fetched chunks, FIFO by chunk.
    buffered: ddc_sim::FxHashSet<BlockAddr>,
    buffer_order: VecDeque<ChunkKey>,
    /// Blocks the guest has invalidated; never served from the remote.
    localized: ddc_sim::FxHashSet<BlockAddr>,
    /// Whole files the guest has invalidated (flush-on-truncate).
    localized_files: ddc_sim::FxHashSet<FileId>,
    counters: RemoteCounters,
}

impl RemoteBinding {
    /// Binds a pool to `store` with the given fetch parameters.
    pub fn new(store: Arc<ChunkStore>, config: RemoteFetchConfig) -> RemoteBinding {
        RemoteBinding {
            store,
            config,
            breaker: CircuitBreaker::new(config.breaker),
            inflight: Vec::new(),
            buffered: ddc_sim::FxHashSet::default(),
            buffer_order: VecDeque::new(),
            localized: ddc_sim::FxHashSet::default(),
            localized_files: ddc_sim::FxHashSet::default(),
            counters: RemoteCounters::default(),
        }
    }

    /// The store this binding fetches from.
    pub fn store(&self) -> &Arc<ChunkStore> {
        &self.store
    }

    /// The binding's fetch parameters.
    pub fn fetch_config(&self) -> RemoteFetchConfig {
        self.config
    }

    /// Accumulated counters.
    pub fn counters(&self) -> RemoteCounters {
        self.counters
    }

    /// The binding's circuit breaker (for audits and reports).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Outstanding fetches as of `now`.
    pub fn inflight(&self, now: SimTime) -> usize {
        self.inflight.iter().filter(|&&f| f > now).count()
    }

    /// Raw in-flight slots (including ones whose finish has passed but
    /// that no later lookup has pruned yet); never exceeds the cap.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Buffered pages that are also localized — always zero (`localize`
    /// purges the buffer); audited as the no-stale-data invariant.
    pub fn buffered_localized_overlap(&self) -> usize {
        self.buffered
            .iter()
            .filter(|&&a| self.is_localized(a))
            .count()
    }

    /// Pages currently staged in the readahead buffer.
    pub fn buffered_pages(&self) -> usize {
        self.buffered.len()
    }

    /// Whether the remote is forbidden from serving `addr`.
    pub fn is_localized(&self, addr: BlockAddr) -> bool {
        self.localized_files.contains(&addr.file) || self.localized.contains(&addr)
    }

    /// Marks `addr` guest-owned: the remote never serves it again and
    /// any staged copy is dropped. Called on every `flush`.
    pub fn localize(&mut self, addr: BlockAddr) {
        self.localized.insert(addr);
        self.buffered.remove(&addr);
    }

    /// Marks a whole file guest-owned (flush-on-truncate/delete).
    pub fn localize_file(&mut self, file: FileId) {
        self.localized_files.insert(file);
        self.buffered.retain(|a| a.file != file);
    }

    /// Seeds the localized sets from recovery replay (every flush the
    /// crashed instance acked is re-localized before the binding serves).
    pub fn preload_localized(
        &mut self,
        addrs: impl IntoIterator<Item = BlockAddr>,
        files: impl IntoIterator<Item = FileId>,
    ) {
        self.localized.extend(addrs);
        self.localized_files.extend(files);
    }

    /// Looks `addr` up through the fault-tolerance stack. See
    /// [`RemoteBinding::lookup_traced`].
    pub fn lookup(&mut self, now: SimTime, addr: BlockAddr) -> RemoteLookup {
        self.lookup_traced(now, addr, None)
    }

    /// Looks `addr` up, optionally recording the fetch timeline into
    /// `trace` (retry/hedge instants, for determinism tests).
    ///
    /// Order of degradation: localized blocks and buffer hits resolve
    /// without touching the network; then the in-flight cap sheds, the
    /// breaker short-circuits, and finally the deadline/retry/hedge
    /// loop runs the actual fetch.
    pub fn lookup_traced(
        &mut self,
        now: SimTime,
        addr: BlockAddr,
        mut trace: Option<&mut Vec<RemoteTraceEvent>>,
    ) -> RemoteLookup {
        let mut note = |at: SimTime, kind: &'static str| {
            if let Some(t) = trace.as_deref_mut() {
                t.push(RemoteTraceEvent { at, kind });
            }
        };
        if self.is_localized(addr) {
            return RemoteLookup::Miss;
        }
        if self.buffered.remove(&addr) {
            // Exclusive semantics, like the cache proper: a buffered page
            // is handed to the guest and leaves the buffer.
            self.counters.readahead_hits += 1;
            return RemoteLookup::Served {
                finish: now + self.store.config().buffer_read,
            };
        }
        self.counters.fetches += 1;
        self.inflight.retain(|&f| f > now);
        if self.inflight.len() >= self.config.inflight_cap {
            self.counters.shed += 1;
            note(now, "shed");
            return RemoteLookup::Miss;
        }
        if !self.breaker.allows(now) {
            self.counters.breaker_skipped += 1;
            note(now, "breaker-open");
            return RemoteLookup::Miss;
        }
        let chunk = ChunkKey::of(addr, self.store.config().chunk_pages);
        let deadline = now + self.config.deadline;
        let mut at = now;
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            note(at, if attempt == 1 { "attempt" } else { "retry" });
            match self.store.attempt(at, chunk, u64::from(attempt)) {
                AttemptOutcome::Served { latency, edge_hit } => {
                    let mut finish = at + latency;
                    let mut winner_edge = edge_hit;
                    if latency > self.config.hedge_after {
                        // Hedge: a second request launches once the
                        // primary is slower than the threshold; the
                        // first response wins and the loser is dropped.
                        let hedge_at = at + self.config.hedge_after;
                        self.counters.hedges += 1;
                        note(hedge_at, "hedge");
                        if let AttemptOutcome::Served { latency, edge_hit } =
                            self.store
                                .attempt(hedge_at, chunk, u64::from(attempt) | HEDGE_SALT)
                        {
                            let hedge_finish = hedge_at + latency;
                            if hedge_finish < finish {
                                finish = hedge_finish;
                                winner_edge = edge_hit;
                                self.counters.hedge_wins += 1;
                            }
                        }
                    }
                    if finish > deadline {
                        self.counters.timeouts += 1;
                        note(deadline, "failed");
                        return self.fail(deadline);
                    }
                    self.counters.served += 1;
                    if winner_edge {
                        self.counters.edge_hits += 1;
                    } else {
                        self.counters.origin_fetches += 1;
                    }
                    if self.breaker.note_success() {
                        self.counters.breaker_recoveries += 1;
                    }
                    self.inflight.push(finish);
                    self.stage_chunk(chunk, addr);
                    note(finish, "served");
                    return RemoteLookup::Served { finish };
                }
                AttemptOutcome::Failed { after } | AttemptOutcome::Stalled { after } => {
                    let failed_at = at + after;
                    if failed_at >= deadline {
                        // The stall or slow error ate the deadline; the
                        // caller abandoned the request at the deadline.
                        self.counters.timeouts += 1;
                        note(deadline, "failed");
                        return self.fail(deadline);
                    }
                    if attempt >= self.config.max_attempts {
                        note(failed_at, "failed");
                        return self.fail(failed_at);
                    }
                    // Seeded jittered exponential backoff: factor in
                    // [0.5, 1.5) drawn statelessly from (seed, chunk,
                    // attempt) so the retry schedule is identical across
                    // runs and thread counts.
                    let exp = self.config.backoff_base * 2u64.pow(attempt - 1);
                    let jitter = 0.5
                        + keyed_unit(
                            self.store.config().seed ^ JITTER_SALT,
                            chunk.hash64() ^ u64::from(attempt),
                        );
                    let backoff = (exp.min(self.config.backoff_max)) * jitter;
                    self.counters.retries += 1;
                    at = failed_at + backoff;
                    if at >= deadline {
                        self.counters.timeouts += 1;
                        note(deadline, "failed");
                        return self.fail(deadline);
                    }
                }
            }
        }
    }

    /// Records a final fetch failure at `finish`: feeds the breaker,
    /// occupies the in-flight slot until the failure resolved, and
    /// degrades to a miss.
    fn fail(&mut self, finish: SimTime) -> RemoteLookup {
        self.counters.failed += 1;
        if self.breaker.note_failure(finish) {
            self.counters.breaker_trips += 1;
        }
        self.inflight.push(finish);
        RemoteLookup::Miss
    }

    /// Stages the sibling pages of a fetched chunk in the readahead
    /// buffer (the whole range was transferred anyway), evicting the
    /// oldest staged chunk beyond the capacity. Localized pages and the
    /// page being served are skipped.
    fn stage_chunk(&mut self, chunk: ChunkKey, served: BlockAddr) {
        if self.store.config().buffer_chunks == 0 {
            return;
        }
        for page in chunk.pages(self.store.config().chunk_pages) {
            if page != served && !self.is_localized(page) {
                self.buffered.insert(page);
            }
        }
        self.buffer_order.push_back(chunk);
        if self.buffer_order.len() > self.store.config().buffer_chunks {
            if let Some(old) = self.buffer_order.pop_front() {
                // Chunks partition the address space, so dropping the
                // oldest chunk's pages cannot evict a newer chunk's.
                for page in old.pages(self.store.config().chunk_pages) {
                    self.buffered.remove(&page);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_sim::FaultKind;

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr::new(FileId(f), b)
    }

    fn store(seed: u64) -> ChunkStore {
        ChunkStore::new(RemoteId(0), RemoteConfig::cdn(seed))
    }

    fn binding(store: ChunkStore) -> RemoteBinding {
        RemoteBinding::new(Arc::new(store), RemoteFetchConfig::default())
    }

    #[test]
    fn chunk_key_partitions_files() {
        let k = ChunkKey::of(addr(3, 130), 64);
        assert_eq!(
            k,
            ChunkKey {
                file: FileId(3),
                index: 2
            }
        );
        let pages: Vec<BlockAddr> = k.pages(64).collect();
        assert_eq!(pages.len(), 64);
        assert_eq!(pages[0], addr(3, 128));
        assert_eq!(pages[63], addr(3, 191));
    }

    #[test]
    fn healthy_fetch_serves_and_stages_readahead() {
        let mut b = binding(store(1));
        let out = b.lookup(SimTime::ZERO, addr(1, 10));
        let RemoteLookup::Served { finish } = out else {
            panic!("healthy remote must serve: {out:?}");
        };
        assert!(finish > SimTime::ZERO);
        assert_eq!(b.counters().served, 1);
        // Sibling pages of the chunk are staged; serving one consumes it.
        assert_eq!(b.buffered_pages(), 63);
        let sibling = b.lookup(SimTime::ZERO, addr(1, 11));
        assert!(matches!(sibling, RemoteLookup::Served { .. }));
        assert_eq!(b.counters().readahead_hits, 1);
        assert_eq!(b.counters().fetches, 1, "buffer hit issues no fetch");
        assert_eq!(b.buffered_pages(), 62);
    }

    #[test]
    fn localized_blocks_are_never_served() {
        let mut b = binding(store(2));
        assert!(matches!(
            b.lookup(SimTime::ZERO, addr(1, 0)),
            RemoteLookup::Served { .. }
        ));
        // Guest invalidates a staged sibling: the staged copy dies too.
        b.localize(addr(1, 1));
        assert_eq!(b.lookup(SimTime::ZERO, addr(1, 1)), RemoteLookup::Miss);
        b.localize_file(FileId(1));
        assert_eq!(b.lookup(SimTime::ZERO, addr(1, 7)), RemoteLookup::Miss);
        assert_eq!(b.buffered_pages(), 0);
        // Other files still flow.
        assert!(matches!(
            b.lookup(SimTime::ZERO, addr(2, 0)),
            RemoteLookup::Served { .. }
        ));
    }

    #[test]
    fn partition_degrades_to_miss_and_trips_breaker() {
        let faults = FaultSchedule::new(3).with_window(
            SimTime::ZERO,
            Some(SimTime::from_secs(10)),
            FaultKind::Partition,
        );
        let mut b = binding(store(3).with_faults(faults));
        let mut t = SimTime::ZERO;
        // Every fetch inside the partition fails open to a miss; after
        // the breaker threshold they are skipped locally.
        for i in 0..10 {
            let out = b.lookup(t, addr(1, i * 64));
            assert_eq!(out, RemoteLookup::Miss, "fetch {i}");
            t += SimDuration::from_millis(1);
        }
        assert_eq!(b.counters().breaker_trips, 1);
        assert!(b.counters().breaker_skipped > 0);
        assert!(b.breaker().is_open());
        // After the window closes, the next probe recovers.
        let healed = SimTime::from_secs(11);
        let out = b.lookup(healed, addr(1, 640));
        assert!(matches!(out, RemoteLookup::Served { .. }));
        assert_eq!(b.counters().breaker_recoveries, 1);
    }

    #[test]
    fn retries_and_deadline_are_deterministic() {
        let faults = || {
            FaultSchedule::new(7).with_window(
                SimTime::ZERO,
                None,
                FaultKind::TransientErrors { rate: 0.6 },
            )
        };
        let run = || {
            let mut b = binding(store(7).with_faults(faults()));
            let mut trace = Vec::new();
            for i in 0..50 {
                let t = SimTime::from_nanos(i * 1_000_000);
                b.lookup_traced(t, addr(2, i * 64), Some(&mut trace));
            }
            (b.counters(), trace)
        };
        let (c1, t1) = run();
        let (c2, t2) = run();
        assert_eq!(c1, c2);
        assert_eq!(t1, t2);
        assert!(c1.retries > 0, "a 60% error rate must retry: {c1:?}");
    }

    #[test]
    fn stall_eats_deadline_and_counts_timeout() {
        let faults = FaultSchedule::new(11).with_window(
            SimTime::ZERO,
            None,
            FaultKind::RemoteBrownout {
                rate: 1.0,
                stall: SimDuration::from_secs(1),
            },
        );
        let mut b = binding(store(11).with_faults(faults));
        let out = b.lookup(SimTime::ZERO, addr(1, 0));
        assert_eq!(out, RemoteLookup::Miss);
        assert_eq!(b.counters().timeouts, 1);
        assert_eq!(b.counters().failed, 1);
        // The failure resolved exactly at the deadline.
        assert_eq!(b.inflight(SimTime::ZERO), 1);
        assert_eq!(
            b.inflight(SimTime::ZERO + RemoteFetchConfig::default().deadline),
            0
        );
    }

    #[test]
    fn slow_origin_fetch_hedges() {
        // Force origin-path latency above the hedge threshold via an
        // edge-cache flap window; origin RTT (40ms) > hedge_after (20ms).
        let faults = FaultSchedule::new(13).with_window(
            SimTime::ZERO,
            None,
            FaultKind::EdgeCacheFlap { rate: 1.0 },
        );
        let mut b = binding(store(13).with_faults(faults));
        let out = b.lookup(SimTime::ZERO, addr(1, 0));
        assert!(matches!(out, RemoteLookup::Served { .. }));
        assert_eq!(b.counters().hedges, 1);
    }

    #[test]
    fn inflight_cap_sheds() {
        let cfg = RemoteFetchConfig {
            inflight_cap: 2,
            ..RemoteFetchConfig::default()
        };
        let mut b = RemoteBinding::new(Arc::new(store(17)), cfg);
        // Three fetches at the same instant: the third is shed (the
        // first two are still in flight).
        assert!(matches!(
            b.lookup(SimTime::ZERO, addr(1, 0)),
            RemoteLookup::Served { .. }
        ));
        assert!(matches!(
            b.lookup(SimTime::ZERO, addr(1, 64)),
            RemoteLookup::Served { .. }
        ));
        assert_eq!(b.lookup(SimTime::ZERO, addr(1, 128)), RemoteLookup::Miss);
        assert_eq!(b.counters().shed, 1);
        // Once the transfers finish, capacity frees up.
        let later = SimTime::from_secs(1);
        assert!(matches!(
            b.lookup(later, addr(1, 128)),
            RemoteLookup::Served { .. }
        ));
    }

    #[test]
    fn registry_returns_typed_errors() {
        let mut reg = RemoteRegistry::new();
        reg.register(store(1)).unwrap();
        assert_eq!(
            reg.register(store(2)).unwrap_err(),
            RemoteError::AlreadyRegistered(RemoteId(0))
        );
        assert!(reg.get(RemoteId(0)).is_ok());
        assert_eq!(
            reg.get(RemoteId(9)).unwrap_err(),
            RemoteError::UnknownRemote(RemoteId(9))
        );
        assert_eq!(
            RemoteError::UnknownRemote(RemoteId(9)).to_string(),
            "unknown remote remote9"
        );
    }

    #[test]
    fn edge_placement_is_shared_across_bindings() {
        // Two tenants reading the same image chunk see the same edge
        // placement (CDN dedup), and placements are mixed overall.
        let s = Arc::new(store(23));
        let hits: Vec<bool> = (0..64)
            .map(|i| {
                s.edge_resident(ChunkKey {
                    file: FileId(1),
                    index: i,
                })
            })
            .collect();
        let again: Vec<bool> = (0..64)
            .map(|i| {
                s.edge_resident(ChunkKey {
                    file: FileId(1),
                    index: i,
                })
            })
            .collect();
        assert_eq!(hits, again);
        assert!(hits.iter().any(|&h| h));
        assert!(hits.iter().any(|&h| !h));
    }
}
