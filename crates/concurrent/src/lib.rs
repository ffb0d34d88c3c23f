//! DoubleDecker reproduction: the concurrent serving plane.
//!
//! The serial engine in `ddc-hypercache` models the paper's policies
//! behind one `&mut self`. This crate makes the serving path
//! *concurrent* without changing those policies:
//!
//! * [`sharded`] — [`ShardedCache`], a [`SecondChanceCache`] whose pool
//!   index is split into per-lock shards, with a global atomic pressure
//!   ledger and cross-shard resource-conservative eviction (Algorithm 1
//!   unchanged), plus per-shard journal segments with group commit and
//!   [`ShardedCache::recover`] warm restart (DESIGN.md §14). Every get,
//!   hit or miss, is one visit to its pool's home shard under that
//!   shard's lock, as on the serial engine, and every put visit reads
//!   its pool's policy under the registry and shard locks it holds
//!   (DESIGN.md §15). Global-mode
//!   eviction holds every shard and evicts the smallest live FIFO front.
//! * [`driver`] — a multi-threaded VM driver: each guest runs its
//!   hypercall stream on its own OS thread against the shared cache,
//!   with a seeded deterministic-equivalence mode (single-threaded
//!   execution byte-identical to the serial engine), a stress mode
//!   gated by the invariant auditor and a stale-read oracle, and
//!   [`CrashHarness`] — kill the journaled plane mid-tick, recover
//!   from mutilated segment snapshots, keep driving the same guests.
//! * [`audit`](mod@audit) — the cross-shard invariant auditor: the checks both
//!   engines share (`ddc_hypercache::audit_cut`) over a lock-all cut,
//!   plus shard-map placement, memo and mirror accuracy and journal
//!   health.
//!
//! [`SecondChanceCache`]: ddc_cleancache::SecondChanceCache

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod backoff;
pub mod driver;
mod engine;
pub mod sharded;

pub use audit::audit;
/// The one [`ddc_hypercache::RecoveryReport`], under the name the
/// benchmark crate knows it by.
pub use ddc_hypercache::RecoveryReport as ShardedRecoveryReport;
pub use driver::{
    run_equivalence, run_stress, CrashHarness, EquivalenceReport, RemoteSetup, StressConfig,
    StressOutcome,
};
pub use sharded::ShardedCache;

// Vocabulary re-exports so downstream crates can name the shared types
// without importing every layer.
pub use ddc_cleancache::{
    CachePolicy, GetOutcome, HypercallChannel, PageVersion, PoolId, PutOutcome, SecondChanceCache,
    StoreKind, VmId,
};
pub use ddc_hypercache::{AuditFinding, CacheConfig, Engine, PartitionMode};
