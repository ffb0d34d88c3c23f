//! The second-chance cache access interface ("cleancache") and the
//! guest↔hypervisor hypercall channel.
//!
//! In the paper (§2.1, §4.1) the guest OS page cache talks to the
//! hypervisor cache through Linux's *cleancache* interface, extended with
//! five DoubleDecker control operations driven by the cgroup subsystem:
//!
//! | Paper operation    | This crate                                      |
//! |--------------------|-------------------------------------------------|
//! | `get` (lookup)     | [`SecondChanceCache::get`]                      |
//! | `put` (store)      | [`SecondChanceCache::put`]                      |
//! | `flush`            | [`SecondChanceCache::flush`] / [`SecondChanceCache::flush_file`] |
//! | CREATE_CGROUP      | [`SecondChanceCache::create_pool`]              |
//! | SET_CG_WEIGHT      | [`SecondChanceCache::set_policy`]               |
//! | MIGRATE_OBJECT     | [`SecondChanceCache::migrate_object`]           |
//! | DESTROY_CGROUP     | [`SecondChanceCache::destroy_pool`]             |
//! | GET_STATS          | [`SecondChanceCache::pool_stats`]               |
//!
//! Exclusivity contract (paper §2.1): a successful `get` **removes** the
//! object from the second-chance cache; `put` is issued only when a clean
//! page is evicted from the guest page cache; `flush` invalidates a stale
//! object when the guest dirties a page. The [`PageVersion`] carried by
//! every object lets tests verify that a guest can never observe stale
//! data.
//!
//! Calls from inside a VM cross the [`HypercallChannel`], which charges the
//! VMCALL + argument-copy cost and keeps the per-pool counters that the
//! paper's Table 2 reports (lookup-to-store ratio, eviction counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod ids;
mod null;
mod policy;
mod traits;

pub use channel::{ChannelCounters, HypercallChannel};
pub use ids::{PageVersion, PoolId, VmId};
pub use null::NullCache;
pub use policy::{CachePolicy, StoreKind};
pub use traits::{GetOutcome, PoolStats, PutOutcome, SecondChanceCache};
