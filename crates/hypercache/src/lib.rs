//! The DoubleDecker hypervisor cache store — the paper's core
//! contribution (§3–§4).
//!
//! [`DoubleDeckerCache`] implements the
//! [`SecondChanceCache`] backend trait
//! with:
//!
//! * an **indexing module** ([`index`]) mapping `(vm, pool, inode, block)`
//!   keys to storage slots through a per-pool file-object table and
//!   per-file block tree, mirroring the paper's hash-table + radix-tree
//!   hierarchy,
//! * a **storage module** ([`store`]) with two backends — host memory and
//!   SSD — with synchronous reads and (for the SSD) asynchronous writes,
//! * a **policy module** ([`policy`]) computing two-level entitlements
//!   (per-VM weights set by the host administrator, per-container `<T, W>`
//!   tuples set from inside each VM) and selecting eviction victims with
//!   the paper's Algorithm 1, over the one [`registry`] of VMs, pools and
//!   policies both engines keep,
//! * dynamic reconfiguration of every knob at runtime (capacities, VM
//!   weights, container policies, store types),
//! * the **Global** baseline mode (tmem-style container-agnostic FIFO) and
//!   a **Strict** partition mode (Morai-style fixed partitions without
//!   slack redistribution), used as comparators in the evaluation,
//! * a **crash-and-recovery plane**: a write-ahead journal of every state
//!   transition ([`DoubleDeckerCache::enable_journal`]), warm restart
//!   from a truncated or corrupted journal image
//!   ([`DoubleDeckerCache::recover`]) that can lose entries but never
//!   resurrect stale ones, and a runtime invariant auditor ([`audit`](mod@audit)).
//!
//! # Quick start
//!
//! ```
//! use ddc_cleancache::{CachePolicy, PageVersion, SecondChanceCache, VmId};
//! use ddc_hypercache::{CacheConfig, DoubleDeckerCache};
//! use ddc_sim::SimTime;
//! use ddc_storage::{BlockAddr, FileId};
//!
//! let mut cache = DoubleDeckerCache::new(CacheConfig::mem_only(1024));
//! cache.add_vm(VmId(0), 100);
//! let pool = cache.create_pool(VmId(0), CachePolicy::mem(100));
//!
//! let addr = BlockAddr::new(FileId(1), 0);
//! let put = cache.put(SimTime::ZERO, VmId(0), pool, addr, PageVersion(1));
//! assert!(put.is_stored());
//! let get = cache.get(SimTime::ZERO, VmId(0), pool, addr);
//! assert!(get.is_hit());
//! // Exclusive: the hit removed the object.
//! assert!(!cache.get(SimTime::ZERO, VmId(0), pool, addr).is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod audit;
mod config;
mod ddcache;
mod engine;
pub mod index;
pub mod policy;
pub mod registry;
pub mod shard;
pub mod store;

pub use admission::{AdmissionConfig, GhostFilter};
pub use audit::{audit, audit_cut, audit_pool_slice, AuditFinding};
pub use config::{
    store_kind_code, store_kind_from_code, CacheConfig, PartitionMode, EVICTION_BATCH_PAGES,
    JOURNAL_COMPACT_FACTOR, JOURNAL_COMPACT_MIN_RECORDS,
};
pub use ddcache::{CacheTotals, DoubleDeckerCache, VmUsage};
pub use engine::Engine;
pub use policy::{select_victim, select_victim_strict, EntityUsage};
pub use shard::RecoveryReport;

// Re-export the interface vocabulary so downstream crates only need this
// crate for the common case.
pub use ddc_cleancache::{
    CachePolicy, GetOutcome, PageVersion, PoolId, PoolStats, PutOutcome, SecondChanceCache,
    StoreKind, VmId,
};
