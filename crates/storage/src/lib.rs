//! Storage-device models for the DoubleDecker reproduction.
//!
//! The paper's testbed has three storage tiers in the disk-IO path:
//! host RAM (the memory-backed hypervisor cache), a SATA SSD (the SSD-backed
//! hypervisor cache — a 240 GB Kingston SSDNow V300), and a spinning disk
//! behind the virtual disks. This crate models each tier as a service-time
//! distribution in front of an FCFS queue ([`ddc_sim::QueuedResource`]),
//! which is what determines the *relative* performance shapes the paper
//! reports (RAM ≪ SSD ≪ HDD, and contention effects between containers).
//!
//! * [`BlockAddr`] / [`PAGE_SIZE`] — 4 KiB-page block addressing shared by
//!   the guest page cache and the hypervisor cache index,
//! * [`LatencyModel`] — per-device service times for sequential/random
//!   reads and writes,
//! * [`Device`] — a latency model combined with queueing and sequentiality
//!   tracking,
//! * presets: [`Device::hdd`], [`Device::ssd_sata`], [`Device::ram`],
//! * [`Journal`] — a checksummed write-ahead journal for warm-restarting
//!   the SSD-backed hypervisor cache after a crash,
//! * [`ChunkStore`] / [`RemoteBinding`] — a simulated remote chunk store
//!   (object store behind a CDN edge) plus the fault-tolerance stack
//!   (deadlines, seeded retries, hedged reads, circuit breaking, bounded
//!   in-flight with shed-to-miss) the cache engines mount on their miss
//!   path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod device;
mod journal;
mod latency;
mod remote;
pub mod wear;

pub use addr::{pages_for_bytes, BlockAddr, FileId, PAGE_SIZE};
pub use device::{Device, DeviceKind, IoCompletion, IoError};
pub use journal::{crc32, Journal, JournalRecord, ReplayStats};
pub use latency::LatencyModel;
pub use remote::{
    AttemptOutcome, ChunkKey, ChunkStore, RemoteBinding, RemoteConfig, RemoteCounters, RemoteError,
    RemoteFetchConfig, RemoteId, RemoteLookup, RemoteRegistry, RemoteTraceEvent,
};
pub use wear::{PoolWear, WearCounters};
