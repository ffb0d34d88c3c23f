//! DoubleDecker: a cooperative disk caching framework for derivative
//! clouds — simulation reproduction.
//!
//! This is the facade crate: it re-exports the full stack (simulation
//! engine, storage devices, guest OS model, cleancache interface, the
//! DoubleDecker hypervisor cache, host topology, workloads, metrics) and
//! provides the [`Experiment`] runner that every example and benchmark is
//! built on.
//!
//! # Architecture
//!
//! ```text
//!  workload threads (Filebench/YCSB models)        crates/workloads
//!        │ read/write/fsync/anon_touch
//!        ▼
//!  Host ── VMs ── containers (cgroups)             crates/hypervisor
//!        │          │ page cache / anon / swap     crates/guest
//!        │          ▼
//!        │   cleancache + hypercall channel        crates/cleancache
//!        ▼          ▼
//!  DoubleDecker hypervisor cache                   crates/hypercache
//!    (mem + SSD stores, 2-level weighted policy)
//!        ▼
//!  shared devices (RAM / SSD / HDD)                crates/storage
//!        ▼
//!  discrete-event substrate                        crates/sim
//! ```
//!
//! # Example
//!
//! ```
//! use ddc_core::prelude::*;
//!
//! let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(2048)));
//! let vm = host.boot_vm(32, 100);
//! let cg = host.create_container(vm, "web", 256, CachePolicy::mem(100));
//! let web = Webserver::new("web/t0", vm, cg, WebConfig { files: 100, ..WebConfig::default() }, 42);
//!
//! let mut exp = Experiment::new(host, SimDuration::from_secs(1));
//! exp.add_thread(Box::new(web));
//! let report = exp.run_until(SimTime::from_secs(10));
//! assert!(report.threads[0].ops > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod parallel;
mod report;
mod runner;
pub mod scenario;

pub use report::{ExperimentReport, FaultTotals, SeriesReport, ThreadReport};
pub use runner::{Experiment, ThreadPool};

/// Convenient glob-import surface for examples and benches.
pub mod prelude {
    pub use crate::{Experiment, ExperimentReport, FaultTotals, ThreadPool};
    pub use ddc_cleancache::{
        CachePolicy, GetOutcome, PageVersion, PoolId, PoolStats, PutOutcome, StoreKind, VmId,
    };
    pub use ddc_guest::{
        CgroupId, CgroupMemStats, GuestConfig, HitLevel, MissRatioCurve, MrcEstimator,
    };
    pub use ddc_hypercache::{
        AdmissionConfig, CacheConfig, CacheTotals, DoubleDeckerCache, FallbackMode, GhostFilter,
        PartitionMode, EVICTION_BATCH_PAGES,
    };
    pub use ddc_hypervisor::{vm_file, Host, HostConfig};
    pub use ddc_metrics::{
        CounterSnapshot, LatencyHistogram, OpsRecorder, TextTable, ThroughputReport,
    };
    pub use ddc_sim::{
        FaultKind, FaultSchedule, FaultWindow, SimDuration, SimRng, SimTime, TimeSeries,
    };
    pub use ddc_storage::{BlockAddr, Device, FileId, PAGE_SIZE};
    pub use ddc_workloads::{
        FileServer, FileServerConfig, MailConfig, MailServer, Oltp, OltpConfig, ProxyConfig,
        Proxycache, StoreModel, VideoConfig, VideoServer, WebConfig, Webserver, WorkloadThread,
        YcsbClient, YcsbConfig,
    };
}

// Re-export the component crates for users who want the full paths.
pub use ddc_cleancache as cleancache;
pub use ddc_concurrent as concurrent;
pub use ddc_guest as guest;
pub use ddc_hypercache as hypercache;
pub use ddc_hypervisor as hypervisor;
pub use ddc_metrics as metrics;
pub use ddc_sim as sim;
pub use ddc_storage as storage;
pub use ddc_workloads as workloads;
