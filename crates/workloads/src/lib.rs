//! Workload generators for the DoubleDecker reproduction.
//!
//! The paper evaluates with the Filebench suite (webserver, proxycache,
//! mail/varmail, videoserver personalities) and YCSB clients driving
//! Redis, MongoDB and MySQL data stores. Neither tool runs in this
//! environment, so this crate reimplements the *access-pattern classes*
//! each represents, as closed-loop workload threads against the
//! [`ddc_hypervisor::Host`] data path:
//!
//! | Paper workload | Model here | Pattern class |
//! |---|---|---|
//! | Filebench webserver   | [`Webserver`]   | many small whole-file random reads + log append |
//! | Filebench proxycache  | [`Proxycache`]  | mixed read/create/delete over a bounded fileset |
//! | Filebench mail        | [`MailServer`]  | small files, fsync-heavy create/read/delete |
//! | Filebench videoserver | [`VideoServer`] | large sequential whole-file reads + writer |
//! | YCSB + Redis          | [`YcsbClient`] + [`StoreModel::RedisLike`] | anonymous-memory working set only |
//! | YCSB + MongoDB        | [`YcsbClient`] + [`StoreModel::MongoLike`] | file-backed records (page-cache friendly) |
//! | YCSB + MySQL          | [`YcsbClient`] + [`StoreModel::MySqlLike`] | anonymous buffer pool + redo log fsync |
//!
//! Every thread implements [`WorkloadThread`]: a `step` that performs one
//! application operation on the host and returns when the thread is next
//! runnable, plus an [`OpsRecorder`](ddc_metrics::OpsRecorder) for throughput/latency reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod filebench;
mod filebench_extra;
mod fileset;
mod thread;
mod ycsb;
mod zipf;

pub use filebench::{
    MailConfig, MailServer, ProxyConfig, Proxycache, VideoConfig, VideoServer, WebConfig, Webserver,
};
pub use filebench_extra::{FileServer, FileServerConfig, Oltp, OltpConfig};
pub use fileset::FileSet;
pub use thread::WorkloadThread;
pub use ycsb::{StoreModel, YcsbClient, YcsbConfig};
pub use zipf::Zipf;
