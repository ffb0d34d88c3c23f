//! Declarative experiment scenarios.
//!
//! A [`ScenarioSpec`] describes a complete experiment — cache
//! configuration, VMs, containers, workloads, timed reconfiguration
//! actions and probes — as plain data read from JSON, so experiments can
//! be defined without code and run with the `scenario` binary (or
//! embedded via [`build`]): the no-code path for exploring DoubleDecker
//! policies. [`ScenarioSpec::from_json`] refuses a spec the run could not
//! survive (a workload with nothing to draw from, a skew the sampler
//! rejects) with an error naming the field.
//!
//! ```json
//! {
//!   "name": "web-pair",
//!   "cache": { "mem_mb": 128, "mode": "doubledecker" },
//!   "duration_secs": 60,
//!   "vms": [ { "mem_mb": 64, "weight": 100, "containers": [
//!     { "name": "web", "limit_mb": 32,
//!       "policy": { "store": "mem", "weight": 60 },
//!       "threads": 2,
//!       "workload": { "kind": "webserver", "files": 1200 } }
//!   ] } ]
//! }
//! ```

use ddc_cleancache::{CachePolicy, VmId};
use ddc_guest::CgroupId;
use ddc_hypercache::{AdmissionConfig, CacheConfig, FallbackMode, PartitionMode};
use ddc_hypervisor::{Host, HostConfig};
use ddc_json::Json;
use ddc_sim::{FaultKind, FaultSchedule, SimDuration, SimTime};
use ddc_workloads::{
    FileServer, FileServerConfig, MailConfig, MailServer, Oltp, OltpConfig, ProxyConfig,
    Proxycache, StoreModel, VideoConfig, VideoServer, WebConfig, Webserver, WorkloadThread,
    YcsbClient, YcsbConfig,
};
use std::collections::BTreeMap;
use std::fmt;

use crate::{Experiment, ExperimentReport};

/// Error building or validating a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario error: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn err(msg: impl Into<String>) -> ScenarioError {
    ScenarioError(msg.into())
}

/// Cache store configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheSpec {
    /// Memory store capacity, MiB.
    pub mem_mb: u64,
    /// SSD store capacity, MiB (default 0 = no SSD store).
    pub ssd_mb: u64,
    /// `"doubledecker"` (default), `"global"` or `"strict"`.
    pub mode: Option<String>,
}

/// A container's `<T, W>` policy.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicySpec {
    /// `"mem"`, `"ssd"`, `"hybrid"` or `"disabled"`.
    pub store: String,
    /// Weight (ignored for `"disabled"`).
    pub weight: u32,
}

impl PolicySpec {
    fn to_policy(&self) -> Result<CachePolicy, ScenarioError> {
        Ok(match self.store.as_str() {
            "mem" => CachePolicy::mem(self.weight),
            "ssd" => CachePolicy::ssd(self.weight),
            "hybrid" => CachePolicy::hybrid(self.weight),
            "disabled" => CachePolicy::disabled(),
            other => return Err(err(format!("unknown store kind {other:?}"))),
        })
    }
}

/// Workload selection with per-kind parameters (all optional, falling
/// back to the library defaults).
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Filebench webserver.
    Webserver {
        /// Number of files.
        files: Option<usize>,
        /// Popularity skew.
        zipf_theta: Option<f64>,
        /// Think time per loop, microseconds.
        think_us: Option<u64>,
    },
    /// Filebench webproxy.
    Proxycache {
        /// Number of cached objects.
        files: Option<usize>,
    },
    /// Filebench varmail.
    Mail {
        /// Number of mail files.
        files: Option<usize>,
    },
    /// Filebench videoserver.
    Videoserver {
        /// Active videos.
        videos: Option<usize>,
        /// Mean video size in blocks.
        video_blocks: Option<u32>,
    },
    /// Filebench fileserver.
    Fileserver {
        /// Number of files in the share.
        files: Option<usize>,
    },
    /// Filebench OLTP.
    Oltp {
        /// Database size in blocks.
        data_blocks: Option<u64>,
        /// Writing-transaction fraction.
        write_fraction: Option<f64>,
    },
    /// YCSB-like client.
    Ycsb {
        /// `"redis"`, `"mongodb"` or `"mysql"`.
        store: String,
        /// Dataset size in blocks.
        dataset_blocks: u64,
        /// Update fraction (default 0.05).
        update_fraction: Option<f64>,
    },
}

/// One container of a VM.
#[derive(Clone, Debug, PartialEq)]
pub struct ContainerSpec {
    /// Name; also the thread-label prefix and action-reference key.
    pub name: String,
    /// Cgroup hard limit, MiB.
    pub limit_mb: u64,
    /// Hypervisor cache policy.
    pub policy: PolicySpec,
    /// Workload to run.
    pub workload: WorkloadSpec,
    /// Number of closed-loop threads (default 1).
    pub threads: Option<u32>,
    /// Delay before the workload starts, seconds (default 0).
    pub start_secs: Option<u64>,
}

/// One VM.
#[derive(Clone, Debug, PartialEq)]
pub struct VmSpec {
    /// Guest RAM, MiB.
    pub mem_mb: u64,
    /// Hypervisor cache weight (both stores).
    pub weight: u64,
    /// Containers hosted in the VM.
    pub containers: Vec<ContainerSpec>,
}

/// A timed reconfiguration action, referencing containers by name.
#[derive(Clone, Debug, PartialEq)]
pub enum ActionSpec {
    /// SET_CG_WEIGHT: change a container's `<T, W>` policy.
    SetContainerPolicy {
        /// Virtual time, seconds.
        at_secs: u64,
        /// Container name.
        container: String,
        /// New policy.
        policy: PolicySpec,
    },
    /// Change a VM's cache weight (VM index in declaration order).
    SetVmWeight {
        /// Virtual time, seconds.
        at_secs: u64,
        /// VM index (0-based, declaration order).
        vm: usize,
        /// New weight.
        weight: u64,
    },
    /// Resize the memory store.
    SetMemCapacityMb {
        /// Virtual time, seconds.
        at_secs: u64,
        /// New capacity, MiB.
        mem_mb: u64,
    },
    /// Change a container's cgroup limit.
    SetContainerLimitMb {
        /// Virtual time, seconds.
        at_secs: u64,
        /// Container name.
        container: String,
        /// New limit, MiB.
        limit_mb: u64,
    },
    /// Drop a container's clean page cache.
    DropCaches {
        /// Virtual time, seconds.
        at_secs: u64,
        /// Container name.
        container: String,
    },
}

/// One fault window of a [`FaultSpec`] schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultWindowSpec {
    /// Window start, virtual seconds.
    pub from_secs: u64,
    /// Window end (exclusive), virtual seconds; `None` = never ends.
    pub until_secs: Option<u64>,
    /// `"transient_errors"`, `"latency_spike"`, `"brownout"` or
    /// `"death"`.
    pub kind: String,
    /// Failure probability per operation (required for
    /// `transient_errors` and `brownout`).
    pub error_rate: Option<f64>,
    /// Added latency per surviving operation, microseconds (required for
    /// `latency_spike` and `brownout`).
    pub extra_latency_us: Option<u64>,
}

impl FaultWindowSpec {
    fn to_kind(&self) -> Result<FaultKind, ScenarioError> {
        let rate = || {
            self.error_rate
                .ok_or_else(|| err(format!("fault kind {:?} needs \"error_rate\"", self.kind)))
        };
        let extra = || {
            self.extra_latency_us
                .map(SimDuration::from_micros)
                .ok_or_else(|| {
                    err(format!(
                        "fault kind {:?} needs \"extra_latency_us\"",
                        self.kind
                    ))
                })
        };
        Ok(match self.kind.as_str() {
            "transient_errors" => FaultKind::TransientErrors { rate: rate()? },
            "latency_spike" => FaultKind::LatencySpike { extra: extra()? },
            "brownout" => FaultKind::Brownout {
                rate: rate()?,
                extra: extra()?,
            },
            "death" => FaultKind::Death,
            other => return Err(err(format!("unknown fault kind {other:?}"))),
        })
    }

    fn add_to(&self, schedule: &mut FaultSchedule) -> Result<(), ScenarioError> {
        schedule.add_window(
            SimTime::from_secs(self.from_secs),
            self.until_secs.map(SimTime::from_secs),
            self.to_kind()?,
        );
        Ok(())
    }
}

/// Declarative fault-injection plan: seeded schedules on the cache's SSD
/// store and on every VM's hypercall channel.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// RNG seed for the fault schedules (per-VM channel schedules derive
    /// distinct sub-seeds from it).
    pub seed: u64,
    /// Where SSD-bound puts go while the tier is quarantined: `"to_mem"`
    /// (default) or `"reject"`.
    pub ssd_fallback: Option<String>,
    /// Fault windows on the SSD store.
    pub ssd: Vec<FaultWindowSpec>,
    /// Fault windows applied to each VM's hypercall channel.
    pub channel: Vec<FaultWindowSpec>,
}

/// A complete experiment description.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Display name.
    pub name: String,
    /// Cache configuration.
    pub cache: CacheSpec,
    /// Virtual run length, seconds.
    pub duration_secs: u64,
    /// Probe sampling interval, seconds (default 1).
    pub sample_secs: Option<u64>,
    /// Open the steady-state measurement window at this time (default:
    /// half the duration).
    pub warmup_secs: Option<u64>,
    /// The VMs.
    pub vms: Vec<VmSpec>,
    /// Timed reconfigurations.
    pub schedule: Vec<ActionSpec>,
    /// Optional fault-injection plan.
    pub faults: Option<FaultSpec>,
}

impl ScenarioSpec {
    /// Parses a JSON scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] describing the parse failure.
    pub fn from_json(json: &str) -> Result<ScenarioSpec, ScenarioError> {
        let root = Json::parse(json).map_err(|e| err(e.to_string()))?;
        parse::scenario(&root)
    }
}

/// JSON → spec conversion (hand-rolled; the workspace builds offline
/// without serde).
mod parse {
    use super::*;

    fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, ScenarioError> {
        obj.get(key)
            .ok_or_else(|| err(format!("missing field {key:?}")))
    }

    fn u64_field(obj: &Json, key: &str) -> Result<u64, ScenarioError> {
        field(obj, key)?
            .as_u64()
            .ok_or_else(|| err(format!("field {key:?} must be a non-negative integer")))
    }

    fn str_field(obj: &Json, key: &str) -> Result<String, ScenarioError> {
        Ok(field(obj, key)?
            .as_str()
            .ok_or_else(|| err(format!("field {key:?} must be a string")))?
            .to_owned())
    }

    fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, ScenarioError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| err(format!("field {key:?} must be a non-negative integer"))),
        }
    }

    /// [`opt_u64`] for a 32-bit field: a larger value is an error, never
    /// silently truncated.
    fn opt_u32(obj: &Json, key: &str) -> Result<Option<u32>, ScenarioError> {
        let too_big = |_| err(format!("field {key:?} must fit in 32 bits"));
        opt_u64(obj, key)?
            .map(|n| u32::try_from(n).map_err(too_big))
            .transpose()
    }

    fn opt_f64(obj: &Json, key: &str) -> Result<Option<f64>, ScenarioError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| err(format!("field {key:?} must be a number"))),
        }
    }

    /// A count a workload draws from: zero would leave it an empty range.
    fn positive<T: Default + PartialEq>(key: &str, n: T) -> Result<T, ScenarioError> {
        if n == T::default() {
            return Err(err(format!("field {key:?} must be positive")));
        }
        Ok(n)
    }

    fn list<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], ScenarioError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(&[]),
            Some(v) => v
                .as_array()
                .ok_or_else(|| err(format!("field {key:?} must be an array"))),
        }
    }

    /// A key the cache object does not know is an error: an old spec's
    /// setting must not be dropped without a word.
    fn cache(v: &Json) -> Result<CacheSpec, ScenarioError> {
        let known = ["mem_mb", "ssd_mb", "mode"];
        let fields = v.as_object().unwrap_or_default();
        if let Some((key, _)) = fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(err(format!("unknown cache field {key:?}")));
        }
        Ok(CacheSpec {
            mem_mb: u64_field(v, "mem_mb")?,
            ssd_mb: opt_u64(v, "ssd_mb")?.unwrap_or(0),
            mode: match v.get("mode") {
                None | Some(Json::Null) => None,
                Some(m) => Some(
                    m.as_str()
                        .ok_or_else(|| err("\"mode\" must be a string"))?
                        .to_owned(),
                ),
            },
        })
    }

    fn policy(v: &Json) -> Result<PolicySpec, ScenarioError> {
        Ok(PolicySpec {
            store: str_field(v, "store")?,
            weight: opt_u32(v, "weight")?.unwrap_or(0),
        })
    }

    fn workload(v: &Json) -> Result<WorkloadSpec, ScenarioError> {
        let count = |key: &str| -> Result<Option<usize>, ScenarioError> {
            opt_u64(v, key)?
                .map(|n| positive(key, n as usize))
                .transpose()
        };
        Ok(match field(v, "kind")?.as_str() {
            Some("webserver") => WorkloadSpec::Webserver {
                files: count("files")?,
                zipf_theta: match opt_f64(v, "zipf_theta")? {
                    Some(t) if !(t.is_finite() && t >= 0.0) => {
                        return Err(err("field \"zipf_theta\" must be finite and non-negative"))
                    }
                    t => t,
                },
                think_us: opt_u64(v, "think_us")?,
            },
            Some("proxycache") => WorkloadSpec::Proxycache {
                files: count("files")?,
            },
            Some("mail") => WorkloadSpec::Mail {
                files: count("files")?,
            },
            Some("videoserver") => WorkloadSpec::Videoserver {
                videos: count("videos")?,
                video_blocks: opt_u32(v, "video_blocks")?
                    .map(|n| positive("video_blocks", n))
                    .transpose()?,
            },
            Some("fileserver") => WorkloadSpec::Fileserver {
                files: count("files")?,
            },
            Some("oltp") => WorkloadSpec::Oltp {
                data_blocks: opt_u64(v, "data_blocks")?,
                write_fraction: opt_f64(v, "write_fraction")?,
            },
            Some("ycsb") => WorkloadSpec::Ycsb {
                store: str_field(v, "store")?,
                dataset_blocks: positive("dataset_blocks", u64_field(v, "dataset_blocks")?)?,
                update_fraction: opt_f64(v, "update_fraction")?,
            },
            Some(other) => return Err(err(format!("unknown workload kind {other:?}"))),
            None => return Err(err("workload needs a string \"kind\"")),
        })
    }

    fn container(v: &Json) -> Result<ContainerSpec, ScenarioError> {
        Ok(ContainerSpec {
            name: str_field(v, "name")?,
            limit_mb: u64_field(v, "limit_mb")?,
            policy: policy(field(v, "policy")?)?,
            workload: workload(field(v, "workload")?)?,
            threads: opt_u32(v, "threads")?,
            start_secs: opt_u64(v, "start_secs")?,
        })
    }

    fn vm(v: &Json) -> Result<VmSpec, ScenarioError> {
        Ok(VmSpec {
            mem_mb: u64_field(v, "mem_mb")?,
            weight: u64_field(v, "weight")?,
            containers: list(v, "containers")?
                .iter()
                .map(container)
                .collect::<Result<_, _>>()?,
        })
    }

    fn action(v: &Json) -> Result<ActionSpec, ScenarioError> {
        let at_secs = u64_field(v, "at_secs")?;
        Ok(match field(v, "action")?.as_str() {
            Some("set_container_policy") => ActionSpec::SetContainerPolicy {
                at_secs,
                container: str_field(v, "container")?,
                policy: policy(field(v, "policy")?)?,
            },
            Some("set_vm_weight") => ActionSpec::SetVmWeight {
                at_secs,
                vm: u64_field(v, "vm")? as usize,
                weight: u64_field(v, "weight")?,
            },
            Some("set_mem_capacity_mb") => ActionSpec::SetMemCapacityMb {
                at_secs,
                mem_mb: u64_field(v, "mem_mb")?,
            },
            Some("set_container_limit_mb") => ActionSpec::SetContainerLimitMb {
                at_secs,
                container: str_field(v, "container")?,
                limit_mb: u64_field(v, "limit_mb")?,
            },
            Some("drop_caches") => ActionSpec::DropCaches {
                at_secs,
                container: str_field(v, "container")?,
            },
            Some(other) => return Err(err(format!("unknown action {other:?}"))),
            None => return Err(err("schedule entry needs a string \"action\"")),
        })
    }

    fn fault_window(v: &Json) -> Result<FaultWindowSpec, ScenarioError> {
        Ok(FaultWindowSpec {
            from_secs: u64_field(v, "from_secs")?,
            until_secs: opt_u64(v, "until_secs")?,
            kind: str_field(v, "kind")?,
            error_rate: opt_f64(v, "error_rate")?,
            extra_latency_us: opt_u64(v, "extra_latency_us")?,
        })
    }

    fn faults(v: &Json) -> Result<FaultSpec, ScenarioError> {
        Ok(FaultSpec {
            seed: u64_field(v, "seed")?,
            ssd_fallback: match v.get("ssd_fallback") {
                None | Some(Json::Null) => None,
                Some(m) => Some(
                    m.as_str()
                        .ok_or_else(|| err("\"ssd_fallback\" must be a string"))?
                        .to_owned(),
                ),
            },
            ssd: list(v, "ssd")?
                .iter()
                .map(fault_window)
                .collect::<Result<_, _>>()?,
            channel: list(v, "channel")?
                .iter()
                .map(fault_window)
                .collect::<Result<_, _>>()?,
        })
    }

    pub(super) fn scenario(v: &Json) -> Result<ScenarioSpec, ScenarioError> {
        Ok(ScenarioSpec {
            name: str_field(v, "name")?,
            cache: cache(field(v, "cache")?)?,
            duration_secs: u64_field(v, "duration_secs")?,
            sample_secs: opt_u64(v, "sample_secs")?,
            warmup_secs: opt_u64(v, "warmup_secs")?,
            vms: list(v, "vms")?.iter().map(vm).collect::<Result<_, _>>()?,
            schedule: list(v, "schedule")?
                .iter()
                .map(action)
                .collect::<Result<_, _>>()?,
            faults: match v.get("faults") {
                None | Some(Json::Null) => None,
                Some(f) => Some(faults(f)?),
            },
        })
    }
}

fn mb(mib: u64) -> u64 {
    CacheConfig::pages_from_mb(mib)
}

fn make_thread(
    spec: &WorkloadSpec,
    label: String,
    vm: VmId,
    cg: CgroupId,
    seed: u64,
) -> Result<Box<dyn WorkloadThread>, ScenarioError> {
    Ok(match spec {
        WorkloadSpec::Webserver {
            files,
            zipf_theta,
            think_us,
        } => {
            let mut cfg = WebConfig::default();
            if let Some(f) = files {
                cfg.files = *f;
            }
            if let Some(z) = zipf_theta {
                cfg.zipf_theta = *z;
            }
            if let Some(us) = think_us {
                cfg.think_time = SimDuration::from_micros(*us);
            }
            Box::new(Webserver::new(label, vm, cg, cfg, seed))
        }
        WorkloadSpec::Proxycache { files } => {
            let mut cfg = ProxyConfig::default();
            if let Some(f) = files {
                cfg.files = *f;
            }
            Box::new(Proxycache::new(label, vm, cg, cfg, seed))
        }
        WorkloadSpec::Mail { files } => {
            let mut cfg = MailConfig::default();
            if let Some(f) = files {
                cfg.files = *f;
            }
            Box::new(MailServer::new(label, vm, cg, cfg, seed))
        }
        WorkloadSpec::Videoserver {
            videos,
            video_blocks,
        } => {
            let mut cfg = VideoConfig::default();
            if let Some(v) = videos {
                cfg.active_videos = *v;
            }
            if let Some(b) = video_blocks {
                cfg.mean_video_blocks = *b;
            }
            Box::new(VideoServer::new(label, vm, cg, cfg, seed))
        }
        WorkloadSpec::Fileserver { files } => {
            let mut cfg = FileServerConfig::default();
            if let Some(f) = files {
                cfg.files = *f;
            }
            Box::new(FileServer::new(label, vm, cg, cfg, seed))
        }
        WorkloadSpec::Oltp {
            data_blocks,
            write_fraction,
        } => {
            let mut cfg = OltpConfig::default();
            if let Some(d) = data_blocks {
                cfg.data_blocks = *d;
            }
            if let Some(w) = write_fraction {
                cfg.write_fraction = *w;
            }
            Box::new(Oltp::new(label, vm, cg, cfg, seed))
        }
        WorkloadSpec::Ycsb {
            store,
            dataset_blocks,
            update_fraction,
        } => {
            let model = match store.as_str() {
                "redis" => StoreModel::RedisLike,
                "mongodb" => StoreModel::MongoLike,
                "mysql" => StoreModel::MySqlLike,
                other => return Err(err(format!("unknown ycsb store {other:?}"))),
            };
            let mut cfg = YcsbConfig::read_mostly(model, *dataset_blocks);
            if let Some(u) = update_fraction {
                cfg.update_fraction = *u;
            }
            Box::new(YcsbClient::new(label, vm, cg, cfg, seed))
        }
    })
}

/// Builds a runnable [`Experiment`] from a scenario. Occupancy probes are
/// registered automatically, one per container (`"{name} (MB)"`).
///
/// # Errors
///
/// Returns a [`ScenarioError`] for unknown store kinds, duplicate or
/// unknown container names, or out-of-range VM references.
pub fn build(spec: &ScenarioSpec) -> Result<Experiment, ScenarioError> {
    let mode = match spec.cache.mode.as_deref() {
        None | Some("doubledecker") => PartitionMode::DoubleDecker,
        Some("global") => PartitionMode::Global,
        Some("strict") => PartitionMode::Strict,
        Some(other) => return Err(err(format!("unknown mode {other:?}"))),
    };
    let cache = CacheConfig {
        mem_capacity_pages: mb(spec.cache.mem_mb),
        ssd_capacity_pages: mb(spec.cache.ssd_mb),
        mode,
        admission: AdmissionConfig::off(),
    };
    let mut host = Host::new(HostConfig::new(cache));

    let mut containers: BTreeMap<String, (VmId, CgroupId)> = BTreeMap::new();
    // Spec-order view of the container names: probes must be registered
    // in a deterministic order (HashMap iteration order varies run to
    // run, which would reshuffle report series between otherwise
    // identical runs).
    let mut container_order: Vec<String> = Vec::new();
    let mut vm_ids = Vec::new();
    let mut threads: Vec<(SimTime, Box<dyn WorkloadThread>)> = Vec::new();
    let mut seed = 1u64;
    for vm_spec in &spec.vms {
        let vm = host.boot_vm(vm_spec.mem_mb, vm_spec.weight);
        vm_ids.push(vm);
        for c in &vm_spec.containers {
            if containers.contains_key(&c.name) {
                return Err(err(format!("duplicate container name {:?}", c.name)));
            }
            let cg = host.create_container(vm, &c.name, mb(c.limit_mb), c.policy.to_policy()?);
            containers.insert(c.name.clone(), (vm, cg));
            container_order.push(c.name.clone());
            let start = SimTime::from_secs(c.start_secs.unwrap_or(0));
            for t in 0..c.threads.unwrap_or(1) {
                seed += 1;
                let label = format!("{}/t{t}", c.name);
                threads.push((start, make_thread(&c.workload, label, vm, cg, seed)?));
            }
        }
    }

    if let Some(f) = &spec.faults {
        match f.ssd_fallback.as_deref() {
            None | Some("to_mem") => host.set_ssd_fallback_mode(FallbackMode::ToMem),
            Some("reject") => host.set_ssd_fallback_mode(FallbackMode::Reject),
            Some(other) => return Err(err(format!("unknown ssd_fallback {other:?}"))),
        }
        if !f.ssd.is_empty() {
            let mut schedule = FaultSchedule::new(f.seed);
            for w in &f.ssd {
                w.add_to(&mut schedule)?;
            }
            host.set_ssd_fault_schedule(Some(schedule));
        }
        if !f.channel.is_empty() {
            for (i, vm) in vm_ids.iter().enumerate() {
                // Distinct deterministic sub-seed per VM so channels
                // don't fault in lockstep.
                let sub_seed = f
                    .seed
                    .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut schedule = FaultSchedule::new(sub_seed);
                for w in &f.channel {
                    w.add_to(&mut schedule)?;
                }
                host.set_channel_fault_schedule(*vm, Some(schedule));
            }
        }
    }

    let sample = SimDuration::from_secs(spec.sample_secs.unwrap_or(1).max(1));
    let mut exp = Experiment::new(host, sample);
    for (start, thread) in threads {
        exp.add_thread_at(start, thread);
    }
    for name in &container_order {
        let (vm, cg) = containers[name];
        let label = format!("{name} (MB)");
        exp.add_probe(label, move |h| {
            h.container_cache_stats(vm, cg).map_or(0.0, |s| {
                s.mem_pages as f64 * ddc_storage::PAGE_SIZE as f64 / 1e6
            })
        });
    }

    for action in &spec.schedule {
        match action.clone() {
            ActionSpec::SetContainerPolicy {
                at_secs,
                container,
                policy,
            } => {
                let &(vm, cg) = containers
                    .get(&container)
                    .ok_or_else(|| err(format!("unknown container {container:?}")))?;
                let policy = policy.to_policy()?;
                exp.schedule(SimTime::from_secs(at_secs), move |host, _pool, _at| {
                    host.set_container_policy(vm, cg, policy);
                });
            }
            ActionSpec::SetVmWeight {
                at_secs,
                vm,
                weight,
            } => {
                let id = *vm_ids
                    .get(vm)
                    .ok_or_else(|| err(format!("vm index {vm} out of range")))?;
                exp.schedule(SimTime::from_secs(at_secs), move |host, _pool, _at| {
                    host.set_vm_cache_weight(id, weight);
                });
            }
            ActionSpec::SetMemCapacityMb { at_secs, mem_mb } => {
                exp.schedule(SimTime::from_secs(at_secs), move |host, _pool, at| {
                    host.set_mem_cache_capacity(at, mb(mem_mb));
                });
            }
            ActionSpec::SetContainerLimitMb {
                at_secs,
                container,
                limit_mb,
            } => {
                let &(vm, cg) = containers
                    .get(&container)
                    .ok_or_else(|| err(format!("unknown container {container:?}")))?;
                exp.schedule(SimTime::from_secs(at_secs), move |host, _pool, at| {
                    host.set_container_mem_limit(at, vm, cg, mb(limit_mb));
                });
            }
            ActionSpec::DropCaches { at_secs, container } => {
                let &(vm, cg) = containers
                    .get(&container)
                    .ok_or_else(|| err(format!("unknown container {container:?}")))?;
                exp.schedule(SimTime::from_secs(at_secs), move |host, _pool, at| {
                    host.drop_caches(at, vm, cg);
                });
            }
        }
    }

    let warmup = spec
        .warmup_secs
        .unwrap_or(spec.duration_secs / 2)
        .min(spec.duration_secs);
    if warmup > 0 {
        exp.mark_steady_state_at(SimTime::from_secs(warmup));
    }
    Ok(exp)
}

/// Builds and runs a scenario to completion.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the spec fails validation.
pub fn run(spec: &ScenarioSpec) -> Result<ExperimentReport, ScenarioError> {
    let mut exp = build(spec)?;
    Ok(exp.run_until(SimTime::from_secs(spec.duration_secs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_json() -> &'static str {
        r#"{
            "name": "web-pair",
            "cache": { "mem_mb": 64, "mode": "doubledecker" },
            "duration_secs": 10,
            "vms": [ { "mem_mb": 32, "weight": 100, "containers": [
                { "name": "web", "limit_mb": 16,
                  "policy": { "store": "mem", "weight": 60 },
                  "threads": 2,
                  "workload": { "kind": "webserver", "files": 400 } },
                { "name": "proxy", "limit_mb": 16,
                  "policy": { "store": "mem", "weight": 40 },
                  "workload": { "kind": "proxycache", "files": 300 } }
            ] } ],
            "schedule": [
                { "action": "set_container_policy", "at_secs": 5,
                  "container": "web",
                  "policy": { "store": "mem", "weight": 80 } }
            ]
        }"#
    }

    #[test]
    fn parse_build_run() {
        let spec = ScenarioSpec::from_json(minimal_json()).unwrap();
        assert_eq!(spec.name, "web-pair");
        let report = run(&spec).unwrap();
        assert_eq!(report.end, 10.0);
        assert!(report.throughput_of("web") > 0.0);
        assert!(report.throughput_of("proxy") > 0.0);
        assert!(report.series("web (MB)").is_some());
    }

    #[test]
    fn schedule_actions_apply() {
        let spec = ScenarioSpec::from_json(minimal_json()).unwrap();
        let mut exp = build(&spec).unwrap();
        exp.run_until(SimTime::from_secs(10));
        // After the scheduled action, web's weight is 80.
        let host = exp.host();
        let vm = host.vm_ids()[0];
        let cgs = host.guest(vm).cgroup_ids();
        assert_eq!(host.guest(vm).cgroup(cgs[0]).policy().weight, 80);
    }

    #[test]
    fn every_workload_kind_builds() {
        let json = r#"{
            "name": "zoo",
            "cache": { "mem_mb": 64, "ssd_mb": 256 },
            "duration_secs": 2,
            "vms": [ { "mem_mb": 64, "weight": 100, "containers": [
                { "name": "w", "limit_mb": 8, "policy": { "store": "mem", "weight": 20 },
                  "workload": { "kind": "webserver" } },
                { "name": "p", "limit_mb": 8, "policy": { "store": "mem", "weight": 20 },
                  "workload": { "kind": "proxycache" } },
                { "name": "m", "limit_mb": 8, "policy": { "store": "mem", "weight": 20 },
                  "workload": { "kind": "mail" } },
                { "name": "v", "limit_mb": 8, "policy": { "store": "ssd", "weight": 100 },
                  "workload": { "kind": "videoserver", "videos": 8, "video_blocks": 16 } },
                { "name": "f", "limit_mb": 8, "policy": { "store": "hybrid", "weight": 20 },
                  "workload": { "kind": "fileserver" } },
                { "name": "o", "limit_mb": 8, "policy": { "store": "mem", "weight": 20 },
                  "workload": { "kind": "oltp", "data_blocks": 64 } },
                { "name": "y", "limit_mb": 8, "policy": { "store": "disabled" },
                  "workload": { "kind": "ycsb", "store": "mongodb", "dataset_blocks": 64 } }
            ] } ]
        }"#;
        let spec = ScenarioSpec::from_json(json).unwrap();
        let report = run(&spec).unwrap();
        assert_eq!(report.threads.len(), 7);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(ScenarioSpec::from_json("{").is_err());

        let bad_store =
            minimal_json().replace("\"mem\", \"weight\": 60", "\"floppy\", \"weight\": 60");
        let spec = ScenarioSpec::from_json(&bad_store).unwrap();
        let e = build(&spec).unwrap_err();
        assert!(e.to_string().contains("floppy"), "{e}");

        let bad_mode = minimal_json().replace("doubledecker", "roundrobin");
        let spec = ScenarioSpec::from_json(&bad_mode).unwrap();
        assert!(build(&spec).is_err());

        let dup = minimal_json().replace("\"proxy\"", "\"web\"");
        let spec = ScenarioSpec::from_json(&dup).unwrap();
        let e = build(&spec).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");

        let bad_ref = minimal_json().replace("\"container\": \"web\"", "\"container\": \"nope\"");
        let spec = ScenarioSpec::from_json(&bad_ref).unwrap();
        let e = build(&spec).unwrap_err();
        assert!(e.to_string().contains("nope"), "{e}");
    }

    #[test]
    fn fault_plan_parses_and_degrades_gracefully() {
        let json = r#"{
            "name": "brownout",
            "cache": { "mem_mb": 4, "ssd_mb": 64 },
            "duration_secs": 8,
            "warmup_secs": 0,
            "vms": [ { "mem_mb": 8, "weight": 100, "containers": [
                { "name": "web", "limit_mb": 2,
                  "policy": { "store": "ssd", "weight": 100 },
                  "workload": { "kind": "webserver", "files": 400 } }
            ] } ],
            "faults": {
                "seed": 42,
                "ssd_fallback": "to_mem",
                "ssd": [ { "from_secs": 2, "until_secs": 5,
                           "kind": "brownout", "error_rate": 0.5,
                           "extra_latency_us": 500 } ],
                "channel": [ { "from_secs": 3, "until_secs": 4,
                               "kind": "transient_errors",
                               "error_rate": 0.2 } ]
            }
        }"#;
        let spec = ScenarioSpec::from_json(json).unwrap();
        let report = run(&spec).unwrap();
        assert!(report.faults.ssd_quarantines > 0, "SSD faults observed");
        assert!(report.faults.failed_puts + report.faults.failed_gets > 0);
        assert!(report.faults.channel_dropped_calls > 0);
        assert!(
            report.threads[0].ops > 0,
            "workload survives the fault window"
        );
        // Determinism: the identical spec reruns to a byte-identical
        // report.
        let again = run(&spec).unwrap();
        assert_eq!(again.to_json(), report.to_json());
    }

    #[test]
    fn fault_plan_validation_errors() {
        let base = r#"{
            "name": "bad",
            "cache": { "mem_mb": 4, "ssd_mb": 16 },
            "duration_secs": 1,
            "vms": [],
            "faults": { "seed": 1, "ssd": [ WINDOW ] }
        }"#;
        let bad_kind = base.replace("WINDOW", r#"{ "from_secs": 0, "kind": "gremlins" }"#);
        let spec = ScenarioSpec::from_json(&bad_kind).unwrap();
        let e = build(&spec).unwrap_err();
        assert!(e.to_string().contains("gremlins"), "{e}");

        let missing_rate = base.replace(
            "WINDOW",
            r#"{ "from_secs": 0, "kind": "transient_errors" }"#,
        );
        let spec = ScenarioSpec::from_json(&missing_rate).unwrap();
        let e = build(&spec).unwrap_err();
        assert!(e.to_string().contains("error_rate"), "{e}");

        let bad_fallback = r#"{
            "name": "bad",
            "cache": { "mem_mb": 4, "ssd_mb": 16 },
            "duration_secs": 1,
            "vms": [],
            "faults": { "seed": 1, "ssd_fallback": "panic" }
        }"#;
        let spec = ScenarioSpec::from_json(bad_fallback).unwrap();
        let e = build(&spec).unwrap_err();
        assert!(e.to_string().contains("panic"), "{e}");
    }

    #[test]
    fn delayed_start() {
        let json = r#"{
            "name": "late",
            "cache": { "mem_mb": 32 },
            "duration_secs": 6,
            "warmup_secs": 0,
            "vms": [ { "mem_mb": 32, "weight": 100, "containers": [
                { "name": "late", "limit_mb": 8,
                  "policy": { "store": "mem", "weight": 100 },
                  "start_secs": 4,
                  "workload": { "kind": "webserver", "files": 100 } }
            ] } ]
        }"#;
        let spec = ScenarioSpec::from_json(json).unwrap();
        let report = run(&spec).unwrap();
        let series = report.series("late (MB)").unwrap();
        let before = series.mean_in(1.0, 4.0).unwrap_or(0.0);
        assert_eq!(before, 0.0, "no activity before the delayed start");
        assert!(report.threads[0].ops > 0, "workload ran after its start");
    }

    /// A spec written for a cache that compressed its memory store still
    /// carries the key: it is refused by name, not run uncompressed.
    #[test]
    fn an_unknown_cache_field_is_an_error_that_names_it() {
        let json = r#"{
            "name": "old",
            "cache": { "mem_mb": 32, "compression": [500, 5] },
            "duration_secs": 1,
            "vms": []
        }"#;
        let e = ScenarioSpec::from_json(json).unwrap_err();
        assert!(e.to_string().contains("\"compression\""), "{e}");
    }

    /// The error `from_json` gives a one-container spec running
    /// `workload`; panics if the spec is accepted.
    fn refusal(workload: &str) -> String {
        let json = format!(
            r#"{{ "name": "bad", "cache": {{ "mem_mb": 16 }}, "duration_secs": 2,
            "vms": [ {{ "mem_mb": 16, "weight": 100, "containers": [ {{ "name": "c",
            "limit_mb": 4, "policy": {{ "store": "mem" }}, "workload": {workload} }} ] }} ] }}"#
        );
        ScenarioSpec::from_json(&json).unwrap_err().to_string()
    }

    /// No files to pick from: the run would draw from an empty range.
    #[test]
    fn zero_files_is_an_error_that_names_the_field() {
        for kind in ["webserver", "proxycache", "mail", "fileserver"] {
            let e = refusal(&format!(r#"{{ "kind": "{kind}", "files": 0 }}"#));
            assert!(e.contains("\"files\""), "{kind}: {e}");
        }
    }

    #[test]
    fn zero_videos_is_an_error_that_names_the_field() {
        let e = refusal(r#"{ "kind": "videoserver", "videos": 0 }"#);
        assert!(e.contains("\"videos\""), "{e}");
    }

    #[test]
    fn zero_video_blocks_is_an_error_that_names_the_field() {
        let e = refusal(r#"{ "kind": "videoserver", "video_blocks": 0 }"#);
        assert!(e.contains("\"video_blocks\""), "{e}");
    }

    #[test]
    fn zero_dataset_blocks_is_an_error_that_names_the_field() {
        let e = refusal(r#"{ "kind": "ycsb", "store": "redis", "dataset_blocks": 0 }"#);
        assert!(e.contains("\"dataset_blocks\""), "{e}");
    }

    /// A negative skew, or one too large for a float (`1e999` reads as
    /// infinity), is refused before the sampler sees it.
    #[test]
    fn a_negative_or_infinite_zipf_theta_is_an_error_that_names_the_field() {
        for theta in ["-1", "1e999"] {
            let e = refusal(&format!(
                r#"{{ "kind": "webserver", "files": 10, "zipf_theta": {theta} }}"#
            ));
            assert!(e.contains("\"zipf_theta\""), "{theta}: {e}");
        }
    }
}
