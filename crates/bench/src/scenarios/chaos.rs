//! `repro chaos` — the seeded crash-and-recovery chaos harness.
//!
//! Each case boots a two-VM host with journaling on, drives a seeded
//! mixed read/write/fsync/delete stream, then kills the hypervisor
//! caching layer at a randomized journal prefix:
//!
//! * **clean** — the journal survives exactly to a record boundary,
//! * **torn** — the crash lands mid-append, leaving a partial record,
//! * **bit-flip** — one bit of the surviving image is silently
//!   corrupted, and 0–2 recovered slots are additionally bit-rotted to
//!   exercise verify-on-read.
//!
//! After warm restart the harness runs the stale-read oracle (every
//! recovered entry's version must match the guest's on-disk version),
//! the structural invariant auditor, and then continues the workload —
//! counting stale second-chance hits, which must stay zero. Recovery
//! may lose entries; it must never resurrect a stale one (the
//! clean-cache contract, paper §3). The whole sweep is seeded and
//! deterministic: identical seeds reproduce the report byte-for-byte,
//! and independent cases fan out across cores.
//!
//! # Crash × concurrency (the threaded axis)
//!
//! A second sweep kills the journaled *sharded* plane
//! (`ddc-concurrent`, DESIGN.md §14): the kill phase is driven
//! round-robin so every diagnostic is seed-deterministic, the plane
//! dies mid-tick — the victim VM's stream stops mid-`put_many`, the
//! tick's group commit never happens — and on `hook_cut` cases the
//! segment snapshot is the one the eviction hook took *at the start of
//! an eviction batch*. Each shard's segment is then mutilated
//! independently (intact / boundary cut / torn / bit-flipped),
//! `ShardedCache::recover` warm-restarts, and the *same* guests
//! continue on the 8-thread plane. Finally a second crash hits the
//! genuinely thread-interleaved journal the continuation wrote; its
//! replay counters are interleaving-dependent and stay out of the
//! deterministic report, but its oracle/auditor gates fold into the
//! case (they must be zero under any interleaving).
//!
//! # Crash × remote tier (the remote axis, v3)
//!
//! A third sweep binds every pool to the simulated remote chunk store
//! (DESIGN.md §16) and crashes the plane while the fault-tolerance
//! stack is under duress, cycling three axes:
//!
//! * **partition-stress** — the link is severed for the first third of
//!   the 8-thread continuation: breakers must trip *under the stress
//!   threads*, the partition must be fail-open (zero stale bytes), and
//!   service must resume once the window closes,
//! * **hedge-crash** — the edge cache never hits, so every fetch
//!   crosses the hedge threshold; the crash lands while the bindings
//!   are hedging on every cold miss,
//! * **breaker-open** — the link is down from boot to the crash, so
//!   every breaker is open at the kill; recovery rebuilds fresh
//!   (closed) breakers against a healed link and must serve again.
//!
//! Pre-crash remote counters come from the single-threaded kill phase
//! and are seed-stable; the post-recovery continuation is threaded, so
//! only its *gates* enter the report (recovered-service and
//! breaker-tripped booleans plus the usual zero-stale/zero-finding
//! totals, which must hold under any interleaving).

use std::sync::{Arc, Mutex};

use ddc_core::concurrent::{CrashHarness, RemoteSetup, StressConfig};
use ddc_core::hypercache::audit;
use ddc_core::prelude::*;
use ddc_core::storage::Journal;
use ddc_json::Json;

/// JSON schema tag of the chaos report.
pub const SCHEMA: &str = "ddc-chaos-v3";

/// Randomized crash points in a full run.
pub const CASES_FULL: usize = 60;

/// Crash points in a `--smoke` run (CI budget).
pub const CASES_SMOKE: usize = 8;

/// Threaded-plane crash points in a full run.
pub const THREADED_CASES_FULL: usize = 24;

/// Threaded-plane crash points in a `--smoke` run.
pub const THREADED_CASES_SMOKE: usize = 6;

/// OS threads the post-recovery continuation drives.
pub const THREADED_PLANE_THREADS: usize = 8;

/// Ticks the survivors are driven after each threaded-plane recovery.
const THREADED_CONT_TICKS: u64 = 24;

/// Remote-tier crash points in a full run.
pub const REMOTE_CASES_FULL: usize = 12;

/// Remote-tier crash points in a `--smoke` run.
pub const REMOTE_CASES_SMOKE: usize = 3;

/// Ticks the survivors are driven after each remote-tier recovery.
/// Long enough that a breaker tripped at the very end of the
/// partition-stress window (first third of the continuation) still
/// half-opens, probes the healed link and serves well before the end.
const REMOTE_CONT_TICKS: u64 = 48;

/// Default master seed of the sweep.
pub const DEFAULT_SEED: u64 = 0xC805;

/// How a case kills the hypervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// Journal cut exactly at a record boundary.
    Clean,
    /// Journal cut mid-record (a torn final append).
    Torn,
    /// One bit of the surviving image flipped, plus bit-rotted slots.
    BitFlip,
}

impl CrashKind {
    /// Stable lowercase name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CrashKind::Clean => "clean",
            CrashKind::Torn => "torn",
            CrashKind::BitFlip => "bitflip",
        }
    }
}

/// Outcome of one crash/recover/continue case.
#[derive(Clone, Debug)]
pub struct ChaosCase {
    /// Case index within the sweep.
    pub id: u32,
    /// Crash flavor.
    pub kind: CrashKind,
    /// Bytes of journal that survived the crash.
    pub cut: usize,
    /// Bytes of journal written before the crash.
    pub image_len: usize,
    /// Journal records successfully replayed.
    pub records_replayed: u64,
    /// Replay stopped at a torn final record.
    pub torn_tail: bool,
    /// Replay stopped at a corrupt record.
    pub corrupt: bool,
    /// Entries resident after recovery.
    pub recovered_entries: u64,
    /// Entries dropped by the flush-epoch discard.
    pub discarded_stale: u64,
    /// Recovered slots bit-rotted after restart (bit-flip cases).
    pub poisoned: u32,
    /// Control-plane operations (pool create/destroy, policy and weight
    /// changes, VM reboots) issued before the cut.
    pub control_ops: u32,
    /// Sweep-oracle violations: recovered entries whose version differs
    /// from the guest's on-disk version. Must be zero.
    pub stale_entries: u64,
    /// Stale second-chance hits observed while the guests continued
    /// running after recovery. Must be zero.
    pub stale_reads: u64,
    /// Invariant-auditor findings (after recovery + after the
    /// continuation). Must be zero.
    pub audit_findings: u64,
}

/// Outcome of one threaded-plane crash/recover/continue case.
#[derive(Clone, Debug)]
pub struct ThreadedChaosCase {
    /// Case index within the threaded sweep.
    pub id: u32,
    /// Crash flavor applied (independently) to the shard segments.
    pub kind: CrashKind,
    /// The recovered snapshot was taken by the eviction hook — i.e. the
    /// crash landed at the start of an eviction batch.
    pub hook_cut: bool,
    /// Tick the plane was killed in (its group commit never ran).
    pub kill_tick: u64,
    /// VM whose hypercall stream the crash cut short.
    pub kill_vm: u32,
    /// Hypercall batches the killed VM got through before dying (the
    /// cut can land mid-`put_many`).
    pub budget: u64,
    /// Journal records replayed across all shard segments.
    pub records_replayed: u64,
    /// Records discarded at the first global generation gap.
    pub gap_discarded: u64,
    /// Entries resident after recovery.
    pub recovered_entries: u64,
    /// Entries dropped by the per-VM flush-epoch discard.
    pub discarded_stale: u64,
    /// Replayed puts dropped because the ledger had no room.
    pub dropped_no_room: u64,
    /// Per-shard replay diagnostics: `(records, torn_tail, corrupt)`.
    pub segments: Vec<(u64, bool, bool)>,
    /// Stale-entry-oracle violations (after recovery, after the
    /// continuation, and after the second interleaved crash). Must be 0.
    pub stale_entries: u64,
    /// Stale hits the guests observed while continuing. Must be zero.
    pub stale_reads: u64,
    /// Invariant-auditor findings across all checkpoints. Must be zero.
    pub audit_findings: u64,
    /// Hypercall operations the guests issued over the whole case.
    pub total_ops: u64,
}

/// Outcome of one remote-tier crash/recover/continue case.
#[derive(Clone, Debug)]
pub struct RemoteChaosCase {
    /// Case index within the remote sweep.
    pub id: u32,
    /// Fault axis: `partition-stress`, `hedge-crash` or `breaker-open`.
    pub axis: &'static str,
    /// Crash flavor applied (independently) to the shard segments.
    pub kind: CrashKind,
    /// Tick the plane was killed in (its group commit never ran).
    pub kill_tick: u64,
    /// VM whose hypercall stream the crash cut short.
    pub kill_vm: u32,
    /// Hypercall batches the killed VM got through before dying.
    pub budget: u64,
    /// Journal records replayed across all shard segments.
    pub records_replayed: u64,
    /// Entries resident after recovery.
    pub recovered_entries: u64,
    /// Remote fetches attempted before the crash (single-threaded kill
    /// phase, so seed-stable — as are the four counters below).
    pub pre_fetches: u64,
    /// Fetches the remote served before the crash.
    pub pre_served: u64,
    /// Hedged second requests launched before the crash.
    pub pre_hedges: u64,
    /// Breaker trip edges before the crash.
    pub pre_breaker_trips: u64,
    /// Fetches skipped by an open breaker before the crash.
    pub pre_breaker_skipped: u64,
    /// The rebuilt remote tier served at least one fetch during the
    /// threaded continuation (the degradation ladder climbed back up).
    pub remote_recovered: bool,
    /// A breaker tripped *during* the threaded continuation (the
    /// partition-stress axis demands it; the healthy axes forbid it).
    pub post_breaker_tripped: bool,
    /// Stale-entry-oracle violations across all checkpoints. Must be 0.
    pub stale_entries: u64,
    /// Stale hits the guests observed while continuing. Must be zero.
    pub stale_reads: u64,
    /// Invariant-auditor findings across all checkpoints. Must be zero.
    pub audit_findings: u64,
    /// Hypercall operations the guests issued over the whole case.
    pub total_ops: u64,
}

/// A full chaos sweep.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Master seed of the sweep.
    pub seed: u64,
    /// Per-case outcomes, in case order.
    pub cases: Vec<ChaosCase>,
    /// Threaded-plane (crash × concurrency) outcomes, in case order.
    pub threaded: Vec<ThreadedChaosCase>,
    /// Remote-tier (crash × fault-tolerance stack) outcomes, in order.
    pub remote: Vec<RemoteChaosCase>,
}

impl ChaosReport {
    /// Total stale-read-oracle violations across the sweep.
    pub fn total_stale(&self) -> u64 {
        self.cases
            .iter()
            .map(|c| c.stale_entries + c.stale_reads)
            .sum::<u64>()
            + self
                .threaded
                .iter()
                .map(|c| c.stale_entries + c.stale_reads)
                .sum::<u64>()
            + self
                .remote
                .iter()
                .map(|c| c.stale_entries + c.stale_reads)
                .sum::<u64>()
    }

    /// Total invariant-auditor findings across the sweep.
    pub fn total_findings(&self) -> u64 {
        self.cases.iter().map(|c| c.audit_findings).sum::<u64>()
            + self.threaded.iter().map(|c| c.audit_findings).sum::<u64>()
            + self.remote.iter().map(|c| c.audit_findings).sum::<u64>()
    }

    /// Remote cases whose rebuilt tier failed to serve after recovery.
    pub fn remote_unrecovered(&self) -> usize {
        self.remote.iter().filter(|c| !c.remote_recovered).count()
    }

    /// `true` when every case upheld the contract — zero stale bytes,
    /// zero auditor findings, and every rebuilt remote tier back in
    /// service after its recovery.
    pub fn passed(&self) -> bool {
        self.total_stale() == 0 && self.total_findings() == 0 && self.remote_unrecovered() == 0
    }

    /// Machine-readable report (schema [`SCHEMA`]). Contains no
    /// wall-clock data, so same-seed runs serialize byte-identically.
    pub fn to_json(&self) -> String {
        let mut root = Json::object();
        root.set("schema", Json::Str(SCHEMA.to_owned()));
        root.set("seed", Json::Num(self.seed as f64));
        root.set("passed", Json::Bool(self.passed()));
        let mut summary = Json::object();
        summary.set("cases", Json::Num(self.cases.len() as f64));
        summary.set("stale_total", Json::Num(self.total_stale() as f64));
        summary.set("audit_findings", Json::Num(self.total_findings() as f64));
        summary.set(
            "recovered_entries",
            Json::Num(self.cases.iter().map(|c| c.recovered_entries).sum::<u64>() as f64),
        );
        summary.set(
            "discarded_stale",
            Json::Num(self.cases.iter().map(|c| c.discarded_stale).sum::<u64>() as f64),
        );
        summary.set("threaded_cases", Json::Num(self.threaded.len() as f64));
        summary.set(
            "threaded_plane_threads",
            Json::Num(THREADED_PLANE_THREADS as f64),
        );
        summary.set(
            "threaded_torn_segments",
            Json::Num(
                self.threaded
                    .iter()
                    .flat_map(|c| &c.segments)
                    .filter(|s| s.1)
                    .count() as f64,
            ),
        );
        summary.set(
            "threaded_corrupt_segments",
            Json::Num(
                self.threaded
                    .iter()
                    .flat_map(|c| &c.segments)
                    .filter(|s| s.2)
                    .count() as f64,
            ),
        );
        summary.set("remote_cases", Json::Num(self.remote.len() as f64));
        summary.set(
            "remote_unrecovered",
            Json::Num(self.remote_unrecovered() as f64),
        );
        summary.set(
            "remote_pre_served",
            Json::Num(self.remote.iter().map(|c| c.pre_served).sum::<u64>() as f64),
        );
        summary.set(
            "remote_pre_hedges",
            Json::Num(self.remote.iter().map(|c| c.pre_hedges).sum::<u64>() as f64),
        );
        summary.set(
            "remote_pre_breaker_trips",
            Json::Num(self.remote.iter().map(|c| c.pre_breaker_trips).sum::<u64>() as f64),
        );
        root.set("summary", summary);
        root.set(
            "cases",
            Json::Arr(
                self.cases
                    .iter()
                    .map(|c| {
                        let mut o = Json::object();
                        o.set("id", Json::Num(f64::from(c.id)));
                        o.set("kind", Json::Str(c.kind.name().to_owned()));
                        o.set("cut", Json::Num(c.cut as f64));
                        o.set("image_len", Json::Num(c.image_len as f64));
                        o.set("records_replayed", Json::Num(c.records_replayed as f64));
                        o.set("torn_tail", Json::Bool(c.torn_tail));
                        o.set("corrupt", Json::Bool(c.corrupt));
                        o.set("recovered_entries", Json::Num(c.recovered_entries as f64));
                        o.set("discarded_stale", Json::Num(c.discarded_stale as f64));
                        o.set("poisoned", Json::Num(f64::from(c.poisoned)));
                        o.set("control_ops", Json::Num(f64::from(c.control_ops)));
                        o.set("stale_entries", Json::Num(c.stale_entries as f64));
                        o.set("stale_reads", Json::Num(c.stale_reads as f64));
                        o.set("audit_findings", Json::Num(c.audit_findings as f64));
                        o
                    })
                    .collect(),
            ),
        );
        root.set(
            "threaded",
            Json::Arr(
                self.threaded
                    .iter()
                    .map(|c| {
                        let mut o = Json::object();
                        o.set("id", Json::Num(f64::from(c.id)));
                        o.set("kind", Json::Str(c.kind.name().to_owned()));
                        o.set("hook_cut", Json::Bool(c.hook_cut));
                        o.set("kill_tick", Json::Num(c.kill_tick as f64));
                        o.set("kill_vm", Json::Num(f64::from(c.kill_vm)));
                        o.set("budget", Json::Num(c.budget as f64));
                        o.set("records_replayed", Json::Num(c.records_replayed as f64));
                        o.set("gap_discarded", Json::Num(c.gap_discarded as f64));
                        o.set("recovered_entries", Json::Num(c.recovered_entries as f64));
                        o.set("discarded_stale", Json::Num(c.discarded_stale as f64));
                        o.set("dropped_no_room", Json::Num(c.dropped_no_room as f64));
                        o.set(
                            "segments",
                            Json::Arr(
                                c.segments
                                    .iter()
                                    .enumerate()
                                    .map(|(shard, &(records, torn, corrupt))| {
                                        let mut s = Json::object();
                                        s.set("shard", Json::Num(shard as f64));
                                        s.set("records", Json::Num(records as f64));
                                        s.set("torn_tail", Json::Bool(torn));
                                        s.set("corrupt", Json::Bool(corrupt));
                                        s
                                    })
                                    .collect(),
                            ),
                        );
                        o.set("stale_entries", Json::Num(c.stale_entries as f64));
                        o.set("stale_reads", Json::Num(c.stale_reads as f64));
                        o.set("audit_findings", Json::Num(c.audit_findings as f64));
                        o.set("total_ops", Json::Num(c.total_ops as f64));
                        o
                    })
                    .collect(),
            ),
        );
        root.set(
            "remote",
            Json::Arr(
                self.remote
                    .iter()
                    .map(|c| {
                        let mut o = Json::object();
                        o.set("id", Json::Num(f64::from(c.id)));
                        o.set("axis", Json::Str(c.axis.to_owned()));
                        o.set("kind", Json::Str(c.kind.name().to_owned()));
                        o.set("kill_tick", Json::Num(c.kill_tick as f64));
                        o.set("kill_vm", Json::Num(f64::from(c.kill_vm)));
                        o.set("budget", Json::Num(c.budget as f64));
                        o.set("records_replayed", Json::Num(c.records_replayed as f64));
                        o.set("recovered_entries", Json::Num(c.recovered_entries as f64));
                        o.set("pre_fetches", Json::Num(c.pre_fetches as f64));
                        o.set("pre_served", Json::Num(c.pre_served as f64));
                        o.set("pre_hedges", Json::Num(c.pre_hedges as f64));
                        o.set("pre_breaker_trips", Json::Num(c.pre_breaker_trips as f64));
                        o.set(
                            "pre_breaker_skipped",
                            Json::Num(c.pre_breaker_skipped as f64),
                        );
                        o.set("remote_recovered", Json::Bool(c.remote_recovered));
                        o.set("post_breaker_tripped", Json::Bool(c.post_breaker_tripped));
                        o.set("stale_entries", Json::Num(c.stale_entries as f64));
                        o.set("stale_reads", Json::Num(c.stale_reads as f64));
                        o.set("audit_findings", Json::Num(c.audit_findings as f64));
                        o.set("total_ops", Json::Num(c.total_ops as f64));
                        o
                    })
                    .collect(),
            ),
        );
        let mut s = root.to_string_pretty();
        s.push('\n');
        s
    }
}

/// Runs a chaos sweep of `cases` serial-plane crash points plus
/// `threaded_cases` threaded-plane and `remote_cases` remote-tier crash
/// points under `seed`. Cases are independent and fan out across cores
/// ([`ddc_core::parallel`]).
pub fn run(seed: u64, cases: usize, threaded_cases: usize, remote_cases: usize) -> ChaosReport {
    let ids: Vec<u32> = (0..cases as u32).collect();
    let cases = ddc_core::parallel::run_cells(ids, move |id| run_case(seed, id));
    let tids: Vec<u32> = (0..threaded_cases as u32).collect();
    let threaded = ddc_core::parallel::run_cells(tids, move |id| run_threaded_case(seed, id));
    let rids: Vec<u32> = (0..remote_cases as u32).collect();
    let remote = ddc_core::parallel::run_cells(rids, move |id| run_remote_case(seed, id));
    ChaosReport {
        seed,
        cases,
        threaded,
        remote,
    }
}

/// Drives `ops` operations of the seeded workload mix against the host.
fn drive(
    host: &mut Host,
    rng: &mut SimRng,
    now: &mut SimTime,
    ops: u64,
    cells: &[(VmId, CgroupId)],
) {
    for _ in 0..ops {
        let (vm, cg) = cells[rng.range_usize(0, cells.len())];
        let file = vm_file(vm, rng.range_u64(1, 4));
        let addr = BlockAddr::new(file, rng.range_u64(0, 48));
        match rng.range_u64(0, 20) {
            0..=10 => *now = host.read(*now, vm, cg, addr).finish,
            11..=16 => *now = host.write(*now, vm, cg, addr).finish,
            17..=18 => *now = host.fsync(*now, vm, cg, file),
            _ => host.delete_file(vm, cg, file),
        }
    }
}

/// One crash/recover/continue case.
fn run_case(master_seed: u64, id: u32) -> ChaosCase {
    let mut rng =
        SimRng::new(master_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(id) + 1));
    let kind = match id % 3 {
        0 => CrashKind::Clean,
        1 => CrashKind::Torn,
        _ => CrashKind::BitFlip,
    };

    // A deliberately tight host so the op stream churns copies through
    // both stores: 1 MiB guests (16 frames), 6-frame cgroups.
    let mut host = Host::new(HostConfig::new(CacheConfig::mem_and_ssd(96, 96)));
    host.enable_cache_journal();
    let vm1 = host.boot_vm(1, 100);
    let vm2 = host.boot_vm(1, 60);
    let c1 = host.create_container(vm1, "a", 6, CachePolicy::mem(100));
    let c2 = host.create_container(vm2, "b", 6, CachePolicy::ssd(100));
    let mut now = SimTime::ZERO;
    drive(&mut host, &mut rng, &mut now, 1500, &[(vm1, c1), (vm2, c2)]);

    // Control-plane churn before the cut: the journal has to absorb pool
    // create/destroy, policy and weight changes and a full VM reboot —
    // not just data ops — and recovery must replay all of it without
    // resurrecting state that the churn already destroyed.
    let scratch = host.create_container(vm1, "scratch", 4, CachePolicy::hybrid(50));
    drive(&mut host, &mut rng, &mut now, 250, &[(vm1, scratch)]);
    host.set_container_policy(vm1, scratch, CachePolicy::mem(30));
    host.set_vm_cache_weight(vm1, 40 + rng.range_u64(0, 161));
    host.destroy_container(vm1, scratch);
    host.reboot_vm(vm2, 1, 60);
    let c2 = host.create_container(vm2, "b", 6, CachePolicy::ssd(100));
    let control_ops = 6u32;
    let cells = [(vm1, c1), (vm2, c2)];
    drive(&mut host, &mut rng, &mut now, 500, &cells);

    // Kill the caching layer at a randomized prefix of its journal.
    let image = host.cache_journal_image().expect("journaling on");
    let bounds = Journal::record_boundaries(&image);
    let cut = match kind {
        // Clean kill: any record boundary (including the very start).
        // Half the clean kills land on the complete durable image —
        // the common real crash, where everything acked survives and
        // recovery must *retain* (not just safely discard) the cache.
        CrashKind::Clean if id.is_multiple_of(2) => image.len(),
        CrashKind::Clean | CrashKind::BitFlip => bounds[rng.range_usize(0, bounds.len())],
        // Torn kill: strictly inside a record.
        CrashKind::Torn => {
            let i = rng.range_usize(0, bounds.len());
            let lo = if i == 0 { 0 } else { bounds[i - 1] };
            rng.range_usize(lo + 1, bounds[i])
        }
    };
    let mut prefix = image[..cut].to_vec();
    if kind == CrashKind::BitFlip && !prefix.is_empty() {
        let pos = rng.range_usize(0, prefix.len());
        prefix[pos] ^= 1 << rng.range_u64(0, 8);
    }
    let report = host.crash_and_recover(&prefix);

    // Bit-rot a few recovered slots (any crash kind — media rot is
    // independent of how the crash happened): the damage must be caught
    // lazily by verify-on-read, never served.
    let mut poisoned = 0;
    let entries = host.cache().entries();
    for _ in 0..rng.range_u64(0, 3) {
        if entries.is_empty() {
            break;
        }
        let (vm, pool, addr, _) = entries[rng.range_usize(0, entries.len())];
        if host.corrupt_cache_entry(vm, pool, addr) {
            poisoned += 1;
        }
    }

    // Stale-read oracle: every recovered entry against the guest's
    // authoritative on-disk version.
    let stale_entries = host
        .cache()
        .entries()
        .into_iter()
        .filter(|&(vm, _, addr, version)| host.guest(vm).disk_version(addr) != version)
        .count() as u64;
    let mut audit_findings = audit(host.cache()).len() as u64;

    // The guests keep running against the recovered cache.
    drive(&mut host, &mut rng, &mut now, 600, &cells);
    audit_findings += audit(host.cache()).len() as u64;
    let stale_reads = host.guest(vm1).counters().stale_cleancache_hits
        + host.guest(vm2).counters().stale_cleancache_hits;

    ChaosCase {
        id,
        kind,
        cut,
        image_len: image.len(),
        records_replayed: report.records_replayed,
        torn_tail: report.segments[0].torn_tail,
        corrupt: report.segments[0].corrupt,
        recovered_entries: report.recovered_entries,
        discarded_stale: report.discarded_stale,
        poisoned,
        control_ops,
        stale_entries,
        stale_reads,
        audit_findings,
    }
}

/// Applies one seeded mutilation to a single shard's segment image.
/// Roughly half the segments survive intact (a crash loses only what
/// some cores hadn't synced); the rest are cut at a record boundary,
/// cut mid-record (torn) or bit-flipped — independently per shard, so
/// recovery must reconcile segments that died at *different* points.
fn mutilate_segment(rng: &mut SimRng, kind: CrashKind, seg: &mut Vec<u8>) {
    let bounds = Journal::record_boundaries(seg);
    if bounds.is_empty() {
        return;
    }
    let keep_intact = rng.range_u64(0, 2) == 0;
    match kind {
        CrashKind::Clean => {
            if !keep_intact {
                seg.truncate(bounds[rng.range_usize(0, bounds.len())]);
            }
        }
        CrashKind::Torn => {
            if !keep_intact {
                let i = rng.range_usize(0, bounds.len());
                let lo = if i == 0 { 0 } else { bounds[i - 1] };
                seg.truncate(rng.range_usize(lo + 1, bounds[i]));
            }
        }
        CrashKind::BitFlip => {
            if !keep_intact {
                seg.truncate(bounds[rng.range_usize(0, bounds.len())]);
            }
            if !seg.is_empty() {
                let pos = rng.range_usize(0, seg.len());
                seg[pos] ^= 1 << rng.range_u64(0, 8);
            }
        }
    }
}

/// One threaded-plane crash/recover/continue case (see the module docs
/// for the phase structure and why the kill phase is single-threaded).
fn run_threaded_case(master_seed: u64, id: u32) -> ThreadedChaosCase {
    let mut rng = SimRng::new(
        master_seed ^ 0xDDC6_0000 ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(id) + 1),
    );
    let kind = match id % 3 {
        0 => CrashKind::Clean,
        1 => CrashKind::Torn,
        _ => CrashKind::BitFlip,
    };
    let hook_case = id % 4 == 1;

    // A deliberately tight store relative to the working set keeps the
    // eviction path (and therefore the eviction hook) hot.
    let mut cfg = StressConfig::smoke(master_seed ^ (0xDD06 + u64::from(id)));
    cfg.cache = CacheConfig::mem_and_ssd(96, 128);
    cfg.working_set = 64;
    let mut h = CrashHarness::new(&cfg);

    // Eviction-phase cut: the hook fires at the start of an eviction
    // batch, with no cache lock held — its segment snapshot is what a
    // crash at exactly that point would leave behind.
    let hook_snap: Arc<Mutex<Option<Vec<Vec<u8>>>>> = Arc::new(Mutex::new(None));
    if hook_case {
        let hook_cache = h.cache().clone();
        let snap = hook_snap.clone();
        h.cache().set_eviction_hook(Some(Arc::new(move || {
            *snap.lock().expect("hook snapshot lock") = hook_cache.journal_images();
        })));
    }

    let kill_tick = rng.range_u64(8, 40);
    h.drive(0, kill_tick, 1);
    let kill_vm = rng.range_usize(0, cfg.vms as usize);
    let budget = rng.range_u64(0, 2 + cfg.puts_per_tick + cfg.gets_per_tick);
    h.drive_killed_tick(kill_tick, kill_vm, budget);

    let mut segments = h.segment_images();
    let mut hook_cut = false;
    if hook_case {
        if let Some(snap) = hook_snap.lock().expect("hook snapshot lock").take() {
            segments = snap;
            hook_cut = true;
        }
    }
    // Half the clean kills keep every segment whole — the common real
    // crash, where everything appended survives and recovery must
    // *retain* the cache (not merely discard it safely). The rest
    // mutilate each shard independently.
    if !(kind == CrashKind::Clean && id.is_multiple_of(6)) {
        for seg in &mut segments {
            mutilate_segment(&mut rng, kind, seg);
        }
    }

    let report = h.recover(&segments);
    let mut stale_entries = h.stale_entries();
    let mut audit_findings = h.audit().len() as u64;

    // The same guests keep running on the 8-thread plane.
    h.drive(
        kill_tick + 1,
        kill_tick + 1 + THREADED_CONT_TICKS,
        THREADED_PLANE_THREADS,
    );
    stale_entries += h.stale_entries();
    audit_findings += h.audit().len() as u64;

    // Second crash: the continuation's journal is genuinely
    // thread-interleaved, so its cut points and replay counters are
    // not seed-stable — only its gates are reported, and they must be
    // zero under any interleaving. This is the last use of `rng`, so
    // the interleaving-dependent bounds cannot skew an earlier draw.
    let mut second = h.segment_images();
    for seg in &mut second {
        if !seg.is_empty() {
            let cut = rng.range_usize(0, seg.len() + 1);
            seg.truncate(cut);
        }
    }
    h.recover(&second);
    stale_entries += h.stale_entries();
    audit_findings += h.audit().len() as u64;

    ThreadedChaosCase {
        id,
        kind,
        hook_cut,
        kill_tick,
        kill_vm: kill_vm as u32,
        budget,
        records_replayed: report.records_replayed,
        gap_discarded: report.gap_discarded,
        recovered_entries: report.recovered_entries,
        discarded_stale: report.discarded_stale,
        dropped_no_room: report.dropped_no_room,
        segments: report
            .segments
            .iter()
            .map(|s| (s.records, s.torn_tail, s.corrupt))
            .collect(),
        stale_entries,
        stale_reads: h.stale_reads(),
        audit_findings,
        total_ops: h.total_ops(),
    }
}

/// One remote-tier crash/recover/continue case (see the module docs for
/// the three fault axes). The kill phase is single-threaded, so the
/// pre-crash remote counters are seed-stable; the continuation runs on
/// the 8-thread plane, so only gates and booleans from it enter the
/// report.
fn run_remote_case(master_seed: u64, id: u32) -> RemoteChaosCase {
    let mut rng = SimRng::new(
        master_seed ^ 0xDDC7_0000 ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(id) + 1),
    );
    let axis = match id % 3 {
        0 => "partition-stress",
        1 => "hedge-crash",
        _ => "breaker-open",
    };
    let kind = match (id / 3) % 3 {
        0 => CrashKind::Clean,
        1 => CrashKind::Torn,
        _ => CrashKind::BitFlip,
    };

    // Fault windows are phrased in driver tick time (ticks are 1µs
    // apart), so the kill point is drawn before the config is built.
    let kill_tick = rng.range_u64(8, 40);
    let tick_time = |tick: u64| SimTime::from_nanos(tick * 1_000);

    // The same deliberately tight store the threaded sweep uses, plus a
    // remote binding on every pool.
    let mut cfg = StressConfig::smoke(master_seed ^ (0xDDC7 + u64::from(id)));
    cfg.cache = CacheConfig::mem_and_ssd(96, 128);
    cfg.working_set = 64;
    let remote_seed = master_seed ^ 0xCD40 ^ u64::from(id);
    let mut setup = RemoteSetup::for_driver(remote_seed);
    match axis {
        // Severed link for the first third of the threaded
        // continuation: breakers trip under the stress threads and the
        // tier must climb back up the degradation ladder after the
        // window closes (half-open probe ≤ 10µs after the last trip).
        "partition-stress" => {
            setup = setup.with_faults(FaultSchedule::new(remote_seed).with_window(
                tick_time(kill_tick + 1),
                Some(tick_time(kill_tick + 1 + REMOTE_CONT_TICKS / 3)),
                FaultKind::Partition,
            ));
        }
        // Every edge lookup misses, so every fetch rides past the hedge
        // threshold (origin RTT 4µs > hedge_after 2µs): the crash lands
        // while the bindings are hedging on every cold miss.
        "hedge-crash" => setup.config.edge_hit_rate = 0.0,
        // Link down from boot to the crash: every breaker is open at
        // the kill. Recovery rebuilds fresh (closed) breakers against a
        // healed link and must serve again.
        _ => {
            setup = setup.with_faults(FaultSchedule::new(remote_seed).with_window(
                SimTime::ZERO,
                Some(tick_time(kill_tick)),
                FaultKind::Partition,
            ));
        }
    }
    cfg = cfg.with_remote(setup);

    let mut h = CrashHarness::new(&cfg);
    h.drive(0, kill_tick, 1);
    let kill_vm = rng.range_usize(0, cfg.vms as usize);
    let budget = rng.range_u64(0, 2 + cfg.puts_per_tick + cfg.gets_per_tick);
    h.drive_killed_tick(kill_tick, kill_vm, budget);
    let pre = h.remote_totals();

    let mut segments = h.segment_images();
    for seg in &mut segments {
        mutilate_segment(&mut rng, kind, seg);
    }
    let report = h.recover(&segments);
    let mut stale_entries = h.stale_entries();
    let mut audit_findings = h.audit().len() as u64;

    // The same guests continue on the 8-thread plane; `recover` rebuilt
    // the remote tier from scratch (fresh store, fresh bindings, fresh
    // breakers), so the post counters restart from zero.
    h.drive(
        kill_tick + 1,
        kill_tick + 1 + REMOTE_CONT_TICKS,
        THREADED_PLANE_THREADS,
    );
    stale_entries += h.stale_entries();
    audit_findings += h.audit().len() as u64;
    let post = h.remote_totals();

    RemoteChaosCase {
        id,
        axis,
        kind,
        kill_tick,
        kill_vm: kill_vm as u32,
        budget,
        records_replayed: report.records_replayed,
        recovered_entries: report.recovered_entries,
        pre_fetches: pre.fetches,
        pre_served: pre.served,
        pre_hedges: pre.hedges,
        pre_breaker_trips: pre.breaker_trips,
        pre_breaker_skipped: pre.breaker_skipped,
        remote_recovered: post.served > 0,
        post_breaker_tripped: post.breaker_trips > 0,
        stale_entries,
        stale_reads: h.stale_reads(),
        audit_findings,
        total_ops: h.total_ops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_clean_and_deterministic() {
        let a = run(DEFAULT_SEED, 6, 3, 3);
        assert_eq!(a.cases.len(), 6);
        assert_eq!(a.threaded.len(), 3);
        assert_eq!(a.remote.len(), 3);
        assert!(
            a.passed(),
            "stale {} findings {} unrecovered {}",
            a.total_stale(),
            a.total_findings(),
            a.remote_unrecovered()
        );
        // Every crash flavor appears and at least one case actually
        // lost/kept something interesting.
        for kind in [CrashKind::Clean, CrashKind::Torn, CrashKind::BitFlip] {
            assert!(a.cases.iter().any(|c| c.kind == kind));
        }
        assert!(a.cases.iter().any(|c| c.records_replayed > 0));
        let b = run(DEFAULT_SEED, 6, 3, 3);
        assert_eq!(a.to_json(), b.to_json(), "same-seed sweeps are identical");
    }

    #[test]
    fn torn_cases_report_torn_tails() {
        let r = run(7, 3, 0, 0);
        let torn = r.cases.iter().find(|c| c.kind == CrashKind::Torn).unwrap();
        // A mid-record cut must surface as a torn tail (unless the cut
        // landed at offset where nothing preceded it).
        assert!(torn.torn_tail || torn.cut == 0);
        assert!(r.passed());
    }

    #[test]
    fn threaded_sweep_kills_recovers_and_stays_clean() {
        let a = run(DEFAULT_SEED, 0, 8, 0);
        assert_eq!(a.threaded.len(), 8);
        assert!(
            a.passed(),
            "stale {} findings {}",
            a.total_stale(),
            a.total_findings()
        );
        for kind in [CrashKind::Clean, CrashKind::Torn, CrashKind::BitFlip] {
            assert!(a.threaded.iter().any(|c| c.kind == kind));
        }
        // The sweep must actually exercise the interesting machinery:
        // replayed records, mutilated tails, and the eviction-hook cut.
        assert!(a.threaded.iter().any(|c| c.records_replayed > 0));
        assert!(a
            .threaded
            .iter()
            .any(|c| c.segments.iter().any(|&(_, torn, corrupt)| torn || corrupt)));
        assert!(
            a.threaded.iter().any(|c| c.hook_cut),
            "no case recovered from an eviction-phase snapshot"
        );
        assert!(a.threaded.iter().any(|c| c.recovered_entries > 0));
        let b = run(DEFAULT_SEED, 0, 8, 0);
        assert_eq!(a.to_json(), b.to_json(), "same-seed sweeps are identical");
    }

    #[test]
    fn remote_sweep_exercises_every_axis_and_recovers() {
        let a = run(DEFAULT_SEED, 0, 0, 6);
        assert_eq!(a.remote.len(), 6);
        assert!(
            a.passed(),
            "stale {} findings {} unrecovered {}",
            a.total_stale(),
            a.total_findings(),
            a.remote_unrecovered()
        );
        for c in &a.remote {
            // Every axis must climb back up the degradation ladder.
            assert!(
                c.remote_recovered,
                "case {} ({}) never served",
                c.id, c.axis
            );
            match c.axis {
                "partition-stress" => {
                    // Healthy before the crash, severed during the first
                    // third of the 8-thread continuation.
                    assert!(
                        c.pre_served > 0,
                        "case {}: healthy phase never served",
                        c.id
                    );
                    assert!(
                        c.post_breaker_tripped,
                        "case {}: partition under threads never tripped a breaker",
                        c.id
                    );
                }
                "hedge-crash" => {
                    // Edge never hits, so the kill phase hedged heavily
                    // and still served within the deadline.
                    assert!(c.pre_hedges > 0, "case {}: no fetch ever hedged", c.id);
                    assert!(
                        c.pre_served > 0,
                        "case {}: hedged fetches never served",
                        c.id
                    );
                }
                "breaker-open" => {
                    // Link down from boot: the breaker was open at the
                    // kill and fetches were being short-circuited.
                    assert!(
                        c.pre_breaker_trips > 0,
                        "case {}: breaker never tripped",
                        c.id
                    );
                    assert!(
                        c.pre_breaker_skipped > 0,
                        "case {}: open breaker never short-circuited",
                        c.id
                    );
                    // The window ends exactly at the kill tick, so a
                    // fetch issued just before it may retry past the
                    // heal and serve — failures must still dominate.
                    assert!(
                        c.pre_served < c.pre_fetches / 2,
                        "case {}: partitioned link mostly served ({}/{})",
                        c.id,
                        c.pre_served,
                        c.pre_fetches
                    );
                    assert!(
                        !c.post_breaker_tripped,
                        "case {}: healed link tripped",
                        c.id
                    );
                }
                other => panic!("unknown axis {other}"),
            }
        }
        let b = run(DEFAULT_SEED, 0, 0, 6);
        assert_eq!(a.to_json(), b.to_json(), "same-seed sweeps are identical");
    }
}
