//! `repro remote` — the remote chunk-store tier under its full
//! fault-tolerance stack (DESIGN.md §16).
//!
//! Three gated phases over the third tier:
//!
//! 1. **Fault-axis determinism matrix** — for every network fault axis
//!    (healthy, partition, remote brownout, edge-cache flap) the sharded
//!    engine driven single-threaded must stay byte-identical to the
//!    serial reference, a same-seed rerun must reproduce the exact same
//!    report, and the stale-read oracle must stay at zero: remote faults
//!    only ever manifest as misses (fail-open — the cache can forget,
//!    never lie). Per-axis counter gates pin the interesting behaviour
//!    (partitions trip and then recover the breaker, brownouts eat
//!    deadlines, flaps force origin fetches and hedges).
//! 2. **Degradation ladder** — two single-threaded same-seed stress
//!    runs, one fault-free and one with a 30% remote brownout over the
//!    middle third of the run, compared third by third on what the
//!    remote bindings counted (sim time only: a tick is 1µs, a fault
//!    window is a `SimTime` range). Inside the window the breaker must
//!    trip, deadlines must be eaten and fetches must still be served
//!    (slowed, never stalled); after it a breaker must recover and the
//!    remote must serve at least [`MIN_HEALED_SERVED_PCT`] percent of
//!    what the fault-free run serves in the *same* third. Cold misses
//!    thin out as the guests write their working sets, so thirds of one
//!    run are not comparable with each other. The brownout run is
//!    repeated on [`LADDER_THREADS`] threads for its stale-read and
//!    audit verdict only: its thirds split exactly too, but what they
//!    count depends on how the threads interleave.
//! 3. **Cold-boot storm** — the flagship: many tenants boot the same
//!    image from one CDN-backed [`ChunkStore`]. Edge placement is a
//!    pure function of `(store seed, chunk)`, so every tenant sees the
//!    same edge hit/miss split (CDN dedup across tenants), and
//!    chunk-granular transfers turn the shared sequential prefix into
//!    readahead-buffer hits. Guests then write (flush) part of the
//!    image; the remote must never serve a flushed block again.
//!
//! Every number in the report is a function of the seed, so
//! `results/remote.json` gates it byte for byte.

use ddc_core::cleancache::SecondChanceCache;
use ddc_core::concurrent::{run_equivalence, run_stress, RemoteSetup, ShardedCache, StressConfig};
use ddc_core::metrics::{snapshot_json, CounterSnapshot};
use ddc_core::prelude::*;
use ddc_core::storage::{ChunkStore, RemoteConfig, RemoteCounters, RemoteFetchConfig, RemoteId};
use ddc_json::Json;

/// JSON schema tag of the remote-tier report.
pub const SCHEMA: &str = "ddc-remote-v2";

/// Default master seed of the harness.
pub const DEFAULT_SEED: u64 = 0xCD47;

/// OS threads of the ladder's threaded brownout run.
pub const LADDER_THREADS: usize = 8;

/// Per-attempt failure probability of the ladder's brownout window
/// (the ISSUE's "30% remote-brownout schedule").
pub const BROWNOUT_RATE: f64 = 0.3;

/// After the brownout window closes the remote must serve at least
/// this percentage of what the fault-free run serves over the same
/// ticks.
pub const MIN_HEALED_SERVED_PCT: u64 = 90;

/// The fault axes of the determinism matrix, in report order.
pub const AXES: [&str; 4] = ["healthy", "partition", "brownout", "edge-flap"];

/// One cell of the fault-axis determinism matrix.
#[derive(Clone, Debug)]
pub struct AxisCell {
    /// Fault axis installed on the remote store.
    pub axis: &'static str,
    /// Serial and sharded single-thread reports were byte-identical
    /// (the determinism contract extended to network faults).
    pub identical: bool,
    /// A same-seed rerun reproduced the serial report byte-for-byte.
    pub rerun_identical: bool,
    /// Stale reads across engines. Must be zero under any schedule.
    pub stale_reads: u64,
    /// Remote fetch counters of the single-threaded stress run.
    pub remote: RemoteCounters,
    /// Axis-specific counter gates held (see [`axis_gates`]).
    pub gates_ok: bool,
}

/// One run of the degradation ladder.
#[derive(Clone, Debug)]
pub struct LadderCell {
    /// `"fault-free"` or `"brownout"`.
    pub run: &'static str,
    /// Hypercall operations issued (fixed by the config, so the two
    /// runs serve the same op stream).
    pub total_ops: u64,
    /// Stale-read-oracle violations. Gate: 0.
    pub stale_reads: u64,
    /// Invariant-auditor findings. Gate: 0.
    pub audit_findings: u64,
    /// What the remote bindings counted in each third of the run; the
    /// brownout window is the middle one.
    pub thirds: [RemoteCounters; 3],
}

/// The ladder's verdicts, each read off integer counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LadderVerdict {
    /// Both runs finished with no stale read and no finding, and the
    /// fault-free one never failed a fetch.
    pub clean: bool,
    /// Inside the window the breaker tripped, deadlines were eaten and
    /// the remote still served: slowed, never stalled.
    pub degraded_not_stalled: bool,
    /// After the window a breaker recovered and the remote served at
    /// least [`MIN_HEALED_SERVED_PCT`] percent of the fault-free run's
    /// last third.
    pub healed: bool,
}

/// The cold-boot-storm flagship cell.
#[derive(Clone, Debug)]
pub struct ColdBootCell {
    /// Tenants booting concurrently from the shared image.
    pub tenants: u32,
    /// Pages of the shared image each tenant reads.
    pub image_pages: u64,
    /// Simulated wall time of the boot storm (milliseconds).
    pub boot_millis: f64,
    /// Remote fetch counters summed over every tenant binding.
    pub remote: RemoteCounters,
    /// Reads that violated the contract: a miss/failure on a healthy
    /// CDN, a served version other than INITIAL, or a remote serve of a
    /// flushed (localized) block. Gate: 0.
    pub wrong_reads: u64,
    /// Blocks localized by guest flushes across all tenants.
    pub localized_blocks: u64,
    /// Readahead-buffered pages that are also localized, summed over
    /// bindings — the audited no-stale-data invariant. Gate: 0.
    pub buffered_localized_overlap: u64,
    /// Every tenant's binding ended with identical counters (the edge
    /// placement is shared, so the storm is symmetric). Gate: true.
    pub per_tenant_uniform: bool,
    /// Same-seed rerun reproduced the cell byte-for-byte. Gate: true.
    pub identical: bool,
}

/// A full remote-tier run: all three phases.
#[derive(Clone, Debug)]
pub struct RemoteReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Smoke (CI-sized) or full workload.
    pub smoke: bool,
    /// Fault-axis determinism matrix, in [`AXES`] order.
    pub axes: Vec<AxisCell>,
    /// Degradation ladder, in [`LADDER_RUNS`] order.
    pub ladder: Vec<LadderCell>,
    /// The brownout run on [`LADDER_THREADS`] threads finished with no
    /// stale read and no auditor finding.
    pub threaded_brownout_clean: bool,
    /// The cold-boot-storm flagship.
    pub cold_boot: ColdBootCell,
}

impl RemoteReport {
    /// `true` when every gate of all three phases held.
    pub fn passed(&self) -> bool {
        let axes_ok = self.axes.len() == AXES.len()
            && self
                .axes
                .iter()
                .all(|c| c.identical && c.rerun_identical && c.stale_reads == 0 && c.gates_ok);
        let ladder = judge_ladder(&self.ladder);
        axes_ok
            && ladder.clean
            && ladder.degraded_not_stalled
            && ladder.healed
            && self.threaded_brownout_clean
            && cold_boot_gates(&self.cold_boot)
    }

    /// Machine-readable report (schema [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut root = Json::object();
        root.set("schema", SCHEMA);
        root.set("seed", self.seed);
        root.set("smoke", self.smoke);
        root.set("passed", self.passed());
        root.set(
            "axes",
            Json::Arr(
                self.axes
                    .iter()
                    .map(|c| {
                        let mut o = Json::object();
                        o.set("axis", c.axis);
                        o.set("identical", c.identical);
                        o.set("rerun_identical", c.rerun_identical);
                        o.set("stale_reads", c.stale_reads);
                        o.set("gates_ok", c.gates_ok);
                        o.set("remote", snapshot_json(&c.remote));
                        o
                    })
                    .collect(),
            ),
        );
        let verdict = judge_ladder(&self.ladder);
        let mut ladder = Json::object();
        ladder.set("clean", verdict.clean);
        ladder.set("degraded_not_stalled", verdict.degraded_not_stalled);
        ladder.set("healed", verdict.healed);
        ladder.set("threaded_brownout_clean", self.threaded_brownout_clean);
        let runs = self.ladder.iter().map(|c| {
            let mut o = Json::object();
            o.set("run", c.run);
            o.set("total_ops", c.total_ops);
            o.set("stale_reads", c.stale_reads);
            o.set("audit_findings", c.audit_findings);
            o.set(
                "thirds",
                c.thirds.iter().map(snapshot_json).collect::<Vec<Json>>(),
            );
            o
        });
        ladder.set("runs", runs.collect::<Vec<Json>>());
        root.set("ladder", ladder);
        root.set("cold_boot", cold_boot_json(&self.cold_boot));
        let mut s = root.to_string_pretty();
        s.push('\n');
        s
    }
}

fn cold_boot_json(c: &ColdBootCell) -> Json {
    let mut o = Json::object();
    o.set("tenants", c.tenants);
    o.set("image_pages", c.image_pages);
    o.set("boot_millis", c.boot_millis);
    o.set("wrong_reads", c.wrong_reads);
    o.set("localized_blocks", c.localized_blocks);
    o.set("buffered_localized_overlap", c.buffered_localized_overlap);
    o.set("per_tenant_uniform", c.per_tenant_uniform);
    o.set("identical", c.identical);
    o.set("remote", snapshot_json(&c.remote));
    o
}

/// The gates of the cold-boot-storm cell.
pub fn cold_boot_gates(c: &ColdBootCell) -> bool {
    c.wrong_reads == 0
        && c.buffered_localized_overlap == 0
        && c.per_tenant_uniform
        && c.identical
        && c.remote.failed == 0
        && c.remote.shed == 0
        && c.remote.edge_hits > 0
        && c.remote.origin_fetches > 0
        // Chunked transfer + the shared sequential prefix must make the
        // readahead buffer carry most of the boot.
        && c.remote.readahead_hits > c.remote.fetches
}

// ---------------------------------------------------------------------
// Phase 1: fault-axis determinism matrix.
// ---------------------------------------------------------------------

/// Builds the stress config of one axis cell. Ticks are 1µs apart in
/// the driver, so fault windows are placed in tick-scaled nanoseconds.
fn axis_config(seed: u64, smoke: bool, axis: &str) -> StressConfig {
    let mut cfg = StressConfig::smoke(seed);
    if !smoke {
        cfg.ticks = 600;
    }
    let remote_seed = seed ^ 0xCD40;
    let end = SimTime::from_nanos(cfg.ticks * 1_000);
    let quarter = SimTime::from_nanos(end.as_nanos() / 4);
    let setup = RemoteSetup::for_driver(remote_seed);
    let setup = match axis {
        "healthy" => setup,
        "partition" => setup.with_faults(FaultSchedule::new(remote_seed).with_window(
            quarter,
            Some(SimTime::from_nanos(end.as_nanos() / 2)),
            FaultKind::Partition,
        )),
        "brownout" => setup.with_faults(FaultSchedule::new(remote_seed).with_window(
            quarter,
            Some(SimTime::from_nanos(end.as_nanos() * 3 / 4)),
            FaultKind::RemoteBrownout {
                rate: BROWNOUT_RATE,
                // Just under the 12µs fetch deadline and far over the
                // 2µs hedge threshold: a stall eats the whole budget.
                stall: SimDuration::from_nanos(11_000),
            },
        )),
        "edge-flap" => setup.with_faults(FaultSchedule::new(remote_seed).with_window(
            SimTime::ZERO,
            None,
            FaultKind::EdgeCacheFlap { rate: 0.5 },
        )),
        other => panic!("unknown axis {other}"),
    };
    cfg.with_remote(setup)
}

/// Axis-specific counter gates: each fault shape must actually exercise
/// the part of the stack it targets.
pub fn axis_gates(axis: &str, c: &RemoteCounters) -> bool {
    match axis {
        // A healthy nanosecond-scale store never misses a deadline.
        "healthy" => c.served > 0 && c.failed == 0 && c.breaker_trips == 0,
        // A partition trips the breaker; the half-open probe must then
        // recover it once the window heals, and fetches serve again.
        "partition" => {
            c.served > 0
                && c.failed > 0
                && c.breaker_trips > 0
                && c.breaker_recoveries > 0
                && c.breaker_skipped > 0
        }
        // Brownout stalls eat deadlines (timeouts, not fast errors) and
        // still let the surviving fraction through.
        "brownout" => c.served > 0 && c.timeouts > 0 && c.breaker_trips > 0,
        // A flapping edge forces origin fetches, whose higher RTT
        // crosses the hedge threshold — without ever failing a fetch.
        "edge-flap" => c.served > 0 && c.failed == 0 && c.origin_fetches > 0 && c.hedges > 0,
        _ => false,
    }
}

/// Runs the fault-axis matrix: serial vs sharded equivalence plus a
/// same-seed serial rerun per axis, with single-threaded counters.
pub fn run_axes(seed: u64, smoke: bool) -> Vec<AxisCell> {
    ddc_core::parallel::run_cells(AXES.to_vec(), move |axis| {
        let cfg = axis_config(seed, smoke, axis);
        let serial = run_equivalence::<DoubleDeckerCache>(&cfg);
        let sharded = run_equivalence::<ShardedCache>(&cfg);
        let rerun = run_equivalence::<DoubleDeckerCache>(&cfg);
        // Single-threaded stress is deterministic too; it carries the
        // counters the gates inspect.
        let out = run_stress(&cfg, 1);
        AxisCell {
            axis,
            identical: serial.json == sharded.json,
            rerun_identical: serial.json == rerun.json,
            stale_reads: serial.stale_reads + sharded.stale_reads + out.stale_reads,
            gates_ok: axis_gates(axis, &out.remote),
            remote: out.remote,
        }
    })
}

// ---------------------------------------------------------------------
// Phase 2: degradation ladder.
// ---------------------------------------------------------------------

/// The ladder's runs, in report order.
pub const LADDER_RUNS: [&str; 2] = ["fault-free", "brownout"];

/// The config both ladder runs share. `brownout` installs the fault
/// window on the remote: `Some(true)` over the middle third of the run,
/// `Some(false)` from one third in and never closing.
fn ladder_config(seed: u64, smoke: bool, brownout: Option<bool>) -> StressConfig {
    let mut cfg = if smoke {
        StressConfig::smoke(seed)
    } else {
        StressConfig::standard(seed)
    };
    // A third must outlast the breaker's 1ms `max_backoff` (1,000
    // ticks), or a breaker that backed off all the way inside the
    // window could not probe again before the run ends. The working set
    // is sized so that blocks no guest has written yet — the only ones
    // the remote may serve — last into the final third.
    let third = if smoke { 1_200 } else { 2_000 };
    cfg.ticks = 3 * third;
    cfg.working_set = 4 * third;
    let tick = |n: u64| SimTime::from_nanos(n * 1_000);
    let mut setup = RemoteSetup::for_driver(seed ^ 0xB007);
    if let Some(closes) = brownout {
        setup = setup.with_faults(FaultSchedule::new(seed ^ 0xFA17).with_window(
            tick(third),
            closes.then(|| tick(2 * third)),
            FaultKind::RemoteBrownout {
                rate: BROWNOUT_RATE,
                stall: SimDuration::from_nanos(11_000),
            },
        ));
    }
    cfg.with_remote(setup)
}

/// Runs the ladder: the fault-free run and the brownout run, one thread
/// each, same seed, so the per-third counters are a function of the
/// seed and the two runs serve the same op stream.
pub fn run_ladder(seed: u64, smoke: bool) -> Vec<LadderCell> {
    ladder_runs(seed, smoke, true)
}

fn ladder_runs(seed: u64, smoke: bool, window_closes: bool) -> Vec<LadderCell> {
    let runs = vec![
        (LADDER_RUNS[0], None),
        (LADDER_RUNS[1], Some(window_closes)),
    ];
    ddc_core::parallel::run_cells(runs, move |(run, brownout)| {
        let out = run_stress(&ladder_config(seed, smoke, brownout), 1);
        LadderCell {
            run,
            total_ops: out.total_ops,
            stale_reads: out.stale_reads,
            audit_findings: out.findings.len() as u64,
            thirds: out.remote_thirds,
        }
    })
}

/// Judges a ladder (all verdicts `false` unless it has both runs).
pub fn judge_ladder(ladder: &[LadderCell]) -> LadderVerdict {
    let [free, brown] = ladder else {
        return LadderVerdict::default();
    };
    let (during, after) = (&brown.thirds[1], &brown.thirds[2]);
    LadderVerdict {
        clean: ladder
            .iter()
            .all(|c| c.stale_reads == 0 && c.audit_findings == 0)
            && free.thirds.iter().all(|t| t.served > 0 && t.failed == 0),
        degraded_not_stalled: during.breaker_trips > 0 && during.timeouts > 0 && during.served > 0,
        healed: after.breaker_recoveries > 0
            && after.served * 100 >= free.thirds[2].served * MIN_HEALED_SERVED_PCT,
    }
}

// ---------------------------------------------------------------------
// Phase 3: cold-boot storm.
// ---------------------------------------------------------------------

fn cold_boot_once(seed: u64, smoke: bool) -> ColdBootCell {
    let tenants: u32 = if smoke { 8 } else { 24 };
    let image_pages: u64 = if smoke { 512 } else { 1_024 };
    let image = FileId(7);
    let mut cache = DoubleDeckerCache::new(CacheConfig::mem_and_ssd(4_096, 8_192));
    cache
        .register_remote(ChunkStore::new(RemoteId(1), RemoteConfig::cdn(seed)))
        .expect("fresh registry accepts the store");
    let mut pools = Vec::new();
    for t in 0..tenants {
        let vm = VmId(t + 1);
        cache.add_vm(vm, 100);
        let pool = cache.create_pool(vm, CachePolicy::mem(100));
        cache
            .bind_remote(vm, pool, RemoteId(1), RemoteFetchConfig::default())
            .expect("fresh pool binds");
        pools.push((vm, pool));
    }

    // The storm: every tenant pages the shared image in sequentially,
    // interleaved block by block. The clock rides each fetch's finish
    // time so in-flight slots drain at CDN-scale latencies.
    let mut now = SimTime::ZERO;
    let mut wrong = 0u64;
    for block in 0..image_pages {
        for &(vm, pool) in &pools {
            let addr = BlockAddr::new(image, block);
            match cache.get(now, vm, pool, addr) {
                GetOutcome::Hit { finish, version } => {
                    // The remote serves only the image's initial
                    // contents; anything else is a lie.
                    if version != PageVersion::INITIAL {
                        wrong += 1;
                    }
                    if finish > now {
                        now = finish;
                    }
                }
                // A healthy CDN must serve every cold page of the boot.
                _ => wrong += 1,
            }
            now += SimDuration::from_micros(2);
        }
    }
    let boot_done = now;

    // Each tenant now writes (flushes) a stride of the image: those
    // blocks are guest-owned and the remote must never serve them again.
    let mut localized = 0u64;
    for (i, &(vm, pool)) in pools.iter().enumerate() {
        let mut block = (i as u64) % 16;
        while block < image_pages {
            let addr = BlockAddr::new(image, block);
            cache.flush(vm, pool, addr);
            localized += 1;
            if !matches!(cache.get(now, vm, pool, addr), GetOutcome::Miss) {
                wrong += 1;
            }
            now += SimDuration::from_micros(1);
            block += 16;
        }
    }

    let mut totals = RemoteCounters::default();
    let mut overlap = 0u64;
    let mut uniform = true;
    let mut first: Option<RemoteCounters> = None;
    for &(vm, pool) in &pools {
        let b = cache.remote_binding(vm, pool).expect("binding survives");
        let c = b.counters();
        totals.absorb(&c);
        overlap += b.buffered_localized_overlap() as u64;
        match &first {
            None => first = Some(c),
            // The image, the store seed and the access pattern are
            // shared, so the storm is symmetric across tenants.
            Some(f) => uniform &= *f == c,
        }
    }

    ColdBootCell {
        tenants,
        image_pages,
        boot_millis: boot_done.as_nanos() as f64 / 1e6,
        remote: totals,
        wrong_reads: wrong,
        localized_blocks: localized,
        buffered_localized_overlap: overlap,
        per_tenant_uniform: uniform,
        identical: false, // filled by run_cold_boot
    }
}

/// Runs the cold-boot storm twice with the same seed and stamps the
/// byte-identical verdict into the cell.
pub fn run_cold_boot(seed: u64, smoke: bool) -> ColdBootCell {
    let mut cell = cold_boot_once(seed, smoke);
    let again = cold_boot_once(seed, smoke);
    cell.identical =
        cold_boot_json(&cell).to_string_pretty() == cold_boot_json(&again).to_string_pretty();
    cell
}

/// Runs the full harness: axis matrix, degradation ladder with its
/// threaded brownout run, cold-boot storm.
pub fn run(seed: u64, smoke: bool) -> RemoteReport {
    RemoteReport {
        seed,
        smoke,
        axes: run_axes(seed, smoke),
        ladder: run_ladder(seed, smoke),
        threaded_brownout_clean: run_stress(
            &ladder_config(seed, smoke, Some(true)),
            LADDER_THREADS,
        )
        .clean(),
        cold_boot: run_cold_boot(seed, smoke),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_matrix_passes_and_is_deterministic() {
        let cells = run_axes(DEFAULT_SEED, true);
        assert_eq!(cells.len(), AXES.len());
        for c in &cells {
            assert!(c.identical, "{}: serial vs sharded diverged", c.axis);
            assert!(c.rerun_identical, "{}: rerun diverged", c.axis);
            assert_eq!(c.stale_reads, 0, "{}: stale reads", c.axis);
            assert!(
                c.gates_ok,
                "{}: counter gates failed: {:?}",
                c.axis, c.remote
            );
        }
    }

    #[test]
    fn ladder_stays_clean_with_breaker_cycling_under_brownout() {
        let cells = run_ladder(DEFAULT_SEED, true);
        assert_eq!(cells.len(), 2);
        let [free, brown] = &cells[..] else {
            unreachable!()
        };
        assert_eq!(free.total_ops, brown.total_ops, "one op stream");
        let verdict = judge_ladder(&cells);
        assert!(
            verdict.clean && verdict.degraded_not_stalled && verdict.healed,
            "{verdict:?}: {cells:?}"
        );
    }

    #[test]
    fn a_window_that_never_closes_fails_the_healed_gate() {
        // At the parent the "healed" phase was the baseline config run
        // again, so no fault schedule could fail it.
        let verdict = judge_ladder(&ladder_runs(DEFAULT_SEED, true, false));
        assert!(verdict.clean && verdict.degraded_not_stalled, "{verdict:?}");
        assert!(!verdict.healed, "{verdict:?}");
    }

    #[test]
    fn same_seed_reports_are_byte_identical_and_gated_on_integers() {
        let report = run(DEFAULT_SEED, true);
        assert!(report.passed(), "{}", report.to_json());
        let json = report.to_json();
        assert_eq!(json, run(DEFAULT_SEED, true).to_json());
        // Every number of the ladder is a counter: the wall-clock
        // fields the parent wrote here differed on every run.
        let doc = Json::parse(&json).expect("own JSON parses");
        fn integers_only(v: &Json) -> bool {
            match v {
                Json::Obj(members) => members.iter().all(|(_, v)| integers_only(v)),
                Json::Arr(items) => items.iter().all(integers_only),
                Json::Num(_) => v.as_u64().is_some(),
                _ => true,
            }
        }
        assert!(integers_only(doc.get("ladder").expect("ladder")), "{json}");
    }

    #[test]
    fn cold_boot_storm_dedups_and_never_lies() {
        let c = run_cold_boot(DEFAULT_SEED, true);
        assert!(cold_boot_gates(&c), "cold boot gates failed: {c:?}");
        assert!(c.localized_blocks > 0);
        // 64-page chunks: the boot must be readahead-dominated.
        assert!(c.remote.readahead_hits > 10 * c.remote.fetches, "{c:?}");
    }
}
