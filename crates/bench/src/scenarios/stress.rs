//! `repro stress` — the concurrent serving-plane stress harness.
//!
//! Two gated phases over the `ddc-concurrent` crate:
//!
//! 1. **Equivalence matrix** — for every partition mode × shard count,
//!    the sharded engine driven single-threaded must produce a report
//!    byte-identical to the serial reference engine (same counters,
//!    same per-pool stats, same entries digest). This is the
//!    determinism contract: sharding is a locking strategy, not a
//!    semantic change.
//! 2. **Thread scaling** — the threaded driver at 1/2/4/8 OS threads
//!    against one shared sharded cache, each count once volatile and
//!    once journaled with per-tick group commits (DESIGN.md §14).
//!    Every run must finish with zero invariant-auditor findings and
//!    zero stale-read-oracle violations, and journaled rows must land
//!    a non-zero commit epoch. Wall time, ops/s and the 8-vs-1
//!    throughput factor are *printed*, never gated and never written.
//!
//! `stress.json` holds only what is a function of the seed, so it sits
//! in `results/` with the figures: the equivalence verdicts, every
//! row's op count and clean/durable verdicts, and — on the one-thread
//! rows, where a single thread orders every op — the plane's counters.
//! What two or more threads count (compactions, lock visits) depends
//! on how they interleave and stays in the printed table.
//!
//! Both phases can run on the **standard** mix, (`--read-heavy`) on
//! the 95/5 get-heavy mix, where nearly every get misses, or
//! (`--write-heavy`) on the put-dominant large-batch mix the batched
//! write plane (DESIGN.md §18) targets. Every row reports the batch
//! plane's lock-acquisition and journal-append counters.

use ddc_core::concurrent::{
    run_equivalence, run_stress, ShardedCache, StressConfig, StressOutcome,
};
use ddc_core::prelude::*;
use ddc_json::Json;

/// JSON schema tag of the stress report.
pub const SCHEMA: &str = "ddc-stress-v3";

/// Default master seed of the harness.
pub const DEFAULT_SEED: u64 = 0x57E5;

/// Shard counts exercised by the equivalence matrix.
pub const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// Thread counts exercised by the scaling phase.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Which workload mix the harness drives (both phases use the same
/// one, so the equivalence matrix vouches for exactly the mix the
/// scaling sweep then measures).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StressMix {
    /// The general put/get/flush mix.
    Standard,
    /// 95/5 get-heavy: nearly every get misses.
    ReadHeavy,
    /// Put-dominant with large per-tick batches: the batched write
    /// plane's target (DESIGN.md §18).
    WriteHeavy,
}

impl StressMix {
    /// Stable lowercase name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            StressMix::Standard => "standard",
            StressMix::ReadHeavy => "read_heavy",
            StressMix::WriteHeavy => "write_heavy",
        }
    }
}

/// One cell of the equivalence matrix.
#[derive(Clone, Debug)]
pub struct EquivalenceCell {
    /// Partition mode under test.
    pub mode: PartitionMode,
    /// Shard count of the concurrent engine.
    pub shards: usize,
    /// Serial and sharded reports were byte-identical.
    pub identical: bool,
    /// Stale reads across both engines. Must be zero.
    pub stale_reads: u64,
}

/// One cell of the thread-scaling phase.
#[derive(Clone, Debug)]
pub struct ScalingCell {
    /// Whether the plane journaled with per-tick group commits
    /// (DESIGN.md §14) or ran volatile.
    pub journal: bool,
    /// What the run did and counted, `out.threads` OS threads driving
    /// the shared cache. Its wall clock is for the printed table only.
    pub out: StressOutcome,
}

/// A full stress run: equivalence matrix plus scaling sweep.
#[derive(Clone, Debug)]
pub struct StressReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Smoke (CI-sized) or full workload.
    pub smoke: bool,
    /// Which workload mix the run drove.
    pub mix: StressMix,
    /// Equivalence matrix cells, mode-major.
    pub equivalence: Vec<EquivalenceCell>,
    /// Scaling cells, ascending thread count.
    pub scaling: Vec<ScalingCell>,
}

impl StressReport {
    /// 8-thread over 1-thread wall-clock throughput factor on the
    /// volatile rows (0 when either is missing). Printed only.
    pub fn scaling_factor(&self) -> f64 {
        let ops = |t: usize| {
            self.scaling
                .iter()
                .find(|c| c.out.threads == t && !c.journal)
                .map(|c| c.out.ops_per_sec())
        };
        match (ops(1), ops(8)) {
            (Some(one), Some(eight)) if one > 0.0 => eight / one,
            _ => 0.0,
        }
    }

    /// `true` when every gate held: all equivalence cells byte-identical
    /// with zero stale reads, all scaling cells clean, and every
    /// journaled scaling cell landed a real durability watermark.
    pub fn passed(&self) -> bool {
        self.equivalence
            .iter()
            .all(|c| c.identical && c.stale_reads == 0)
            && self
                .scaling
                .iter()
                .all(|c| c.out.clean() && (c.out.cache.commit_epoch() > 0) == c.journal)
    }

    /// Machine-readable report (schema [`SCHEMA`]): seed-determined
    /// fields only, see the module docs.
    pub fn to_json(&self) -> String {
        let mut root = Json::object();
        root.set("schema", SCHEMA);
        root.set("seed", self.seed);
        root.set("smoke", self.smoke);
        root.set("mix", self.mix.name());
        root.set("passed", self.passed());
        let equivalence = self.equivalence.iter().map(|c| {
            let mut o = Json::object();
            o.set("mode", c.mode.to_string());
            o.set("shards", c.shards);
            o.set("identical", c.identical);
            o.set("stale_reads", c.stale_reads);
            o
        });
        root.set("equivalence", equivalence.collect::<Vec<Json>>());
        let scaling = self.scaling.iter().map(|c| {
            let (out, plane) = (&c.out, &c.out.cache);
            let mut o = Json::object();
            o.set("threads", out.threads);
            o.set("journal", c.journal);
            o.set("total_ops", out.total_ops);
            o.set("clean", out.clean());
            o.set("durable", plane.commit_epoch() > 0);
            if out.threads == 1 {
                o.set("hits", out.hits);
                o.set("stores", out.stores);
                o.set("commit_epoch", plane.commit_epoch());
                o.set("journal_compactions", plane.journal_compactions());
                o.set("batched_ops", plane.batched_ops());
                o.set("batch_lock_acquisitions", plane.batch_lock_acquisitions());
                o.set("batch_journal_appends", plane.batch_journal_appends());
            }
            o
        });
        root.set("scaling", scaling.collect::<Vec<Json>>());
        let mut s = root.to_string_pretty();
        s.push('\n');
        s
    }
}

fn base_config(seed: u64, smoke: bool, mix: StressMix) -> StressConfig {
    match mix {
        StressMix::ReadHeavy => {
            let mut cfg = StressConfig::read_heavy(seed);
            if smoke {
                cfg.ticks = 200;
            }
            cfg
        }
        StressMix::WriteHeavy => {
            let mut cfg = StressConfig::write_heavy(seed);
            if smoke {
                cfg.ticks = 100;
            }
            cfg
        }
        StressMix::Standard => {
            if smoke {
                StressConfig::smoke(seed)
            } else {
                StressConfig::standard(seed)
            }
        }
    }
}

/// Runs the equivalence matrix: every mode × shard count against the
/// serial reference.
pub fn run_equivalence_matrix(seed: u64, smoke: bool, mix: StressMix) -> Vec<EquivalenceCell> {
    let modes = [
        PartitionMode::DoubleDecker,
        PartitionMode::Global,
        PartitionMode::Strict,
    ];
    let mut cells = Vec::new();
    for mode in modes {
        let mut cfg = base_config(seed, smoke, mix);
        cfg.cache = cfg.cache.with_mode(mode);
        let serial = run_equivalence::<DoubleDeckerCache>(&cfg);
        for shards in SHARD_COUNTS {
            cfg.shards = shards;
            let sharded = run_equivalence::<ShardedCache>(&cfg);
            cells.push(EquivalenceCell {
                mode,
                shards,
                identical: serial.json == sharded.json,
                stale_reads: serial.stale_reads + sharded.stale_reads,
            });
        }
    }
    cells
}

/// Runs the thread-scaling sweep at [`THREAD_COUNTS`], each thread
/// count once volatile and once journaled with per-tick group commits
/// (the durability tax is the gap between the paired rows).
pub fn run_scaling(seed: u64, smoke: bool, mix: StressMix) -> Vec<ScalingCell> {
    let mut cells = Vec::new();
    for &threads in &THREAD_COUNTS {
        for journal in [false, true] {
            let mut cfg = base_config(seed, smoke, mix);
            cfg.journal = journal;
            cells.push(ScalingCell {
                journal,
                out: run_stress(&cfg, threads),
            });
        }
    }
    cells
}

/// Runs the full harness — equivalence matrix, then scaling sweep — on
/// the chosen [`StressMix`].
pub fn run(seed: u64, smoke: bool, mix: StressMix) -> StressReport {
    StressReport {
        seed,
        smoke,
        mix,
        equivalence: run_equivalence_matrix(seed, smoke, mix),
        scaling: run_scaling(seed, smoke, mix),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_harness_passes_all_gates() {
        let r = run(DEFAULT_SEED, true, StressMix::Standard);
        assert_eq!(r.equivalence.len(), 3 * SHARD_COUNTS.len());
        assert_eq!(r.scaling.len(), 2 * THREAD_COUNTS.len());
        assert!(r.passed(), "report: {}", r.to_json());
        for c in &r.scaling {
            assert_eq!(c.journal, c.out.cache.commit_epoch() > 0, "cell: {c:?}");
        }
        // The report is a function of the seed: nothing a clock or a
        // thread interleaving decides is in it.
        assert_eq!(
            r.to_json(),
            run(DEFAULT_SEED, true, StressMix::Standard).to_json()
        );
    }

    #[test]
    fn equivalence_matrix_is_deterministic() {
        let a = run_equivalence_matrix(7, true, StressMix::Standard);
        let b = run_equivalence_matrix(7, true, StressMix::Standard);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(x.identical && y.identical);
            assert_eq!(x.stale_reads, 0);
        }
    }

    #[test]
    fn read_heavy_smoke_passes_and_every_cell_hits() {
        let r = run(DEFAULT_SEED, true, StressMix::ReadHeavy);
        assert!(r.passed(), "report: {}", r.to_json());
        // Every scaling cell reaches hits, not only misses.
        for c in &r.scaling {
            assert!(c.out.hits > 0, "{} threads: {c:?}", c.out.threads);
        }
    }

    #[test]
    fn write_heavy_smoke_passes_and_batches() {
        let r = run(DEFAULT_SEED, true, StressMix::WriteHeavy);
        assert!(r.passed(), "report: {}", r.to_json());
        // On its target mix the batch plane must actually carry load in
        // every scaling cell, and journaled cells must land their
        // records through the amortized run-append path.
        for c in &r.scaling {
            assert!(
                c.out.cache.batched_ops() > 0 && c.out.cache.batch_lock_acquisitions() > 0,
                "batch plane idle at {} threads: {c:?}",
                c.out.threads
            );
            if c.journal {
                assert!(
                    c.out.cache.batch_journal_appends() > 0,
                    "journaled cell never batch-appended: {c:?}"
                );
            }
        }
    }
}
