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
//!    a non-zero commit epoch. The 8-vs-1 throughput factor is
//!    *reported*, not gated: on a single-core runner it hovers around
//!    1x and only measures locking overhead. Commit epochs and segment
//!    compaction counts ride along as diagnostics.
//!
//! The equivalence phase is fully deterministic; the scaling phase
//! carries wall-clock numbers, so the JSON report is not expected to
//! be byte-stable across runs (the pass/fail verdict is).
//!
//! Both phases can run on the **standard** mix, (`--read-heavy`) on
//! the 95/5 get-heavy mix that the lock-free read plane (DESIGN.md §15)
//! targets, or (`--write-heavy`) on the put-dominant large-batch mix
//! the batched write plane (DESIGN.md §18) targets. The read-heavy
//! rows additionally report how many lookups were answered without any
//! lock; every row reports the batch plane's lock-acquisition and
//! journal-append counters.

use ddc_core::concurrent::{run_equivalence, run_stress, EngineKind, StressConfig};
use ddc_core::prelude::*;
use ddc_json::Json;

/// JSON schema tag of the stress report.
pub const SCHEMA: &str = "ddc-stress-v2";

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
    /// 95/5 get-heavy: the lock-free read plane's target (DESIGN.md §15).
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
    /// OS threads driving the shared cache.
    pub threads: usize,
    /// Whether the plane journaled with per-tick group commits
    /// (DESIGN.md §14) or ran volatile.
    pub journal: bool,
    /// Hypercall operations issued across all VMs.
    pub total_ops: u64,
    /// Wall-clock seconds of the drive phase.
    pub wall_secs: f64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Stale-read-oracle violations. Must be zero.
    pub stale_reads: u64,
    /// Invariant-auditor findings after the join. Must be zero.
    pub audit_findings: u64,
    /// Durability watermark after the final group commit. Diagnostic;
    /// must be non-zero on journaled cells, always zero on volatile.
    pub commit_epoch: u64,
    /// Segment compactions across the run. Diagnostic only.
    pub journal_compactions: u64,
    /// Lookups served without any lock (seqlock table + hot replicas,
    /// DESIGN.md §15). Diagnostic only.
    pub lockfree_misses: u64,
    /// Of those, lookups served straight from a per-handle hot-miss
    /// replica. Diagnostic only.
    pub replica_hits: u64,
    /// Operations that entered through a `*_many` batch entry point
    /// (DESIGN.md §18). Diagnostic only.
    pub batched_ops: u64,
    /// Shard-lock acquisitions made on behalf of whole batch groups.
    /// Diagnostic only.
    pub batch_lock_acquisitions: u64,
    /// Journal appends that flushed a whole scratch run in one call.
    /// Diagnostic only.
    pub batch_journal_appends: u64,
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
    /// 8-thread over 1-thread throughput factor on the volatile rows
    /// (0 when either is missing). Reported, never gated — see the
    /// module docs.
    pub fn scaling_factor(&self) -> f64 {
        let ops = |t: usize| {
            self.scaling
                .iter()
                .find(|c| c.threads == t && !c.journal)
                .map(|c| c.ops_per_sec)
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
            && self.scaling.iter().all(|c| {
                c.stale_reads == 0 && c.audit_findings == 0 && (c.commit_epoch > 0) == c.journal
            })
    }

    /// Machine-readable report (schema [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut root = Json::object();
        root.set("schema", Json::Str(SCHEMA.to_owned()));
        root.set("seed", Json::Num(self.seed as f64));
        root.set("smoke", Json::Bool(self.smoke));
        root.set("mix", Json::Str(self.mix.name().to_owned()));
        root.set("passed", Json::Bool(self.passed()));
        root.set("scaling_factor_8_over_1", Json::Num(self.scaling_factor()));
        root.set(
            "equivalence",
            Json::Arr(
                self.equivalence
                    .iter()
                    .map(|c| {
                        let mut o = Json::object();
                        o.set("mode", Json::Str(mode_name(c.mode).to_owned()));
                        o.set("shards", Json::Num(c.shards as f64));
                        o.set("identical", Json::Bool(c.identical));
                        o.set("stale_reads", Json::Num(c.stale_reads as f64));
                        o
                    })
                    .collect(),
            ),
        );
        root.set(
            "scaling",
            Json::Arr(
                self.scaling
                    .iter()
                    .map(|c| {
                        let mut o = Json::object();
                        o.set("threads", Json::Num(c.threads as f64));
                        o.set("journal", Json::Bool(c.journal));
                        o.set("total_ops", Json::Num(c.total_ops as f64));
                        o.set("wall_secs", Json::Num(c.wall_secs));
                        o.set("ops_per_sec", Json::Num(c.ops_per_sec));
                        o.set("stale_reads", Json::Num(c.stale_reads as f64));
                        o.set("audit_findings", Json::Num(c.audit_findings as f64));
                        o.set("commit_epoch", Json::Num(c.commit_epoch as f64));
                        o.set(
                            "journal_compactions",
                            Json::Num(c.journal_compactions as f64),
                        );
                        o.set("lockfree_misses", Json::Num(c.lockfree_misses as f64));
                        o.set("replica_hits", Json::Num(c.replica_hits as f64));
                        o.set("batched_ops", Json::Num(c.batched_ops as f64));
                        o.set(
                            "batch_lock_acquisitions",
                            Json::Num(c.batch_lock_acquisitions as f64),
                        );
                        o.set(
                            "batch_journal_appends",
                            Json::Num(c.batch_journal_appends as f64),
                        );
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

/// Stable lowercase name of a partition mode for tables and JSON.
pub fn mode_name(mode: PartitionMode) -> &'static str {
    match mode {
        PartitionMode::DoubleDecker => "doubledecker",
        PartitionMode::Global => "global",
        PartitionMode::Strict => "strict",
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
        let serial = run_equivalence(&cfg, EngineKind::Serial);
        for shards in SHARD_COUNTS {
            cfg.shards = shards;
            let sharded = run_equivalence(&cfg, EngineKind::Sharded { shards });
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
            let out = run_stress(&cfg, threads);
            cells.push(ScalingCell {
                threads,
                journal,
                total_ops: out.total_ops,
                wall_secs: out.elapsed.as_secs_f64(),
                ops_per_sec: out.ops_per_sec(),
                stale_reads: out.stale_reads,
                audit_findings: out.findings.len() as u64,
                commit_epoch: out.commit_epoch,
                journal_compactions: out.journal_compactions,
                lockfree_misses: out.lockfree_misses,
                replica_hits: out.replica_hits,
                batched_ops: out.batched_ops,
                batch_lock_acquisitions: out.batch_lock_acquisitions,
                batch_journal_appends: out.batch_journal_appends,
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
            assert_eq!(c.journal, c.commit_epoch > 0, "cell: {c:?}");
        }
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
    fn read_heavy_smoke_passes_and_serves_lock_free() {
        let r = run(DEFAULT_SEED, true, StressMix::ReadHeavy);
        assert!(r.passed(), "report: {}", r.to_json());
        // On its target mix the read plane must actually carry load in
        // every scaling cell.
        for c in &r.scaling {
            assert!(
                c.lockfree_misses > 0,
                "read plane idle at {} threads: {c:?}",
                c.threads
            );
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
                c.batched_ops > 0 && c.batch_lock_acquisitions > 0,
                "batch plane idle at {} threads: {c:?}",
                c.threads
            );
            if c.journal {
                assert!(
                    c.batch_journal_appends > 0,
                    "journaled cell never batch-appended: {c:?}"
                );
            }
        }
    }
}
