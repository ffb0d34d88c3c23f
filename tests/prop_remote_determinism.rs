//! Property tests for the remote chunk-store tier's determinism
//! contract (DESIGN.md §16).
//!
//! Every stochastic choice on the fetch path — backoff jitter, edge
//! placement, hedge routing, fault decisions — is keyed off explicit
//! seeds, so the whole fault-tolerance stack must replay exactly:
//!
//! 1. **Timeline identity** — same seed, same lookup stream ⇒ the same
//!    attempt/retry/hedge/serve instants, event for event, and the
//!    same counters, even under a brownout that forces the retry loop.
//! 2. **Fan-out independence** — `DDC_THREADS` (the experiment worker
//!    width) schedules *cells*, never what happens inside one: the
//!    equivalence report's remote section is byte-identical whether
//!    cells run serially or across 8 workers, and across engines.
//! 3. **Single-thread replay** — `run_stress` at one thread is a
//!    deterministic interleaving: remote counters and op totals match
//!    across repeats; multi-thread runs keep the robust contract
//!    (clean audits, same op total, non-trivial service).

use std::sync::Arc;

use ddc_core::concurrent::{run_equivalence, run_stress, ShardedCache, StressConfig};
use ddc_core::parallel::run_cells_with;
use ddc_core::prelude::*;
use ddc_core::storage::{
    ChunkStore, RemoteBinding, RemoteConfig, RemoteCounters, RemoteFetchConfig, RemoteId,
    RemoteLookup, RemoteTraceEvent,
};

/// A CDN-scale store browning out forever: ~40% of attempts stall and
/// fail, the rest are slowed — every fetch exercises deadline, retry
/// and hedge bookkeeping.
fn brownout_store(seed: u64) -> ChunkStore {
    let mut faults = FaultSchedule::new(seed ^ 0xB12);
    faults.add_window(
        SimTime::ZERO,
        None,
        FaultKind::RemoteBrownout {
            rate: 0.4,
            stall: SimDuration::from_millis(30),
        },
    );
    ChunkStore::new(RemoteId(9), RemoteConfig::cdn(seed)).with_faults(faults)
}

/// Drives one seeded lookup stream through a fresh binding, recording
/// the full fetch timeline. Pure function of `seed` by construction —
/// the properties below check the implementation agrees.
fn drive(seed: u64) -> (Vec<RemoteTraceEvent>, RemoteCounters) {
    let mut binding =
        RemoteBinding::new(Arc::new(brownout_store(seed)), RemoteFetchConfig::default());
    let mut trace = Vec::new();
    let mut rng = SimRng::new(seed ^ 0x7ACE);
    let mut now = SimTime::from_secs(1);
    for i in 0..400u64 {
        let addr = BlockAddr::new(FileId(rng.range_u64(1, 4)), rng.range_u64(0, 4096));
        match binding.lookup_traced(now, addr, Some(&mut trace)) {
            RemoteLookup::Served { finish } => {
                // Periodically wait a fetch out so the in-flight window
                // drains and the stream isn't all shed.
                if i.is_multiple_of(3) && finish > now {
                    now = finish;
                }
            }
            RemoteLookup::Miss => {}
        }
        now += SimDuration::from_millis(2);
        if i.is_multiple_of(16) {
            binding.localize(addr);
        }
    }
    (trace, binding.counters())
}

#[test]
fn fetch_timelines_replay_exactly_under_brownout() {
    for seed in [1, 0xCD4, 0xDDC0] {
        let (trace_a, counters_a) = drive(seed);
        let (trace_b, counters_b) = drive(seed);
        assert_eq!(
            trace_a, trace_b,
            "seed {seed}: fetch timeline diverged between identical runs"
        );
        assert_eq!(
            counters_a, counters_b,
            "seed {seed}: counters diverged between identical runs"
        );
        // The property is only worth anything if the timeline actually
        // contains the stochastic events it pins down.
        let count = |kind: &str| trace_a.iter().filter(|e| e.kind == kind).count();
        assert!(count("served") > 0, "seed {seed}: nothing served");
        assert!(
            count("retry") > 0,
            "seed {seed}: brownout never forced a retry"
        );
        assert!(
            count("hedge") > 0,
            "seed {seed}: no fetch crossed the hedge threshold"
        );
        assert!(
            count("failed") > 0,
            "seed {seed}: brownout never exhausted a fetch"
        );
    }
}

#[test]
fn distinct_seeds_take_distinct_timelines() {
    // The seeds must actually steer the jitter/hedge/fault decisions:
    // if two different seeds replay the same timeline, the "seeded"
    // stack is ignoring its seeds and the identity property above is
    // vacuous.
    let (trace_a, _) = drive(7);
    let (trace_b, _) = drive(8);
    assert_ne!(
        trace_a, trace_b,
        "seeds 7 and 8 produced identical fetch timelines"
    );
}

#[test]
fn remote_report_bytes_survive_worker_fanout_and_engines() {
    let mut cfg = StressConfig::remote_smoke(0xDE7);
    let reference = run_equivalence::<DoubleDeckerCache>(&cfg);
    assert_eq!(reference.stale_reads, 0, "serial oracle violated");
    assert!(
        reference.json.contains("\"remote_report\""),
        "report must expose the remote section"
    );
    // The same cell batch at worker widths 1/2/8 (the mechanism behind
    // DDC_THREADS) must reproduce the report byte for byte.
    for width in [1usize, 2, 8] {
        let reports = run_cells_with(width, vec![(); 4], |()| {
            run_equivalence::<DoubleDeckerCache>(&StressConfig::remote_smoke(0xDE7))
        });
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(
                r.json, reference.json,
                "cell {i} at width {width} diverged from the serial reference"
            );
        }
    }
    // Sharding is a locking strategy, not a semantic change: the remote
    // section agrees across engines too.
    for shards in [1, 4, 16] {
        cfg.shards = shards;
        let sharded = run_equivalence::<ShardedCache>(&cfg);
        assert_eq!(sharded.stale_reads, 0, "{shards} shards: stale reads");
        assert_eq!(
            sharded.json, reference.json,
            "remote report diverged at {shards} shards"
        );
    }
}

#[test]
fn single_thread_stress_replays_remote_counters_exactly() {
    let mut cfg = StressConfig::remote_smoke(0x5EED);
    // Brown the store out at driver scale so the replayed counters
    // cover the retry/timeout/breaker paths, not just happy fetches.
    if let Some(setup) = cfg.remote.as_mut() {
        let mut faults = FaultSchedule::new(0xFA11);
        faults.add_window(
            SimTime::ZERO,
            None,
            FaultKind::RemoteBrownout {
                rate: 0.3,
                stall: SimDuration::from_nanos(11_000),
            },
        );
        setup.faults = Some(faults);
    }
    let reference = run_stress(&cfg, 1);
    assert!(
        reference.clean(),
        "reference run dirty: {} stale reads, {:?}",
        reference.stale_reads,
        reference.findings
    );
    assert!(reference.remote.served > 0, "nothing served under brownout");
    assert!(
        reference.remote.retries > 0 && reference.remote.timeouts > 0,
        "brownout exercised no retries/timeouts: {:?}",
        reference.remote
    );
    for round in 0..2 {
        let again = run_stress(&cfg, 1);
        assert_eq!(
            again.remote, reference.remote,
            "round {round}: single-thread remote counters diverged"
        );
        assert_eq!(
            again.total_ops, reference.total_ops,
            "round {round}: op total diverged"
        );
        assert_eq!(again.stale_reads, 0, "round {round}: stale reads");
    }
    // Threaded interleavings reorder fetches, so the exact counters are
    // theirs to choose — but the robust contract is not.
    for threads in [2, 8] {
        let out = run_stress(&cfg, threads);
        assert!(
            out.clean(),
            "{threads} threads: {} stale reads, {:?}",
            out.stale_reads,
            out.findings
        );
        assert_eq!(
            out.total_ops, reference.total_ops,
            "{threads} threads: op total drifted"
        );
        assert!(out.remote.served > 0, "{threads} threads: nothing served");
    }
}
