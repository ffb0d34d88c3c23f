//! The benchmark's fixed vocabulary: workload names, metric names with
//! unit and direction, and the frozen sizing of each workload. The
//! `BENCHMARK.json` at the repository root must list exactly these
//! (checked by a unit test here).

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The four workloads, in suite order.
pub const WORKLOADS: [&str; 4] = [
    "paper-fourapps",
    "guest-read-evict",
    "guest-durable-write",
    "engine-batched",
];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 6] = [
    lo("setup_s", "s"),
    hi("ops_per_s", "op/s"),
    hi("hit_ratio", "ratio"),
    hi("sim_ops_per_sim_s", "op/sim-s"),
    lo("ssd_write_amp", "ratio"),
    lo("peak_rss_mb", "MiB"),
];

/// Metrics of single layers, from the traced run. A workload that has
/// no such layer reports 0 (printed as `n/a` in the table).
pub const PER_LAYER: [MetricDef; 107] = [
    // The benchmark's own generator and segment spread.
    lo("driver.gen_s", "s"),
    hi("driver.segment_min_ops_per_s", "op/s"),
    hi("driver.segment_max_ops_per_s", "op/s"),
    // ddc-workloads / the ddc-core runner / the simulator.
    lo("workloads.step_s.webserver", "s"),
    lo("workloads.step_s.proxycache", "s"),
    lo("workloads.step_s.mail", "s"),
    lo("workloads.step_s.videoserver", "s"),
    hi("workloads.steps", "count"),
    lo("runner.self_s", "s"),
    hi("sim.sim_s_per_host_s", "sim-s/s"),
    // ddc-guest.
    lo("guest.read_s", "s"),
    lo("guest.write_s", "s"),
    lo("guest.fsync_s", "s"),
    lo("guest.self_s", "s"),
    lo("guest.read_p50_ns", "ns"),
    lo("guest.read_p99_ns", "ns"),
    lo("guest.write_p50_ns", "ns"),
    lo("guest.write_p99_ns", "ns"),
    hi("guest.reads_pagecache", "count"),
    hi("guest.reads_cleancache", "count"),
    lo("guest.reads_disk", "count"),
    hi("guest.cleancache_puts", "count"),
    lo("guest.writebacks", "count"),
    lo("guest.stale_hits", "count"),
    lo("pagecache.ns_per_op", "ns/op"),
    // ddc-cleancache: the hypercall channel.
    lo("channel.calls", "count"),
    lo("channel.gets", "count"),
    hi("channel.get_hits", "count"),
    lo("channel.puts", "count"),
    hi("channel.put_stores", "count"),
    lo("channel.flushes", "count"),
    lo("channel.fail_opens", "count"),
    hi("channel.put_store_ratio", "ratio"),
    // ddc-hypercache / ddc-concurrent: the engine.
    lo("engine.busy_s", "s"),
    lo("engine.calls", "count"),
    lo("engine.get_hit_p50_ns", "ns"),
    lo("engine.get_hit_p99_ns", "ns"),
    lo("engine.get_miss_p50_ns", "ns"),
    lo("engine.get_miss_p99_ns", "ns"),
    lo("engine.put_p50_ns", "ns"),
    lo("engine.put_p99_ns", "ns"),
    lo("engine.put_p999_ns", "ns"),
    lo("engine.flush_p50_ns", "ns"),
    lo("engine.flush_p99_ns", "ns"),
    lo("engine.many_p50_ns", "ns"),
    lo("engine.many_p99_ns", "ns"),
    lo("engine.wait_ns_per_call", "ns"),
    lo("engine.evictions", "count"),
    lo("engine.trickle_downs", "count"),
    lo("engine.evictions_per_put", "ratio"),
    hi("engine.lookup_to_store", "ratio"),
    lo("engine.two_phase_retries", "count"),
    lo("engine.two_phase_fallbacks", "count"),
    lo("engine.reservation_retries", "count"),
    lo("engine.reservation_fallbacks", "count"),
    lo("engine.seqlock_retries", "count"),
    hi("engine.lockfree_misses", "count"),
    hi("engine.replica_hits", "count"),
    lo("engine.read_plane_overflows", "count"),
    lo("engine.front_tree_retries", "count"),
    lo("engine.front_tree_fallbacks", "count"),
    hi("engine.batched_ops", "count"),
    lo("engine.batch_lock_acquisitions", "count"),
    lo("engine.batch_journal_appends", "count"),
    hi("engine.mem_used_pages", "pages"),
    hi("engine.ssd_used_pages", "pages"),
    lo("engine.audit_findings", "count"),
    // ddc-storage: the journal.
    lo("journal.commit_s", "s"),
    lo("journal.commits", "count"),
    lo("journal.commit_p99_ns", "ns"),
    lo("journal.records_at_end", "count"),
    lo("journal.bytes_at_end", "bytes"),
    lo("journal.bytes_per_live_entry", "bytes"),
    hi("journal.compactions", "count"),
    lo("journal.recover_s", "s"),
    hi("journal.recover_records_replayed", "count"),
    lo("journal.recover_gap_discarded", "count"),
    hi("journal.recover_entries", "count"),
    lo("journal.recover_ns_per_record", "ns"),
    lo("journal.append_ns_per_record", "ns"),
    lo("journal.replay_ns_per_record", "ns"),
    // ddc-storage: wear ledger and the virtual disk.
    lo("wear.ssd_pages_written", "count"),
    hi("wear.pages_admitted", "count"),
    lo("wear.spill_attempts", "count"),
    hi("wear.spill_rejects", "count"),
    hi("wear.ttl_demotions", "count"),
    lo("device.hdd_reads", "count"),
    lo("device.hdd_writes", "count"),
    lo("device.hdd_busy_sim_s", "sim-s"),
    // The layer ladder: one recorded stream replayed at each boundary.
    lo("ladder.guest_ops", "count"),
    lo("ladder.stream_calls", "count"),
    lo("ladder.index.ns_per_op", "ns/op"),
    lo("ladder.serial.ns_per_op", "ns/op"),
    lo("ladder.sharded.ns_per_op", "ns/op"),
    lo("ladder.sharded_journal.ns_per_op", "ns/op"),
    lo("ladder.channel.ns_per_op", "ns/op"),
    lo("ladder.guest.ns_per_op", "ns/op"),
    lo("ladder.generator.ns_per_op", "ns/op"),
    lo("layer.policy.ns_per_op", "ns/op"),
    lo("layer.concurrency.ns_per_op", "ns/op"),
    lo("layer.journal.ns_per_op", "ns/op"),
    lo("layer.channel.ns_per_op", "ns/op"),
    lo("layer.guest.ns_per_op", "ns/op"),
    lo("layer.generator.ns_per_op", "ns/op"),
    // The tracer itself.
    lo("trace.overhead_ratio", "ratio"),
    lo("trace.spans", "count"),
    lo("trace.driver_ops", "count"),
];

/// Segments the timed phase is cut into; `ops_per_s` is their median.
pub const SEGMENTS: usize = 10;

/// Identical passes (set-up + timed phase + oracles) per run.
/// `setup_s` is their median; each segment counts at the fastest of
/// its passes.
pub const PASSES: usize = 5;

/// Recoveries per `guest-durable-write` run; `journal.recover_s` is
/// their median.
pub const RECOVER_REPEATS: usize = 7;

/// Driver ops the traced run is cut to.
pub const TRACE_MAX_DRIVER_OPS: u64 = 1_000_000;

/// Guest ops of the stream the ladder replays, and its repeats.
pub const LADDER_GUEST_OPS: u64 = 200_000;
/// Repeats per ladder rung; the rung reports their median.
pub const LADDER_REPEATS: usize = 5;

/// Frozen work per requested second, sized on the reference box
/// (2 cores) so that `--seconds N` times about N seconds there. The
/// timed phase is this many operations, not this many seconds, so its
/// counts repeat; a faster or slower machine only changes how long
/// the same work takes.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Timed work per requested second: virtual seconds for
    /// `paper-fourapps`, driver ops per client thread for the others.
    pub per_second: u64,
    /// Warm-up work, in the same unit, charged to `setup_s`.
    pub warm: u64,
}

/// The sizing of `workload`, or `None` for an unknown name.
pub fn sizing(workload: &str) -> Option<Sizing> {
    Some(match workload {
        "paper-fourapps" => Sizing {
            per_second: 60,
            warm: 120,
        },
        "guest-read-evict" => Sizing {
            per_second: 600_000,
            warm: 400_000,
        },
        "guest-durable-write" => Sizing {
            per_second: 280_000,
            warm: 300_000,
        },
        // Driver op = one tick of 72 page ops.
        "engine-batched" => Sizing {
            per_second: 13_000,
            warm: 10_000,
        },
        _ => return None,
    })
}

/// Timed work of one pass of a run of `seconds` (the passes share the
/// seconds), rounded down to a whole number of segments; `--smoke`
/// runs 1 % of it.
pub fn timed_work_per_pass(size: Sizing, seconds: u64, smoke: bool) -> u64 {
    let full = size.per_second * seconds / PASSES as u64;
    let work = if smoke { full / 100 } else { full };
    (work / SEGMENTS as u64).max(1) * SEGMENTS as u64
}

/// Warm-up work; `--smoke` runs 10 % of it (enough to fill the caches
/// of the smaller run, not enough to record).
pub fn warm_work(size: Sizing, smoke: bool) -> u64 {
    if smoke {
        (size.warm / 10).max(1)
    } else {
        size.warm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_json::Json;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
            assert!(sizing(w).is_some());
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(sizing("nope").is_none());
    }

    #[test]
    fn timed_work_is_a_whole_number_of_segments() {
        let s = sizing("guest-read-evict").unwrap();
        let passes = PASSES as u64;
        assert_eq!(timed_work_per_pass(s, passes, false), 600_000);
        assert_eq!(timed_work_per_pass(s, passes, true), 6_000);
        let tiny = Sizing {
            per_second: 3,
            warm: 5,
        };
        assert_eq!(timed_work_per_pass(tiny, 1, true), SEGMENTS as u64);
        assert_eq!(timed_work_per_pass(tiny, 7 * passes, false), 20);
        assert_eq!(warm_work(tiny, true), 1);
        assert_eq!(warm_work(s, false), 400_000);
    }

    /// `BENCHMARK.json` parses through `ddc-json` and lists exactly the
    /// workloads and metrics this crate reports, within the contract's
    /// limits.
    #[test]
    fn benchmark_json_matches_this_crate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command = doc.get("command").and_then(Json::as_array).unwrap();
        assert!(command.len() <= 32);
        assert!(command.iter().all(|c| c
            .as_str()
            .is_some_and(|s| s.len() <= 200 && !s.starts_with('/'))));
        let paths = doc.get("paths").and_then(Json::as_array).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
        let secs = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&secs));

        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| {
                assert_eq!(w.as_object().unwrap().len(), 2);
                let why = w.get("why").and_then(Json::as_str).unwrap();
                assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
                w.get("name").and_then(Json::as_str).unwrap()
            })
            .collect();
        assert_eq!(names, WORKLOADS);

        let check = |key: &str, defs: &[MetricDef], bounded: bool| {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (got, want) in listed.iter().zip(defs) {
                assert_eq!(got.get("name").and_then(Json::as_str), Some(want.name));
                assert_eq!(got.get("unit").and_then(Json::as_str), Some(want.unit));
                assert_eq!(
                    got.get("better").and_then(Json::as_str),
                    Some(want.better.as_str()),
                    "{}",
                    want.name
                );
                let members = got.as_object().unwrap().len();
                if bounded {
                    let bound = got.get("bound").and_then(Json::as_f64).unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{}", want.name);
                    assert_eq!(members, 4);
                } else {
                    assert_eq!(members, 3);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let setup = &doc.get("end_to_end").and_then(Json::as_array).unwrap()[0];
        assert_eq!(setup.get("name").and_then(Json::as_str), Some("setup_s"));
    }
}
