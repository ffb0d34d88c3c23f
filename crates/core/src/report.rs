//! Serializable experiment reports.
//!
//! Reports mirror the measurement types in `ddc-metrics`/`ddc-sim` as
//! plain data with deterministic JSON emission (via `ddc-json`), so the
//! `repro` harness can emit JSON alongside the human-readable tables
//! recorded in EXPERIMENTS.md. Emission is byte-stable: two identical
//! runs render byte-identical reports, which the fault-injection
//! determinism tests assert.

use ddc_json::Json;
use ddc_metrics::{counter_snapshot, snapshot_json, OpsRecorder};
use ddc_sim::{SimTime, TimeSeries};

/// Per-thread throughput/latency summary.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadReport {
    /// The thread's label (e.g. `"web/t0"`).
    pub label: String,
    /// Operations completed.
    pub ops: u64,
    /// Operations per second of virtual time.
    pub ops_per_sec: f64,
    /// Megabytes per second of virtual time.
    pub mb_per_sec: f64,
    /// Mean operation latency, milliseconds.
    pub mean_latency_ms: f64,
    /// 99th-percentile operation latency, milliseconds.
    pub p99_latency_ms: f64,
}

impl ThreadReport {
    /// Summarizes a recorder over `[0, end]`, or over its marked
    /// steady-state window if one was opened.
    pub fn from_recorder(label: &str, recorder: &OpsRecorder, end: SimTime) -> ThreadReport {
        let r = recorder.window_report(end);
        ThreadReport {
            label: label.to_owned(),
            ops: r.ops,
            ops_per_sec: r.ops_per_sec,
            mb_per_sec: r.mb_per_sec,
            mean_latency_ms: r.mean_latency.as_millis_f64(),
            p99_latency_ms: r.p99_latency.as_millis_f64(),
        }
    }
}

/// One probe's samples as plain data.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesReport {
    /// Probe name.
    pub name: String,
    /// `(seconds, value)` samples.
    pub points: Vec<(f64, f64)>,
}

impl SeriesReport {
    /// Converts a [`TimeSeries`].
    pub fn from_series(series: &TimeSeries) -> SeriesReport {
        SeriesReport {
            name: series.name().to_owned(),
            points: series
                .points()
                .iter()
                .map(|p| (p.at.as_secs_f64(), p.value))
                .collect(),
        }
    }

    /// Mean value over samples in `[from, to)` seconds.
    pub fn mean_in(&self, from: f64, to: f64) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| *v)
            .collect();
        (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Fault-plane counters aggregated across the whole host: the cache's
/// degradation state machine plus every VM's hypercall channel. All zero
/// on a fault-free run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Times the SSD tier was quarantined after a faulted IO.
    pub ssd_quarantines: u64,
    /// Successful recovery probes that re-enabled the SSD tier.
    pub ssd_recoveries: u64,
    /// SSD pages invalidated when entering quarantine.
    pub quarantine_invalidated_pages: u64,
    /// Cache gets that failed on a faulted store read (served fail-open).
    pub failed_gets: u64,
    /// Cache puts that failed on a faulted store write.
    pub failed_puts: u64,
    /// Guest hypercalls served fail-open after a backend failure.
    pub channel_fail_opens: u64,
    /// Guest hypercalls dropped by the channel itself.
    pub channel_dropped_calls: u64,
    /// Times a guest's put circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Puts skipped locally while a breaker was open.
    pub breaker_skipped_puts: u64,
    /// Probes that closed a breaker again.
    pub breaker_recoveries: u64,
}

counter_snapshot!(FaultTotals, "faults", {
    ssd_quarantines,
    ssd_recoveries,
    quarantine_invalidated_pages,
    failed_gets,
    failed_puts,
    channel_fail_opens,
    channel_dropped_calls,
    breaker_trips,
    breaker_skipped_puts,
    breaker_recoveries,
});

/// The full result of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentReport {
    /// Virtual end time, seconds.
    pub end: f64,
    /// Per-thread summaries.
    pub threads: Vec<ThreadReport>,
    /// Probe sample series.
    pub series: Vec<SeriesReport>,
    /// Final memory-store occupancy, pages.
    pub mem_cache_used_pages: u64,
    /// Final SSD-store occupancy, pages.
    pub ssd_cache_used_pages: u64,
    /// Total evictions performed by the hypervisor cache.
    pub evictions: u64,
    /// Fault-plane counters (all zero on a fault-free run).
    pub faults: FaultTotals,
}

impl ExperimentReport {
    /// Sums `ops_per_sec` across threads whose label starts with `prefix`
    /// — per-container throughput when threads are labelled
    /// `container/tN`.
    pub fn throughput_of(&self, prefix: &str) -> f64 {
        self.threads
            .iter()
            .filter(|t| t.label.starts_with(prefix))
            .map(|t| t.ops_per_sec)
            .sum()
    }

    /// Sums `mb_per_sec` across threads whose label starts with `prefix`.
    pub fn mb_per_sec_of(&self, prefix: &str) -> f64 {
        self.threads
            .iter()
            .filter(|t| t.label.starts_with(prefix))
            .map(|t| t.mb_per_sec)
            .sum()
    }

    /// Ops-weighted mean latency (ms) across threads with the prefix.
    pub fn mean_latency_of(&self, prefix: &str) -> f64 {
        let mut ops = 0u64;
        let mut weighted = 0.0;
        for t in self.threads.iter().filter(|t| t.label.starts_with(prefix)) {
            ops += t.ops;
            weighted += t.mean_latency_ms * t.ops as f64;
        }
        if ops == 0 {
            0.0
        } else {
            weighted / ops as f64
        }
    }

    /// The series with the given name, if probed.
    pub fn series(&self, name: &str) -> Option<&SeriesReport> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Serializes to pretty JSON (deterministic: byte-identical for
    /// identical reports).
    pub fn to_json(&self) -> String {
        let mut v = Json::object();
        v.set("end", self.end);
        let threads = self
            .threads
            .iter()
            .map(|t| {
                let mut tv = Json::object();
                tv.set("label", t.label.as_str());
                tv.set("ops", t.ops);
                tv.set("ops_per_sec", t.ops_per_sec);
                tv.set("mb_per_sec", t.mb_per_sec);
                tv.set("mean_latency_ms", t.mean_latency_ms);
                tv.set("p99_latency_ms", t.p99_latency_ms);
                tv
            })
            .collect::<Vec<_>>();
        v.set("threads", threads);
        let series = self
            .series
            .iter()
            .map(|s| {
                let mut sv = Json::object();
                sv.set("name", s.name.as_str());
                sv.set(
                    "points",
                    s.points
                        .iter()
                        .map(|&(t, val)| Json::Arr(vec![Json::Num(t), Json::Num(val)]))
                        .collect::<Vec<_>>(),
                );
                sv
            })
            .collect::<Vec<_>>();
        v.set("series", series);
        v.set("mem_cache_used_pages", self.mem_cache_used_pages);
        v.set("ssd_cache_used_pages", self.ssd_cache_used_pages);
        v.set("evictions", self.evictions);
        v.set("faults", snapshot_json(&self.faults));
        v.to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_sim::SimDuration;

    #[test]
    fn thread_report_from_recorder() {
        let mut rec = OpsRecorder::new();
        rec.record(
            SimTime::from_secs(1),
            1_000_000,
            SimDuration::from_millis(2),
        );
        let tr = ThreadReport::from_recorder("x/t0", &rec, SimTime::from_secs(2));
        assert_eq!(tr.ops, 1);
        assert!((tr.ops_per_sec - 0.5).abs() < 1e-9);
        assert!((tr.mb_per_sec - 0.5).abs() < 1e-9);
        assert!((tr.mean_latency_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn series_report_roundtrip_and_mean() {
        let mut s = TimeSeries::new("occ");
        for sec in 0..10 {
            s.record(SimTime::from_secs(sec), sec as f64);
        }
        let sr = SeriesReport::from_series(&s);
        assert_eq!(sr.points.len(), 10);
        assert_eq!(sr.mean_in(2.0, 5.0), Some(3.0));
        assert_eq!(sr.mean_in(90.0, 99.0), None);
    }

    fn sample_report() -> ExperimentReport {
        ExperimentReport {
            end: 10.0,
            threads: vec![
                ThreadReport {
                    label: "web/t0".into(),
                    ops: 100,
                    ops_per_sec: 10.0,
                    mb_per_sec: 1.0,
                    mean_latency_ms: 2.0,
                    p99_latency_ms: 9.0,
                },
                ThreadReport {
                    label: "web/t1".into(),
                    ops: 300,
                    ops_per_sec: 30.0,
                    mb_per_sec: 3.0,
                    mean_latency_ms: 4.0,
                    p99_latency_ms: 9.0,
                },
                ThreadReport {
                    label: "mail/t0".into(),
                    ops: 50,
                    ops_per_sec: 5.0,
                    mb_per_sec: 0.5,
                    mean_latency_ms: 50.0,
                    p99_latency_ms: 200.0,
                },
            ],
            series: vec![],
            mem_cache_used_pages: 7,
            ssd_cache_used_pages: 0,
            evictions: 3,
            faults: FaultTotals {
                ssd_quarantines: 1,
                quarantine_invalidated_pages: 5,
                failed_gets: 2,
                channel_fail_opens: 2,
                ..FaultTotals::default()
            },
        }
    }

    #[test]
    fn aggregations_by_prefix() {
        let r = sample_report();
        assert!((r.throughput_of("web") - 40.0).abs() < 1e-9);
        assert!((r.mb_per_sec_of("web") - 4.0).abs() < 1e-9);
        assert!((r.throughput_of("mail") - 5.0).abs() < 1e-9);
        assert_eq!(r.throughput_of("nope"), 0.0);
        // Ops-weighted: (2*100 + 4*300) / 400 = 3.5
        assert!((r.mean_latency_of("web") - 3.5).abs() < 1e-9);
        assert_eq!(r.mean_latency_of("nope"), 0.0);
    }

    #[test]
    fn json_serialization_roundtrips() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.contains("web/t0"));
        assert!(json.contains("ssd_quarantines"));
        assert_eq!(
            sample_report().to_json(),
            json,
            "emission is byte-identical"
        );
        let back = Json::parse(&json).expect("the report is JSON");
        assert_eq!(back.to_string_pretty(), json, "and re-emits as itself");
    }
}
