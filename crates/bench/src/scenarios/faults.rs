//! Fault injection: SSD brownout with graceful degradation and recovery.
//!
//! An SSD-homed webserver warms the cache, then the SSD store browns out
//! for the middle third of the run (most IO errors, survivors slowed).
//! The first faulted IO quarantines the tier — every SSD page is
//! invalidated so no stale data can ever be served — and puts fall back
//! to the memory store. Recovery probes (exponential backoff) re-enable
//! the tier once the window passes, and the hit ratio climbs back as the
//! SSD refills. The whole run is seeded: identical seeds reproduce the
//! run byte-for-byte.

use std::cell::Cell;

use ddc_core::prelude::*;

use super::common::{mb, to_mb};

/// Default virtual run length, seconds.
pub const DURATION_SECS: u64 = 150;

/// Per-operation failure probability inside the brownout window.
pub const BROWNOUT_RATE: f64 = 0.9;

/// Result of one brownout run: the report plus the interval hit ratio
/// averaged over the three phases (before / during / after the window).
pub struct FaultsRun {
    /// The full experiment report (fault counters included).
    pub report: ddc_core::ExperimentReport,
    /// Brownout window, seconds.
    pub window: (u64, u64),
    /// Mean interval hit ratio before the window.
    pub hit_before: f64,
    /// Mean interval hit ratio during the window.
    pub hit_during: f64,
    /// Mean interval hit ratio after the window.
    pub hit_after: f64,
}

/// Runs the brownout scenario for `duration_secs` (the window covers the
/// middle third) with the given fault seed.
pub fn brownout(duration_secs: u64, seed: u64) -> FaultsRun {
    let from = duration_secs / 3;
    let until = 2 * duration_secs / 3;

    let cache = CacheConfig::mem_and_ssd(mb(8), mb(256));
    let mut host = Host::new(HostConfig::new(cache));
    let vm = host.boot_vm(16, 100);
    let cg = host.create_container(vm, "web", mb(8), CachePolicy::ssd(100));
    host.set_ssd_fault_schedule(Some(FaultSchedule::new(seed).with_window(
        SimTime::from_secs(from),
        Some(SimTime::from_secs(until)),
        FaultKind::Brownout {
            rate: BROWNOUT_RATE,
            extra: SimDuration::from_millis(2),
        },
    )));

    let mut exp = Experiment::new(host, SimDuration::from_secs(1));
    let cfg = WebConfig {
        files: 3000,
        mean_file_blocks: 2,
        zipf_theta: 0.0,
        ..WebConfig::default()
    };
    exp.add_thread(Box::new(Webserver::new("web/t0", vm, cg, cfg, 1)));
    exp.add_thread(Box::new(Webserver::new("web/t1", vm, cg, cfg, 2)));

    // Interval (not cumulative) second-chance hit ratio, so the series
    // shows the collapse during the window and the climb back after it.
    let prev = Cell::new((0u64, 0u64));
    exp.add_probe("hit ratio", move |h| {
        let s = h.container_cache_stats(vm, cg).unwrap_or_default();
        let (gets0, hits0) = prev.replace((s.gets, s.hits));
        let dg = s.gets.saturating_sub(gets0);
        let dh = s.hits.saturating_sub(hits0);
        if dg == 0 {
            0.0
        } else {
            dh as f64 / dg as f64
        }
    });
    exp.add_probe("ssd (MB)", move |h| to_mb(h.cache_totals().ssd_used_pages));

    let report = exp.run_until(SimTime::from_secs(duration_secs));
    let ratio = |lo: f64, hi: f64| {
        report
            .series("hit ratio")
            .and_then(|s| s.mean_in(lo, hi))
            .unwrap_or(0.0)
    };
    let (from_f, until_f) = (from as f64, until as f64);
    FaultsRun {
        window: (from, until),
        // Skip the cold start and the edge seconds of each phase.
        hit_before: ratio(from_f * 0.5, from_f),
        hit_during: ratio(from_f + 2.0, until_f),
        hit_after: ratio(until_f + 5.0, duration_secs as f64),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brownout_degrades_and_recovers() {
        let run = brownout(60, 0xB120);
        let f = &run.report.faults;
        assert!(f.ssd_quarantines > 0, "brownout quarantined the SSD");
        assert!(
            f.quarantine_invalidated_pages > 0,
            "quarantine invalidated the resident SSD pages"
        );
        assert!(f.failed_gets + f.failed_puts > 0);
        assert!(
            f.channel_fail_opens > 0,
            "failed gets surface to the guest as fail-open misses"
        );
        assert!(f.ssd_recoveries > 0, "the tier recovered");
        assert!(
            run.hit_during < run.hit_before,
            "hit ratio collapses during the window ({:.2} vs {:.2})",
            run.hit_during,
            run.hit_before
        );
        assert!(
            run.hit_after > run.hit_during,
            "hit ratio recovers after the window ({:.2} vs {:.2})",
            run.hit_after,
            run.hit_during
        );
        assert!(
            run.report.threads.iter().all(|t| t.ops > 0),
            "the workload survives the brownout"
        );
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let a = brownout(30, 7).report.to_json();
        let b = brownout(30, 7).report.to_json();
        assert_eq!(a, b);
    }
}
