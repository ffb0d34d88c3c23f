//! Extension and ablation experiments beyond the paper's evaluation,
//! exercising the features the paper sketches as design options or
//! future work:
//!
//! * the **hybrid store** (`<Hybrid, W>`): memory share first with
//!   trickle-down spill to the SSD share (paper §3.3),
//! * **MRC-driven adaptive weights** (paper §5.2.1's suggested policy
//!   layer) versus static equal weights.

use ddc_core::adaptive::{self, AdaptiveConfig};
use ddc_core::prelude::*;

use super::common::{mb, spawn_four_kind, FourKind};

/// Result of the hybrid-store experiment.
pub struct HybridResult {
    /// Videoserver MB/s under `<Mem, 18>`.
    pub video_mem: f64,
    /// Videoserver MB/s under `<Hybrid, 18>` (same weight, SSD spill).
    pub video_hybrid: f64,
    /// Objects trickled from the memory share down to the SSD share.
    pub trickle_downs: u64,
    /// Videoserver SSD-store occupancy at the end (pages).
    pub video_ssd_pages: u64,
}

/// Runs the four workloads with the videoserver either memory-only or
/// hybrid, holding everything else fixed.
pub fn hybrid(duration: SimTime) -> HybridResult {
    let run = |hybrid: bool| {
        let cache = CacheConfig::mem_and_ssd(mb(256), mb(30 * 1024));
        let mut host = Host::new(HostConfig::new(cache));
        let vm = host.boot_vm(1024, 100);
        let policies = [
            CachePolicy::mem(32),
            CachePolicy::mem(25),
            CachePolicy::mem(25),
            if hybrid {
                CachePolicy::hybrid(18)
            } else {
                CachePolicy::mem(18)
            },
        ];
        let mut cgs = Vec::new();
        for (i, kind) in FourKind::ALL.iter().enumerate() {
            cgs.push((
                *kind,
                host.create_container(vm, kind.name(), mb(128), policies[i]),
            ));
        }
        let mut exp = Experiment::new(host, SimDuration::from_secs(1));
        for (i, (kind, cg)) in cgs.iter().enumerate() {
            spawn_four_kind(&mut exp, *kind, vm, *cg, 2, 8000 * (i as u64 + 1));
        }
        exp.mark_steady_state_at(SimTime::from_nanos(duration.as_nanos() / 2));
        let report = exp.run_until(duration);
        let video_cg = cgs[3].1;
        let stats = exp.host().container_cache_stats(vm, video_cg).unwrap();
        (
            report.mb_per_sec_of(FourKind::Video.name()),
            exp.host().cache_totals().trickle_downs,
            stats.ssd_pages,
        )
    };
    let (video_mem, _, _) = run(false);
    let (video_hybrid, trickle_downs, video_ssd_pages) = run(true);
    HybridResult {
        video_mem,
        video_hybrid,
        trickle_downs,
        video_ssd_pages,
    }
}

/// Result of the adaptive-provisioning experiment.
pub struct AdaptiveResult {
    /// Aggregate rate-weighted throughput with static equal weights.
    pub static_tput: f64,
    /// The same with the MRC-driven controller adjusting every 20 s.
    pub adaptive_tput: f64,
    /// Final weights (big-working-set container, small one).
    pub final_weights: (u32, u32),
}

/// Two webserver containers, both over their entitlements (so no slack
/// is left to lend) but with very different access *rates*, share a
/// contended cache. With static equal weights, half the cache serves the
/// slow container; the MRC-driven controller shifts weight to the
/// fast one and recovers aggregate throughput.
pub fn adaptive(duration: SimTime) -> AdaptiveResult {
    let run = |enable: bool| {
        let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(mb(96))));
        let vm = host.boot_vm(128, 100);
        let big = host.create_container(vm, "big", mb(32), CachePolicy::mem(50));
        let small = host.create_container(vm, "small", mb(32), CachePolicy::mem(50));
        if enable {
            adaptive::enable_estimation(&mut host, vm, 4);
        }
        let big_cfg = WebConfig {
            files: 1600,
            mean_file_blocks: 2,
            zipf_theta: 0.8,
            ..WebConfig::default()
        };
        // "small" here means *slow*: same-order working set, 20x lower
        // request rate, so its marginal cache value is much lower.
        let small_cfg = WebConfig {
            files: 1300,
            mean_file_blocks: 2,
            zipf_theta: 0.8,
            think_time: SimDuration::from_millis(20),
            ..WebConfig::default()
        };
        let mut exp = Experiment::new(host, SimDuration::from_secs(1));
        exp.add_thread(Box::new(Webserver::new("big/t0", vm, big, big_cfg, 1)));
        exp.add_thread(Box::new(Webserver::new("big/t1", vm, big, big_cfg, 2)));
        exp.add_thread(Box::new(Webserver::new(
            "small/t0", vm, small, small_cfg, 3,
        )));
        if enable {
            adaptive::schedule(
                &mut exp,
                AdaptiveConfig::new(vm),
                SimDuration::from_secs(20),
                duration,
            );
        }
        exp.mark_steady_state_at(SimTime::from_nanos(duration.as_nanos() / 2));
        let report = exp.run_until(duration);
        let tput = report.mb_per_sec_of("big") + report.mb_per_sec_of("small");
        let weights = (
            exp.host().guest(vm).cgroup(big).policy().weight,
            exp.host().guest(vm).cgroup(small).policy().weight,
        );
        (tput, weights)
    };
    let (static_tput, _) = run(false);
    let (adaptive_tput, final_weights) = run(true);
    AdaptiveResult {
        static_tput,
        adaptive_tput,
        final_weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: SimTime = SimTime::from_secs(200);

    #[test]
    #[cfg_attr(debug_assertions, ignore = "scenario-scale; run with --release")]
    fn hybrid_spills_video_to_ssd() {
        let r = hybrid(SHORT);
        // Spill happens through direct SSD placement once the memory
        // entitlement is full (trickle-down only fires when the pool is
        // additionally the eviction victim).
        assert!(r.video_ssd_pages > 0, "spilled objects live on the SSD");
        assert!(
            r.video_hybrid > r.video_mem * 0.8,
            "hybrid video should be at worst slightly slower than mem-only \
             ({:.1} vs {:.1})",
            r.video_hybrid,
            r.video_mem
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "scenario-scale; run with --release")]
    fn adaptive_shifts_weights_toward_demand() {
        let r = adaptive(SHORT);
        assert!(
            r.final_weights.0 > r.final_weights.1,
            "the large working set must end with more weight {:?}",
            r.final_weights
        );
        assert!(
            r.adaptive_tput > r.static_tput * 0.9,
            "adaptive must not lose to static ({:.1} vs {:.1})",
            r.adaptive_tput,
            r.static_tput
        );
    }
}
