//! Property tests for the SSD endurance plane (DESIGN.md §17): ghost
//! admission decisions and wear totals are part of the determinism
//! contract, and the replayed half of the wear ledger survives every
//! crash/recover prefix cut exactly.
//!
//! * **Engine identity** — with the admission plane on (ghost window +
//!   TTL), the serial engine and the sharded engine at 1/2/4/8 shards
//!   produce byte-identical equivalence reports, including the
//!   `wear_report` and per-pool `ssd_writes` rows. The shard cells fan
//!   out through the `DDC_THREADS` worker pool and are compared against
//!   a reference computed serially, so the verdict cannot depend on the
//!   fan-out width.
//! * **Replay exactness** — `ssd_pages_written` and `pages_admitted`
//!   accrue 1:1 with journaled `Put` records (checkpoints carry the
//!   totals forward in a `WearTotals` record), so recovery from any
//!   journal prefix yields totals that grow monotonically with the
//!   prefix, never exceed the live cache's, and match them exactly on
//!   the full image — on both the serial journal and the sharded
//!   per-shard segments. Advisory counters (ghost decisions, TTL
//!   demotions) are diagnostics and restart at zero.
//!
//! (Seeded SimRng schedules — the in-tree replacement for proptest,
//! which is unavailable offline.)

use ddc_core::concurrent::{run_equivalence, CrashHarness, ShardedCache, StressConfig};
use ddc_core::prelude::*;
use ddc_core::storage::{Journal, WearCounters};
use ddc_json::Json;

/// A stress config that keeps the admission plane hot: the memory tier
/// is far smaller than the working set, so hybrid pools spill every
/// tick, and a short TTL keeps the demotion sweep busy.
fn admission_cfg(seed: u64) -> StressConfig {
    let mut cfg = StressConfig::smoke(seed);
    cfg.cache = CacheConfig::mem_and_ssd(192, 384).with_admission(AdmissionConfig {
        ghost_window: 128,
        ssd_ttl: 64,
    });
    cfg
}

/// Pulls a named wear counter out of a report's `wear_report` object.
fn wear_field(report_json: &str, field: &str) -> f64 {
    let doc = Json::parse(report_json).expect("report parses");
    doc.get("wear_report")
        .and_then(|w| w.get(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("report has no wear_report.{field}"))
}

#[test]
fn ghost_decisions_and_wear_identical_serial_vs_sharded() {
    for seed in [0x3EA1u64, 0x3EA2] {
        let cfg = admission_cfg(seed);
        let reference = run_equivalence::<DoubleDeckerCache>(&cfg);
        assert_eq!(reference.stale_reads, 0, "serial oracle violated");

        // The filter must actually be engaging, or the identity claim
        // is vacuous.
        assert!(
            wear_field(&reference.json, "spill_attempts") > 0.0,
            "workload never exercised the ghost filter"
        );
        assert!(
            wear_field(&reference.json, "spill_rejects") > 0.0,
            "ghost filter never rejected a spill"
        );
        assert!(
            wear_field(&reference.json, "ttl_demotions") > 0.0,
            "TTL sweep never demoted"
        );
        assert!(
            wear_field(&reference.json, "ssd_pages_written") > 0.0,
            "workload never wrote the SSD tier"
        );

        // Shard cells fan out across the DDC_THREADS worker pool; every
        // one must reproduce the serial reference byte for byte.
        let cells = ddc_core::parallel::run_cells(vec![1usize, 2, 4, 8], |shards| {
            let mut cfg = cfg.clone();
            cfg.shards = shards;
            run_equivalence::<ShardedCache>(&cfg)
        });
        for (shards, cell) in [1usize, 2, 4, 8].into_iter().zip(cells) {
            assert_eq!(cell.stale_reads, 0, "{shards}-shard oracle violated");
            assert_eq!(
                cell.json, reference.json,
                "{shards}-shard report diverged from serial (seed {seed:#x})"
            );
        }
    }
}

/// Component-wise check of the replayed (journaled) half of the ledger.
fn assert_replayed_le(a: &WearCounters, b: &WearCounters, what: &str) {
    assert!(
        a.ssd_pages_written <= b.ssd_pages_written && a.pages_admitted <= b.pages_admitted,
        "{what}: wear went backwards ({a:?} vs {b:?})"
    );
}

#[test]
fn serial_wear_replays_exactly_across_every_prefix_cut() {
    let mut host = Host::new(HostConfig::new(
        CacheConfig::mem_and_ssd(96, 96).with_admission(AdmissionConfig::ghost(64)),
    ));
    host.enable_cache_journal();
    let vm1 = host.boot_vm(1, 100);
    let vm2 = host.boot_vm(1, 60);
    host.create_container(vm1, "a", 6, CachePolicy::hybrid(100));
    host.create_container(vm2, "b", 6, CachePolicy::hybrid(100));

    let mut rng = SimRng::new(0x3EA3);
    let mut now = SimTime::ZERO;
    for _ in 0..1500 {
        let vm = if rng.chance(0.5) { vm1 } else { vm2 };
        let cg = host.guest(vm).cgroup_ids()[0];
        let file = vm_file(vm, rng.range_u64(1, 3));
        let addr = BlockAddr::new(file, rng.range_u64(0, 48));
        if rng.chance(0.4) {
            now = host.write(now, vm, cg, addr).finish;
        } else {
            now = host.read(now, vm, cg, addr).finish;
        }
    }

    let live = host.cache().wear_totals();
    assert!(live.spill_rejects > 0, "filter never engaged");
    assert!(live.ssd_pages_written > 0, "SSD tier never written");
    assert!(
        host.cache().journal_compactions() > 0,
        "journal never compacted: the WearTotals checkpoint path went untested"
    );

    let image = host.cache_journal_image().expect("journaling on");
    let epochs: Vec<(VmId, u64)> = host
        .vm_ids()
        .into_iter()
        .map(|vm| (vm, host.guest(vm).flush_epoch()))
        .collect();
    let config = host.cache().current_config();

    let mut prev = WearCounters::default();
    for &cut in Journal::record_boundaries(&image).iter() {
        let (recovered, _) = DoubleDeckerCache::recover(config, &image[..cut], &epochs);
        let w = recovered.wear_totals();
        assert_replayed_le(&prev, &w, "prefix grew");
        assert_replayed_le(&w, &live, "prefix exceeded live");
        assert_eq!(
            w.spill_attempts + w.spill_admits + w.spill_rejects + w.ttl_demotions,
            0,
            "advisory counters must restart at zero after recovery"
        );
        prev = w;
    }
    assert_eq!(
        (prev.ssd_pages_written, prev.pages_admitted),
        (live.ssd_pages_written, live.pages_admitted),
        "full-image replay must reproduce the live wear totals exactly"
    );
}

#[test]
fn sharded_wear_replays_exactly_across_segment_cuts() {
    let mut cfg = StressConfig::smoke(0x3EA4);
    cfg.cache = CacheConfig::mem_and_ssd(96, 128).with_admission(AdmissionConfig::ghost(64));
    cfg.working_set = 64;
    cfg.shards = 4;
    let mut h = CrashHarness::new(&cfg);
    h.drive(0, 24, 1);

    let live = h.cache().wear_totals();
    assert!(live.spill_rejects > 0, "filter never engaged");
    assert!(live.ssd_pages_written > 0, "SSD tier never written");

    let segments = h.segment_images();
    let epochs = h.guest_epochs();

    // Full images: exact replay.
    let (recovered, _) = ShardedCache::recover(cfg.cache, &segments, &epochs);
    let w = recovered.wear_totals();
    assert_eq!(
        (w.ssd_pages_written, w.pages_admitted),
        (live.ssd_pages_written, live.pages_admitted),
        "full-image replay must reproduce the live wear totals exactly"
    );

    // Single-segment prefix cuts: monotone within the cut shard, never
    // above the live totals.
    for shard in 0..segments.len() {
        let mut prev = WearCounters::default();
        for &cut in Journal::record_boundaries(&segments[shard]).iter() {
            let mut segs = segments.clone();
            segs[shard].truncate(cut);
            let (recovered, _) = ShardedCache::recover(cfg.cache, &segs, &epochs);
            let w = recovered.wear_totals();
            assert_replayed_le(&prev, &w, &format!("shard {shard} cut {cut}"));
            assert_replayed_le(&w, &live, &format!("shard {shard} cut {cut} vs live"));
            prev = w;
        }
    }
}
