//! `repro wear` — the SSD endurance plane scenario matrix (DESIGN.md §17).
//!
//! Three deterministic tenant mixes exercise the selective-admission
//! plane that gates the mem→SSD spill path:
//!
//! * **write-heavy** — tenants re-dirty a hot set much larger than the
//!   memory entitlement, so the same blocks spill over and over. The
//!   ghost filter absorbs the re-put storm (a resident block's re-put
//!   is rejected with the old copy left in place), charging the flash
//!   roughly one write per *consumed* block instead of one per put.
//! * **scan-polluted** — a one-touch sequential scan rides alongside a
//!   modest hot set. Admit-all lets the scan roll the SSD FIFO and
//!   evict the hot set; the filter never admits a block on its first
//!   sighting, so the scan earns zero SSD writes.
//! * **phase-change** — the hot set jumps to a disjoint range mid-run
//!   and a TTL sweep demotes the abandoned phase-one residue instead of
//!   letting it squat on the SSD until capacity eviction finds it.
//!
//! Every mix runs twice — admit-all ([`AdmissionConfig::off`]) and
//! filtered (ghost window, plus TTL on the phase-change mix) — and each
//! variant runs on the serial engine twice (same-seed rerun) and on the
//! 8-shard engine. All three reports must be byte-identical: admission
//! decisions are per-pool functions of the spill-attempt sequence, so
//! the determinism contract extends to the endurance plane unchanged.
//!
//! Gates: on the write-heavy and scan-polluted mixes the filtered
//! variant must cut SSD writes by at least [`MIN_REDUCTION_PCT`] at an
//! equal-or-better hit count; the phase-change mix must show the TTL
//! sweep actually demoting; no variant may raise SSD writes; the
//! runtime auditor must stay silent everywhere. Every counter here is
//! a function of the seed, so the full report is golden: `repro all`
//! must reproduce `results/wear.json` byte for byte, and one extra SSD
//! write on any mix is a diff of that file.

use ddc_core::concurrent::ShardedCache;
use ddc_core::hypercache::Engine;
use ddc_core::metrics::snapshot_json;
use ddc_core::prelude::*;
use ddc_core::storage::WearCounters;
use ddc_json::Json;

/// JSON schema tag of the wear report.
pub const SCHEMA: &str = "ddc-wear-v1";

/// Default master seed of the workload generator.
pub const DEFAULT_SEED: u64 = 0x5EAD;

/// Ghost-filter window (spill attempts per pool) of the filtered runs.
pub const GHOST_WINDOW: u32 = 8192;

/// TTL (per-pool insert distance) of the phase-change mix's filtered
/// run; the other mixes run with demotion off. Low enough that the
/// abandoned phase-one residue ages out within the smoke run's
/// post-change half (admitted inserts arrive at roughly a dozen per
/// pool-tick, so this is ~85 ticks of idle residency).
pub const PHASE_TTL: u64 = 1024;

/// Shard count of the sharded-engine identity runs.
pub const SHARDS: usize = 8;

/// Minimum SSD-write reduction (percent) the filtered variant must
/// deliver on the gated mixes.
pub const MIN_REDUCTION_PCT: f64 = 40.0;

/// Memory-tier capacity (pages) of every wear run.
pub const MEM_PAGES: u64 = 256;

/// SSD-tier capacity (pages) of every wear run.
pub const SSD_PAGES: u64 = 2048;

/// One tenant mix of the matrix.
#[derive(Clone, Copy, Debug)]
pub struct MixSpec {
    /// Stable mix name.
    pub name: &'static str,
    /// Simulated ticks.
    pub ticks: u64,
    /// Tenants (one hybrid pool each, equal weight).
    pub vms: u32,
    /// Hot-set size per tenant, in pages.
    pub hot_pages: u64,
    /// Hot-set puts per tenant per tick.
    pub hot_puts: u64,
    /// One-touch sequential scan puts per tenant per tick.
    pub scan_puts: u64,
    /// Hot-set gets per tenant per tick.
    pub gets: u64,
    /// Whether the hot set jumps to a disjoint range at `ticks / 2`.
    pub phase_change: bool,
    /// TTL of the filtered variant (0 = demotion off).
    pub ttl: u64,
    /// Whether the ≥[`MIN_REDUCTION_PCT`] / equal-or-better-hits gate
    /// applies (the phase-change mix is reported, not reduction-gated).
    pub gated: bool,
}

/// The scenario matrix. `--smoke` shortens the runs; the mixes keep
/// their shape (entitlement pressure and scan ratios are per-tick).
pub fn mixes(smoke: bool) -> Vec<MixSpec> {
    let t = if smoke { 250 } else { 1000 };
    vec![
        MixSpec {
            name: "write_heavy",
            ticks: t,
            vms: 2,
            hot_pages: 640,
            hot_puts: 24,
            scan_puts: 16,
            gets: 8,
            phase_change: false,
            ttl: 0,
            gated: true,
        },
        MixSpec {
            name: "scan_polluted",
            ticks: t,
            vms: 2,
            hot_pages: 384,
            hot_puts: 8,
            scan_puts: 40,
            gets: 16,
            phase_change: false,
            ttl: 0,
            gated: true,
        },
        MixSpec {
            name: "phase_change",
            ticks: t,
            vms: 2,
            hot_pages: 448,
            hot_puts: 16,
            scan_puts: 8,
            gets: 12,
            phase_change: true,
            ttl: PHASE_TTL,
            gated: false,
        },
    ]
}

/// One engine pass over one (mix, variant) cell.
struct EngineRun {
    /// Canonical report — engine-agnostic on purpose, so serial and
    /// sharded passes can be compared byte for byte.
    json: String,
    wear: WearCounters,
    hits: u64,
    gets: u64,
    audit_findings: u64,
}

fn block_addr(file: u64, block: u64) -> BlockAddr {
    BlockAddr::new(FileId(file), block)
}

/// Drives one engine through one mix under one admission config. The
/// op stream is a pure function of `(mix, seed)` — identical across
/// engines and variants, so hit counts compare apples to apples.
fn run_engine<E: Engine>(mix: &MixSpec, admission: AdmissionConfig, seed: u64) -> EngineRun {
    let cfg = CacheConfig::mem_and_ssd(MEM_PAGES, SSD_PAGES).with_admission(admission);
    let mut eng = E::build(cfg, SHARDS);
    let mut pools: Vec<(VmId, PoolId)> = Vec::new();
    let mut rngs: Vec<SimRng> = Vec::new();
    let mut scan_cursor: Vec<u64> = Vec::new();
    let mut master = SimRng::new(seed);
    for v in 1..=mix.vms {
        let vm = VmId(v);
        eng.add_vm(vm, 100);
        let pool = eng.create_pool(vm, CachePolicy::hybrid(100));
        pools.push((vm, pool));
        rngs.push(master.fork(u64::from(v)));
        scan_cursor.push(0);
    }

    let (mut hits, mut gets) = (0u64, 0u64);
    for tick in 0..mix.ticks {
        let now = SimTime::from_nanos(tick + 1);
        // Hit accounting starts after a warmup quarter: the ghost
        // filter charges every block one probation pass on its very
        // first spill, a cold-start transient the steady-state
        // hit-ratio gate is not about (the wear counters still cover
        // the whole run, warmup included).
        let measured = tick >= mix.ticks / 4;
        let hot_base = if mix.phase_change && tick >= mix.ticks / 2 {
            mix.hot_pages
        } else {
            0
        };
        for (i, &(vm, pool)) in pools.iter().enumerate() {
            let hot_file = u64::from(vm.0) * 10 + 1;
            let scan_file = u64::from(vm.0) * 10 + 2;
            for _ in 0..mix.hot_puts {
                let b = hot_base + rngs[i].next_below(mix.hot_pages);
                eng.put(now, vm, pool, block_addr(hot_file, b), PageVersion(1));
            }
            for _ in 0..mix.scan_puts {
                let b = scan_cursor[i];
                scan_cursor[i] += 1;
                eng.put(now, vm, pool, block_addr(scan_file, b), PageVersion(1));
            }
            for _ in 0..mix.gets {
                let b = hot_base + rngs[i].next_below(mix.hot_pages);
                let outcome = eng.get(now, vm, pool, block_addr(hot_file, b));
                if measured {
                    gets += 1;
                    if let GetOutcome::Hit { .. } = outcome {
                        hits += 1;
                    }
                }
            }
        }
        if admission.ssd_ttl > 0 {
            eng.ttl_sweep();
        }
    }

    let audit_findings = eng.audit().len() as u64;
    let wear = eng.wear_totals();
    let mut root = Json::object();
    root.set("schema", SCHEMA);
    root.set("mix", mix.name);
    root.set(
        "variant",
        if admission.filters_spills() {
            "filtered"
        } else {
            "admit_all"
        },
    );
    root.set("wear", snapshot_json(&wear));
    let mut per_vm = Vec::new();
    for &(vm, pool) in &pools {
        let mut row = Json::object();
        row.set("vm", u64::from(vm.0));
        row.set("wear", snapshot_json(&eng.vm_wear(vm)));
        if let Some(s) = eng.pool_stats(vm, pool) {
            row.set("mem_pages", s.mem_pages);
            row.set("ssd_pages", s.ssd_pages);
            row.set("puts", s.puts);
            row.set("gets", s.gets);
            row.set("hits", s.hits);
            row.set("ssd_writes", s.ssd_writes);
        }
        per_vm.push(row);
    }
    root.set("tenants", Json::Arr(per_vm));
    root.set("hits", hits);
    root.set("gets", gets);
    root.set("audit_findings", audit_findings);

    EngineRun {
        json: root.to_string_pretty(),
        wear,
        hits,
        gets,
        audit_findings,
    }
}

/// One admission variant of a mix, with its identity verdicts.
#[derive(Clone, Debug)]
pub struct VariantResult {
    /// `"admit_all"` or `"filtered"`.
    pub variant: &'static str,
    /// Device wear totals of the (serial) run.
    pub wear: WearCounters,
    /// Hot-set get hits.
    pub hits: u64,
    /// Hot-set gets issued.
    pub gets: u64,
    /// Serial and 8-shard reports were byte-identical.
    pub identical: bool,
    /// A same-seed serial rerun reproduced the report byte-for-byte.
    pub rerun_identical: bool,
    /// Auditor findings summed over all three passes. Gate: 0.
    pub audit_findings: u64,
    /// Canonical report JSON (engine-agnostic).
    pub json: String,
}

fn run_variant(mix: &MixSpec, admission: AdmissionConfig, seed: u64) -> VariantResult {
    let a = run_engine::<DoubleDeckerCache>(mix, admission, seed);
    let rerun = run_engine::<DoubleDeckerCache>(mix, admission, seed);
    let sharded = run_engine::<ShardedCache>(mix, admission, seed);
    VariantResult {
        variant: if admission.filters_spills() {
            "filtered"
        } else {
            "admit_all"
        },
        wear: a.wear,
        hits: a.hits,
        gets: a.gets,
        identical: a.json == sharded.json,
        rerun_identical: a.json == rerun.json,
        audit_findings: a.audit_findings + rerun.audit_findings + sharded.audit_findings,
        json: a.json,
    }
}

/// Both variants of one mix plus the per-mix gate verdicts.
#[derive(Clone, Debug)]
pub struct MixResult {
    /// The mix that ran.
    pub spec: MixSpec,
    /// Admit-everything reference.
    pub admit_all: VariantResult,
    /// Ghost-filtered (and possibly TTL-demoting) variant.
    pub filtered: VariantResult,
    /// SSD-write reduction of filtered over admit-all, in percent.
    pub reduction_pct: f64,
    /// Human-readable gate failures; empty means the mix passed.
    pub failures: Vec<String>,
}

impl MixResult {
    /// Whether every gate of this mix held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn judge(spec: MixSpec, admit_all: VariantResult, filtered: VariantResult) -> MixResult {
    let base_writes = admit_all.wear.ssd_pages_written;
    let filt_writes = filtered.wear.ssd_pages_written;
    let reduction_pct = if base_writes == 0 {
        0.0
    } else {
        (base_writes - filt_writes.min(base_writes)) as f64 * 100.0 / base_writes as f64
    };
    let mut failures = Vec::new();
    for v in [&admit_all, &filtered] {
        if !v.identical {
            failures.push(format!("{}: serial vs sharded reports differ", v.variant));
        }
        if !v.rerun_identical {
            failures.push(format!("{}: same-seed rerun differs", v.variant));
        }
        if v.audit_findings != 0 {
            failures.push(format!(
                "{}: {} auditor findings",
                v.variant, v.audit_findings
            ));
        }
    }
    let w = &filtered.wear;
    if w.spill_admits + w.spill_rejects != w.spill_attempts {
        failures.push("filtered: ghost decisions do not sum to attempts".to_owned());
    }
    if filt_writes > base_writes {
        failures.push("filtered variant increased SSD writes".to_owned());
    }
    if spec.gated {
        if reduction_pct < MIN_REDUCTION_PCT {
            failures.push(format!(
                "SSD-write reduction {reduction_pct:.1}% < {MIN_REDUCTION_PCT:.0}% gate"
            ));
        }
        if filtered.hits < admit_all.hits {
            failures.push(format!(
                "hit count regressed: filtered {} < admit-all {}",
                filtered.hits, admit_all.hits
            ));
        }
    }
    if spec.ttl > 0 && w.ttl_demotions == 0 {
        failures.push("TTL sweep never demoted anything".to_owned());
    }
    MixResult {
        spec,
        admit_all,
        filtered,
        reduction_pct,
        failures,
    }
}

/// Runs the full matrix. Cells (mix × variant) fan out across the
/// experiment worker pool; results are deterministic regardless of
/// `DDC_THREADS`.
pub fn run_matrix(smoke: bool, seed: u64) -> Vec<MixResult> {
    let specs = mixes(smoke);
    let mut cells: Vec<(MixSpec, bool)> = Vec::new();
    for &spec in &specs {
        cells.push((spec, false));
        cells.push((spec, true));
    }
    let runs = ddc_core::parallel::run_cells(cells, move |(spec, filtered)| {
        let admission = if filtered {
            AdmissionConfig {
                ghost_window: GHOST_WINDOW,
                ssd_ttl: spec.ttl,
            }
        } else {
            AdmissionConfig::off()
        };
        run_variant(&spec, admission, seed)
    });
    specs
        .into_iter()
        .zip(runs.chunks_exact(2).map(<[VariantResult]>::to_vec))
        .map(|(spec, pair)| judge(spec, pair[0].clone(), pair[1].clone()))
        .collect()
}

/// Serializes the full report (per-mix variant reports + verdicts).
pub fn to_json(results: &[MixResult], smoke: bool) -> String {
    let mut root = Json::object();
    root.set("schema", SCHEMA);
    root.set("smoke", smoke);
    let mut rows = Vec::new();
    for r in results {
        let mut row = Json::object();
        row.set("mix", r.spec.name);
        row.set("reduction_pct", r.reduction_pct);
        row.set("ok", r.ok());
        row.set(
            "admit_all",
            Json::parse(&r.admit_all.json).expect("self-produced json"),
        );
        row.set(
            "filtered",
            Json::parse(&r.filtered.json).expect("self-produced json"),
        );
        rows.push(row);
    }
    root.set("mixes", Json::Arr(rows));
    root.to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke matrix holds every gate — identity, auditor silence,
    /// the reduction/hit gates — and its report is a function of the
    /// seed alone, which is what lets `results/wear.json` gate it.
    #[test]
    fn smoke_matrix_passes_gates() {
        let results = run_matrix(true, DEFAULT_SEED);
        for r in &results {
            assert!(r.ok(), "{}: {:?}", r.spec.name, r.failures);
        }
        let again = run_matrix(true, DEFAULT_SEED);
        assert_eq!(to_json(&results, true), to_json(&again, true));
    }
}
