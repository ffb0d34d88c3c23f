//! Parallel-vs-serial determinism: fanning experiment cells across
//! worker threads must not change a single byte of any report.
//!
//! Each cell is a self-contained simulation, so correctness rests on two
//! properties the parallel engine guarantees: no shared mutable state
//! between cells, and results re-ordered by input index at the join.
//! These tests run the same cell batches serially (`threads = 1`) and in
//! parallel (`threads = 4`, more workers than this machine may have
//! cores — oversubscription is the harder case) and compare full report
//! JSON bytes. The last test does the same for `repro work`'s matrix,
//! whose rows are golden in `results/work.json`.

use ddc_core::parallel::run_cells_with;
use ddc_core::scenario::{self, ScenarioSpec};

fn spec(name: &str, mode: &str, duration_secs: u64, threads: u64) -> String {
    format!(
        r#"{{
            "name": "{name}",
            "duration_secs": {duration_secs},
            "cache": {{ "mem_mb": 24, "ssd_mb": 32, "mode": "{mode}" }},
            "vms": [
                {{ "mem_mb": 24, "weight": 100, "containers": [
                    {{ "name": "{name}-web", "limit_mb": 12, "policy": {{ "store": "mem", "weight": 100 }},
                       "workload": {{ "kind": "webserver", "files": 40 }}, "threads": {threads} }},
                    {{ "name": "{name}-db", "limit_mb": 12, "policy": {{ "store": "ssd", "weight": 50 }},
                       "workload": {{ "kind": "oltp", "data_blocks": 256 }} }}
                ] }},
                {{ "mem_mb": 16, "weight": 50, "containers": [
                    {{ "name": "{name}-mail", "limit_mb": 8, "policy": {{ "store": "hybrid", "weight": 100 }},
                       "workload": {{ "kind": "mail", "files": 30 }} }}
                ] }}
            ]
        }}"#
    )
}

fn sweep() -> Vec<ScenarioSpec> {
    [
        spec("a", "doubledecker", 20, 2),
        spec("b", "global", 15, 1),
        spec("c", "strict", 10, 1),
        spec("d", "doubledecker", 5, 3),
        spec("e", "global", 25, 2),
        spec("f", "strict", 15, 2),
    ]
    .iter()
    .map(|s| ScenarioSpec::from_json(s).expect("valid spec"))
    .collect()
}

fn run_reports(threads: usize) -> Vec<String> {
    run_cells_with(threads, sweep(), |spec| {
        scenario::run(&spec).expect("scenario runs").to_json()
    })
}

#[test]
fn parallel_scenario_sweep_is_byte_identical_to_serial() {
    let serial = run_reports(1);
    let parallel = run_reports(4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "report {i} differs between serial and parallel runs");
    }
}

#[test]
fn parallel_runs_are_stable_across_repeats() {
    // Two parallel executions race differently but must still agree:
    // determinism lives inside each cell, not in scheduling order.
    assert_eq!(run_reports(4), run_reports(4));
}

#[test]
fn results_keep_input_order_under_parallelism() {
    // Cell costs are deliberately uneven (5..25 virtual seconds), so a
    // naive completion-order collection would reorder them.
    let specs = sweep();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let reports = run_cells_with(4, specs, |spec| {
        let report = scenario::run(&spec).expect("scenario runs");
        (spec.name.clone(), report)
    });
    let got: Vec<String> = reports.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(got, names);
}

#[test]
fn work_matrix_is_byte_identical_across_reruns_and_worker_counts() {
    use ddc_bench::scenarios::perf;
    let serial = perf::to_json(perf::run_work_with(1, true), true);
    assert_eq!(serial, perf::to_json(perf::run_work_with(1, true), true));
    assert_eq!(serial, perf::to_json(perf::run_work_with(8, true), true));
}
