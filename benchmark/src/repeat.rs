//! `ddbench repeat`: the noise tooling. Runs every workload `--runs`
//! times (fresh process, another seed each time) in each of `--sets`
//! sets, exactly as the acceptance driver does, and prints per metric
//! the median, the quartiles and the relative spread (interquartile
//! distance over the median, by Python's `statistics.quantiles`).
//!
//! It refuses a bound narrower than the measured spread, checks that
//! no later set's median is worse than the first's by more than the
//! bound, asserts that the exact-count metrics of single-threaded runs
//! are *identical* between sets, and writes what it saw to
//! `benchmark/baseline/spread.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ddc_json::Json;

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, relative_spread};
use crate::{child_args, profile, Cli};

/// Metrics that are pure counts of the simulation: on a single-threaded
/// run they must repeat bit for bit.
const EXACT_WHEN_SINGLE_THREADED: [&str; 3] = ["hit_ratio", "sim_ops_per_sim_s", "ssd_write_amp"];

/// `workload → metric → one value per run`.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn repo_file(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// The `bound` of every end-to-end metric in `BENCHMARK.json`.
fn read_bounds(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = BTreeMap::new();
    for m in listed {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{name} has no bound"))?;
        bounds.insert(name.to_owned(), bound);
    }
    Ok(bounds)
}

/// The metrics of a run's last stdout line, or why it is not a result.
fn parse_result(stdout: &str) -> Result<BTreeMap<String, f64>, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = Json::parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run was not correct: {last}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result has no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{name} has no value"))
        })
        .collect()
}

/// How much worse `later` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(better: Better, first: f64, later: f64) -> f64 {
    let delta = match better {
        Better::Higher => first - later,
        Better::Lower => later - first,
    };
    delta / first.abs()
}

struct SetSummary {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
}

fn summarise(values: &[f64]) -> SetSummary {
    let [q1, _, q3] = quartiles(values);
    SetSummary {
        median: median(values),
        q1,
        q3,
        spread: relative_spread(values),
    }
}

/// Judges the collected sets against the bounds; prints the tables and
/// returns the problems found plus the JSON record of what was seen.
fn judge(
    sets: &[Samples],
    bounds: &BTreeMap<String, f64>,
    single_threaded: impl Fn(&str) -> bool,
) -> (Vec<String>, Json) {
    let mut problems = Vec::new();
    let mut record = Json::object();
    for workload in sets[0].keys() {
        println!("\n== {workload} ==");
        println!(
            "{:<20} {:>4} {:>16} {:>16} {:>16} {:>8} {:>7}  verdict",
            "metric", "set", "median", "q1", "q3", "spread", "bound"
        );
        let mut workload_record = Json::object();
        for def in &END_TO_END {
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let mut set_records = Vec::new();
            let mut first_median = None;
            for (i, set) in sets.iter().enumerate() {
                let values = &set[workload][def.name];
                let s = summarise(values);
                // setup_s is exempt from the spread rule (its median
                // across sets is still held to its bound).
                let verdict = if def.name == "setup_s" {
                    "exempt"
                } else if s.spread > bound {
                    problems.push(format!(
                        "{workload} {}: bound {bound} is narrower than the measured spread {:.4} (set {})",
                        def.name,
                        s.spread,
                        i + 1
                    ));
                    "REFUSED"
                } else if s.spread > bound / 3.0 {
                    "wide (> bound/3)"
                } else {
                    "ok"
                };
                println!(
                    "{:<20} {:>4} {:>16.6} {:>16.6} {:>16.6} {:>7.2}% {:>6.1}%  {verdict}",
                    def.name,
                    i + 1,
                    s.median,
                    s.q1,
                    s.q3,
                    s.spread * 100.0,
                    bound * 100.0
                );
                match first_median {
                    None => first_median = Some(s.median),
                    Some(first) => {
                        let worse = worsening(def.better, first, s.median);
                        if worse > bound {
                            problems.push(format!(
                                "{workload} {}: set {} median is {:.2}% worse than set 1 (bound {:.1}%)",
                                def.name,
                                i + 1,
                                worse * 100.0,
                                bound * 100.0
                            ));
                        }
                    }
                }
                let mut r = Json::object();
                r.set("median", s.median);
                r.set("q1", s.q1);
                r.set("q3", s.q3);
                r.set("spread", s.spread);
                set_records.push(r);
            }
            if single_threaded(workload) && EXACT_WHEN_SINGLE_THREADED.contains(&def.name) {
                let first = &sets[0][workload][def.name];
                for (i, set) in sets.iter().enumerate().skip(1) {
                    if set[workload][def.name] != *first {
                        problems.push(format!(
                            "{workload} {}: an exact-count metric differs between set 1 and set {} for the same seeds",
                            def.name,
                            i + 1
                        ));
                    }
                }
            }
            let mut m = Json::object();
            m.set("bound", bound);
            m.set("sets", set_records);
            workload_record.set(def.name, m);
        }
        record.set(workload.as_str(), workload_record);
    }
    (problems, record)
}

/// Runs the sets and judges them. Exit code 0 only when every run was
/// correct and every bound holds.
pub fn repeat(cli: &Cli) -> ExitCode {
    let bounds = match std::fs::read_to_string(repo_file("../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| read_bounds(&t))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("ddbench repeat: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = WORKLOADS
        .into_iter()
        .filter(|w| cli.workload == "all" || cli.workload == *w)
        .collect();
    let exe = std::env::current_exe().expect("path of this executable");
    println!(
        "ddbench repeat: sets={} runs={} seeds={}..{} seconds={} nproc={} | {} | commit {}{}",
        cli.sets,
        cli.runs,
        cli.seed,
        cli.seed + cli.runs as u64 - 1,
        cli.seconds,
        profile::nproc(),
        profile::rustc_version(),
        profile::git_commit(),
        if cli.smoke {
            " SMOKE (never record)"
        } else {
            ""
        }
    );

    let mut sets: Vec<Samples> = Vec::new();
    for set in 0..cli.sets {
        let mut samples = Samples::new();
        for workload in &workloads {
            for run in 0..cli.runs {
                let seed = cli.seed + run as u64;
                let output = Command::new(&exe)
                    .args(child_args(cli, workload, seed, false))
                    .output()
                    .expect("spawn ddbench");
                let stdout = String::from_utf8_lossy(&output.stdout);
                let metrics = match parse_result(&stdout) {
                    Ok(m) if output.status.success() => m,
                    other => {
                        eprintln!(
                            "ddbench repeat: {workload} seed {seed} failed ({other:?})\n{stdout}{}",
                            String::from_utf8_lossy(&output.stderr)
                        );
                        return ExitCode::from(1);
                    }
                };
                eprintln!("set {} {workload} seed {seed}: done", set + 1);
                let by_metric = samples.entry((*workload).to_owned()).or_default();
                for (name, value) in metrics {
                    by_metric.entry(name).or_default().push(value);
                }
            }
        }
        sets.push(samples);
    }

    let threads = cli
        .threads
        .unwrap_or_else(crate::workloads::default_threads);
    let (problems, record) = judge(&sets, &bounds, |w| w == "paper-fourapps" || threads == 1);

    if !cli.smoke && cli.workload == "all" {
        let mut doc = Json::object();
        doc.set("sets", cli.sets);
        doc.set("runs", cli.runs);
        doc.set("first_seed", cli.seed);
        doc.set("seconds", cli.seconds);
        doc.set("nproc", profile::nproc());
        doc.set("rustc", profile::rustc_version());
        doc.set("commit", profile::git_commit());
        doc.set("workloads", record);
        let path = repo_file("baseline/spread.json");
        let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
            .and_then(|()| std::fs::write(&path, doc.to_string_pretty() + "\n"));
        match written {
            Ok(()) => println!("\nobserved spreads written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!();
    if problems.is_empty() {
        println!("every bound holds: spreads within bounds, set medians agree");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("PROBLEM: {p}");
        }
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(workload: &str, per_metric: &[(&str, Vec<f64>)]) -> Samples {
        let mut by_metric = BTreeMap::new();
        for def in &END_TO_END {
            by_metric.insert(def.name.to_owned(), vec![1.0, 1.0, 1.0, 1.0]);
        }
        for (name, values) in per_metric {
            by_metric.insert((*name).to_owned(), values.clone());
        }
        Samples::from([(workload.to_owned(), by_metric)])
    }

    fn bounds() -> BTreeMap<String, f64> {
        END_TO_END
            .iter()
            .map(|d| (d.name.to_owned(), 0.1))
            .collect()
    }

    #[test]
    fn reads_bounds_and_results() {
        let text =
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#;
        assert_eq!(read_bounds(text).unwrap()["setup_s"], 0.25);
        assert!(read_bounds("{}").is_err());
        let line = "noise\n{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"s\"}}}";
        assert_eq!(parse_result(line).unwrap()["a"], 1.5);
        assert!(parse_result(&line.replace("true", "false")).is_err());
        assert!(parse_result("").is_err());
        assert!(parse_result("not json").is_err());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn refuses_a_bound_narrower_than_the_spread() {
        let steady = samples(
            "engine-batched",
            &[("ops_per_s", vec![100.0, 101.0, 100.5, 100.2])],
        );
        let (problems, _) = judge(&[steady], &bounds(), |_| false);
        assert_eq!(problems, [] as [String; 0]);

        let noisy = samples(
            "engine-batched",
            &[("ops_per_s", vec![100.0, 150.0, 60.0, 120.0])],
        );
        let (problems, _) = judge(&[noisy], &bounds(), |_| false);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("narrower than the measured spread"),
            "{problems:?}"
        );

        // setup_s is exempt from the spread rule...
        let setup = samples("engine-batched", &[("setup_s", vec![1.0, 2.0, 0.5, 1.5])]);
        assert!(judge(&[setup], &bounds(), |_| false).0.is_empty());
    }

    #[test]
    fn compares_set_medians_in_the_metric_direction() {
        let first = samples(
            "engine-batched",
            &[("ops_per_s", vec![100.0; 4]), ("setup_s", vec![1.0; 4])],
        );
        let slower = samples(
            "engine-batched",
            &[("ops_per_s", vec![80.0; 4]), ("setup_s", vec![1.0; 4])],
        );
        let faster = samples(
            "engine-batched",
            &[("ops_per_s", vec![120.0; 4]), ("setup_s", vec![2.0; 4])],
        );
        let (problems, _) = judge(&[first.clone(), slower], &bounds(), |_| false);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("ops_per_s"));
        // ...but not from the median rule.
        let (problems, _) = judge(&[first, faster], &bounds(), |_| false);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("setup_s"));
    }

    #[test]
    fn exact_counts_must_be_identical_on_single_threaded_runs() {
        let a = samples(
            "paper-fourapps",
            &[("hit_ratio", vec![0.5, 0.51, 0.52, 0.5])],
        );
        let b = samples(
            "paper-fourapps",
            &[("hit_ratio", vec![0.5, 0.51, 0.52, 0.5000001])],
        );
        let (problems, record) = judge(&[a.clone(), b.clone()], &bounds(), |_| true);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("exact-count"));
        assert!(judge(&[a.clone(), b], &bounds(), |_| false).0.is_empty());
        assert!(judge(&[a.clone(), a], &bounds(), |_| true).0.is_empty());
        let sets = record
            .get("paper-fourapps")
            .and_then(|w| w.get("hit_ratio"))
            .and_then(|m| m.get("sets"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(sets.len(), 2);
    }
}
