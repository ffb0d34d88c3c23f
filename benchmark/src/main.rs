//! `ddbench` — the DoubleDecker reproduction's benchmark of record.
//!
//! ```text
//! ddbench run    --workload <name>|all [--seed N] [--seconds S] [--threads T] [--smoke]
//! ddbench trace  --workload <name>|all [--seed N] [--seconds S] [--threads T] [--smoke] [--dump-spans]
//! ddbench repeat [--sets 2] [--runs 10] [--workload <name>|all] [--seed N] [--seconds S] [--smoke]
//! ddbench --workload <name> --seed N --seconds S --trace 0|1      (the acceptance driver's form)
//! ```
//!
//! `run` prints every end-to-end metric by name with its unit, checks
//! the outputs and exits non-zero on a correctness failure; `trace` is
//! the separate traced run that yields the per-layer metrics. Both end
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` for what each workload and metric means.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ladder;
mod profile;
mod repeat;
mod spec;
mod stats;
mod trace;
mod workloads;
mod wrappers;

use std::process::{Command, ExitCode};

use ddc_json::Json;

use spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Args, Outcome};

/// Seed used when none is given. Claims are checked on
/// [`HELD_OUT_SEED`] as well, which no one tunes against.
const DEFAULT_SEED: u64 = 1;
/// The held-out seed (see README.md).
const HELD_OUT_SEED: u64 = 20_170_912;
/// Requested timed seconds when none are given; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 15;

fn usage() -> String {
    format!(
        "usage:
  ddbench run    --workload <name>|all [--seed N] [--seconds S] [--threads T] [--smoke]
  ddbench trace  --workload <name>|all [--seed N] [--seconds S] [--threads T] [--smoke] [--dump-spans]
  ddbench repeat [--sets 2] [--runs 10] [--workload <name>|all] [--seed N] [--seconds S] [--smoke]
  ddbench --workload <name> --seed N --seconds S --trace 0|1
workloads: {}
seeds: {DEFAULT_SEED} by default; check a claim on the held-out seed {HELD_OUT_SEED} too",
        WORKLOADS.join(" ")
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Run,
    Trace,
    Repeat,
}

#[derive(Debug)]
struct Cli {
    mode: Mode,
    workload: String,
    seed: u64,
    seconds: u64,
    threads: Option<usize>,
    smoke: bool,
    dump_spans: bool,
    sets: usize,
    runs: usize,
}

fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Run,
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        threads: None,
        smoke: false,
        dump_spans: false,
        sets: 2,
        runs: 10,
    };
    let mut rest = argv.iter();
    match argv.first().map(String::as_str) {
        Some("run") => _ = rest.next(),
        Some("trace") => {
            cli.mode = Mode::Trace;
            rest.next();
        }
        Some("repeat") => {
            cli.mode = Mode::Repeat;
            cli.workload = "all".to_owned();
            rest.next();
        }
        Some(flag) if flag.starts_with("--") => {}
        _ => return Err("expected a command or --workload".to_owned()),
    }
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value("a workload name")?,
            "--seed" => cli.seed = number(flag, value("a number")?)?,
            "--seconds" => cli.seconds = number(flag, value("a number")?)?,
            "--threads" => cli.threads = Some(number(flag, value("a number")?)?),
            "--sets" => cli.sets = number(flag, value("a number")?)?,
            "--runs" => cli.runs = number(flag, value("a number")?)?,
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => cli.mode = Mode::Run,
                "1" => cli.mode = Mode::Trace,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--smoke" => cli.smoke = true,
            "--dump-spans" => cli.dump_spans = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cli.workload));
    }
    if !(1..=60).contains(&cli.seconds) {
        return Err("--seconds must be 1..=60".to_owned());
    }
    if cli.mode == Mode::Repeat && (cli.sets == 0 || cli.runs < 2) {
        return Err("repeat needs --sets >= 1 and --runs >= 2".to_owned());
    }
    Ok(cli)
}

/// Client threads for `workload`: the sizing guard refuses more
/// clients than cores, where threads would measure the scheduler.
fn client_threads(cli: &Cli, workload: &str) -> Result<usize, String> {
    if workload == "paper-fourapps" {
        return Ok(1);
    }
    let nproc = profile::nproc();
    let threads = cli.threads.unwrap_or_else(workloads::default_threads);
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads {threads}: {workload} needs 1..={nproc} client threads on this machine (nproc = {nproc})"
        ));
    }
    Ok(threads)
}

/// Prints the result of one workload; the last line is the JSON the
/// acceptance driver reads. Returns whether the run was correct.
fn print_result(mode: Mode, args: &Args, out: &Outcome) -> bool {
    let (kind, defs): (&str, &[MetricDef]) = match mode {
        Mode::Trace => ("trace", &PER_LAYER),
        _ => ("run", &END_TO_END),
    };
    println!(
        "ddbench {kind}: workload={} seed={} seconds={} client_threads={} nproc={}{}",
        args.workload,
        args.seed,
        args.seconds,
        args.threads,
        profile::nproc(),
        if args.smoke {
            " SMOKE (1 % of the work; never record these numbers)"
        } else {
            ""
        }
    );
    println!(
        "profile: {} | commit {} | load model: closed loop",
        profile::rustc_version(),
        profile::git_commit()
    );
    let info: Vec<String> = out.info.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("sizes: {}", info.join(" "));
    println!("{:<36} {:>20}  {:<9} better", "metric", "value", "unit");
    let mut metrics = Json::object();
    for def in defs {
        let value = out.metrics.get(def.name).copied();
        let shown = match value {
            Some(v) => format!("{v:.6}"),
            None if mode == Mode::Trace => "n/a".to_owned(),
            None => panic!("{} did not report {}", args.workload, def.name),
        };
        println!(
            "{:<36} {:>20}  {:<9} {}",
            def.name,
            shown,
            def.unit,
            def.better.as_str()
        );
        let mut m = Json::object();
        m.set("value", value.unwrap_or(0.0));
        m.set("unit", def.unit);
        metrics.set(def.name, m);
    }
    let failed = out.failed();
    println!("ops attempted: {}  ops failed: {failed}", out.attempted);
    for (reason, count) in &out.failures {
        println!("FAILED: {count} × {reason}");
    }
    let mut line = Json::object();
    line.set("correct", failed == 0);
    line.set("attempted", out.attempted.max(1));
    line.set("failed", failed);
    line.set("metrics", metrics);
    println!("{}", line.to_string_compact());
    failed == 0
}

/// The arguments that make a child `ddbench` run one workload the way
/// `cli` asks, in the acceptance driver's form.
fn child_args(cli: &Cli, workload: &str, seed: u64, traced: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &cli.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]
    .map(str::to_owned)
    .into();
    if let Some(t) = cli.threads {
        args.extend(["--threads".to_owned(), t.to_string()]);
    }
    if cli.smoke {
        args.push("--smoke".to_owned());
    }
    if cli.dump_spans {
        args.push("--dump-spans".to_owned());
    }
    args
}

/// Runs every workload in a process of its own (so `peak_rss_mb` is
/// one workload's), passing their output through.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(child_args(cli, workload, cli.seed, cli.mode == Mode::Trace))
            .status()
            .expect("spawn ddbench");
        ok &= status.success();
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ddbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.mode == Mode::Repeat {
        return repeat::repeat(&cli);
    }
    if cli.workload == "all" {
        return run_all(&cli);
    }
    let threads = match client_threads(&cli, &cli.workload) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ddbench: {e}");
            return ExitCode::from(2);
        }
    };
    let args = Args {
        workload: cli.workload.clone(),
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        threads,
        dump_spans: cli.dump_spans,
    };
    let out = match cli.mode {
        Mode::Trace => workloads::trace(&args),
        _ => workloads::run(&args),
    };
    if print_result(cli.mode, &args, &out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_form() {
        let cli = parse(&argv(
            "--workload engine-batched --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.mode, Mode::Trace);
        assert_eq!(
            (cli.workload.as_str(), cli.seed, cli.seconds),
            ("engine-batched", 7, 10)
        );
        let cli = parse(&argv(
            "--workload paper-fourapps --seed 3 --seconds 5 --trace 0",
        ))
        .unwrap();
        assert_eq!(cli.mode, Mode::Run);
    }

    #[test]
    fn parses_the_commands() {
        let cli = parse(&argv("run --workload all --smoke")).unwrap();
        assert_eq!(
            (cli.mode, cli.smoke, cli.seed),
            (Mode::Run, true, DEFAULT_SEED)
        );
        assert_eq!(cli.seconds, DEFAULT_SECONDS);
        let cli = parse(&argv(
            "trace --workload guest-read-evict --dump-spans --threads 1",
        ))
        .unwrap();
        assert_eq!(
            (cli.mode, cli.dump_spans, cli.threads),
            (Mode::Trace, true, Some(1))
        );
        let cli = parse(&argv("repeat --sets 3 --runs 5")).unwrap();
        assert_eq!((cli.mode, cli.sets, cli.runs), (Mode::Repeat, 3, 5));
        assert_eq!(cli.workload, "all");
        assert!(usage().contains(&HELD_OUT_SEED.to_string()));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "run",
            "run --workload nope",
            "frobnicate --workload all",
            "run --workload all --seconds 0",
            "run --workload all --seconds 61",
            "run --workload all --seed x",
            "run --workload all --trace 2",
            "run --workload",
            "repeat --runs 1",
            "run --workload all --bogus",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sizing_guard_refuses_more_clients_than_cores() {
        let mut cli = parse(&argv("run --workload guest-read-evict")).unwrap();
        cli.threads = Some(profile::nproc() + 1);
        assert!(client_threads(&cli, "guest-read-evict").is_err());
        assert_eq!(client_threads(&cli, "paper-fourapps"), Ok(1));
        cli.threads = Some(0);
        assert!(client_threads(&cli, "engine-batched").is_err());
        cli.threads = None;
        let t = client_threads(&cli, "engine-batched").unwrap();
        assert!((1..=2).contains(&t) && t <= profile::nproc());
    }

    /// The exit code follows the oracles: any failed op makes the run
    /// incorrect, and the JSON line says so.
    #[test]
    fn a_failed_op_makes_the_result_incorrect() {
        let args = Args {
            workload: "engine-batched".to_owned(),
            seed: 1,
            seconds: 1,
            smoke: true,
            threads: 1,
            dump_spans: false,
        };
        let mut out = Outcome::default();
        for def in &END_TO_END {
            out.set(def.name, 1.0);
        }
        out.attempted = 10;
        assert!(print_result(Mode::Run, &args, &out));
        out.fail("stale second-chance hits", 1);
        assert!(!print_result(Mode::Run, &args, &out));
    }
}
