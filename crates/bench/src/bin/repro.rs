//! `repro` — regenerates every table and figure of the DoubleDecker
//! paper's evaluation, printing paper-style tables and ASCII occupancy
//! charts, optionally dumping JSON reports.
//!
//! ```sh
//! cargo run --release -p ddc-bench --bin repro -- all
//! cargo run --release -p ddc-bench --bin repro -- fig8 --json out/
//! cargo run --release -p ddc-bench --bin repro -- table2 --secs 120
//! ```

use std::env;
use std::fs;
use std::path::PathBuf;

use ddc_bench::scenarios::common::{print_series, to_mb, FourKind};
use ddc_bench::scenarios::{
    ablations, chaos, cooperative, dynamic, faults, modes, motivation, perf, policies, remote,
    splits, stress, wear,
};
use ddc_core::prelude::*;

struct Args {
    command: String,
    secs: Option<u64>,
    json_dir: Option<PathBuf>,
    smoke: bool,
    read_heavy: bool,
    write_heavy: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_owned(),
        secs: None,
        json_dir: None,
        smoke: false,
        read_heavy: false,
        write_heavy: false,
    };
    let mut it = env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--secs" => {
                args.secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .or_else(|| panic!("--secs needs an integer"));
            }
            "--json" => {
                args.json_dir = Some(PathBuf::from(it.next().expect("--json needs a directory")));
            }
            "--smoke" => args.smoke = true,
            "--read-heavy" => args.read_heavy = true,
            "--write-heavy" => args.write_heavy = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            cmd if !cmd.starts_with('-') => args.command = cmd.to_owned(),
            other => panic!("unknown flag {other} (see --help)"),
        }
    }
    args
}

fn print_help() {
    println!(
        "repro — regenerate the DoubleDecker paper's tables and figures\n\n\
         usage: repro [COMMAND] [--secs N] [--json DIR]\n\n\
         --json DIR writes every report the command produces to DIR; the\n\
         committed results/ directory is `repro all --json` byte for byte.\n\n\
         commands:\n\
           fig3    per-container cache usage, containers run separately\n\
           fig4    non-deterministic sharing (same start + 200s-offset variants)\n\
           fig5    throughput vs in-VM:cache memory split (4 apps)\n\
           table1  guest memory diagnosis at the 1:1 split\n\
           fig8    occupancy under Global / DDMem / DDSSD\n\
           fig9    videoserver occupancy under the three modes\n\
           table2  throughput/latency/lookup-to-store/evictions per mode\n\
           fig10   speedups of DDMem/DDMemEx/DDHybrid over Global (+ Table 3)\n\
           fig11   occupancy under Global / DDMem / DDHybrid\n\
           table4  Morai++ (centralized) vs DoubleDecker (cooperative)\n\
           fig12   dynamic container policy changes\n\
           fig13   dynamic VM provisioning\n\
           ext     extensions: hybrid store, adaptive weights\n\
           faults  SSD brownout: graceful degradation and recovery\n\
           chaos   crash-and-recovery sweep over randomized journal prefixes,\n\
                   plus threaded-plane kills (per-shard segment cuts, 8-thread\n\
                   continuation) [--smoke]; exits non-zero on any stale read\n\
                   or invariant violation\n\
           stress  concurrent serving plane: serial-vs-sharded equivalence\n\
                   matrix + 1/2/4/8-thread stress [--smoke]\n\
                   [--read-heavy: 95/5 get/put mix, nearly every get a\n\
                   miss] [--write-heavy: put-dominant large-batch mix\n\
                   through the batched write plane]; exits non-zero on any\n\
                   divergence, stale read or finding\n\
           remote  remote chunk-store tier: fault-axis determinism matrix,\n\
                   degradation ladder (fault-free vs a brownout over the middle\n\
                   third, counted per third) and the cold-boot storm [--smoke];\n\
                   exits non-zero on any divergence, stale read or missed gate\n\
           wear    SSD endurance plane: ghost admission + TTL demotion over\n\
                   write-heavy / scan-polluted / phase-change tenant mixes\n\
                   [--smoke]; exits non-zero on a divergence or a missed\n\
                   reduction/hit gate\n\
           work    cache-ops matrix, each cell once: the exact work it does\n\
                   (ops, hits, evictions, journal bytes, hypercalls, lock\n\
                   visits ...) [--smoke]\n\
           all     everything above (default)\n\
           perf    the same matrix timed: min/median/max ns per op, printed\n\
                   and never gated [--smoke]\n\n\
         parallelism: independent experiment cells fan out across cores\n\
         (override worker count with DDC_THREADS=N; N=1 forces serial).\n"
    );
}

fn maybe_dump(args: &Args, name: &str, report: &ddc_core::ExperimentReport) {
    dump(args, name, &report.to_json());
}

/// Writes `json` to `DIR/name.json` when `--json DIR` was given.
fn dump(args: &Args, name: &str, json: &str) {
    if let Some(dir) = &args.json_dir {
        fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, json).expect("write json");
        println!("[json written to {}]", path.display());
    }
}

fn banner(title: &str) {
    println!("\n{}", "=".repeat(74));
    println!("== {title}");
    println!("{}", "=".repeat(74));
}

fn fig3(args: &Args) {
    banner("Fig 3: hypervisor cache usage, containers run SEPARATELY (Global mode)");
    let secs = SimTime::from_secs(args.secs.unwrap_or(120));
    for c in [1u8, 2] {
        let report = motivation::fig3_alone(c, secs);
        println!(
            "\ncontainer {c} alone ({} webserver threads):",
            if c == 1 { 2 } else { 3 }
        );
        print_series(&report, &[&format!("container{c} (MB)")]);
        maybe_dump(args, &format!("fig3_container{c}"), &report);
    }
    println!("shape check: each container alone ramps to the full cache capacity.");
}

fn fig4(args: &Args) {
    banner("Fig 4: non-deterministic sharing under the Global cache");
    let secs = SimTime::from_secs(args.secs.unwrap_or(150));
    let names = ["container1 (MB)", "container2 (MB)"];

    println!("\n(a) same start time:");
    let a = motivation::fig4_together(SimDuration::ZERO, secs);
    print_series(&a, &names);
    let end = secs.as_secs_f64();
    let c1 = a
        .series(names[0])
        .unwrap()
        .mean_in(end * 0.6, end)
        .unwrap_or(0.0);
    let c2 = a
        .series(names[1])
        .unwrap()
        .mean_in(end * 0.6, end)
        .unwrap_or(0.0);
    println!(
        "steady-state means: container1 {c1:.1} MB, container2 {c2:.1} MB (ratio {:.2})",
        c2 / c1.max(1e-9)
    );
    maybe_dump(args, "fig4a", &a);

    println!("\n(b) container 2 offset by 1/3 of the run:");
    let offset = SimDuration::from_secs(args.secs.unwrap_or(150) / 3);
    let b = motivation::fig4_together(offset, secs);
    print_series(&b, &names);
    maybe_dump(args, "fig4b", &b);
    println!(
        "shape check: (a) the 3-thread container holds ~2x the 2-thread one;\n\
         (b) container 1 dominates early, container 2 overtakes after its start."
    );
}

fn fig5(args: &Args) {
    banner("Fig 5: throughput vs in-VM:hypervisor-cache split");
    let secs = SimTime::from_secs(args.secs.unwrap_or(90));
    let sweep = splits::fig5_sweep(secs);
    let mut table = TextTable::new(vec![
        "split (VM:cache MiB)",
        "webserver",
        "redis",
        "mongodb",
        "mysql",
    ]);
    for (i, &container_mb) in splits::SPLITS_MB.iter().enumerate() {
        let mut row = vec![format!(
            "{container_mb}:{}",
            splits::BUDGET_MB - container_mb
        )];
        for app in splits::SplitApp::ALL {
            let (_, results) = sweep.iter().find(|(a, _)| *a == app).unwrap();
            row.push(format!("{:.0}", results[i].ops_per_sec));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "shape check (paper Fig 5): webserver & mongodb roughly flat across splits;\n\
         redis extreme at full-VM memory and collapsing at small shares; mysql degrades."
    );
}

fn table1(args: &Args) {
    banner("Table 1: guest OS metrics at the equal (1:1) split");
    let secs = SimTime::from_secs(args.secs.unwrap_or(90));
    let rows = splits::table1(secs);
    let mut table = TextTable::new(vec![
        "application",
        "swap used (MB)",
        "anon memory (MB)",
        "hypervisor cache (MB)",
    ]);
    for (app, r) in rows {
        table.row(vec![
            app.name().to_owned(),
            format!("{:.1}", to_mb(r.swapped_pages)),
            format!("{:.1}", to_mb(r.anon_pages)),
            format!("{:.1}", to_mb(r.hcache_pages)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "shape check (paper Table 1): webserver/mongodb -> no swap, cache full;\n\
         redis/mysql -> heavy swap, near-zero hypervisor cache."
    );
}

fn fig8_fig9_table2(args: &Args, which: &str) {
    banner("Figs 8-9 + Table 2: Global vs DDMem vs DDSSD (4 workloads)");
    let secs = SimTime::from_secs(args.secs.unwrap_or(600));
    let runs = modes::run_all_modes(secs);

    if which == "fig8" || which == "all" {
        for run in &runs {
            println!("\n--- {} : web/proxy/mail occupancy ---", run.mode.name());
            print_series(
                &run.report,
                &["webserver (MB)", "proxycache (MB)", "mail (MB)"],
            );
        }
    }
    if which == "fig9" || which == "all" {
        for run in &runs {
            println!("\n--- {} : videoserver occupancy ---", run.mode.name());
            print_series(&run.report, &["videoserver (MB)"]);
        }
    }

    println!("\nTable 2:");
    let mut table = TextTable::new(vec![
        "workload",
        "mode",
        "throughput (MB/s)",
        "latency (ms)",
        "lookup-to-store (%)",
        "evictions",
    ]);
    for kind in FourKind::ALL {
        for run in &runs {
            let (_, r) = run.results.iter().find(|(k, _)| *k == kind).unwrap();
            table.row(vec![
                kind.name().to_owned(),
                run.mode.name().to_owned(),
                format!("{:.1}", r.mb_per_sec),
                format!("{:.2}", r.latency_ms),
                format!("{:.0}", r.lookup_to_store),
                r.evictions.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    for run in &runs {
        maybe_dump(
            args,
            &format!("fig8_{}", run.mode.name().replace([' ', '(', ')'], "")),
            &run.report,
        );
    }
    println!(
        "shape check (paper Table 2): DDMem web ~6x Global web; Global evicts\n\
         web/mail heavily while DD victimizes only the videoserver; SSD mode has\n\
         zero evictions, slower web/video, but improves the mail workload."
    );
}

fn fig10_fig11(args: &Args, which: &str) {
    banner("Table 3 + Figs 10-11: differentiated policies vs Global");
    let secs = SimTime::from_secs(args.secs.unwrap_or(600));

    println!("\nTable 3 (cache settings):");
    let mut t3 = TextTable::new(vec![
        "setting",
        "webserver",
        "proxycache",
        "mail",
        "videoserver",
    ]);
    for s in policies::PolicySetting::ALL.iter().skip(1) {
        let p = s.policies();
        t3.row(vec![
            s.name().to_owned(),
            p[0].to_string(),
            p[1].to_string(),
            p[2].to_string(),
            p[3].to_string(),
        ]);
    }
    println!("{}", t3.render());

    let runs = policies::fig10_runs(secs);
    let baseline = &runs[0];

    if which == "fig10" || which == "all" {
        println!("Fig 10 (speedup over Global):");
        let mut table = TextTable::new(vec!["workload", "DDMem", "DDMemEx", "DDHybrid"]);
        for kind in FourKind::ALL {
            let mut row = vec![kind.name().to_owned()];
            for run in runs.iter().skip(1) {
                let s = policies::speedups(baseline, run);
                let v = s.iter().find(|(k, _)| *k == kind).map(|(_, v)| *v).unwrap();
                row.push(format!("{v:.2}x"));
            }
            table.row(row);
        }
        println!("{}", table.render());
    }

    if which == "fig11" || which == "all" {
        for run in &runs {
            if matches!(
                run.setting,
                policies::PolicySetting::Global
                    | policies::PolicySetting::DdMem
                    | policies::PolicySetting::DdHybrid
            ) {
                println!("\n--- Fig 11 occupancy: {} ---", run.setting.name());
                print_series(
                    &run.report,
                    &[
                        "webserver (MB)",
                        "proxycache (MB)",
                        "mail (MB)",
                        "videoserver (MB)",
                    ],
                );
            }
        }
    }
    for run in &runs {
        maybe_dump(args, &format!("fig10_{}", run.setting.name()), &run.report);
    }
    println!(
        "shape check (paper Fig 10): webserver and proxycache speed up strongly\n\
         under all DD policies; mail is marginal; videoserver dips under\n\
         DDMem/DDMemEx and recovers (beats Global) under DDHybrid on the SSD."
    );
}

fn table4(args: &Args) {
    banner("Table 4: Morai++ (centralized) vs DoubleDecker (cooperative)");
    let secs = SimTime::from_secs(args.secs.unwrap_or(40));
    let (morai, dd) = cooperative::table4(secs);
    let mut table = TextTable::new(vec![
        "workload (SLA ops/s)",
        "technique",
        "throughput (ops/s)",
        "app memory (MB)",
        "hcache (MB)",
        "SLA met",
    ]);
    for (i, app) in cooperative::CoopApp::ALL.iter().enumerate() {
        for run in [&morai, &dd] {
            let (_, r) = run.results.iter().find(|(a, _)| a == app).unwrap();
            table.row(vec![
                format!("{} ({:.0})", app.name(), cooperative::SLAS[i]),
                run.technique.to_owned(),
                format!("{:.0}", r.ops_per_sec),
                format!("{:.0}", r.app_memory_mb),
                format!("{:.0}", r.hcache_mb),
                if r.sla_met { "yes" } else { "NO" }.to_owned(),
            ]);
        }
    }
    println!("{}", table.render());
    for run in [&morai, &dd] {
        println!(
            "{}: best static cache weights (mongo/mysql/redis/web) = {:?}, aggregate {:.0} ops/s",
            run.technique, run.cache_weights, run.aggregate
        );
    }
    println!(
        "shape check (paper Table 4): Morai++ cannot satisfy Redis/MySQL (squeezed\n\
         by the webserver's in-VM page cache); DoubleDecker's cgroup provisioning\n\
         recovers both by orders of magnitude and wins on aggregate."
    );
}

fn fig12(args: &Args) {
    fig12_print(args, &dynamic::fig12());
}

fn fig12_print(args: &Args, report: &ddc_core::ExperimentReport) {
    banner("Fig 12: dynamic policy changes across containers");
    print_series(report, &["web (MB)", "proxy (MB)", "video (MB)"]);
    let p = dynamic::PHASE_SECS as f64;
    let mut table = TextTable::new(vec![
        "container",
        "phase 1 (MB)",
        "phase 2 (MB)",
        "phase 3 (MB)",
    ]);
    for name in ["web (MB)", "proxy (MB)", "video (MB)"] {
        let s = report.series(name).unwrap();
        table.row(vec![
            name.to_owned(),
            format!("{:.1}", s.mean_in(p * 0.5, p).unwrap_or(0.0)),
            format!("{:.1}", s.mean_in(p * 1.5, p * 2.0).unwrap_or(0.0)),
            format!("{:.1}", s.mean_in(p * 2.5, p * 3.0).unwrap_or(0.0)),
        ]);
    }
    println!("{}", table.render());
    maybe_dump(args, "fig12", report);
    println!(
        "shape check (paper Fig 12): 60/40 split; then 50/30/20 when the\n\
         videoserver boots; then back to 60/40 when it moves to the SSD."
    );
}

fn fig13(args: &Args) {
    fig13_print(args, &dynamic::fig13());
}

fn fig13_print(args: &Args, report: &ddc_core::ExperimentReport) {
    banner("Fig 13: dynamic VM provisioning");
    print_series(report, &["vm1 (MB)", "vm2 (MB)", "vm3 (MB)", "vm4 (MB)"]);
    let mut table = TextTable::new(vec!["vm", "phase2 mean (MB)", "phase4 mean (MB)"]);
    for name in ["vm1 (MB)", "vm2 (MB)", "vm3 (MB)", "vm4 (MB)"] {
        let s = report.series(name).unwrap();
        table.row(vec![
            name.to_owned(),
            format!("{:.1}", s.mean_in(250.0, 300.0).unwrap_or(0.0)),
            format!("{:.1}", s.mean_in(550.0, 750.0).unwrap_or(0.0)),
        ]);
    }
    println!("{}", table.render());
    maybe_dump(args, "fig13", report);
    println!(
        "shape check (paper Fig 13): VM1 alone fills the cache; 60/40 after VM2;\n\
         VM3 (SSD-only) does not disturb the memory split; capacity doubling plus\n\
         40/35/25 weights redistributes across VM1/VM2/VM4."
    );
}

fn extensions(args: &Args) {
    banner("Extensions: hybrid store / adaptive weights");
    let secs = SimTime::from_secs(args.secs.unwrap_or(400));

    let hyb = ablations::hybrid(secs);
    println!(
        "\nhybrid store (<Hybrid, 18> videoserver): {:.1} MB/s vs <Mem, 18> {:.1} MB/s; \
         {} objects trickled down, {} blocks resident on the SSD share",
        hyb.video_hybrid, hyb.video_mem, hyb.trickle_downs, hyb.video_ssd_pages
    );

    let ad = ablations::adaptive(secs);
    println!(
        "\nMRC-driven adaptive weights: aggregate {:.1} MB/s vs static {:.1} MB/s; \
         final weights big/small = {}/{}",
        ad.adaptive_tput, ad.static_tput, ad.final_weights.0, ad.final_weights.1
    );
}

fn fault_plane(args: &Args) {
    banner("Fault plane: SSD brownout, graceful degradation and recovery");
    let secs = args.secs.unwrap_or(faults::DURATION_SECS);
    // The scored run and its same-seed determinism twin are independent
    // cells: compute both in parallel, then print.
    let mut runs = ddc_core::parallel::run_cells(vec![0xB120u64, 0xB120], move |seed| {
        faults::brownout(secs, seed)
    });
    let again = runs.pop().expect("two cells");
    let run = runs.pop().expect("two cells");
    print_series(&run.report, &["hit ratio", "ssd (MB)"]);

    let f = &run.report.faults;
    let mut table = TextTable::new(vec!["counter", "value"]);
    table.row(vec![
        "ssd quarantines".into(),
        f.ssd_quarantines.to_string(),
    ]);
    table.row(vec!["ssd recoveries".into(), f.ssd_recoveries.to_string()]);
    table.row(vec![
        "pages invalidated on quarantine".into(),
        f.quarantine_invalidated_pages.to_string(),
    ]);
    table.row(vec!["failed gets".into(), f.failed_gets.to_string()]);
    table.row(vec!["failed puts".into(), f.failed_puts.to_string()]);
    table.row(vec![
        "channel fail-open misses".into(),
        f.channel_fail_opens.to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "hit ratio: {:.2} before -> {:.2} during [{}s, {}s) -> {:.2} after",
        run.hit_before, run.hit_during, run.window.0, run.window.1, run.hit_after
    );
    maybe_dump(args, "faults_brownout", &run.report);

    println!(
        "determinism: same-seed rerun is {}",
        if again.report.to_json() == run.report.to_json() {
            "byte-identical"
        } else {
            "DIFFERENT (bug!)"
        }
    );
    println!(
        "shape check: hit ratio collapses inside the brownout window and climbs\n\
         back after recovery; the workload never stalls (fail-open to disk) and\n\
         no stale SSD data is ever served (quarantine invalidates the tier)."
    );
}

fn chaos_sweep(args: &Args) -> bool {
    let cases = if args.smoke {
        chaos::CASES_SMOKE
    } else {
        chaos::CASES_FULL
    };
    let threaded_cases = if args.smoke {
        chaos::THREADED_CASES_SMOKE
    } else {
        chaos::THREADED_CASES_FULL
    };
    let remote_cases = if args.smoke {
        chaos::REMOTE_CASES_SMOKE
    } else {
        chaos::REMOTE_CASES_FULL
    };
    banner(&format!(
        "Chaos: {cases} randomized hypervisor crashes (journal cuts, torn tails, bit flips)\n\
         == + {threaded_cases} threaded-plane kills ({}-thread sharded engine, per-shard cuts)\n\
         == + {remote_cases} remote-tier crashes (partition/hedge/breaker-open axes)",
        chaos::THREADED_PLANE_THREADS
    ));
    let report = chaos::run(chaos::DEFAULT_SEED, cases, threaded_cases, remote_cases);
    let mut table = TextTable::new(vec![
        "case",
        "kind",
        "cut/len (B)",
        "replayed",
        "recovered",
        "discarded",
        "poisoned",
        "stale",
        "audit",
    ]);
    for c in &report.cases {
        table.row(vec![
            c.id.to_string(),
            c.kind.name().to_owned(),
            format!("{}/{}", c.cut, c.image_len),
            c.records_replayed.to_string(),
            c.recovered_entries.to_string(),
            c.discarded_stale.to_string(),
            c.poisoned.to_string(),
            (c.stale_entries + c.stale_reads).to_string(),
            c.audit_findings.to_string(),
        ]);
    }
    println!("{}", table.render());

    println!("threaded plane (kill mid-tick, per-shard cuts, recover, continue on 8 threads):");
    let mut tt = TextTable::new(vec![
        "case",
        "kind",
        "hook cut",
        "kill@tick/vm/budget",
        "replayed",
        "gap",
        "recovered",
        "discarded",
        "torn/corrupt segs",
        "stale",
        "audit",
    ]);
    for c in &report.threaded {
        let torn = c.segments.iter().filter(|s| s.1).count();
        let corrupt = c.segments.iter().filter(|s| s.2).count();
        tt.row(vec![
            c.id.to_string(),
            c.kind.name().to_owned(),
            if c.hook_cut { "yes" } else { "no" }.to_owned(),
            format!("{}/{}/{}", c.kill_tick, c.kill_vm, c.budget),
            c.records_replayed.to_string(),
            c.gap_discarded.to_string(),
            c.recovered_entries.to_string(),
            (c.discarded_stale + c.dropped_no_room).to_string(),
            format!("{torn}/{corrupt}"),
            (c.stale_entries + c.stale_reads).to_string(),
            c.audit_findings.to_string(),
        ]);
    }
    println!("{}", tt.render());

    println!("remote tier (crash with a chunk-store bound, recover, continue threaded):");
    let mut rt = TextTable::new(vec![
        "case",
        "axis",
        "kind",
        "kill@tick/vm",
        "replayed",
        "recovered",
        "pre served",
        "pre hedges",
        "pre trips",
        "remote ok",
        "stale",
        "audit",
    ]);
    for c in &report.remote {
        rt.row(vec![
            c.id.to_string(),
            c.axis.to_owned(),
            c.kind.name().to_owned(),
            format!("{}/{}", c.kill_tick, c.kill_vm),
            c.records_replayed.to_string(),
            c.recovered_entries.to_string(),
            c.pre_served.to_string(),
            c.pre_hedges.to_string(),
            c.pre_breaker_trips.to_string(),
            if c.remote_recovered { "yes" } else { "NO" }.to_owned(),
            (c.stale_entries + c.stale_reads).to_string(),
            c.audit_findings.to_string(),
        ]);
    }
    println!("{}", rt.render());
    println!(
        "totals: {} stale reads, {} auditor findings, {} unrecovered remotes \
         across {} crash points",
        report.total_stale(),
        report.total_findings(),
        report.remote_unrecovered(),
        report.cases.len() + report.threaded.len() + report.remote.len()
    );

    dump(args, "chaos", &report.to_json());

    let again = chaos::run(chaos::DEFAULT_SEED, cases, threaded_cases, remote_cases);
    println!(
        "determinism: same-seed rerun is {}",
        if again.to_json() == report.to_json() {
            "byte-identical"
        } else {
            "DIFFERENT (bug!)"
        }
    );
    println!(
        "shape check: recovery may lose entries (discarded/dropped) but the\n\
         stale and audit columns must be all zero — the cache can forget,\n\
         it can never lie. The threaded rows additionally survive a second\n\
         crash of the thread-interleaved journal (gates only; not tabled)."
    );
    report.passed() && again.to_json() == report.to_json()
}

fn stress_plane(args: &Args) -> bool {
    assert!(
        !(args.read_heavy && args.write_heavy),
        "pick at most one of --read-heavy / --write-heavy"
    );
    let mix = if args.read_heavy {
        stress::StressMix::ReadHeavy
    } else if args.write_heavy {
        stress::StressMix::WriteHeavy
    } else {
        stress::StressMix::Standard
    };
    banner(&format!(
        "Stress: concurrent serving plane{}{}",
        match mix {
            stress::StressMix::ReadHeavy => ", 95/5 read-heavy mix",
            stress::StressMix::WriteHeavy => ", put-dominant write-heavy mix",
            stress::StressMix::Standard => "",
        },
        if args.smoke { " (smoke budget)" } else { "" }
    ));
    let report = stress::run(stress::DEFAULT_SEED, args.smoke, mix);

    println!("\nequivalence matrix (sharded single-thread vs serial reference):");
    let mut eq = TextTable::new(vec!["mode", "shards", "byte-identical", "stale"]);
    for c in &report.equivalence {
        eq.row(vec![
            c.mode.to_string(),
            c.shards.to_string(),
            if c.identical { "yes" } else { "NO" }.to_owned(),
            c.stale_reads.to_string(),
        ]);
    }
    println!("{}", eq.render());

    println!("thread scaling (shared sharded cache, one VM set per run):");
    let mut sc = TextTable::new(vec![
        "threads",
        "journal",
        "ops",
        "wall (s)",
        "ops/sec",
        "stale",
        "audit",
        "commit epoch",
        "compactions",
        "batched",
    ]);
    for (journal, c) in report.scaling.iter().map(|c| (c.journal, &c.out)) {
        sc.row(vec![
            c.threads.to_string(),
            if journal { "yes" } else { "no" }.to_owned(),
            c.total_ops.to_string(),
            format!("{:.3}", c.elapsed.as_secs_f64()),
            format!("{:.0}", c.ops_per_sec()),
            c.stale_reads.to_string(),
            c.findings.len().to_string(),
            c.cache.commit_epoch().to_string(),
            c.cache.journal_compactions().to_string(),
            c.cache.batched_ops().to_string(),
        ]);
    }
    println!("{}", sc.render());
    println!(
        "8-thread vs 1-thread throughput factor: {:.2}x on the volatile rows\n\
         (reported, not gated: on a single-core runner it measures locking\n\
         overhead, not scaling); journaled rows group-commit per tick and\n\
         must land a non-zero durability watermark",
        report.scaling_factor()
    );

    dump(args, "stress", &report.to_json());
    println!(
        "shape check: every equivalence cell byte-identical (sharding is a\n\
         locking strategy, not a semantic change); every thread count finishes\n\
         with zero stale reads and zero auditor findings."
    );
    report.passed()
}

fn remote_tier(args: &Args) -> bool {
    banner(&format!(
        "Remote tier: fault-axis determinism + degradation ladder + cold-boot storm{}",
        if args.smoke { " (smoke budget)" } else { "" }
    ));
    let report = remote::run(remote::DEFAULT_SEED, args.smoke);

    println!("\nfault-axis matrix (serial vs sharded, same-seed rerun, 1-thread counters):");
    let mut ax = TextTable::new(vec![
        "axis",
        "identical",
        "rerun",
        "stale",
        "served",
        "failed",
        "timeouts",
        "retries",
        "hedges",
        "trips",
        "recoveries",
        "gates",
    ]);
    for c in &report.axes {
        ax.row(vec![
            c.axis.to_owned(),
            if c.identical { "yes" } else { "NO" }.to_owned(),
            if c.rerun_identical { "yes" } else { "NO" }.to_owned(),
            c.stale_reads.to_string(),
            c.remote.served.to_string(),
            c.remote.failed.to_string(),
            c.remote.timeouts.to_string(),
            c.remote.retries.to_string(),
            c.remote.hedges.to_string(),
            c.remote.breaker_trips.to_string(),
            c.remote.breaker_recoveries.to_string(),
            if c.gates_ok { "ok" } else { "FAIL" }.to_owned(),
        ]);
    }
    println!("{}", ax.render());

    println!("degradation ladder (one thread, same seed; brownout over the middle third):");
    let mut ld = TextTable::new(vec![
        "run",
        "third",
        "served",
        "failed",
        "timeouts",
        "breaker trips",
        "recoveries",
        "breaker skipped",
    ]);
    for c in &report.ladder {
        for (third, t) in c.thirds.iter().enumerate() {
            ld.row(vec![
                c.run.to_owned(),
                (third + 1).to_string(),
                t.served.to_string(),
                t.failed.to_string(),
                t.timeouts.to_string(),
                t.breaker_trips.to_string(),
                t.breaker_recoveries.to_string(),
                t.breaker_skipped.to_string(),
            ]);
        }
    }
    println!("{}", ld.render());
    let verdict = remote::judge_ladder(&report.ladder);
    let yes_no = |ok: bool| if ok { "yes" } else { "NO" };
    println!(
        "clean: {}; slowed, not stalled, inside the window: {}; healed after it (a breaker\n\
         recovery and >= {}% of the fault-free run's served fetches over the same ticks): {};\n\
         brownout run on {} threads clean: {}",
        yes_no(verdict.clean),
        yes_no(verdict.degraded_not_stalled),
        remote::MIN_HEALED_SERVED_PCT,
        yes_no(verdict.healed),
        remote::LADDER_THREADS,
        yes_no(report.threaded_brownout_clean),
    );

    let cb = &report.cold_boot;
    println!(
        "\ncold-boot storm: {} tenants x {} pages of one image over a CDN store",
        cb.tenants, cb.image_pages
    );
    let mut cbt = TextTable::new(vec!["metric", "value"]);
    cbt.row(vec![
        "boot time (sim ms)".into(),
        format!("{:.1}", cb.boot_millis),
    ]);
    cbt.row(vec!["chunk fetches".into(), cb.remote.fetches.to_string()]);
    cbt.row(vec![
        "readahead hits".into(),
        cb.remote.readahead_hits.to_string(),
    ]);
    cbt.row(vec!["edge hits".into(), cb.remote.edge_hits.to_string()]);
    cbt.row(vec![
        "origin fetches".into(),
        cb.remote.origin_fetches.to_string(),
    ]);
    cbt.row(vec!["hedged fetches".into(), cb.remote.hedges.to_string()]);
    cbt.row(vec![
        "localized (flushed) blocks".into(),
        cb.localized_blocks.to_string(),
    ]);
    cbt.row(vec!["wrong reads".into(), cb.wrong_reads.to_string()]);
    cbt.row(vec![
        "buffered/localized overlap".into(),
        cb.buffered_localized_overlap.to_string(),
    ]);
    cbt.row(vec![
        "per-tenant counters uniform".into(),
        if cb.per_tenant_uniform { "yes" } else { "NO" }.into(),
    ]);
    cbt.row(vec![
        "same-seed rerun".into(),
        if cb.identical {
            "byte-identical"
        } else {
            "DIFFERENT (bug!)"
        }
        .into(),
    ]);
    println!("{}", cbt.render());

    dump(args, "remote", &report.to_json());
    println!(
        "shape check: network faults only ever surface as misses (zero stale\n\
         reads on every axis), the breaker keeps a browning-out remote from\n\
         stalling the serving plane, and the boot storm is readahead-dominated\n\
         with identical per-tenant edge placement (CDN dedup)."
    );
    report.passed()
}

fn wear_plane(args: &Args) -> bool {
    banner(&format!(
        "Wear plane: SSD endurance under selective admission{}",
        if args.smoke { " (smoke budget)" } else { "" }
    ));
    let results = wear::run_matrix(args.smoke, wear::DEFAULT_SEED);

    let mut table = TextTable::new(vec![
        "mix",
        "ssd writes (admit-all)",
        "ssd writes (filtered)",
        "reduction",
        "hits admit-all",
        "hits filtered",
        "write amp",
        "ttl demotions",
        "identical",
        "ok",
    ]);
    for r in &results {
        table.row(vec![
            r.spec.name.to_owned(),
            r.admit_all.wear.ssd_pages_written.to_string(),
            r.filtered.wear.ssd_pages_written.to_string(),
            format!("{:.1}%", r.reduction_pct),
            r.admit_all.hits.to_string(),
            r.filtered.hits.to_string(),
            format!("{:.3}", r.filtered.wear.write_amplification()),
            r.filtered.wear.ttl_demotions.to_string(),
            if r.admit_all.identical && r.filtered.identical {
                "yes"
            } else {
                "NO"
            }
            .to_owned(),
            if r.ok() { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    println!("{}", table.render());
    for r in &results {
        for f in &r.failures {
            eprintln!("wear gate [{}]: {f}", r.spec.name);
        }
    }

    dump(args, "wear", &wear::to_json(&results, args.smoke));
    println!(
        "shape check: the ghost filter cuts SSD writes >= {:.0}% on the\n\
         write-heavy and scan-polluted mixes at an equal-or-better hit count,\n\
         the TTL sweep demotes the abandoned phase, and every variant stays\n\
         byte-identical serial vs sharded and across same-seed reruns.",
        wear::MIN_REDUCTION_PCT
    );
    results.iter().all(wear::MixResult::ok)
}

/// Flattens a work row into `key=value` pairs, dotted for nested blocks,
/// leaving out what stayed at zero.
fn work_summary(prefix: &str, work: &ddc_json::Json, out: &mut Vec<String>) {
    for (key, value) in work.as_object().unwrap_or_default() {
        match value.as_u64() {
            Some(0) => {}
            Some(n) => out.push(format!("{prefix}{key}={n}")),
            None => work_summary(&format!("{prefix}{key}."), value, out),
        }
    }
}

fn work_matrix(args: &Args) {
    banner(if args.smoke {
        "Work matrix: what each cache-ops cell does, exactly (smoke budget)"
    } else {
        "Work matrix: what each cache-ops cell does, exactly"
    });
    let rows = perf::run_work(args.smoke);
    for (cell, work) in perf::CELLS.iter().zip(&rows) {
        let mut pairs = Vec::new();
        work_summary("", work, &mut pairs);
        println!("{}: {}", cell.name, pairs.join(" "));
    }
    dump(args, "work", &perf::to_json(rows, args.smoke));
    println!(
        "shape check: every number above is a function of the seed; results/work.json\n\
         pins them, so a change that adds an eviction, a lock visit, a journal record\n\
         or a hypercall to any cell shows up as a diff of that file."
    );
}

fn perf_matrix(args: &Args) {
    banner(if args.smoke {
        "Perf matrix: cache-ops wall clock (smoke budget; printed, not gated)"
    } else {
        "Perf matrix: cache-ops wall clock (printed, not gated)"
    });
    println!(
        "available parallelism {}; {} runs per cell, one after another",
        std::thread::available_parallelism().map_or(1, usize::from),
        perf::REPEATS
    );
    let mut table = TextTable::new(vec!["cell", "ops", "min ns/op", "median", "max"]);
    for c in perf::run_perf(args.smoke) {
        let [min, median, max] = c.ns_per_op.map(|ns| format!("{ns:.1}"));
        table.row(vec![c.name.to_owned(), c.ops.to_string(), min, median, max]);
    }
    println!("{}", table.render());
}

/// Exits 1 with `what` when a gated scenario did not pass.
fn gate(passed: bool, what: &str) {
    if !passed {
        eprintln!("{what}");
        std::process::exit(1);
    }
}

const CHAOS_FAILED: &str = "chaos sweep FAILED (stale reads or invariant violations)";
const STRESS_FAILED: &str = "stress run FAILED (divergence, stale reads or invariant violations)";
const REMOTE_FAILED: &str = "remote tier FAILED (divergence, stale reads or a missed gate)";
const WEAR_FAILED: &str = "wear plane FAILED (divergence or a missed gate)";

fn main() {
    let args = parse_args();
    let start = std::time::Instant::now();
    match args.command.as_str() {
        "fig3" => fig3(&args),
        "fig4" => fig4(&args),
        "fig5" => fig5(&args),
        "table1" => table1(&args),
        "fig8" => fig8_fig9_table2(&args, "fig8"),
        "fig9" => fig8_fig9_table2(&args, "fig9"),
        "table2" => fig8_fig9_table2(&args, "table2"),
        "fig10" => fig10_fig11(&args, "fig10"),
        "fig11" => fig10_fig11(&args, "fig11"),
        "table3" => fig10_fig11(&args, "fig10"),
        "table4" => table4(&args),
        "fig12" => fig12(&args),
        "fig13" => fig13(&args),
        "ext" => extensions(&args),
        "faults" => fault_plane(&args),
        "chaos" => gate(chaos_sweep(&args), CHAOS_FAILED),
        "stress" => gate(stress_plane(&args), STRESS_FAILED),
        "remote" => gate(remote_tier(&args), REMOTE_FAILED),
        "wear" => gate(wear_plane(&args), WEAR_FAILED),
        "work" => work_matrix(&args),
        "perf" => perf_matrix(&args),
        "all" => {
            fig3(&args);
            fig4(&args);
            fig5(&args);
            table1(&args);
            fig8_fig9_table2(&args, "all");
            fig10_fig11(&args, "all");
            table4(&args);
            // Figs 12 and 13 are independent single-report experiments:
            // compute both in parallel, print in order.
            let mut reports = ddc_core::parallel::run_cells(vec![12u8, 13], |n| match n {
                12 => dynamic::fig12(),
                _ => dynamic::fig13(),
            });
            let r13 = reports.pop().expect("two cells");
            let r12 = reports.pop().expect("two cells");
            fig12_print(&args, &r12);
            fig13_print(&args, &r13);
            extensions(&args);
            fault_plane(&args);
            gate(chaos_sweep(&args), CHAOS_FAILED);
            gate(stress_plane(&args), STRESS_FAILED);
            gate(remote_tier(&args), REMOTE_FAILED);
            gate(wear_plane(&args), WEAR_FAILED);
            work_matrix(&args);
        }
        other => {
            eprintln!("unknown command {other}");
            print_help();
            std::process::exit(2);
        }
    }
    eprintln!(
        "\n[repro finished in {:.1}s wall time]",
        start.elapsed().as_secs_f64()
    );
}
