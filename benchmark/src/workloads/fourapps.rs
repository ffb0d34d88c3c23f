//! `paper-fourapps`: the paper's derivative cloud through the whole
//! stack — `Host` (serial `DoubleDeckerCache`, DoubleDecker mode, memory
//! 384 MiB + SSD 4 GiB, journal off, as `repro fig*` runs it), two VMs
//! (1 GiB, weights 100 and 200) of four containers each (webserver,
//! proxycache, mail, videoserver; 128 MiB limits, two threads each),
//! driven by `Experiment::run_until` on one host thread.
//!
//! It is a discrete-event simulation, so every count repeats exactly
//! for a seed; only the host-time rate is subject to noise.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use ddc_core::prelude::*;
use ddc_core::storage::wear::WearCounters;

use super::{
    ratio, run_passes, set_channel_metrics, set_wear_metrics, sum_channels, wear_delta, Args,
    Outcome, Pass, Work,
};
use crate::spec::SEGMENTS;
use crate::stats::Segment;
use crate::trace::{Aggregate, SpanLog, SpanName};
use crate::wrappers::TimedThread;
use ddc_core::cleancache::ChannelCounters;

const VM_MEM_MB: u64 = 1024;
const VM_WEIGHTS: [u64; 2] = [100, 200];
const CONTAINER_LIMIT_MB: u64 = 128;
const MEM_CACHE_MB: u64 = 384;
const SSD_CACHE_MB: u64 = 4096;
const THREADS_PER_CONTAINER: u32 = 2;
/// Virtual seconds the traced run is cut to (about 170,000 steps).
const TRACE_MAX_SIM_S: u64 = 150;

/// The four Filebench applications, in the paper's container order,
/// with the `repro` scenarios' scaled filesets (`spawn_four_kind`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum App {
    Webserver,
    Proxycache,
    Mail,
    Videoserver,
}

impl App {
    const ALL: [App; 4] = [App::Webserver, App::Proxycache, App::Mail, App::Videoserver];

    fn name(self) -> &'static str {
        match self {
            App::Webserver => "webserver",
            App::Proxycache => "proxycache",
            App::Mail => "mail",
            App::Videoserver => "videoserver",
        }
    }

    fn policy(self) -> CachePolicy {
        match self {
            App::Webserver => CachePolicy::mem(25),
            App::Proxycache | App::Videoserver => CachePolicy::hybrid(25),
            App::Mail => CachePolicy::ssd(25),
        }
    }

    fn step_metric(self) -> &'static str {
        match self {
            App::Webserver => "workloads.step_s.webserver",
            App::Proxycache => "workloads.step_s.proxycache",
            App::Mail => "workloads.step_s.mail",
            App::Videoserver => "workloads.step_s.videoserver",
        }
    }

    fn span(self) -> SpanName {
        match self {
            App::Webserver => SpanName::StepWebserver,
            App::Proxycache => SpanName::StepProxycache,
            App::Mail => SpanName::StepMail,
            App::Videoserver => SpanName::StepVideoserver,
        }
    }
}

type SharedLog = Rc<RefCell<SpanLog>>;

fn add<T: WorkloadThread + 'static>(
    exp: &mut Experiment,
    thread: T,
    name: SpanName,
    log: Option<&SharedLog>,
) {
    match log {
        Some(log) => exp.add_thread(Box::new(TimedThread::new(thread, name, Rc::clone(log)))),
        None => exp.add_thread(Box::new(thread)),
    }
}

fn spawn(
    exp: &mut Experiment,
    app: App,
    vm: VmId,
    cg: CgroupId,
    seeds: &mut SimRng,
    log: Option<&SharedLog>,
) {
    for t in 0..THREADS_PER_CONTAINER {
        let label = format!("{}/{vm}/t{t}", app.name());
        let seed = seeds.next_u64();
        let span = app.span();
        match app {
            App::Webserver => {
                let config = WebConfig {
                    files: 3000,
                    mean_file_blocks: 2,
                    zipf_theta: 0.0,
                    ..WebConfig::default()
                };
                add(exp, Webserver::new(label, vm, cg, config, seed), span, log);
            }
            App::Proxycache => {
                let config = ProxyConfig {
                    files: 900,
                    mean_file_blocks: 2,
                    ..ProxyConfig::default()
                };
                add(exp, Proxycache::new(label, vm, cg, config, seed), span, log);
            }
            App::Mail => {
                let config = MailConfig {
                    files: 2200,
                    mean_file_blocks: 1,
                };
                add(exp, MailServer::new(label, vm, cg, config, seed), span, log);
            }
            App::Videoserver => {
                let config = VideoConfig {
                    active_videos: 48,
                    mean_video_blocks: 96,
                    zipf_theta: 0.9,
                    writer_period: 32,
                };
                add(
                    exp,
                    VideoServer::new(label, vm, cg, config, seed),
                    span,
                    log,
                );
            }
        }
    }
}

/// The built derivative cloud.
struct Cloud {
    exp: Experiment,
    containers: Vec<(VmId, CgroupId)>,
}

/// Counters the quality metrics are deltas of.
struct Snapshot {
    ops: u64,
    sim_s: f64,
    reads: [u64; 3],
    wear: WearCounters,
}

impl Cloud {
    fn build(seed: u64, log: Option<&SharedLog>) -> Cloud {
        let cache = CacheConfig::mem_and_ssd(
            CacheConfig::pages_from_mb(MEM_CACHE_MB),
            CacheConfig::pages_from_mb(SSD_CACHE_MB),
        );
        let mut host = Host::new(HostConfig::new(cache));
        let mut containers = Vec::new();
        for weight in VM_WEIGHTS {
            let vm = host.boot_vm(VM_MEM_MB, weight);
            for app in App::ALL {
                let limit = CacheConfig::pages_from_mb(CONTAINER_LIMIT_MB);
                let cg = host.create_container(vm, app.name(), limit, app.policy());
                containers.push((vm, cg, app));
            }
        }
        let mut exp = Experiment::new(host, SimDuration::from_secs(1));
        let mut seeds = SimRng::new(seed);
        for &(vm, cg, app) in &containers {
            spawn(&mut exp, app, vm, cg, &mut seeds, log);
        }
        Cloud {
            exp,
            containers: containers.iter().map(|&(vm, cg, _)| (vm, cg)).collect(),
        }
    }

    /// Builds and warms up for `warm_sim_s` virtual seconds: page
    /// caches fill and the hypervisor cache starts evicting.
    fn warmed(seed: u64, warm_sim_s: u64, log: Option<&SharedLog>) -> Cloud {
        let mut cloud = Cloud::build(seed, log);
        cloud.exp.run_until(SimTime::from_secs(warm_sim_s));
        cloud
    }

    fn snapshot(&self) -> Snapshot {
        let host = self.exp.host();
        let mut reads = [0; 3];
        for &(vm, cg) in &self.containers {
            for (s, r) in reads
                .iter_mut()
                .zip(host.guest(vm).cgroup(cg).reads_by_level)
            {
                *s += r;
            }
        }
        Snapshot {
            ops: self.exp.report().threads.iter().map(|t| t.ops).sum(),
            sim_s: self.exp.now().as_secs_f64(),
            reads,
            wear: host.cache().wear_totals(),
        }
    }

    /// Runs `sim_s` more virtual seconds in [`SEGMENTS`] equal parts,
    /// timing each on the host clock.
    fn timed(&mut self, sim_s: u64, log: Option<&SharedLog>) -> Vec<Segment> {
        let start = self.exp.now();
        let step = SimDuration::from_secs(sim_s).as_nanos() / SEGMENTS as u64;
        let mut ops = self.snapshot().ops;
        (1..=SEGMENTS as u64)
            .map(|i| {
                let until = start + SimDuration::from_nanos(step * i);
                let span = log.map(|l| l.borrow_mut().open_op(SpanName::Run, i as u32));
                let t0 = Instant::now();
                let report = self.exp.run_until(until);
                let secs = t0.elapsed().as_secs_f64();
                if let (Some(l), Some(id)) = (log, span) {
                    l.borrow_mut().close(id);
                }
                let total: u64 = report.threads.iter().map(|t| t.ops).sum();
                let done = total - ops;
                ops = total;
                Segment { ops: done, secs }
            })
            .collect()
    }

    fn channel_sum(&self) -> ChannelCounters {
        let host = self.exp.host();
        sum_channels(
            host.vm_ids()
                .iter()
                .map(|vm| host.guest(*vm).channel().counters()),
        )
    }

    fn verify(&self, out: &mut Outcome) {
        let host = self.exp.host();
        let totals = host.cache_totals();
        out.fail(
            "Failed get/put outcomes",
            totals.failed_gets + totals.failed_puts,
        );
        out.fail(
            "stale second-chance hits",
            host.vm_ids()
                .iter()
                .map(|vm| host.guest(*vm).counters().stale_cleancache_hits)
                .sum(),
        );
        out.fail(
            "hypercache::audit findings",
            ddc_core::hypercache::audit(host.cache()).len() as u64,
        );
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, out: &mut Outcome) {
    let work = Work::of(args);
    // The passes double as the same-seed determinism check: every
    // pass's final report must be byte-identical.
    let mut reports: Vec<String> = Vec::new();
    run_passes(out, true, |out| {
        let t0 = Instant::now();
        let mut cloud = Cloud::warmed(args.seed, work.warm, None);
        let setup_s = t0.elapsed().as_secs_f64();
        if !args.smoke {
            assert!(
                cloud.exp.host().cache_totals().evictions > 0,
                "warm-up must fill the hypervisor cache until it evicts"
            );
        }

        let before = cloud.snapshot();
        let segments = cloud.timed(work.timed, None);
        let after = cloud.snapshot();
        let hits = after.reads[1] - before.reads[1];
        let disk = after.reads[2] - before.reads[2];
        let wear = wear_delta(after.wear, before.wear);
        cloud.verify(out);
        reports.push(cloud.exp.report().to_json());
        Pass {
            setup_s,
            segments,
            quality: [
                ratio(hits, hits + disk),
                (after.ops - before.ops) as f64 / (after.sim_s - before.sim_s),
                ratio(wear.ssd_pages_written, wear.pages_admitted),
            ],
        }
    });
    out.fail(
        "same-seed ExperimentReport mismatches",
        reports.iter().filter(|r| **r != reports[0]).count() as u64,
    );
    out.info.push(("warm_sim_s", work.warm.to_string()));
    out.info
        .push(("timed_sim_s_per_pass", work.timed.to_string()));
}

/// The traced run: per-layer metrics. `Host` hard-codes its engine, so
/// from outside only `run → step` spans exist: every layer gets its
/// counts, `workloads` and `runner` also get times.
pub fn trace(args: &Args, out: &mut Outcome) {
    let mut work = Work::of(args);
    work.timed = work.timed.min(TRACE_MAX_SIM_S).max(SEGMENTS as u64);

    // One discarded build first: the passes below are compared with
    // each other, so none of them should be the one that grows the heap.
    drop(Cloud::warmed(args.seed, work.warm, None));
    let mut plain = Cloud::warmed(args.seed, work.warm, None);
    let sim_before = plain.exp.now().as_secs_f64();
    let segments = plain.timed(work.timed, None);
    super::set_segment_spread(out, &segments);
    let untraced_wall = super::segments_wall_s(&segments);
    out.set(
        "sim.sim_s_per_host_s",
        (plain.exp.now().as_secs_f64() - sim_before) / untraced_wall,
    );
    drop(plain);

    let log: SharedLog = Rc::new(RefCell::new(SpanLog::new(Instant::now())));
    let mut cloud = Cloud::warmed(args.seed, work.warm, Some(&log));
    // Warm-up steps were recorded too; keep only the timed phase.
    *log.borrow_mut() = SpanLog::new(Instant::now());
    let before = cloud.snapshot();
    let segments = cloud.timed(work.timed, Some(&log));
    let after = cloud.snapshot();
    let traced_wall = super::segments_wall_s(&segments);
    let log = log.replace(SpanLog::new(Instant::now()));
    super::maybe_dump(args, std::slice::from_ref(&log));
    let mut agg = Aggregate::from_logs([&log]);
    out.set("trace.overhead_ratio", traced_wall / untraced_wall);
    out.set("trace.spans", agg.spans as f64);

    let mut steps = 0;
    for app in App::ALL {
        let s = agg.get(app.span());
        steps += s.count;
        out.set(app.step_metric(), s.total_s());
    }
    out.set("workloads.steps", steps as f64);
    out.set("trace.driver_ops", steps as f64);
    out.set("runner.self_s", agg.get(SpanName::Run).self_s());

    out.set(
        "guest.reads_pagecache",
        (after.reads[0] - before.reads[0]) as f64,
    );
    out.set(
        "guest.reads_cleancache",
        (after.reads[1] - before.reads[1]) as f64,
    );
    out.set(
        "guest.reads_disk",
        (after.reads[2] - before.reads[2]) as f64,
    );
    let host = cloud.exp.host();
    let (mut puts, mut writebacks, mut stale) = (0, 0, 0);
    for vm in host.vm_ids() {
        let g = host.guest(vm).counters();
        puts += g.cleancache_puts;
        writebacks += g.writebacks;
        stale += g.stale_cleancache_hits;
    }
    out.set("guest.cleancache_puts", puts as f64);
    out.set("guest.writebacks", writebacks as f64);
    out.set("guest.stale_hits", stale as f64);
    let channel = cloud.channel_sum();
    set_channel_metrics(out, &channel);
    let totals = host.cache_totals();
    out.set("engine.evictions", totals.evictions as f64);
    out.set("engine.trickle_downs", totals.trickle_downs as f64);
    out.set(
        "engine.evictions_per_put",
        ratio(totals.evictions, channel.put_stores),
    );
    out.set(
        "engine.lookup_to_store",
        ratio(channel.get_hits, channel.put_stores),
    );
    out.set("engine.mem_used_pages", totals.mem_used_pages as f64);
    out.set("engine.ssd_used_pages", totals.ssd_used_pages as f64);
    out.set(
        "engine.audit_findings",
        ddc_core::hypercache::audit(host.cache()).len() as f64,
    );
    set_wear_metrics(out, wear_delta(after.wear, before.wear));
    let now = cloud.exp.now();
    out.set(
        "device.hdd_busy_sim_s",
        host.disk_utilization(now) * now.as_secs_f64(),
    );
    cloud.verify(out);
    out.info.push(("warm_sim_s", work.warm.to_string()));
    out.info.push(("traced_sim_s", work.timed.to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_clouds_report_byte_identical_json() {
        let a = Cloud::warmed(4, 3, None).exp.report().to_json();
        let b = Cloud::warmed(4, 3, None).exp.report().to_json();
        let c = Cloud::warmed(5, 3, None).exp.report().to_json();
        assert_eq!(a, b);
        assert_ne!(a, c, "the seed must reach the workload threads");
    }

    #[test]
    fn timed_wrapper_changes_no_count() {
        let log: SharedLog = Rc::new(RefCell::new(SpanLog::new(Instant::now())));
        let mut plain = Cloud::warmed(4, 2, None);
        let mut traced = Cloud::warmed(4, 2, Some(&log));
        let a = plain.timed(SEGMENTS as u64 / 5, None);
        let b = traced.timed(SEGMENTS as u64 / 5, Some(&log));
        let ops = |s: &[Segment]| s.iter().map(|x| x.ops).collect::<Vec<_>>();
        assert_eq!(ops(&a), ops(&b));
        assert_eq!(plain.exp.report().to_json(), traced.exp.report().to_json());
        let mut agg = Aggregate::from_logs([&*log.borrow()]);
        assert_eq!(agg.get(SpanName::Run).count, SEGMENTS as u64);
        assert!(agg.get(SpanName::StepMail).count > 0);
    }
}
