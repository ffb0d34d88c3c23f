//! The four workloads and the closed-loop harness the threaded ones
//! share.
//!
//! Load model: closed loop — every client issues its next operation
//! only when the previous one returned. A run is [`PASSES`] identical
//! passes; a pass is set-up (build + warm-up, charged to `setup_s`),
//! then a timed phase of a fixed operation count cut by a barrier into
//! [`SEGMENTS`] equal segments, then the oracles.

pub mod batched;
pub mod fourapps;
pub mod guest;

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use ddc_core::cleancache::ChannelCounters;
use ddc_core::concurrent::ShardedCache;
use ddc_core::storage::wear::WearCounters;

use crate::spec::{self, PASSES, SEGMENTS};
use crate::stats::{median, merge_segments, Segment};
use crate::trace::{Aggregate, SpanLog, SpanName};
use crate::wrappers::{Backend, TracedBackend};

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// Seed of the benchmark's generators.
    pub seed: u64,
    /// Requested length of the timed phase on the reference box.
    pub seconds: u64,
    /// Run 1 % of the work (hand checks only; never recorded).
    pub smoke: bool,
    /// OS threads driving the [`CLIENTS`] of a threaded workload.
    pub threads: usize,
    /// Write every span of the traced run to `benchmark/out/`.
    pub dump_spans: bool,
}

/// What one run (or traced run) found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload operations attempted in the measured phases.
    pub attempted: u64,
    /// Reasons the run is incorrect, each with the number of failed
    /// operations it stands for. Empty on a correct run.
    pub failures: Vec<(String, u64)>,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Op counts and similar facts for the runner profile.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Failed operations over all reasons.
    pub fn failed(&self) -> u64 {
        self.failures.iter().map(|(_, n)| n).sum()
    }

    /// Records `count` failed operations for `reason` (no-op for 0).
    pub fn fail(&mut self, reason: &str, count: u64) {
        if count > 0 {
            self.failures.push((reason.to_owned(), count));
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Runs `workload` untraced and returns its end-to-end metrics.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "paper-fourapps" => fourapps::run(args, &mut out),
        "guest-read-evict" => guest::run(&guest::Shape::read_evict(), args, &mut out),
        "guest-durable-write" => guest::run(&guest::Shape::durable_write(), args, &mut out),
        "engine-batched" => batched::run(args, &mut out),
        other => panic!("unknown workload {other:?}"),
    }
    out
}

/// Runs `workload` with the wrappers installed and returns its
/// per-layer metrics (ladder and micro-rungs included).
pub fn trace(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The ladder goes first so that every workload measures it from
    // the same fresh heap.
    crate::ladder::measure(args.seed, args.smoke, &mut out);
    match args.workload.as_str() {
        "paper-fourapps" => fourapps::trace(args, &mut out),
        "guest-read-evict" => guest::trace(&guest::Shape::read_evict(), args, &mut out),
        "guest-durable-write" => guest::trace(&guest::Shape::durable_write(), args, &mut out),
        "engine-batched" => batched::trace(args, &mut out),
        other => panic!("unknown workload {other:?}"),
    }
    out
}

/// Work sizes of one pass, in the workload's own unit (see
/// [`spec::Sizing`]).
#[derive(Clone, Copy, Debug)]
pub struct Work {
    /// Warm-up work per client.
    pub warm: u64,
    /// Timed work per client.
    pub timed: u64,
}

impl Work {
    /// The work of an untraced run.
    pub fn of(args: &Args) -> Work {
        let size = spec::sizing(&args.workload).expect("known workload");
        Work {
            warm: spec::warm_work(size, args.smoke),
            timed: spec::timed_work_per_pass(size, args.seconds, args.smoke),
        }
    }

    /// The work of a traced run: the same stream cut so that the
    /// [`CLIENTS`] together issue at most `max_driver_ops`.
    pub fn cut(self, max_driver_ops: u64) -> Work {
        let per_client =
            (max_driver_ops / CLIENTS as u64 / SEGMENTS as u64).max(1) * SEGMENTS as u64;
        Work {
            warm: self.warm,
            timed: self.timed.min(per_client),
        }
    }
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Seconds the set-up (build + warm-up) took.
    pub setup_s: f64,
    /// The timed phase, segment by segment.
    pub segments: Vec<Segment>,
    /// `hit_ratio`, `sim_ops_per_sim_s` and `ssd_write_amp` of the
    /// timed phase.
    pub quality: [f64; 3],
}

/// Runs [`PASSES`] passes and folds them into the end-to-end metrics.
///
/// The passes are the same work from the same seed, so segment *i* of
/// one pass does what segment *i* of another does. Interference from
/// outside the process only ever slows a segment, so each segment
/// counts at the fastest of its passes; `ops_per_s` is the median of
/// those. `setup_s` is the median pass; `peak_rss_mb` is the process's
/// peak after the first pass; the quality metrics are the last pass's
/// (they repeat exactly where the workload is deterministic, which
/// `same_quality` says it is).
pub fn run_passes(
    out: &mut Outcome,
    same_quality: bool,
    mut pass: impl FnMut(&mut Outcome) -> Pass,
) {
    let mut passes = Vec::with_capacity(PASSES);
    for i in 0..PASSES {
        passes.push(pass(out));
        if i == 0 {
            // What one whole pass needs, before later passes reuse and
            // fragment the heap.
            out.set("peak_rss_mb", crate::profile::peak_rss_mb());
        }
    }
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    out.set("setup_s", median(&setups));
    let best: Vec<f64> = (0..SEGMENTS)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.segments[i].rate())
                .fold(0.0, f64::max)
        })
        .collect();
    out.set("ops_per_s", median(&best));
    let last = passes.last().expect("at least one pass");
    for (key, value) in ["hit_ratio", "sim_ops_per_sim_s", "ssd_write_amp"]
        .into_iter()
        .zip(last.quality)
    {
        out.set(key, value);
    }
    if same_quality {
        out.fail(
            "same-seed passes that disagree on an exact-count metric",
            passes.iter().filter(|p| p.quality != last.quality).count() as u64,
        );
    }
    for p in &passes {
        out.attempted += p.segments.iter().map(|s| s.ops).sum::<u64>();
        let rates: Vec<String> = p
            .segments
            .iter()
            .map(|s| format!("{:.0}", s.rate()))
            .collect();
        out.info.push(("pass_segment_ops_per_s", rates.join(",")));
    }
}

/// One closed-loop client: owns its guest (or channel), its generator
/// and its virtual clock.
pub trait Client: Send {
    /// Issues one driver op against `backend`; returns how many
    /// workload ops that was.
    fn step<B: Backend>(&mut self, backend: &mut B, op: u32) -> u64;
}

/// Clients (guests, or batched channels) of every threaded workload.
/// The work is the same whatever the thread count: `threads` only
/// says how many OS threads drive the clients.
pub const CLIENTS: usize = 2;

/// Runs every client for `driver_ops` driver ops against its own
/// backend, in `segments` barrier-separated segments, on `threads`
/// threads — with fewer threads than clients, the clients of a thread
/// take turns op by op. Returns the merged segments.
pub fn closed_loop<C: Client, B: Backend + Send>(
    clients: &mut [C],
    backends: &mut [B],
    threads: usize,
    driver_ops: u64,
    segments: usize,
) -> Vec<Segment> {
    assert_eq!(clients.len(), backends.len());
    let per_thread = clients.len().div_ceil(threads.max(1));
    let groups: Vec<(&mut [C], &mut [B])> = clients
        .chunks_mut(per_thread)
        .zip(backends.chunks_mut(per_thread))
        .collect();
    let per_segment = driver_ops / segments as u64;
    let barrier = Barrier::new(groups.len());
    let epoch = Instant::now();
    let rows: Vec<Vec<(u64, u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|(clients, backends)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rows = Vec::with_capacity(segments);
                    let mut op = 0u32;
                    for _ in 0..segments {
                        barrier.wait();
                        let start = epoch.elapsed().as_nanos() as u64;
                        let mut done = 0u64;
                        for _ in 0..per_segment {
                            for (client, backend) in clients.iter_mut().zip(backends.iter_mut()) {
                                done += client.step(backend, op);
                            }
                            op = op.wrapping_add(1);
                        }
                        rows.push((start, epoch.elapsed().as_nanos() as u64, done));
                    }
                    rows
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    merge_segments(&rows)
}

/// [`closed_loop`] over [`SEGMENTS`] segments with every engine handle
/// wrapped in a [`TracedBackend`]. Returns the spans and the wall
/// seconds. On one thread nobody waits for anybody, which makes that
/// run the reference for `engine.wait_ns_per_call`.
pub fn traced_loop<C: Client>(
    clients: &mut [C],
    handles: &mut Vec<ShardedCache>,
    threads: usize,
    driver_ops: u64,
) -> (Vec<SpanLog>, f64) {
    let epoch = Instant::now();
    let mut traced: Vec<_> = handles
        .drain(..)
        .map(|h| TracedBackend::new(h, SpanLog::new(epoch)))
        .collect();
    let segments = closed_loop(clients, &mut traced, threads, driver_ops, SEGMENTS);
    let mut logs = Vec::with_capacity(traced.len());
    for t in traced {
        let (handle, log) = t.into_parts();
        handles.push(handle);
        logs.push(log);
    }
    (logs, segments_wall_s(&segments))
}

/// Threads a threaded workload uses by default: one per client, as
/// far as the machine has cores.
pub fn default_threads() -> usize {
    crate::profile::nproc().min(CLIENTS)
}

/// Writes the slowest and fastest segment rate of the untraced cut run
/// of a traced run, and counts its ops as attempted.
pub fn set_segment_spread(out: &mut Outcome, segments: &[Segment]) {
    let rates = segments.iter().map(Segment::rate);
    out.set(
        "driver.segment_min_ops_per_s",
        rates.clone().fold(f64::INFINITY, f64::min),
    );
    out.set("driver.segment_max_ops_per_s", rates.fold(0.0, f64::max));
    out.attempted += segments.iter().map(|s| s.ops).sum::<u64>();
}

/// Wall seconds the segments took, end to end.
pub fn segments_wall_s(segments: &[Segment]) -> f64 {
    segments.iter().map(|s| s.secs).sum()
}

/// `after − before`, field by field.
pub fn wear_delta(after: WearCounters, before: WearCounters) -> WearCounters {
    WearCounters {
        ssd_pages_written: after.ssd_pages_written - before.ssd_pages_written,
        pages_admitted: after.pages_admitted - before.pages_admitted,
        spill_attempts: after.spill_attempts - before.spill_attempts,
        spill_admits: after.spill_admits - before.spill_admits,
        spill_rejects: after.spill_rejects - before.spill_rejects,
        ttl_demotions: after.ttl_demotions - before.ttl_demotions,
    }
}

/// Writes the `wear.*` counters.
pub fn set_wear_metrics(out: &mut Outcome, wear: WearCounters) {
    out.set("wear.ssd_pages_written", wear.ssd_pages_written as f64);
    out.set("wear.pages_admitted", wear.pages_admitted as f64);
    out.set("wear.spill_attempts", wear.spill_attempts as f64);
    out.set("wear.spill_rejects", wear.spill_rejects as f64);
    out.set("wear.ttl_demotions", wear.ttl_demotions as f64);
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Channel counters summed over clients (the fields the benchmark
/// reports).
pub fn sum_channels(channels: impl IntoIterator<Item = ChannelCounters>) -> ChannelCounters {
    let mut sum = ChannelCounters::default();
    for c in channels {
        sum.calls += c.calls;
        sum.gets += c.gets;
        sum.get_hits += c.get_hits;
        sum.puts += c.puts;
        sum.put_stores += c.put_stores;
        sum.flushes += c.flushes;
        sum.fail_opens += c.fail_opens;
    }
    sum
}

/// Writes the `channel.*` metrics.
pub fn set_channel_metrics(out: &mut Outcome, c: &ChannelCounters) {
    out.set("channel.calls", c.calls as f64);
    out.set("channel.gets", c.gets as f64);
    out.set("channel.get_hits", c.get_hits as f64);
    out.set("channel.puts", c.puts as f64);
    out.set("channel.put_stores", c.put_stores as f64);
    out.set("channel.flushes", c.flushes as f64);
    out.set("channel.fail_opens", c.fail_opens as f64);
    out.set("channel.put_store_ratio", ratio(c.put_stores, c.puts));
}

/// Writes the `engine.*` counters a [`ShardedCache`] exposes and its
/// audit. `handles` are the per-client clones (their read-side counters
/// are private to each); `channel` gives the stores and hits of the two
/// ratios.
pub fn set_sharded_engine_metrics(
    out: &mut Outcome,
    cache: &ShardedCache,
    handles: &[ShardedCache],
    channel: &ChannelCounters,
) {
    out.set(
        "engine.audit_findings",
        ddc_core::concurrent::audit(cache).len() as f64,
    );
    let (lockfree, replica) = handles
        .iter()
        .map(|h| h.local_read_stats())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    out.set("engine.evictions", cache.evictions() as f64);
    out.set("engine.trickle_downs", cache.trickle_downs() as f64);
    out.set(
        "engine.evictions_per_put",
        ratio(cache.evictions(), channel.put_stores),
    );
    out.set(
        "engine.lookup_to_store",
        ratio(channel.get_hits, channel.put_stores),
    );
    out.set("engine.two_phase_retries", cache.two_phase_retries() as f64);
    out.set(
        "engine.two_phase_fallbacks",
        cache.two_phase_fallbacks() as f64,
    );
    out.set(
        "engine.reservation_retries",
        cache.reservation_retries() as f64,
    );
    out.set(
        "engine.reservation_fallbacks",
        cache.reservation_fallbacks() as f64,
    );
    out.set("engine.seqlock_retries", cache.seqlock_retries() as f64);
    out.set("engine.lockfree_misses", lockfree as f64);
    out.set("engine.replica_hits", replica as f64);
    out.set(
        "engine.read_plane_overflows",
        cache.read_plane_overflows() as f64,
    );
    out.set(
        "engine.front_tree_retries",
        cache.front_tree_retries() as f64,
    );
    out.set(
        "engine.front_tree_fallbacks",
        cache.front_tree_fallbacks() as f64,
    );
    out.set("engine.batched_ops", cache.batched_ops() as f64);
    out.set(
        "engine.batch_lock_acquisitions",
        cache.batch_lock_acquisitions() as f64,
    );
    out.set(
        "engine.batch_journal_appends",
        cache.batch_journal_appends() as f64,
    );
    out.set("engine.mem_used_pages", cache.mem_used_pages() as f64);
    out.set("engine.ssd_used_pages", cache.ssd_used_pages() as f64);
    out.set("journal.compactions", cache.journal_compactions() as f64);
    if let Some(records) = cache.journal_records() {
        out.set("journal.records_at_end", records as f64);
    }
}

/// Writes the span-derived `engine.*`, `journal.commit*`, `driver.gen_s`
/// and `trace.*` metrics of a traced run of `driver_ops` ops that took
/// `traced_wall` seconds against `untraced_wall` without the wrappers.
pub fn set_span_metrics(
    out: &mut Outcome,
    agg: &mut Aggregate,
    driver_ops: u64,
    traced_wall: f64,
    untraced_wall: f64,
) {
    out.set("trace.driver_ops", driver_ops as f64);
    out.set("trace.overhead_ratio", traced_wall / untraced_wall);
    let engine = agg.engine();
    out.set("engine.busy_s", engine.total_s());
    out.set("engine.calls", engine.count as f64);
    for (key, span, p) in [
        ("engine.get_hit_p50_ns", SpanName::EngineGetHit, 0.5),
        ("engine.get_hit_p99_ns", SpanName::EngineGetHit, 0.99),
        ("engine.get_miss_p50_ns", SpanName::EngineGetMiss, 0.5),
        ("engine.get_miss_p99_ns", SpanName::EngineGetMiss, 0.99),
        ("engine.put_p50_ns", SpanName::EnginePut, 0.5),
        ("engine.put_p99_ns", SpanName::EnginePut, 0.99),
        ("engine.put_p999_ns", SpanName::EnginePut, 0.999),
        ("engine.flush_p50_ns", SpanName::EngineFlush, 0.5),
        ("engine.flush_p99_ns", SpanName::EngineFlush, 0.99),
        ("engine.many_p50_ns", SpanName::EngineMany, 0.5),
        ("engine.many_p99_ns", SpanName::EngineMany, 0.99),
    ] {
        out.set(key, agg.get(span).percentile_ns(p));
    }
    let commit = agg.get(SpanName::JournalCommit);
    out.set("journal.commit_s", commit.total_s());
    out.set("journal.commits", commit.count as f64);
    out.set("journal.commit_p99_ns", commit.percentile_ns(0.99));
    out.set("driver.gen_s", agg.get(SpanName::Gen).total_s());
    out.set("trace.spans", agg.spans as f64);
}

/// Mean engine span of `agg`, nanoseconds.
pub fn mean_engine_ns(agg: &Aggregate) -> f64 {
    let e = agg.engine();
    ratio(e.total_ns, e.count)
}

/// Writes `logs` under `benchmark/out/` when `--dump-spans` was given.
pub fn maybe_dump(args: &Args, logs: &[SpanLog]) {
    if !args.dump_spans {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            crate::trace::write_spans(&mut w, logs)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_fold_into_best_segment_median_and_median_setup() {
        // All passes but the first are hit by a slow spell in their
        // second half, and the first's set-up is slow. Neither may move
        // the result.
        let clean: Vec<Segment> = (0..SEGMENTS as u64)
            .map(|i| Segment {
                ops: 100 + i,
                secs: 1.0,
            })
            .collect();
        let mut slow = clean.clone();
        for s in &mut slow[SEGMENTS / 2..] {
            s.secs = 2.0;
        }
        let mut n = 0;
        let mut out = Outcome::default();
        run_passes(&mut out, true, |_| {
            n += 1;
            Pass {
                setup_s: if n == 1 { 9.0 } else { 1.0 },
                segments: if n == 1 { clean.clone() } else { slow.clone() },
                quality: [0.5, 7.0, 0.25],
            }
        });
        assert_eq!(n, PASSES);
        assert_eq!(out.metrics["setup_s"], 1.0);
        assert_eq!(out.metrics["ops_per_s"], 104.5, "median of 100..=109");
        assert_eq!(out.metrics["hit_ratio"], 0.5);
        assert_eq!(out.metrics["sim_ops_per_sim_s"], 7.0);
        assert_eq!(out.metrics["ssd_write_amp"], 0.25);
        assert_eq!(out.failed(), 0);
        assert_eq!(out.attempted, PASSES as u64 * (100..110).sum::<u64>());
    }

    #[test]
    fn passes_of_a_deterministic_workload_must_agree() {
        let mut n = 0.0;
        let mut out = Outcome::default();
        run_passes(&mut out, true, |_| {
            n += 1.0;
            Pass {
                setup_s: 1.0,
                segments: vec![Segment { ops: 1, secs: 1.0 }; SEGMENTS],
                quality: [n, 1.0, 1.0],
            }
        });
        assert_eq!(out.failed(), PASSES as u64 - 1);
    }

    #[test]
    fn cut_limits_total_driver_ops() {
        let w = Work {
            warm: 7,
            timed: 5_000_000,
        };
        let c = w.cut(1_000_000);
        assert_eq!((c.warm, c.timed), (7, 500_000));
        assert_eq!(w.cut(100_000_000).timed, 5_000_000);
        assert_eq!(w.cut(3).timed, SEGMENTS as u64);
    }

    #[test]
    fn outcome_counts_failures() {
        let mut out = Outcome::default();
        out.fail("nothing", 0);
        assert_eq!(out.failed(), 0);
        out.fail("stale", 2);
        out.fail("audit", 1);
        assert_eq!(out.failed(), 3);
        assert_eq!(out.failures.len(), 2);
    }
}
