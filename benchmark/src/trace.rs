//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, and their aggregation at exit.
//!
//! A span is `(name, start, end, parent, op id)`. Each client thread
//! owns one [`SpanLog`]; nothing is shared while the run is hot. A
//! layer's *self time* is its spans' duration minus what their child
//! spans cover — on one thread children never overlap, so that is a
//! plain subtraction.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::percentile;

/// What a span measures. The prefix before the first `.` of
/// [`SpanName::as_str`] is the layer the time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanName {
    /// One `Experiment::run_until` call (a timed segment).
    Run,
    /// One `WorkloadThread::step` of a webserver thread.
    StepWebserver,
    /// One step of a proxycache thread.
    StepProxycache,
    /// One step of a mail thread.
    StepMail,
    /// One step of a videoserver thread.
    StepVideoserver,
    /// The benchmark's own generator producing one driver op.
    Gen,
    /// One `GuestOs::read`.
    GuestRead,
    /// One `GuestOs::write`.
    GuestWrite,
    /// One `GuestOs::fsync`.
    GuestFsync,
    /// One `GuestOs::delete_file`.
    GuestDelete,
    /// One batched tick of the engine-batched client (three channel
    /// calls plus the oracle check).
    ChannelTick,
    /// Engine `get` that hit.
    EngineGetHit,
    /// Engine `get` that missed (or failed).
    EngineGetMiss,
    /// Engine `put`.
    EnginePut,
    /// Engine `flush` / `flush_file`.
    EngineFlush,
    /// Engine `get_many` / `put_many` / `flush_many`.
    EngineMany,
    /// Engine control-plane call (pool lifecycle, migrate, stats).
    EngineControl,
    /// One `commit_tick`.
    JournalCommit,
}

impl SpanName {
    /// `layer.what`, as the span dump prints it.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Run => "runner.run",
            SpanName::StepWebserver => "workloads.step.webserver",
            SpanName::StepProxycache => "workloads.step.proxycache",
            SpanName::StepMail => "workloads.step.mail",
            SpanName::StepVideoserver => "workloads.step.videoserver",
            SpanName::Gen => "driver.gen",
            SpanName::GuestRead => "guest.read",
            SpanName::GuestWrite => "guest.write",
            SpanName::GuestFsync => "guest.fsync",
            SpanName::GuestDelete => "guest.delete_file",
            SpanName::ChannelTick => "channel.tick",
            SpanName::EngineGetHit => "engine.get_hit",
            SpanName::EngineGetMiss => "engine.get_miss",
            SpanName::EnginePut => "engine.put",
            SpanName::EngineFlush => "engine.flush",
            SpanName::EngineMany => "engine.many",
            SpanName::EngineControl => "engine.control",
            SpanName::JournalCommit => "journal.commit",
        }
    }

    /// Whether the span is a call into the cache engine.
    pub fn is_engine(self) -> bool {
        self.as_str().starts_with("engine.")
    }
}

/// "No parent" marker in [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was measured.
    pub name: SpanName,
    /// Index (in the same log) of the span that caused this one, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// Driver op the span belongs to; spans of one op share it.
    pub op: u32,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans, in open order.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch` (shared by all the
    /// threads of a run so their dumps line up).
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a top-level span for driver op `op`; children opened
    /// before the matching [`close`](Self::close) inherit the op id.
    pub fn open_op(&mut self, name: SpanName, op: u32) -> u32 {
        let at = self.now_ns();
        self.open_at(name, op, at)
    }

    /// Opens a span under the innermost open span (or as a root with
    /// op id 0 when nothing is open).
    pub fn open_child(&mut self, name: SpanName) -> u32 {
        let op = self.open.last().map_or(0, |&p| self.spans[p as usize].op);
        let at = self.now_ns();
        self.open_at(name, op, at)
    }

    /// Opens a span at an explicit time under the innermost open span.
    fn open_at(&mut self, name: SpanName, op: u32, at: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
            start_ns: at,
            end_ns: at,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: u32) {
        let at = self.now_ns();
        self.close_at(id, at);
    }

    /// Closes span `id` under a new name — for calls whose class
    /// (hit or miss) is only known from their outcome.
    pub fn close_as(&mut self, id: u32, name: SpanName) {
        let at = self.now_ns();
        self.spans[id as usize].name = name;
        self.close_at(id, at);
    }

    fn close_at(&mut self, id: u32, at: u64) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = at;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals for all spans of one name across every log of a run.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    /// Spans recorded.
    pub count: u64,
    /// Σ durations, nanoseconds.
    pub total_ns: u64,
    /// Σ (duration − children's durations), nanoseconds.
    pub self_ns: u64,
    durations: Vec<u64>,
}

impl NameStats {
    /// Total duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    /// Nearest-rank percentile of the durations, nanoseconds.
    pub fn percentile_ns(&mut self, p: f64) -> f64 {
        percentile(&mut self.durations, p) as f64
    }

    fn absorb(&mut self, other: &NameStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.durations.extend_from_slice(&other.durations);
    }
}

/// Per-name aggregates of a traced run.
#[derive(Debug, Default)]
pub struct Aggregate {
    by_name: BTreeMap<SpanName, NameStats>,
    /// Spans across all logs.
    pub spans: u64,
}

impl Aggregate {
    /// Aggregates every log of a run.
    pub fn from_logs<'a>(logs: impl IntoIterator<Item = &'a SpanLog>) -> Aggregate {
        let mut agg = Aggregate::default();
        for log in logs {
            let spans = log.spans();
            agg.spans += spans.len() as u64;
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.duration_ns();
                }
            }
            for (s, covered) in spans.iter().zip(&child_ns) {
                let d = s.duration_ns();
                let e = agg.by_name.entry(s.name).or_default();
                e.count += 1;
                e.total_ns += d;
                e.self_ns += d.saturating_sub(*covered);
                e.durations.push(d);
            }
        }
        agg
    }

    /// The stats of one span name (zeros when none was recorded).
    pub fn get(&mut self, name: SpanName) -> &mut NameStats {
        self.by_name.entry(name).or_default()
    }

    /// The merged stats of several names (e.g. every guest call).
    pub fn merged(&self, names: &[SpanName]) -> NameStats {
        let mut out = NameStats::default();
        for n in names {
            if let Some(s) = self.by_name.get(n) {
                out.absorb(s);
            }
        }
        out
    }

    /// The merged stats of every engine call class.
    pub fn engine(&self) -> NameStats {
        let names: Vec<SpanName> = self
            .by_name
            .keys()
            .copied()
            .filter(|n| n.is_engine())
            .collect();
        self.merged(&names)
    }
}

/// Writes every span of every log as tab-separated text:
/// `thread  index  name  parent  op  start_ns  end_ns`.
pub fn write_spans(out: &mut impl Write, logs: &[SpanLog]) -> std::io::Result<()> {
    writeln!(out, "thread\tindex\tname\tparent\top\tstart_ns\tend_ns")?;
    for (t, log) in logs.iter().enumerate() {
        for (i, s) in log.spans().iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{t}\t{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.name.as_str(),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut log = SpanLog::new(Instant::now());
        // guest.read [0, 1000]
        //   engine.get_miss [100, 300]
        //   engine.put      [400, 900]   (reclaim)
        let read = log.open_at(SpanName::GuestRead, 7, 0);
        let miss = log.open_at(SpanName::EngineGetMiss, 7, 100);
        log.close_at(miss, 300);
        let put = log.open_at(SpanName::EnginePut, 7, 400);
        log.close_at(put, 900);
        log.close_at(read, 1000);
        // A second op whose only child itself has a child.
        let tick = log.open_at(SpanName::ChannelTick, 8, 2000);
        let many = log.open_at(SpanName::EngineMany, 8, 2100);
        let inner = log.open_at(SpanName::JournalCommit, 8, 2200);
        log.close_at(inner, 2300);
        log.close_at(many, 2600);
        log.close_at(tick, 3000);

        let mut agg = Aggregate::from_logs([&log]);
        assert_eq!(agg.spans, 6);
        let read = agg.get(SpanName::GuestRead).clone();
        assert_eq!((read.count, read.total_ns, read.self_ns), (1, 1000, 300));
        let tick = agg.get(SpanName::ChannelTick).clone();
        assert_eq!(
            (tick.total_ns, tick.self_ns),
            (1000, 500),
            "a grandchild is charged to its own parent only"
        );
        let many = agg.get(SpanName::EngineMany).clone();
        assert_eq!((many.total_ns, many.self_ns), (500, 400));
        let engine = agg.engine();
        assert_eq!((engine.count, engine.total_ns), (3, 200 + 500 + 500));
        // Self times partition the roots' wall time.
        let all: u64 = [
            SpanName::GuestRead,
            SpanName::EngineGetMiss,
            SpanName::EnginePut,
            SpanName::ChannelTick,
            SpanName::EngineMany,
            SpanName::JournalCommit,
        ]
        .iter()
        .map(|n| agg.get(*n).self_ns)
        .sum();
        assert_eq!(all, 1000 + 1000);
    }

    #[test]
    fn children_inherit_parent_and_op() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.open_op(SpanName::GuestWrite, 42);
        let child = log.open_child(SpanName::EngineFlush);
        log.close_as(child, SpanName::EngineFlush);
        log.close(root);
        let orphan = log.open_child(SpanName::EngineControl);
        log.close(orphan);
        let s = log.spans();
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[1].op), (root, 42));
        assert_eq!((s[2].parent, s[2].op), (NO_PARENT, 0));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);
    }

    #[test]
    fn close_as_reclassifies_by_outcome() {
        let mut log = SpanLog::new(Instant::now());
        let id = log.open_child(SpanName::EngineGetMiss);
        log.close_as(id, SpanName::EngineGetHit);
        let mut agg = Aggregate::from_logs([&log]);
        assert_eq!(agg.get(SpanName::EngineGetHit).count, 1);
        assert_eq!(agg.get(SpanName::EngineGetMiss).count, 0);
    }

    #[test]
    fn aggregate_merges_logs_and_percentiles() {
        let mut a = SpanLog::new(Instant::now());
        let mut b = SpanLog::new(Instant::now());
        for d in 1..=50u64 {
            let id = a.open_at(SpanName::EnginePut, 0, 0);
            a.close_at(id, d);
        }
        for d in 51..=100u64 {
            let id = b.open_at(SpanName::EnginePut, 0, 0);
            b.close_at(id, d);
        }
        let mut agg = Aggregate::from_logs([&a, &b]);
        let put = agg.get(SpanName::EnginePut);
        assert_eq!(put.count, 100);
        assert_eq!(put.percentile_ns(0.5), 50.0);
        assert_eq!(put.percentile_ns(0.99), 99.0);
        assert_eq!(agg.get(SpanName::EngineFlush).percentile_ns(0.5), 0.0);
    }

    #[test]
    fn dump_writes_one_line_per_span() {
        let mut log = SpanLog::new(Instant::now());
        let r = log.open_at(SpanName::GuestRead, 3, 10);
        let hit = log.open_at(SpanName::EngineGetHit, 3, 11);
        log.close_at(hit, 12);
        log.close_at(r, 20);
        let mut bytes = Vec::new();
        write_spans(&mut bytes, &[log]).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "0\t0\tguest.read\t-1\t3\t10\t20");
        assert_eq!(lines[2], "0\t1\tengine.get_hit\t0\t3\t11\t12");
    }
}
