//! The deterministic experiment runner.
//!
//! Every paper experiment is a composition of the same three ingredients:
//! a set of closed-loop workload threads, a script of control actions at
//! fixed virtual times (boot a container at t=900 s, change weights at
//! t=1800 s, …), and periodic occupancy probes. [`Experiment`] drives all
//! three over a [`Host`] in strict virtual-time order, so runs are exactly
//! reproducible.

use ddc_hypervisor::Host;
use ddc_sim::{EventQueue, Sampler, SimDuration, SimTime, TimeSeries};
use ddc_workloads::WorkloadThread;

use crate::report::{ExperimentReport, FaultTotals, SeriesReport, ThreadReport};

/// A scheduled control action: arbitrary reconfiguration of the host
/// and/or the thread pool at a fixed virtual time.
type Control = Box<dyn FnOnce(&mut Host, &mut ThreadPool, SimTime)>;

/// A periodic measurement of some host quantity.
struct Probe {
    series: TimeSeries,
    f: Box<dyn Fn(&Host) -> f64>,
}

struct ThreadSlot {
    thread: Box<dyn WorkloadThread>,
    next_ready: SimTime,
}

/// The set of workload threads. Control actions receive `&mut
/// ThreadPool` so they can spawn threads mid-experiment.
#[derive(Default)]
pub struct ThreadPool {
    slots: Vec<ThreadSlot>,
}

impl ThreadPool {
    /// Adds a thread that becomes runnable at `at`.
    pub fn spawn_at(&mut self, at: SimTime, thread: Box<dyn WorkloadThread>) {
        self.slots.push(ThreadSlot {
            thread,
            next_ready: at,
        });
    }

    /// Opens a steady-state measurement window on every thread's
    /// recorder: subsequent reports cover `[at, end]` only.
    pub fn mark_all(&mut self, at: SimTime) {
        for slot in &mut self.slots {
            slot.thread.recorder_mut().mark(at);
        }
    }

    /// Cumulative completed operations across threads whose label starts
    /// with `prefix` (for feedback controllers).
    pub fn total_ops(&self, prefix: &str) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.thread.label().starts_with(prefix))
            .map(|s| s.thread.recorder().ops())
            .sum()
    }

    /// The earliest ready time among the threads.
    fn next_ready(&self) -> Option<(usize, SimTime)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.next_ready))
            .min_by_key(|&(_, t)| t)
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.slots.len())
            .finish()
    }
}

/// A deterministic virtual-time experiment over a [`Host`].
///
/// See the [crate-level example](crate).
pub struct Experiment {
    host: Host,
    pool: ThreadPool,
    controls: EventQueue<Control>,
    probes: Vec<Probe>,
    sampler: Sampler,
    now: SimTime,
}

impl Experiment {
    /// Creates an experiment over `host`, sampling probes every
    /// `sample_interval`.
    pub fn new(host: Host, sample_interval: SimDuration) -> Experiment {
        Experiment {
            host,
            pool: ThreadPool::default(),
            controls: EventQueue::new(),
            probes: Vec::new(),
            sampler: Sampler::new(sample_interval),
            now: SimTime::ZERO,
        }
    }

    /// The host under test.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Mutable host access for setup before `run_until`.
    pub fn host_mut(&mut self) -> &mut Host {
        &mut self.host
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a workload thread, runnable immediately.
    pub fn add_thread(&mut self, thread: Box<dyn WorkloadThread>) {
        let at = self.now;
        self.pool.spawn_at(at, thread);
    }

    /// Adds a workload thread that first runs at `at`.
    pub fn add_thread_at(&mut self, at: SimTime, thread: Box<dyn WorkloadThread>) {
        self.pool.spawn_at(at, thread);
    }

    /// Schedules a control action at virtual time `at`.
    pub fn schedule(
        &mut self,
        at: SimTime,
        control: impl FnOnce(&mut Host, &mut ThreadPool, SimTime) + 'static,
    ) {
        self.controls.push(at, Box::new(control));
    }

    /// Schedules a steady-state window: at `at`, every thread's recorder
    /// is marked, so the final report measures `[at, end]` (warm-up
    /// excluded) — the way the paper reports after its ramp phase.
    pub fn mark_steady_state_at(&mut self, at: SimTime) {
        self.schedule(at, |_host, pool, when| pool.mark_all(when));
    }

    /// Registers a probe sampled on every tick; the samples become a named
    /// series in the report.
    pub fn add_probe(&mut self, name: impl Into<String>, f: impl Fn(&Host) -> f64 + 'static) {
        self.probes.push(Probe {
            series: TimeSeries::new(name),
            f: Box::new(f),
        });
    }

    /// Runs until virtual time `end`, then returns the report.
    ///
    /// Order at equal instants: control actions, then probe samples, then
    /// workload steps — so a reconfiguration at t is visible to the sample
    /// at t and to every operation from t on.
    pub fn run_until(&mut self, end: SimTime) -> ExperimentReport {
        loop {
            let t_ctrl = self.controls.peek_time().unwrap_or(SimTime::MAX);
            let t_sample = self.sampler.next_due();
            let (thread_idx, t_thread) = match self.pool.next_ready() {
                Some((i, t)) => (Some(i), t),
                None => (None, SimTime::MAX),
            };

            let t = t_ctrl.min(t_sample).min(t_thread);
            if t > end {
                break;
            }
            self.now = self.now.max(t);

            if t_ctrl <= t_sample && t_ctrl <= t_thread {
                let (at, control) = self.controls.pop().expect("peeked");
                control(&mut self.host, &mut self.pool, at);
            } else if t_sample <= t_thread {
                let due = self.sampler.tick(t_sample).expect("due");
                for probe in &mut self.probes {
                    probe.series.record(due, (probe.f)(&self.host));
                }
            } else {
                let idx = thread_idx.expect("a thread was earliest");
                let slot = &mut self.pool.slots[idx];
                let next = slot.thread.step(&mut self.host, t_thread);
                debug_assert!(
                    next > t_thread,
                    "workload step must advance virtual time ({})",
                    slot.thread.label()
                );
                slot.next_ready = next;
            }
        }
        self.now = end;
        self.report()
    }

    /// Builds a report for the current state (also called by
    /// [`run_until`](Self::run_until)).
    pub fn report(&self) -> ExperimentReport {
        let threads = self
            .pool
            .slots
            .iter()
            .map(|s| ThreadReport::from_recorder(s.thread.label(), s.thread.recorder(), self.now))
            .collect();
        let series = self
            .probes
            .iter()
            .map(|p| SeriesReport::from_series(&p.series))
            .collect();
        let totals = self.host.cache_totals();
        let mut faults = FaultTotals {
            ssd_quarantines: totals.ssd_quarantines,
            ssd_recoveries: totals.ssd_recoveries,
            quarantine_invalidated_pages: totals.quarantine_invalidated_pages,
            failed_gets: totals.failed_gets,
            failed_puts: totals.failed_puts,
            ..FaultTotals::default()
        };
        for vm in self.host.vm_ids() {
            let c = self.host.guest(vm).channel().counters();
            faults.channel_fail_opens += c.fail_opens;
            faults.channel_dropped_calls += c.dropped_calls;
            faults.breaker_trips += c.breaker_trips;
            faults.breaker_skipped_puts += c.breaker_skipped_puts;
            faults.breaker_recoveries += c.breaker_recoveries;
        }
        ExperimentReport {
            end: self.now.as_secs_f64(),
            threads,
            series,
            mem_cache_used_pages: totals.mem_used_pages,
            ssd_cache_used_pages: totals.ssd_used_pages,
            evictions: totals.evictions,
            faults,
        }
    }

    /// The raw sample series of a probe by name (for tests and plots).
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.probes
            .iter()
            .map(|p| &p.series)
            .find(|s| s.name() == name)
    }
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("now", &self.now)
            .field("threads", &self.pool.slots.len())
            .field("probes", &self.probes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_cleancache::CachePolicy;
    use ddc_hypercache::CacheConfig;
    use ddc_hypervisor::HostConfig;
    use ddc_workloads::{WebConfig, Webserver};

    fn small_web_experiment() -> Experiment {
        let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(2048)));
        let vm = host.boot_vm(32, 100);
        let cg = host.create_container(vm, "web", 256, CachePolicy::mem(100));
        let web = Webserver::new(
            "web/t0",
            vm,
            cg,
            WebConfig {
                files: 100,
                ..WebConfig::default()
            },
            1,
        );
        let mut exp = Experiment::new(host, SimDuration::from_secs(1));
        exp.add_thread(Box::new(web));
        exp
    }

    #[test]
    fn run_produces_progress_and_report() {
        let mut exp = small_web_experiment();
        let report = exp.run_until(SimTime::from_secs(5));
        assert_eq!(report.end, 5.0);
        assert_eq!(report.threads.len(), 1);
        assert!(report.threads[0].ops > 0);
        assert!(report.threads[0].ops_per_sec > 0.0);
        assert_eq!(exp.now(), SimTime::from_secs(5));
    }

    #[test]
    fn deterministic_across_runs() {
        let r1 = small_web_experiment().run_until(SimTime::from_secs(5));
        let r2 = small_web_experiment().run_until(SimTime::from_secs(5));
        assert_eq!(r1.threads[0].ops, r2.threads[0].ops);
        assert_eq!(r1.evictions, r2.evictions);
    }

    #[test]
    fn probes_sample_periodically() {
        let mut exp = small_web_experiment();
        exp.add_probe("cache-used", |h| h.cache_totals().mem_used_pages as f64);
        let report = exp.run_until(SimTime::from_secs(5));
        assert_eq!(report.series.len(), 1);
        assert_eq!(report.series[0].name, "cache-used");
        assert_eq!(report.series[0].points.len(), 5, "one sample per second");
        assert!(exp.series("cache-used").is_some());
        assert!(exp.series("nope").is_none());
    }

    #[test]
    fn scheduled_control_fires_in_order() {
        let mut exp = small_web_experiment();
        exp.schedule(SimTime::from_secs(2), |host, _pool, at| {
            assert_eq!(at, SimTime::from_secs(2));
            host.set_mem_cache_capacity(at, 4096);
        });
        exp.add_probe("capacity", |h| h.cache_totals().mem_capacity_pages as f64);
        exp.run_until(SimTime::from_secs(4));
        let series = exp.series("capacity").unwrap();
        assert_eq!(series.value_at(SimTime::from_secs(1)), Some(2048.0));
        assert_eq!(series.value_at(SimTime::from_secs(2)), Some(4096.0));
    }

    #[test]
    fn control_can_spawn_threads() {
        let mut host = Host::new(HostConfig::new(CacheConfig::mem_only(2048)));
        let vm = host.boot_vm(32, 100);
        let mut exp = Experiment::new(host, SimDuration::from_secs(1));
        exp.schedule(SimTime::from_secs(2), move |host, pool, at| {
            let cg = host.create_container(vm, "late", 128, CachePolicy::mem(100));
            let web = Webserver::new(
                "late/t0",
                vm,
                cg,
                WebConfig {
                    files: 20,
                    ..WebConfig::default()
                },
                9,
            );
            pool.spawn_at(at, Box::new(web));
        });
        let report = exp.run_until(SimTime::from_secs(4));
        assert_eq!(report.threads.len(), 1);
        assert!(report.threads[0].ops > 0, "late thread ran");
        assert!(report.threads[0].label.starts_with("late"));
    }

    #[test]
    fn empty_experiment_terminates() {
        let host = Host::new(HostConfig::new(CacheConfig::mem_only(16)));
        let mut exp = Experiment::new(host, SimDuration::from_secs(1));
        let report = exp.run_until(SimTime::from_secs(3));
        assert!(report.threads.is_empty());
        assert_eq!(report.end, 3.0);
    }
}
