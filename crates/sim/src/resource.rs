//! FCFS queued-resource models.
//!
//! A device channel (a disk head, an SSD channel, a memory-copy engine) can
//! serve one request at a time. [`QueuedResource`] tracks when the channel
//! next becomes free; a request issued at `now` with service time `s`
//! starts at `max(now, busy_until)` and finishes `s` later. This captures
//! head-of-line contention between workload threads without simulating the
//! device internals.

use crate::{SimDuration, SimTime};

/// The admission result for one request on a queued resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// When service actually began (≥ the request time).
    pub start: SimTime,
    /// When service completed.
    pub finish: SimTime,
}

/// A single-channel first-come-first-served resource.
///
/// # Example
///
/// ```
/// use ddc_sim::{QueuedResource, SimDuration, SimTime};
///
/// let mut r = QueuedResource::new();
/// let g1 = r.access(SimTime::ZERO, SimDuration::from_millis(5));
/// let g2 = r.access(SimTime::ZERO, SimDuration::from_millis(5));
/// assert_eq!(g2.start, g1.finish); // second request queues behind the first
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueuedResource {
    busy_until: SimTime,
    busy_time: SimDuration,
    requests: u64,
}

impl QueuedResource {
    /// Creates an idle resource.
    pub fn new() -> QueuedResource {
        QueuedResource::default()
    }

    /// Admits a request at `now` needing `service` time, returning when it
    /// starts and finishes. The resource is busy until the finish time.
    pub fn access(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let start = now.max(self.busy_until);
        let finish = start + service;
        self.busy_until = finish;
        self.busy_time += service;
        self.requests += 1;
        Grant { start, finish }
    }

    /// Reserves the resource without performing work (e.g. a background
    /// writeback slot): identical to [`access`](Self::access) but intended
    /// for asynchronous operations whose completion the caller does not
    /// wait on.
    pub fn reserve(&mut self, now: SimTime, service: SimDuration) -> Grant {
        self.access(now, service)
    }

    /// The instant the channel next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total service time accumulated (for utilization reporting).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of requests admitted.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Utilization in `[0, 1]` over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_nanos();
        if elapsed == 0 {
            return 0.0;
        }
        (self.busy_time.as_nanos() as f64 / elapsed as f64).min(1.0)
    }
}

/// A resource with several identical parallel channels (e.g. an SSD with
/// internal parallelism). Each request is placed on the channel that frees
/// up earliest.
#[derive(Clone, Debug)]
pub struct MultiQueuedResource {
    channels: Vec<QueuedResource>,
}

impl MultiQueuedResource {
    /// Creates a resource with `channels` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> MultiQueuedResource {
        assert!(channels > 0, "need at least one channel");
        MultiQueuedResource {
            channels: vec![QueuedResource::new(); channels],
        }
    }

    /// Admits a request on the earliest-available channel.
    pub fn access(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let ch = self
            .channels
            .iter_mut()
            .min_by_key(|c| c.busy_until())
            .expect("at least one channel");
        ch.access(now, service)
    }

    /// Total requests across all channels.
    pub fn requests(&self) -> u64 {
        self.channels.iter().map(QueuedResource::requests).sum()
    }

    /// Aggregate busy time across channels.
    pub fn busy_time(&self) -> SimDuration {
        self.channels.iter().map(QueuedResource::busy_time).sum()
    }

    /// The instant every channel is idle again.
    pub fn busy_until(&self) -> SimTime {
        self.channels
            .iter()
            .map(QueuedResource::busy_until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Mean utilization across channels over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_nanos();
        if elapsed == 0 {
            return 0.0;
        }
        let total = elapsed as f64 * self.channels.len() as f64;
        (self.busy_time().as_nanos() as f64 / total).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = QueuedResource::new();
        let g = r.access(SimTime::from_secs(1), MS);
        assert_eq!(g.start, SimTime::from_secs(1));
        assert_eq!(g.finish, SimTime::from_secs(1) + MS);
    }

    #[test]
    fn contention_serializes() {
        let mut r = QueuedResource::new();
        let g1 = r.access(SimTime::ZERO, MS);
        let g2 = r.access(SimTime::ZERO, MS);
        let g3 = r.access(SimTime::ZERO, MS);
        assert_eq!(g2.start, g1.finish);
        assert_eq!(g3.start, g2.finish);
        assert_eq!(g3.finish, SimTime::ZERO + MS * 3);
    }

    #[test]
    fn gap_lets_resource_idle() {
        let mut r = QueuedResource::new();
        r.access(SimTime::ZERO, MS);
        let g = r.access(SimTime::from_secs(5), MS);
        assert_eq!(g.start, SimTime::from_secs(5));
    }

    #[test]
    fn grant_latency_accounts_for_queueing() {
        let mut r = QueuedResource::new();
        r.access(SimTime::ZERO, MS * 10);
        let g = r.access(SimTime::ZERO, MS);
        assert_eq!(
            (g.start, g.finish),
            (SimTime::ZERO + MS * 10, SimTime::ZERO + MS * 11)
        );
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut r = QueuedResource::new();
        r.access(SimTime::ZERO, SimDuration::from_secs(1));
        let u = r.utilization(SimTime::from_secs(2));
        assert!((u - 0.5).abs() < 1e-9, "expected 0.5, got {u}");
        assert_eq!(r.requests(), 1);
    }

    #[test]
    fn utilization_at_time_zero_is_zero() {
        let r = QueuedResource::new();
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn multi_channel_runs_in_parallel() {
        let mut r = MultiQueuedResource::new(2);
        let g1 = r.access(SimTime::ZERO, MS);
        let g2 = r.access(SimTime::ZERO, MS);
        let g3 = r.access(SimTime::ZERO, MS);
        // First two go in parallel; third queues behind one of them.
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g2.start, SimTime::ZERO);
        assert_eq!(g3.start, g1.finish.min(g2.finish));
        assert_eq!(r.requests(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = MultiQueuedResource::new(0);
    }
}
