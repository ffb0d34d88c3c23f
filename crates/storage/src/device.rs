//! A storage device: a latency model, an FCFS queue, and sequentiality
//! tracking.

use ddc_sim::{FaultDecision, FaultSchedule, FxHashMap, MultiQueuedResource, SimDuration, SimTime};

use crate::{BlockAddr, FileId, LatencyModel};

/// Device class, used for reporting and store-type decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Host RAM (memory cache store).
    Ram,
    /// Solid-state drive (SSD cache store).
    Ssd,
    /// Spinning disk (the backing virtual-disk store).
    Hdd,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceKind::Ram => "ram",
            DeviceKind::Ssd => "ssd",
            DeviceKind::Hdd => "hdd",
        };
        f.write_str(s)
    }
}

/// Completion record for one device IO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoCompletion {
    /// When the transfer finished; for synchronous IO the caller's virtual
    /// clock advances to this instant.
    pub finish: SimTime,
    /// Whether the access was serviced as part of a sequential stream.
    pub sequential: bool,
}

/// A failed device IO (injected via a [`FaultSchedule`]).
///
/// The device still *attempted* the transfer — the queue channel was
/// occupied and the caller discovers the failure only at `finish`, just
/// like a real drive returning a media error after the request was
/// serviced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoError {
    /// When the failure was reported to the caller.
    pub finish: SimTime,
    /// Whether the device is permanently dead (a [`ddc_sim::FaultKind::Death`]
    /// window) rather than transiently failing.
    pub permanent: bool,
}

/// A shared storage device.
///
/// The device remembers the last accessed block *per file* to classify
/// each request as sequential or random — modelling OS read-ahead plus
/// the drive's elevator/NCQ scheduling, which preserve per-stream
/// sequentiality even when several streams interleave. This is what makes
/// large streaming reads (the videoserver workload) cheap and small
/// scattered reads (webserver, mail) expensive on the HDD tier.
///
/// # Example
///
/// ```
/// use ddc_storage::{BlockAddr, Device, FileId};
/// use ddc_sim::SimTime;
///
/// let mut d = Device::hdd();
/// let first = d.read(SimTime::ZERO, BlockAddr::new(FileId(1), 0));
/// let second = d.read(first.finish, BlockAddr::new(FileId(1), 1));
/// assert!(second.sequential);
/// ```
#[derive(Clone, Debug)]
pub struct Device {
    kind: DeviceKind,
    model: LatencyModel,
    queue: MultiQueuedResource,
    last_block_by_file: FxHashMap<FileId, u64>,
    faults: Option<FaultSchedule>,
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
    io_errors: u64,
}

impl Device {
    /// Creates a device from a kind, latency model and service channel
    /// count (1 for a spindle; >1 for devices with internal parallelism).
    pub fn new(kind: DeviceKind, model: LatencyModel) -> Device {
        Device::with_channels(kind, model, 1)
    }

    /// Creates a device with `channels` parallel service channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn with_channels(kind: DeviceKind, model: LatencyModel, channels: usize) -> Device {
        Device {
            kind,
            model,
            queue: MultiQueuedResource::new(channels),
            last_block_by_file: FxHashMap::default(),
            faults: None,
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
            io_errors: 0,
        }
    }

    /// A 7200 rpm hard disk: one head assembly, one channel.
    pub fn hdd() -> Device {
        Device::new(DeviceKind::Hdd, LatencyModel::hdd())
    }

    /// A SATA consumer SSD (the paper's Kingston V300 class): modest
    /// internal parallelism behind the SATA link.
    pub fn ssd_sata() -> Device {
        Device::with_channels(DeviceKind::Ssd, LatencyModel::ssd_sata(), 2)
    }

    /// A host-RAM copy engine: memory copies proceed concurrently on the
    /// host's cores, bounded by aggregate bandwidth per channel.
    pub fn ram() -> Device {
        Device::with_channels(DeviceKind::Ram, LatencyModel::ram(), 16)
    }

    /// The device class.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Attaches (or clears) a fault schedule. Only the fallible
    /// [`try_read`](Device::try_read) / [`try_write`](Device::try_write)
    /// paths consult it; the infallible paths are unaffected.
    pub fn set_fault_schedule(&mut self, faults: Option<FaultSchedule>) {
        self.faults = faults;
    }

    /// Whether the attached fault schedule has declared the device
    /// permanently dead.
    pub fn is_dead(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.is_dead())
    }

    /// Synchronously reads one page; the caller waits until `finish`.
    pub fn read(&mut self, now: SimTime, addr: BlockAddr) -> IoCompletion {
        self.transfer(now, addr, false, FaultDecision::Ok)
            .expect("an Ok decision never faults")
    }

    /// Writes one page. A caller that does not wait for `finish`
    /// (writeback) still leaves the device occupied until then.
    pub fn write(&mut self, now: SimTime, addr: BlockAddr) -> IoCompletion {
        self.transfer(now, addr, true, FaultDecision::Ok)
            .expect("an Ok decision never faults")
    }

    /// Fallible read: like [`read`](Device::read), but consults the
    /// attached [`FaultSchedule`] first. A faulted request still occupies
    /// the queue (the device tried), and the error surfaces at `finish`.
    pub fn try_read(&mut self, now: SimTime, addr: BlockAddr) -> Result<IoCompletion, IoError> {
        let decision = self.decide(now);
        self.transfer(now, addr, false, decision)
    }

    /// Fallible write; see [`try_read`](Device::try_read).
    pub fn try_write(&mut self, now: SimTime, addr: BlockAddr) -> Result<IoCompletion, IoError> {
        let decision = self.decide(now);
        self.transfer(now, addr, true, decision)
    }

    /// Consults the fault schedule for one operation at `now`.
    fn decide(&mut self, now: SimTime) -> FaultDecision {
        match &mut self.faults {
            Some(f) => f.decide(now),
            None => FaultDecision::Ok,
        }
    }

    /// Prices, queues and counts one page transfer under `decision`.
    fn transfer(
        &mut self,
        now: SimTime,
        addr: BlockAddr,
        write: bool,
        decision: FaultDecision,
    ) -> Result<IoCompletion, IoError> {
        let sequential = self.note_access(addr);
        let base = if write {
            self.model.write(sequential)
        } else {
            self.model.read(sequential)
        };
        let cost = match decision {
            // A stalled device hangs for the stall and then errors; with
            // no deadline concept here the caller just eats the hang.
            FaultDecision::Slow(extra) | FaultDecision::Stall(extra) => base + extra,
            _ => base,
        };
        let grant = self.queue.access(now, cost);
        let (ops, bytes) = if write {
            (&mut self.writes, &mut self.bytes_written)
        } else {
            (&mut self.reads, &mut self.bytes_read)
        };
        *ops += 1;
        if matches!(decision, FaultDecision::Error | FaultDecision::Stall(_)) {
            self.io_errors += 1;
            return Err(IoError {
                finish: grant.finish,
                permanent: self.is_dead(),
            });
        }
        *bytes += crate::PAGE_SIZE;
        Ok(IoCompletion {
            finish: grant.finish,
            sequential,
        })
    }

    /// Whether `addr` continues its file's stream, updating the stream
    /// tracker. The tracker is bounded by evicting arbitrary entries once
    /// it grows past a large cap (streams are short-lived).
    fn note_access(&mut self, addr: BlockAddr) -> bool {
        let sequential = self
            .last_block_by_file
            .get(&addr.file)
            .is_some_and(|&last| addr.block == last + 1 || addr.block == last);
        if self.last_block_by_file.len() > 1 << 20 {
            self.last_block_by_file.clear();
        }
        self.last_block_by_file.insert(addr.file, addr.block);
        sequential
    }

    /// Completed read count (including failed attempts).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// IOs failed by the fault schedule.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Completed write count.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Time the device becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.queue.busy_until()
    }

    /// Device utilization over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.queue.utilization(now)
    }

    /// Aggregate service time consumed.
    pub fn busy_time(&self) -> SimDuration {
        self.queue.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileId;

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr::new(FileId(f), b)
    }

    #[test]
    fn first_access_is_random() {
        let mut d = Device::hdd();
        let io = d.read(SimTime::ZERO, addr(1, 0));
        assert!(!io.sequential);
        assert!(io.finish.saturating_since(SimTime::ZERO) > SimDuration::from_millis(3));
    }

    #[test]
    fn stream_detection() {
        let mut d = Device::hdd();
        let a = d.read(SimTime::ZERO, addr(1, 0));
        let b = d.read(a.finish, addr(1, 1));
        assert!(b.sequential);
        // A different file starts its own (initially cold) stream.
        let c = d.read(b.finish, addr(2, 2));
        assert!(!c.sequential);
        // Re-reading the same block counts as sequential (no repositioning).
        let e = d.read(c.finish, addr(2, 2));
        assert!(e.sequential);
    }

    #[test]
    fn interleaved_streams_stay_sequential_per_file() {
        // Two interleaved sequential readers keep their per-stream
        // discount (read-ahead + elevator model).
        let mut d = Device::hdd();
        let mut now = SimTime::ZERO;
        let mut seq_count = 0;
        for i in 0..10 {
            let a = d.read(now, addr(1, i));
            let b = d.read(a.finish, addr(2, i));
            now = b.finish;
            seq_count += usize::from(a.sequential) + usize::from(b.sequential);
        }
        assert_eq!(seq_count, 18, "only the two first accesses reposition");
    }

    #[test]
    fn random_access_within_file_repositions() {
        let mut d = Device::hdd();
        let a = d.read(SimTime::ZERO, addr(1, 0));
        assert!(!a.sequential);
        let b = d.read(a.finish, addr(1, 7));
        assert!(!b.sequential, "a jump within the file repositions");
        let c = d.read(b.finish, addr(1, 8));
        assert!(c.sequential);
    }

    #[test]
    fn queueing_across_callers() {
        // The HDD has a single channel: concurrent requests serialize.
        let mut d = Device::hdd();
        let a = d.read(SimTime::ZERO, addr(1, 0));
        let b = d.read(SimTime::ZERO, addr(9, 0));
        assert!(b.finish > a.finish, "second request queues");
        // The SSD has parallel channels: a small burst proceeds together.
        let mut s = Device::ssd_sata();
        let a = s.read(SimTime::ZERO, addr(1, 0));
        let b = s.read(SimTime::ZERO, addr(9, 0));
        assert_eq!(a.finish, b.finish, "parallel channels");
    }

    #[test]
    fn counters_accumulate() {
        let mut d = Device::ram();
        d.read(SimTime::ZERO, addr(1, 0));
        d.write(SimTime::ZERO, addr(1, 1));
        d.write(SimTime::ZERO, addr(1, 2));
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 2);
        assert_eq!(d.bytes_read(), crate::PAGE_SIZE);
        assert_eq!(d.bytes_written(), 2 * crate::PAGE_SIZE);
        assert!(d.busy_time() > SimDuration::ZERO);
    }

    #[test]
    fn kind_and_display() {
        assert_eq!(Device::hdd().kind(), DeviceKind::Hdd);
        assert_eq!(Device::ssd_sata().kind(), DeviceKind::Ssd);
        assert_eq!(Device::ram().kind(), DeviceKind::Ram);
        assert_eq!(DeviceKind::Ssd.to_string(), "ssd");
    }

    #[test]
    fn try_paths_match_infallible_without_schedule() {
        let mut plain = Device::ssd_sata();
        let mut tried = Device::ssd_sata();
        for b in 0..8 {
            let a = plain.read(SimTime::ZERO, addr(1, b));
            let t = tried
                .try_read(SimTime::ZERO, addr(1, b))
                .expect("no faults");
            assert_eq!(a, t);
        }
        for b in 0..8 {
            let a = plain.write(SimTime::ZERO, addr(2, b));
            let t = tried
                .try_write(SimTime::ZERO, addr(2, b))
                .expect("no faults");
            assert_eq!(a, t);
        }
        assert_eq!(plain.reads(), tried.reads());
        assert_eq!(plain.writes(), tried.writes());
        assert_eq!(plain.bytes_written(), tried.bytes_written());
        assert_eq!(tried.io_errors(), 0);
    }

    #[test]
    fn transient_errors_surface_and_occupy_queue() {
        use ddc_sim::{FaultKind, FaultSchedule};
        let mut d = Device::ssd_sata();
        d.set_fault_schedule(Some(FaultSchedule::new(1).with_window(
            SimTime::ZERO,
            None,
            FaultKind::TransientErrors { rate: 1.0 },
        )));
        let err = d.try_read(SimTime::ZERO, addr(1, 0)).unwrap_err();
        assert!(err.finish > SimTime::ZERO, "the attempt took device time");
        assert!(!err.permanent);
        assert_eq!(d.io_errors(), 1);
        assert_eq!(d.bytes_read(), 0, "failed transfers move no data");
        assert!(d.busy_time() > SimDuration::ZERO);
    }

    #[test]
    fn latency_spike_slows_but_succeeds() {
        use ddc_sim::{FaultKind, FaultSchedule};
        let mut slow = Device::ssd_sata();
        slow.set_fault_schedule(Some(FaultSchedule::new(1).with_window(
            SimTime::ZERO,
            None,
            FaultKind::LatencySpike {
                extra: SimDuration::from_millis(10),
            },
        )));
        let mut fast = Device::ssd_sata();
        let s = slow.try_read(SimTime::ZERO, addr(1, 0)).unwrap();
        let f = fast.try_read(SimTime::ZERO, addr(1, 0)).unwrap();
        assert_eq!(
            s.finish,
            f.finish + SimDuration::from_millis(10),
            "the spike adds exactly the configured extra"
        );
    }

    #[test]
    fn death_is_permanent_on_device() {
        use ddc_sim::{FaultKind, FaultSchedule};
        let mut d = Device::ssd_sata();
        d.set_fault_schedule(Some(FaultSchedule::new(1).with_window(
            SimTime::from_secs(1),
            None,
            FaultKind::Death,
        )));
        assert!(d.try_write(SimTime::ZERO, addr(1, 0)).is_ok());
        assert!(!d.is_dead());
        let err = d.try_write(SimTime::from_secs(2), addr(1, 1)).unwrap_err();
        assert!(err.permanent);
        assert!(d.is_dead());
        assert!(d.try_write(SimTime::from_secs(99), addr(1, 2)).is_err());
    }

    #[test]
    fn ram_faster_than_ssd_faster_than_hdd_end_to_end() {
        let mut ram = Device::ram();
        let mut ssd = Device::ssd_sata();
        let mut hdd = Device::hdd();
        let r = ram.read(SimTime::ZERO, addr(1, 0)).finish;
        let s = ssd.read(SimTime::ZERO, addr(1, 0)).finish;
        let h = hdd.read(SimTime::ZERO, addr(1, 0)).finish;
        assert!(r < s && s < h);
    }
}
