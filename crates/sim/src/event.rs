//! A time-ordered event queue.
//!
//! Used by the experiment runner for scheduled control actions (booting a
//! container at t=900 s, changing cache weights at t=1800 s, …) and for
//! periodic samplers. Events at the same instant pop in insertion order, so
//! a reconfiguration script behaves exactly as written.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first, and break
        // ties by insertion sequence for stability.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-priority queue of `(SimTime, E)` pairs, stable for equal times.
///
/// # Example
///
/// ```
/// use ddc_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at instant `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn debug_shows_len_and_next() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 7u8);
        let s = format!("{q:?}");
        assert!(s.contains("EventQueue"));
        assert!(s.contains("len"));
    }
}
