//! The sharded engine's one wait policy (DESIGN.md §15.4).
//!
//! Everything a client of [`crate::sharded`] waits for on its hot paths
//! is short and held by a *running* thread: a shard lock (a get, put or
//! flush: under a microsecond; an eviction batch of the victim's home
//! shard: 5–9 µs), the single-evictor gate (one batch) and an append in
//! flight on a commit cell (~2 µs). Parking in the kernel for those
//! costs more than the wait itself — `std`'s mutex gives up after ~100
//! spins (~0.3 µs), and a parked `lock_shard` waiter was measured
//! getting its lock after 28 µs from a holder that had it for 8 — and a
//! `sched_yield` per poll is a system call per poll. So a waiter polls with [`Backoff`]: a bounded
//! number of rounds of `spin_loop` pauses, the pause doubling up to a
//! cap; then a few `yield_now` rounds, for the case where the holder is
//! not running because the waiter has its core; then the caller's
//! blocking call. The spin budget is two to four eviction batches
//! (~19 µs): past that the holder has been descheduled and spinning only
//! burns its quantum.
//!
//! Single-threaded no waiter ever runs a round: the first `try_lock`
//! succeeds and no append is in flight.

use std::sync::{Mutex, MutexGuard, TryLockError};

/// One wait in progress: how many rounds it has spent.
#[derive(Debug)]
pub(crate) struct Backoff {
    round: u32,
}

impl Backoff {
    /// The pause stops doubling at `1 << PAUSE_CAP_SHIFT` `spin_loop`
    /// hints a round (~0.4 µs): long enough that the polls (a failed
    /// `try_lock` is a compare-exchange on the holder's cache line)
    /// stay rare, short enough that a page freed mid-batch is seen well
    /// before the next one.
    const PAUSE_CAP_SHIFT: u32 = 4;
    /// Spinning rounds: 1 + 2 + 4 + 8 pauses, then 64 rounds of 16 —
    /// 1,039 pauses and 68 `try_lock`s, ~19 µs on the reference box.
    const SPIN_ROUNDS: u32 = 68;
    /// Yielding rounds before the caller should block.
    const YIELD_ROUNDS: u32 = 8;

    pub(crate) fn new() -> Backoff {
        Backoff { round: 0 }
    }

    /// Waits one round, then says whether the budget has rounds left:
    /// on `false` a caller with a blocking call makes it. One without
    /// (a committer waiting out an append) keeps calling, and keeps
    /// yielding.
    pub(crate) fn snooze(&mut self) -> bool {
        if self.round < Self::SPIN_ROUNDS {
            for _ in 0..1u32 << self.round.min(Self::PAUSE_CAP_SHIFT) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        self.round = self.round.saturating_add(1);
        self.round < Self::SPIN_ROUNDS + Self::YIELD_ROUNDS
    }

    /// Polls `mutex` once a round until it is free (`Some`) or the
    /// budget is spent (`None`).
    fn poll<'a, T>(&mut self, mutex: &'a Mutex<T>, poisoned: &str) -> Option<MutexGuard<'a, T>> {
        loop {
            let guard = try_lock(mutex, poisoned);
            if guard.is_some() || !self.snooze() {
                return guard;
            }
        }
    }
}

/// `mutex.try_lock()`, `None` while someone else holds it. Panics with
/// `poisoned` if a holder died, like `lock().expect(poisoned)` does.
pub(crate) fn try_lock<'a, T>(mutex: &'a Mutex<T>, poisoned: &str) -> Option<MutexGuard<'a, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::WouldBlock) => None,
        Err(TryLockError::Poisoned(dead)) => panic!("{poisoned}: {dead:?}"),
    }
}

/// Locks `mutex`: polls under a [`Backoff`], parks in `lock()` only once
/// the budget is spent.
pub(crate) fn lock<'a, T>(mutex: &'a Mutex<T>, poisoned: &str) -> MutexGuard<'a, T> {
    let polled = Backoff::new().poll(mutex, poisoned);
    polled.unwrap_or_else(|| mutex.lock().expect(poisoned))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::*;
    use crate::sharded::Shard;

    #[test]
    fn the_budget_is_bounded_and_ends_in_the_blocking_call() {
        let mutex = Mutex::new(Shard::default());
        let held = mutex.lock().expect("fresh");
        // Nobody will ever release it: the poll must give up by itself.
        let mut backoff = Backoff::new();
        assert!(backoff.poll(&mutex, "shard poisoned").is_none());
        assert_eq!(backoff.round, Backoff::SPIN_ROUNDS + Backoff::YIELD_ROUNDS);
        // Spent stays spent, and a wait with nothing to block on can
        // keep calling.
        assert!(!backoff.snooze() && !backoff.snooze());
        let pauses: u32 = (0..Backoff::SPIN_ROUNDS)
            .map(|round| 1 << round.min(Backoff::PAUSE_CAP_SHIFT))
            .sum();
        assert!(
            (512..=2048).contains(&pauses),
            "{pauses} pauses: the budget is two to four eviction batches"
        );
        drop(held);
        // The fallback itself: `lock` on a free mutex, and after a
        // budget's worth of waiting on a held one.
        drop(lock(&mutex, "shard poisoned"));
        std::thread::scope(|scope| {
            let held = mutex.lock().expect("free again");
            scope.spawn(|| drop(lock(&mutex, "shard poisoned")));
            // Long enough to outlast the budget and park the waiter; it
            // must come back with the lock whether it parked or not.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
        });
        assert!(try_lock(&mutex, "shard poisoned").is_some());
    }

    #[test]
    fn a_lock_released_within_the_budget_is_taken_without_parking() {
        let mutex = Mutex::new(Shard::default());
        // An attempt counts when the waiter really waited (at least one
        // round) and still got the lock from the poll. A holder that
        // loses its core for longer than the budget makes an attempt
        // void, not wrong, so try until one counts.
        let mut counted = false;
        for _ in 0..1_000 {
            let waiting = AtomicBool::new(false);
            let (rounds, polled) = std::thread::scope(|scope| {
                let held = mutex.lock().expect("nobody died");
                let waiter = scope.spawn(|| {
                    let mut backoff = Backoff::new();
                    waiting.store(true, Ordering::Release);
                    let polled = backoff.poll(&mutex, "shard poisoned").is_some();
                    (backoff.round, polled)
                });
                while !waiting.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // About a fifth of the budget, as an eviction batch
                // would hold it.
                for _ in 0..200 {
                    std::hint::spin_loop();
                }
                drop(held);
                waiter.join().expect("waiter panicked")
            });
            if rounds > 0 && polled {
                counted = true;
                break;
            }
        }
        assert!(counted, "no waiter ever got the lock from its poll");
    }
}
