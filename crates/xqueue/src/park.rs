//! Adaptive idling for worker threads: bounded spin → yield → park.
//!
//! The engine's workers used to busy-poll the task queues with an
//! unconditional `yield_now`, which burns a full core per idle worker —
//! harmless on a dedicated machine, hostile in a multi-cell deployment
//! where parked cells should leave their cores to busy ones.
//!
//! [`IdleGate`] is an eventcount: a worker that has exhausted its spin
//! budget reads the gate's epoch, re-checks its queues, and parks only
//! if the epoch is unchanged — any producer that pushed work in between
//! bumped the epoch (and woke sleepers), so the wakeup cannot be lost.
//! The waker takes the mutex only when `sleepers > 0`, keeping the
//! hot dispatch path to one atomic load in the common no-sleeper case.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Eventcount-style park/wake gate shared by a pool of workers.
pub struct IdleGate {
    /// Bumped by every wake; sleepers re-check against their snapshot.
    epoch: AtomicUsize,
    /// Number of workers inside (or committing to) `park`.
    sleepers: AtomicUsize,
    /// Serializes the epoch re-check against wakers (lost-wakeup guard).
    lock: Mutex<()>,
    cond: Condvar,
}

impl IdleGate {
    pub fn new() -> Self {
        Self {
            epoch: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Snapshot of the wake epoch. Read this *before* the final
    /// empty-queue check; pass it to [`park`](Self::park).
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Acquire)
    }

    /// Announces new work: bumps the epoch and wakes sleepers if any.
    /// Returns `true` if sleepers were (possibly) woken — callers use
    /// this to count wake events.
    pub fn wake_all(&self) -> bool {
        self.epoch.fetch_add(1, Ordering::Release);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return false;
        }
        // Taking the lock orders this wake after any in-flight parker's
        // epoch re-check: the parker either sees the new epoch and skips
        // the wait, or is already waiting and receives the notify.
        let _g = self.lock.lock().unwrap();
        self.cond.notify_all();
        true
    }

    /// Parks until the epoch moves past `seen` or `timeout` elapses.
    /// Returns `true` if the park actually slept (epoch was unchanged).
    ///
    /// The caller must re-check its queues after `epoch()` and before
    /// calling this; work pushed after the snapshot bumps the epoch and
    /// makes this return immediately.
    pub fn park(&self, seen: usize, timeout: Duration) -> bool {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let slept;
        {
            let guard = self.lock.lock().unwrap();
            if self.epoch.load(Ordering::Acquire) != seen {
                slept = false;
            } else {
                // Timeout is belt-and-braces against any missed wake;
                // correctness never depends on it.
                let _ = self.cond.wait_timeout(guard, timeout).unwrap();
                slept = true;
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        slept
    }
}

impl Default for IdleGate {
    fn default() -> Self {
        Self::new()
    }
}

/// What a worker should do on an empty poll, from [`IdleBackoff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleAction {
    /// Spin again (cheap `hint::spin_loop`).
    Spin,
    /// Yield the timeslice.
    Yield,
    /// Take an epoch snapshot, re-check queues, then park on the gate.
    Park,
}

/// Per-worker backoff ladder: `SPIN` spins, then `YIELD` yields, then
/// park until woken. Reset whenever work is found.
pub struct IdleBackoff {
    streak: u32,
}

impl IdleBackoff {
    const SPIN: u32 = 64;
    const YIELD: u32 = 16;

    pub fn new() -> Self {
        Self { streak: 0 }
    }

    /// Records an empty poll and returns the next idle action. Stays at
    /// [`IdleAction::Park`] until [`reset`](Self::reset).
    /// (Not an `Iterator`: the ladder never ends and `reset` rewinds it.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> IdleAction {
        let s = self.streak;
        self.streak = self.streak.saturating_add(1);
        if s < Self::SPIN {
            IdleAction::Spin
        } else if s < Self::SPIN + Self::YIELD {
            IdleAction::Yield
        } else {
            IdleAction::Park
        }
    }

    /// Work was found: restart the ladder at the spin stage.
    pub fn reset(&mut self) {
        self.streak = 0;
    }
}

impl Default for IdleBackoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Instant;

    impl IdleGate {
        /// Number of currently parked (or parking) workers.
        fn sleepers(&self) -> usize {
            self.sleepers.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn backoff_ladder_spins_then_yields_then_parks() {
        let mut b = IdleBackoff::new();
        for _ in 0..64 {
            assert_eq!(b.next(), IdleAction::Spin);
        }
        for _ in 0..16 {
            assert_eq!(b.next(), IdleAction::Yield);
        }
        assert_eq!(b.next(), IdleAction::Park);
        assert_eq!(b.next(), IdleAction::Park, "stays parked until reset");
        b.reset();
        assert_eq!(b.next(), IdleAction::Spin);
    }

    #[test]
    fn park_returns_immediately_when_epoch_moved() {
        let gate = IdleGate::new();
        let seen = gate.epoch();
        gate.wake_all();
        let start = Instant::now();
        let slept = gate.park(seen, Duration::from_secs(5));
        assert!(!slept);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wake_reports_sleepers_and_unblocks_them() {
        let gate = Arc::new(IdleGate::new());
        let woken = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let gate = gate.clone();
                let woken = woken.clone();
                s.spawn(move || {
                    let seen = gate.epoch();
                    gate.park(seen, Duration::from_secs(10));
                    woken.store(true, Ordering::SeqCst);
                });
            }
            // Wait until the sleeper is committed, then wake it.
            while gate.sleepers() == 0 {
                std::thread::yield_now();
            }
            assert!(gate.wake_all(), "wake with a sleeper present reports it");
            // Scope join proves the sleeper exits well before its 10s timeout.
        });
        assert!(woken.load(Ordering::SeqCst));
        assert!(!gate.wake_all(), "wake with no sleepers is a no-op");
    }

    #[test]
    fn no_lost_wakeup_under_racing_producers() {
        // A consumer parks only when a shared "queue" (counter) is empty;
        // producers increment it then wake. If the epoch protocol lost a
        // wakeup the consumer would sleep its full 2s timeout and the
        // test would exceed its budget.
        let gate = Arc::new(IdleGate::new());
        let work = Arc::new(AtomicUsize::new(0));
        const ITEMS: usize = 2_000;
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let gate = gate.clone();
                let work = work.clone();
                s.spawn(move || {
                    for _ in 0..ITEMS / 2 {
                        work.fetch_add(1, Ordering::SeqCst);
                        gate.wake_all();
                    }
                });
            }
            let gate = gate.clone();
            let work = work.clone();
            s.spawn(move || {
                let mut taken = 0;
                while taken < ITEMS {
                    let seen = gate.epoch();
                    if work.load(Ordering::SeqCst) > taken {
                        taken += 1;
                        continue;
                    }
                    gate.park(seen, Duration::from_secs(2));
                }
            });
        });
        assert!(start.elapsed() < Duration::from_secs(30), "consumer stalled: lost wakeup");
    }
}
