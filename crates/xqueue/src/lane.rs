//! Per-worker task lanes for the work-stealing scheduler.
//!
//! A lane is a small bounded ring owned by one worker: the manager
//! pushes that worker's tasks into it (batched — one cursor claim per
//! symbol's worth of messages), the owner drains it in batches, and
//! idle neighbours steal half the backlog at a time. Built on the
//! Vyukov [`MpmcQueue`] so stealing needs no extra synchronisation:
//! steals are just concurrent `pop_batch` calls from non-owner threads.
//!
//! This replaces the *shared* per-type queues as the dispatch hot path:
//! with W workers hammering one queue, every operation contends on two
//! global cursors; with per-worker lanes the common case is one
//! producer (the manager) and one consumer (the owner) per ring, and
//! cross-worker traffic only happens on imbalance (steals) or overflow
//! (fallback to the shared queues).

use crate::mpmc::MpmcQueue;

/// A bounded per-worker task lane (manager-filled, owner-drained,
/// neighbour-stealable).
pub struct TaskLane<T> {
    ring: MpmcQueue<T>,
}

impl<T> TaskLane<T> {
    /// Creates a lane with capacity rounded up to the next power of two.
    pub fn new(capacity: usize) -> Self {
        Self { ring: MpmcQueue::new(capacity) }
    }

    /// Approximate backlog (racy; used for least-loaded placement and
    /// steal sizing).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Approximate emptiness (racy; diagnostics and idle checks only).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Enqueues a prefix of `values` with one cursor claim; returns how
    /// many fit. The caller overflows the tail to the shared queues.
    pub fn push_batch(&self, values: &[T]) -> usize
    where
        T: Copy,
    {
        self.ring.push_batch(values)
    }

    /// Owner dequeue of up to `max` tasks in one cursor claim.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.ring.pop_batch(out, max)
    }

    /// Steals up to half of the victim's current backlog (capped at
    /// `max`) in one cursor claim. Taking half keeps the victim's owner
    /// supplied while spreading a burst across the pool; returns how
    /// many tasks were actually stolen (the backlog is a racy estimate).
    pub fn steal_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let take = self.len().div_ceil(2).min(max);
        if take == 0 {
            return 0;
        }
        self.ring.pop_batch(out, take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_drains_fifo() {
        let lane = TaskLane::new(8);
        assert_eq!(lane.push_batch(&[1, 2, 3, 4]), 4);
        let mut out = Vec::new();
        assert_eq!(lane.pop_batch(&mut out, 8), 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn full_lane_takes_only_the_prefix_that_fits() {
        let lane = TaskLane::new(2);
        assert_eq!(lane.push_batch(&[1, 2, 3]), 2);
        assert_eq!(lane.push_batch(&[4, 5]), 0);
    }

    #[test]
    fn steal_takes_half_the_backlog() {
        let lane = TaskLane::new(16);
        assert_eq!(lane.push_batch(&[0, 1, 2, 3, 4, 5, 6, 7]), 8);
        let mut loot = Vec::new();
        assert_eq!(lane.steal_batch(&mut loot, 16), 4, "half of 8");
        assert_eq!(loot, vec![0, 1, 2, 3], "steals come from the head (FIFO)");
        assert_eq!(lane.len(), 4, "owner keeps the other half");
        loot.clear();
        assert_eq!(lane.steal_batch(&mut loot, 1), 1, "cap bounds the steal");
        assert_eq!(lane.len(), 3);
    }

    #[test]
    fn steal_from_empty_lane_is_zero() {
        let lane: TaskLane<u32> = TaskLane::new(4);
        let mut loot = Vec::new();
        assert_eq!(lane.steal_batch(&mut loot, 8), 0);
        assert!(loot.is_empty());
    }

    #[test]
    fn concurrent_owner_and_thief_lose_nothing() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        const TOTAL: usize = 8_000;
        let lane = Arc::new(TaskLane::new(64));
        let taken = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            {
                let lane = lane.clone();
                s.spawn(move || {
                    let vals: Vec<u64> = (1..=TOTAL as u64).collect();
                    let mut off = 0;
                    while off < vals.len() {
                        let n = lane.push_batch(&vals[off..(off + 8).min(vals.len())]);
                        if n == 0 {
                            std::thread::yield_now();
                        }
                        off += n;
                    }
                });
            }
            for stealer in [false, true] {
                let lane = lane.clone();
                let taken = taken.clone();
                let sum = sum.clone();
                s.spawn(move || {
                    let mut out = Vec::new();
                    while taken.load(Ordering::SeqCst) < TOTAL as u64 {
                        out.clear();
                        let n = if stealer {
                            lane.steal_batch(&mut out, 8)
                        } else {
                            lane.pop_batch(&mut out, 8)
                        };
                        if n == 0 {
                            std::thread::yield_now();
                            continue;
                        }
                        sum.fetch_add(out.iter().sum::<u64>(), Ordering::SeqCst);
                        taken.fetch_add(n as u64, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::SeqCst), TOTAL as u64);
        let t = TOTAL as u64;
        assert_eq!(sum.load(Ordering::SeqCst), t * (t + 1) / 2);
    }
}
