//! Symbol-rate pacing for the IQ generator.
//!
//! The paper's generator "uses nanosecond-precision RDTSC timestamps to
//! precisely control the idle time between sets of packets" so frames
//! arrive at exactly the configured frame rate (measured error < 1 µs for
//! a 5 ms frame). [`Pacer`] spins on a monotonic clock until each symbol's
//! departure time; on x86-64 the underlying `Instant` reads the TSC.

use std::time::{Duration, Instant};

/// Paces emissions at a fixed interval from a start instant, immune to
/// drift (absolute schedule, not sleep-relative).
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    interval: Duration,
    next_tick: u64,
}

impl Pacer {
    /// Creates a pacer emitting every `interval`, starting now.
    pub fn new(interval: Duration) -> Self {
        Self { start: Instant::now(), interval, next_tick: 0 }
    }

    /// Absolute schedule offset of `tick`, in u64 nanoseconds. The old
    /// `interval * tick as u32` truncated the tick to 32 bits (wrapping
    /// the deadline backwards after 2^32 ticks — under an hour at
    /// sub-microsecond symbol intervals — which silently disabled
    /// pacing) and could panic on `Duration * u32` overflow. 64-bit
    /// nanosecond arithmetic covers ~584 years of schedule.
    #[inline]
    fn scheduled(&self, tick: u64) -> Duration {
        Duration::from_nanos((self.interval.as_nanos() as u64).saturating_mul(tick))
    }

    /// Busy-waits until the next tick boundary and returns the tick index.
    /// If the caller is already late, returns immediately (no tick is
    /// skipped — backlog drains at full speed, like a NIC queue).
    pub fn wait_next(&mut self) -> u64 {
        let tick = self.next_tick;
        let deadline = self.start + self.scheduled(tick);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        self.next_tick += 1;
        tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Pacer {
        /// How far behind schedule the pacer currently is (zero when on
        /// time).
        fn lag(&self) -> Duration {
            self.start.elapsed().saturating_sub(self.scheduled(self.next_tick))
        }
    }

    #[test]
    fn ticks_are_monotonic() {
        let mut p = Pacer::new(Duration::from_micros(10));
        assert_eq!(p.wait_next(), 0);
        assert_eq!(p.wait_next(), 1);
        assert_eq!(p.wait_next(), 2);
    }

    #[test]
    fn interval_is_respected_on_average() {
        // 200 ticks at 50 us = 10 ms nominal; allow generous slack for CI.
        // t0 is taken *before* the pacer's internal start instant so the
        // lower bound holds even if the thread is preempted in between.
        let t0 = Instant::now();
        let mut p = Pacer::new(Duration::from_micros(50));
        for _ in 0..200 {
            p.wait_next();
        }
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_micros(50 * 199), "finished too fast: {elapsed:?}");
        assert!(elapsed < Duration::from_millis(500), "far too slow: {elapsed:?}");
    }

    #[test]
    fn tick_beyond_u32_does_not_wrap_deadline() {
        // Regression: `interval * tick as u32` truncated the tick, so tick
        // 2^32 wrapped its deadline back to the start instant and lag()
        // reported the full elapsed time. With u64 ns math the scheduled
        // offset keeps growing, so a far-future tick shows zero lag.
        let mut p = Pacer::new(Duration::from_secs(1));
        p.next_tick = (u32::MAX as u64) + 1; // wraps to tick 0 under the bug
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(p.lag(), Duration::ZERO, "deadline wrapped backwards");
        // Saturating math: an absurd tick must not panic.
        p.next_tick = u64::MAX;
        assert_eq!(p.lag(), Duration::ZERO);
    }

    #[test]
    fn late_caller_is_not_blocked() {
        let mut p = Pacer::new(Duration::from_micros(100));
        std::thread::sleep(Duration::from_millis(2));
        // ~20 ticks behind; the next several waits return immediately.
        let t0 = Instant::now();
        for _ in 0..10 {
            p.wait_next();
        }
        assert!(t0.elapsed() < Duration::from_millis(1));
        assert!(p.lag() > Duration::from_micros(500));
    }
}
