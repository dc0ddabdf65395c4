//! A hard wall-clock limit on a run.
//!
//! `process_fronthaul` returns only when every frame has been returned,
//! and with no frame deadline set an incomplete frame is reaped only
//! after the producer reports done — so a frame that never completes,
//! or a producer flag that never turns true, would hang the benchmark
//! for ever. The watchdog turns that into a failed run.

use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Runs `on_expire` on its own thread if it is still alive after
/// `limit`. Dropping it (the run finished) disarms it and joins.
pub struct Watchdog {
    disarm: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn arm(limit: Duration, on_expire: impl FnOnce() + Send + 'static) -> Watchdog {
        let (disarm, armed) = channel::<()>();
        let thread = std::thread::Builder::new()
            .name("bench-watchdog".into())
            .spawn(move || {
                if armed.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                    on_expire();
                }
            })
            .expect("failed to spawn the watchdog");
        Watchdog { disarm: Some(disarm), thread: Some(thread) }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Closing the channel wakes the thread with `Disconnected`.
        drop(self.disarm.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Cell, Sut};
    use crate::gen::Corpus;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn a_finished_run_disarms_it() {
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let dog =
            Watchdog::arm(Duration::from_millis(50), move || flag.store(true, Ordering::SeqCst));
        drop(dog);
        std::thread::sleep(Duration::from_millis(80));
        assert!(!fired.load(Ordering::SeqCst));
    }

    /// A link whose `producer_done` never turns true, holding one frame
    /// short of a packet: the engine waits for ever, the watchdog fires.
    /// (In the test its action releases the engine; in the benchmark it
    /// prints the failure and exits.)
    #[test]
    fn it_fires_on_a_producer_that_never_finishes() {
        let corpus = Corpus::generate(&[Cell::tiny_uplink()], 1, 8);
        let link = corpus.link_for(1);
        let mut frame = corpus.link_frame(0);
        frame.pop();
        assert!(link.send_burst(frame));
        let sut = Sut::build(&corpus.setups(), 1);

        let producer_done = Arc::new(AtomicBool::new(false));
        let fired = Arc::new(AtomicBool::new(false));
        let (done, flag) = (producer_done.clone(), fired.clone());
        let t0 = Instant::now();
        let dog = Watchdog::arm(Duration::from_millis(300), move || {
            flag.store(true, Ordering::SeqCst);
            done.store(true, Ordering::Release);
        });
        let out = sut.run(&link, 1, &producer_done, None);
        drop(dog);
        assert!(fired.load(Ordering::SeqCst), "only the watchdog can end this run");
        assert!(t0.elapsed() >= Duration::from_millis(300));
        assert!(out.outs[0][0].dropped, "the incomplete frame comes back dropped");
    }
}
