//! The three phases every workload runs, and the frame check they share.
//!
//! * `inline` — each frame through the single-thread processor: the
//!   baseline (core-milliseconds per frame) and the correctness
//!   reference.
//! * `sat` — the link is pre-filled and the producer already done, so
//!   there is no generator thread and the engine's own window flow
//!   control closes the loop: sustained frames per second.
//! * `paced` — open loop: one generator thread sends frame `f` at
//!   `f / rate` whatever the engine is doing; latency runs from that due
//!   time, so a stall is charged to every frame it delays.
//!
//! The first `frame_window` frames of an engine phase are warm-up.

use crate::api::{Counters, FrameOut, Inline, RunOut, Sut};
use crate::gen::{Corpus, PacedLog, Schedule};
use crate::stats::p1;
use crate::sys::cpu_time;
use crate::trace::{Span, Tracer, NO_PARENT};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A paced frame is on time if it completes within this many frame
/// periods of its due time: the paper's three-frame deadline, dilated
/// to the paced rate.
pub const DEADLINE_PERIODS: u32 = 3;

/// Frames attempted and frames that failed: dropped, never returned, or
/// returned with at least one wrong block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong_blocks: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong_blocks += other.wrong_blocks;
    }

    fn frame(&mut self, ok: bool, wrong_blocks: usize) {
        self.attempted += 1;
        self.failed += u64::from(!ok || wrong_blocks > 0);
        self.wrong_blocks += wrong_blocks as u64;
    }
}

/// The inline phase, run in slices spread over the run so that one
/// slow spell of a shared machine cannot own every sample.
pub struct InlinePhase<'a> {
    corpus: &'a Corpus,
    procs: Vec<Inline>,
    next_frame: u32,
    /// Wall time of each timed `process_frame`, per cell.
    pub frame_ms: Vec<Vec<f64>>,
    pub tally: Tally,
}

impl<'a> InlinePhase<'a> {
    /// Builds one processor per cell and runs one untimed frame through
    /// each (first touch of its buffers).
    pub fn new(corpus: &'a Corpus) -> Self {
        let procs = corpus.cells.iter().map(|c| Inline::new(&c.setup)).collect();
        let cells = corpus.cells.len();
        let mut phase = InlinePhase {
            corpus,
            procs,
            next_frame: 0,
            frame_ms: vec![Vec::new(); cells],
            tally: Tally::default(),
        };
        phase.run(1, false);
        phase
    }

    /// `frames` more timed frames per cell.
    pub fn slice(&mut self, frames: u32) {
        self.run(frames, true);
    }

    /// Uplink frames are all checked; a downlink frame costs more to
    /// check than to make (the reciprocal channel and a decode per
    /// user), so each ring frame is checked once.
    fn run(&mut self, frames: u32, timed: bool) {
        for frame in self.next_frame..self.next_frame + frames {
            for (c, cc) in self.corpus.cells.iter().enumerate() {
                let packets = self.corpus.cell_frame(c, frame);
                let t0 = Instant::now();
                let out = self.procs[c].process(frame, &packets);
                let took = t0.elapsed();
                if timed {
                    self.frame_ms[c].push(took.as_secs_f64() * 1e3);
                }
                let truth = self.corpus.truth(c, frame);
                let (_, mut wrong) = out.uplink_blocks(&cc.setup.cell, truth);
                if (frame as usize) < cc.ring.len() {
                    wrong += out.downlink_blocks(&cc.setup.cell, truth, frame).1;
                }
                self.tally.frame(true, wrong);
            }
        }
        self.next_frame += frames;
    }

    /// First-percentile frame time per cell, averaged over cells (not
    /// one percentile over all cells: two cells may differ).
    pub fn frame_ms(&self) -> f64 {
        let per_cell: Vec<f64> = self.frame_ms.iter().map(|ms| p1(ms)).collect();
        per_cell.iter().sum::<f64>() / per_cell.len() as f64
    }
}

/// One `Sut::run` with what it cost.
pub struct EngineRun {
    pub out: RunOut,
    pub counters: Counters,
    pub wall: Duration,
    pub cpu: Duration,
    pub tally: Tally,
}

impl EngineRun {
    fn measure(sut: &Sut, corpus: &Corpus, frames: u32, run: impl FnOnce() -> RunOut) -> Self {
        let before = sut.counters();
        let cpu0 = cpu_time();
        let t0 = Instant::now();
        let out = run();
        let wall = t0.elapsed();
        let cpu = cpu_time().saturating_sub(cpu0);
        let tally = check(corpus, &out.outs, frames);
        EngineRun { out, counters: sut.counters().since(&before), wall, cpu, tally }
    }

    pub fn frames(&self) -> usize {
        self.out.outs.iter().map(Vec::len).sum()
    }
}

/// Wrong blocks of a frame that came back whole against ring truth;
/// `None` for one that was dropped or never finished. A downlink frame
/// has no decoded blocks to compare — its signal is checked in the
/// inline phase — so it passes by completing.
fn wrong_blocks(corpus: &Corpus, cell: usize, out: &FrameOut) -> Option<usize> {
    let truth = corpus.truth(cell, out.frame);
    out.completed().then(|| out.uplink_blocks(&corpus.cells[cell].setup.cell, truth).1)
}

/// Every returned frame checked; frames never returned count as failed.
fn check(corpus: &Corpus, outs: &[Vec<FrameOut>], frames: u32) -> Tally {
    let mut tally = Tally::default();
    for (c, cell_outs) in outs.iter().enumerate() {
        for out in cell_outs {
            let wrong = wrong_blocks(corpus, c, out);
            tally.frame(wrong.is_some(), wrong.unwrap_or(0));
        }
        for _ in cell_outs.len()..frames as usize {
            tally.frame(false, 0);
        }
    }
    tally
}

/// One saturated pass.
pub struct SatPass {
    pub run: EngineRun,
    /// Sustained frames per second, summed over cells.
    pub fps: f64,
    pub cell_fps: Vec<f64>,
}

/// Saturated closed loop: `frames` frames per cell, pre-filled, through
/// `sut` (a fresh system: the pass has its own warm-up).
pub fn sat(sut: &Sut, corpus: &Corpus, frames: u32, tracer: Option<&Tracer>) -> SatPass {
    let frames = corpus.frames_under_cap(frames);
    let link = corpus.link_for(frames);
    let filled = corpus.prefill(&link, frames);
    let done = AtomicBool::new(true);
    let mut run = EngineRun::measure(sut, corpus, frames, || sut.run(&link, frames, &done, tracer));
    if !filled {
        // Cannot happen with a link sized by `link_for`; if it does,
        // the frames that did not fit were never offered.
        run.tally.failed = run.tally.attempted;
    }
    let warmup = warmup_frames(corpus);
    let cell_fps: Vec<f64> = run.out.outs.iter().map(|o| sustained_fps(o, warmup)).collect();
    SatPass { run, fps: cell_fps.iter().sum(), cell_fps }
}

pub fn warmup_frames(corpus: &Corpus) -> usize {
    corpus.cells.iter().map(|c| c.setup.cell.frame_window()).max().unwrap_or(0)
}

/// (frames − warm-up) ÷ (last completion − last warm-up completion).
fn sustained_fps(outs: &[FrameOut], warmup: usize) -> f64 {
    let done = |o: &FrameOut| o.completed().then_some(o.done_ns);
    let start = outs.iter().take(warmup).filter_map(done).max();
    let timed: Vec<u64> = outs.iter().skip(warmup).filter_map(done).collect();
    match (start, timed.iter().max()) {
        (Some(start), Some(&end)) if end > start => timed.len() as f64 * 1e9 / (end - start) as f64,
        _ => 0.0,
    }
}

pub struct PacedPhase {
    pub run: EngineRun,
    /// Due time → completion of each frame after warm-up that came back
    /// whole and right, ms.
    pub latency_ms: Vec<f64>,
    /// Frames offered after warm-up, and how many of them were on time.
    pub offered: u64,
    pub on_time: u64,
    /// Burst send → the engine's first packet of that frame, ms.
    pub intake_lag_ms: Vec<f64>,
    pub gen_late_ms_max: f64,
}

/// Open loop at `hz` frames per second per cell over `frames` frames.
pub fn paced(
    sut: &Sut,
    corpus: &Corpus,
    frames: u32,
    hz: f64,
    tracer: Option<&Tracer>,
) -> PacedPhase {
    let link = corpus.link_for(frames);
    // Stamped before the clock starts, so the generator thread only
    // sleeps and sends.
    let bursts: Vec<_> = (0..frames).map(|f| corpus.link_frame(f)).collect();
    let period = Duration::from_secs_f64(1.0 / hz);
    let done = AtomicBool::new(false);
    // The lead lets the engine's threads start before frame 0 is due.
    let schedule = Schedule { epoch: Instant::now(), lead: Duration::from_millis(10), period };
    let mut log = None;
    let mut run = EngineRun::measure(sut, corpus, frames, || {
        std::thread::scope(|s| {
            let generator = s.spawn(|| {
                let log = schedule.drive(&link, bursts);
                // The engine's network thread polls the link and *then*
                // reads this flag: set between the two, right after a
                // burst, it would strand that burst (seen once in ~40
                // runs, as a dropped last frame). So the flag turns true
                // only once the engine has taken the last packet.
                while link.pending() > 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                done.store(true, Ordering::Release);
                log
            });
            let out = sut.run(&link, frames, &done, tracer);
            log = Some(generator.join().expect("generator thread panicked"));
            out
        })
    });
    let log: PacedLog = log.expect("the run closure ran");
    run.tally.failed += u64::from(log.refused);

    // The engine stamps milestones from its own start, which
    // `out.started` read just before, on the schedule's clock.
    let offset = run.out.started.saturating_duration_since(schedule.epoch);
    let warmup = warmup_frames(corpus);
    let deadline = period * DEADLINE_PERIODS;
    let (mut latency_ms, mut intake_lag_ms) = (Vec::new(), Vec::new());
    let (mut offered, mut on_time) = (0u64, 0u64);
    for (c, outs) in run.out.outs.iter().enumerate() {
        offered += (frames as usize).saturating_sub(warmup) as u64;
        for out in outs.iter().filter(|o| o.frame as usize >= warmup) {
            if wrong_blocks(corpus, c, out) != Some(0) {
                continue;
            }
            let at = |ns: u64| offset + Duration::from_nanos(ns);
            let latency = at(out.done_ns).saturating_sub(schedule.due(out.frame));
            on_time += u64::from(latency <= deadline);
            latency_ms.push(latency.as_secs_f64() * 1e3);
            let lag = at(out.first_packet_ns).saturating_sub(log.sent_at[out.frame as usize]);
            intake_lag_ms.push(lag.as_secs_f64() * 1e3);
        }
    }
    let gen_late_ms_max = log.late.iter().max().map_or(0.0, |d| d.as_secs_f64() * 1e3);
    PacedPhase { run, latency_ms, offered, on_time, intake_lag_ms, gen_late_ms_max }
}

/// One root span per completed frame with the stages cut from its
/// milestones as children, on the engine's clock (ns since `run`).
pub fn frame_spans(tracer: &Tracer, run: &EngineRun, window: usize) {
    for (c, outs) in run.out.outs.iter().enumerate() {
        for o in outs.iter().filter(|o| o.completed()) {
            // Frames of one cell overlap up to `window` deep: one row each.
            let lane = 10 + (c * window + o.frame as usize % window) as u32;
            let span = |name, start_ns, end_ns: u64, parent| Span {
                name,
                layer: "core.engine",
                start_ns,
                end_ns: end_ns.max(start_ns),
                frame: i64::from(o.frame),
                parent,
                lane,
            };
            let root = tracer.record(span("frame", o.first_packet_ns, o.done_ns, NO_PARENT));
            let cuts = [
                ("core.queue_wait", o.first_packet_ns, o.processing_start_ns),
                ("core.pilot", o.processing_start_ns, o.pilot_done_ns),
                ("core.zf", o.pilot_done_ns, o.zf_done_ns),
                ("core.data", o.zf_done_ns, o.done_ns),
            ];
            for (name, start, end) in cuts {
                tracer.record(span(name, start, end, root));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Cell;

    fn tiny_sut(cells: usize) -> (Corpus, Sut) {
        let corpus = Corpus::generate(&vec![Cell::tiny_uplink(); cells], 3, 21);
        let sut = Sut::build(&corpus.setups(), cells);
        (corpus, sut)
    }

    #[test]
    fn inline_checks_every_frame_and_times_the_requested_ones() {
        let (corpus, _) = tiny_sut(2);
        let mut phase = InlinePhase::new(&corpus);
        phase.slice(3);
        phase.slice(2);
        assert_eq!(phase.frame_ms.iter().map(Vec::len).collect::<Vec<_>>(), [5, 5]);
        assert_eq!(phase.tally, Tally { attempted: 12, failed: 0, wrong_blocks: 0 });
        assert!(phase.frame_ms() > 0.0);
    }

    #[test]
    fn downlink_frames_deliver_every_users_payload_at_setup() {
        // One ring frame through the inline processor and the reciprocal
        // channel, as examples/downlink_beamforming.rs does.
        let cell = Cell::tiny_uplink().probe_variant();
        let corpus = Corpus::generate(std::slice::from_ref(&cell), 1, 5);
        let mut proc = Inline::new(&corpus.cells[0].setup);
        let out = proc.process(0, &corpus.cell_frame(0, 0));
        assert_eq!(out.downlink_blocks(&cell, corpus.truth(0, 0), 0), (2, 0));
        assert_eq!(out.uplink_blocks(&cell, corpus.truth(0, 0)), (2, 0));
        // The payload depends on the frame id the engine was given.
        assert_eq!(out.downlink_blocks(&cell, corpus.truth(0, 0), 1).1, 2);
    }

    #[test]
    fn sat_returns_every_frame_correct_and_a_rate() {
        let (corpus, sut) = tiny_sut(1);
        let pass = sat(&sut, &corpus, 12, None);
        assert_eq!(pass.run.tally, Tally { attempted: 12, failed: 0, wrong_blocks: 0 });
        assert!(pass.fps > 0.0);
        assert_eq!(pass.run.counters.messages[3], 12 * 26, "one decode per block");
    }

    #[test]
    fn paced_measures_latency_from_the_due_time_on_two_cells() {
        let (corpus, sut) = tiny_sut(2);
        let phase = paced(&sut, &corpus, 10, 100.0, None);
        assert_eq!(phase.run.tally, Tally { attempted: 20, failed: 0, wrong_blocks: 0 });
        let timed = 2 * (10 - warmup_frames(&corpus));
        assert_eq!(phase.latency_ms.len(), timed);
        assert!(phase.latency_ms.iter().all(|&ms| ms > 0.0));
        assert_eq!(phase.offered as usize, timed);
        assert!(phase.on_time <= phase.offered);
        assert!(phase.run.wall >= Duration::from_millis(90), "nine periods of 10 ms");
        assert_eq!(phase.intake_lag_ms.len(), timed);
    }

    #[test]
    fn a_frame_with_a_wrong_block_or_never_returned_is_a_failure() {
        let (corpus, sut) = tiny_sut(1);
        let link = corpus.link_for(3);
        // Frame 1 carries frame 2's payloads: decodes, but to the wrong truth.
        for f in [0u32, 1, 2] {
            let src = if f == 1 { 2 } else { f };
            let burst = corpus.cells[0].ring[src as usize].packets.iter();
            assert!(link.send_burst(burst.map(|p| crate::api::restamp(p, f))));
        }
        let out = sut.run(&link, 3, &AtomicBool::new(true), None);
        let tally = check(&corpus, &out.outs, 4);
        assert_eq!((tally.attempted, tally.failed), (4, 2), "one wrong, one missing");
        assert!(tally.wrong_blocks > 0);
    }

    #[test]
    fn sustained_rate_starts_at_the_last_warmup_completion() {
        let (corpus, sut) = tiny_sut(1);
        let pass = sat(&sut, &corpus, 8, None);
        let outs = &pass.run.out.outs[0];
        let ends = |r: std::ops::Range<usize>| outs[r].iter().map(|o| o.done_ns).max().unwrap();
        assert!((pass.fps - 4.0 * 1e9 / (ends(4..8) - ends(0..4)) as f64).abs() < 1e-6);
        assert_eq!(sustained_fps(&outs[..4], 4), 0.0, "nothing after warm-up");
    }

    #[test]
    fn frame_spans_tile_each_frame_with_its_stages() {
        let (corpus, sut) = tiny_sut(1);
        let pass = sat(&sut, &corpus, 6, None);
        let tracer = Tracer::with_capacity(64);
        frame_spans(&tracer, &pass.run, 4);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 6 * 5);
        let selfs = crate::trace::self_times(&spans);
        for (s, self_ns) in spans.iter().zip(selfs) {
            if s.name == "frame" {
                assert_eq!(self_ns, 0, "stages cover the frame");
            } else {
                assert_eq!(spans[s.parent].frame, s.frame);
            }
        }
    }
}
