//! The four workloads. Shapes, ring sizes, paced rates and phase
//! lengths are part of the benchmark's definition: nothing here is an
//! option, and both commits of a comparison do identical work.

use crate::api::Cell;

/// `--seconds` the frame counts below were sized for, at the seed
/// commit on two cores; other values scale every count linearly.
pub const REFERENCE_SECONDS: f64 = 25.0;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the long form is in README.md.
    pub why: &'static str,
    pub cells: fn() -> Vec<Cell>,
    /// Distinct generated frames per cell.
    pub ring: usize,
    /// Open-loop rate of the paced phase, frames/s per cell: at most
    /// 0.6 of the saturated rate measured at the seed.
    pub paced_hz: f64,
    /// Rounds of inline slice, saturated pass, paced segment. Two where
    /// the warm-up of a pass costs seconds.
    pub rounds: u32,
    /// Rounds, from the first, that have a paced segment. One where the
    /// warm-up of a segment (a window of frame periods) costs seconds.
    pub paced_segments: u32,
    /// Saturated passes per round, each on a fresh system. A pass's
    /// rate is set less by its length than by where the scheduler put
    /// its threads when it started, so where a pass is cheap a round has
    /// several short ones.
    pub sat_passes: u32,
    /// Frames per cell at [`REFERENCE_SECONDS`]: timed inline frames of
    /// the whole run, frames of one saturated pass, frames of one paced
    /// segment.
    pub inline_frames: u32,
    pub sat_frames: u32,
    pub paced_frames: u32,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ul_64x16",
        why: "The paper's 64x16 1 ms uplink frame: LDPC decode dominates, so a decode gain shows here and nowhere else.",
        cells: || vec![Cell::paper_uplink()],
        ring: 4,
        paced_hz: 1.5,
        rounds: 2,
        paced_segments: 1,
        sat_passes: 1,
        inline_frames: 9,
        sat_frames: 14,
        paced_frames: 16,
    },
    Workload {
        name: "dl_64x16",
        why: "Same cell transmitting (pilot + 13 downlink symbols): IFFT, precode GEMM and encode, no decode; catches uplink gains that cost the downlink.",
        cells: || vec![Cell::paper_downlink()],
        ring: 4,
        paced_hz: 20.0,
        rounds: 5,
        paced_segments: 5,
        sat_passes: 2,
        inline_frames: 120,
        sat_frames: 36,
        paced_frames: 44,
    },
    Workload {
        name: "ul_8x2",
        why: "8x2 uplink with microsecond tasks: packet intake, dispatch, queues and park/wake are the largest share they ever are.",
        cells: || vec![Cell::tiny_uplink()],
        ring: 8,
        paced_hz: 250.0,
        rounds: 5,
        paced_segments: 5,
        sat_passes: 3,
        inline_frames: 600,
        sat_frames: 470,
        paced_frames: 500,
    },
    Workload {
        name: "cells2_8x2",
        why: "Two 8x2 cells interleaved on one link through Deployment: the only path through the demux, per-cell managers and shared pool.",
        cells: || vec![Cell::tiny_uplink(), Cell::tiny_uplink()],
        ring: 8,
        paced_hz: 125.0,
        rounds: 5,
        paced_segments: 5,
        sat_passes: 3,
        inline_frames: 300,
        sat_frames: 340,
        paced_frames: 250,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Worker threads: the manager and the network thread each own a core
/// in the paper's design, the rest work. A deployment's pool needs one
/// worker per cell.
pub fn workers_for(cells: usize, cores: usize) -> usize {
    cores.saturating_sub(2).max(cells)
}

/// `base` frames scaled from [`REFERENCE_SECONDS`] to `seconds`, never
/// fewer than the warm-up plus four: one completion of every window slot.
pub fn scaled_frames(base: u32, seconds: f64, warmup: u32) -> u32 {
    ((f64::from(base) * seconds / REFERENCE_SECONDS).round() as u32).max(warmup + 4)
}
