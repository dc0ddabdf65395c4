//! A whole run: set-up, then the phases, then the metrics by name.
//!
//! `--trace 0` measures the five gated metrics with tracing off, in
//! rounds: every phase samples the whole run, not one stretch of it.
//! `--trace 1` is a separate, shortened run that produces the per-layer
//! numbers and the trace file; the gap between its plain and its traced
//! saturated rate is the tracing overhead it reports.

use crate::api::{Sut, TASK_NAMES};
use crate::gen::Corpus;
use crate::layers::{kernels_pass, layers_pass};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::phases::{self, frame_spans, warmup_frames, InlinePhase, Tally};
use crate::stats::{median, p1, share, tail};
use crate::sys;
use crate::trace::{self_times, Tracer};
use crate::workloads::{scaled_frames, workers_for, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Plan {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// A few frames per phase: correctness and schema only.
    pub quick: bool,
}

pub struct Outcome {
    pub metrics: MetricSet,
    pub tally: Tally,
    pub workers: usize,
    /// Where the trace went, for a traced run.
    pub trace_file: Option<PathBuf>,
}

impl Plan {
    fn workers(&self) -> usize {
        workers_for((self.workload.cells)().len(), sys::cores())
    }

    /// Frames per cell for an engine phase sized `base` at the
    /// reference length.
    fn frames(&self, base: u32, corpus: &Corpus) -> u32 {
        let warmup = warmup_frames(corpus) as u32;
        if self.quick {
            warmup + 4
        } else {
            scaled_frames(base, self.seconds, warmup)
        }
    }

    /// Rounds of a gated run.
    fn rounds(&self) -> u32 {
        if self.quick {
            1
        } else {
            self.workload.rounds
        }
    }

    fn paced_segments(&self) -> u32 {
        self.workload.paced_segments.min(self.rounds())
    }

    /// Timed inline frames per cell, in `slices` near-equal slices.
    fn inline_slices(&self, base: u32, slices: u32) -> Vec<u32> {
        let frames = if self.quick { slices } else { scaled_frames(base, self.seconds, 0) };
        (0..slices).map(|i| (frames + i) / slices).collect()
    }

    /// Ring generation plus engine (or deployment) construction, timed.
    fn set_up(&self) -> (Corpus, Duration) {
        let t0 = Instant::now();
        let corpus = Corpus::generate(&(self.workload.cells)(), self.workload.ring, self.seed);
        let sut = Sut::build(&corpus.setups(), self.workers());
        let took = t0.elapsed();
        drop(sut); // joins its workers: no idle pool beside the phases
        (corpus, took)
    }

    fn sut(&self, corpus: &Corpus) -> Sut {
        Sut::build(&corpus.setups(), self.workers())
    }
}

/// The gated run: a set-up, an inline slice, saturated passes and a
/// paced segment per round, then one more set-up and slice.
///
/// A neighbour on the host slows this box in spells of up to a minute.
/// A phase run as one stretch is inside such a spell in one run and
/// outside it in the next; cut into rounds, every metric samples the
/// whole run, and its estimator — the median set-up, the best saturated
/// pass, the first percentile of the pooled frame times — finds the quiet
/// moments among them. Each pass and segment has a fresh system and its
/// own warm-up.
pub fn end_to_end(plan: &Plan) -> Outcome {
    let mut metrics = MetricSet::new(&END_TO_END);
    let mut tally = Tally::default();
    let w = plan.workload;
    let rounds = plan.rounds();

    let (corpus, took) = plan.set_up();
    let mut setup_s = vec![took.as_secs_f64()];
    let mut set_up_again = || setup_s.push(plan.set_up().1.as_secs_f64());

    // One inline slice per round and one after the last.
    let mut slices = plan.inline_slices(w.inline_frames, rounds + 1).into_iter();
    let mut inline = InlinePhase::new(&corpus);
    let sat_frames = plan.frames(w.sat_frames, &corpus);
    let paced_frames = corpus.frames_under_cap(plan.frames(w.paced_frames, &corpus));
    let mut fps = 0.0f64;
    let mut latency_ms = Vec::new();
    let (mut on_time, mut offered) = (0u64, 0u64);
    let mut gen_late_ms_max = 0.0f64;
    for round in 0..rounds {
        if round > 0 {
            set_up_again();
        }
        inline.slice(slices.next().unwrap_or(0));

        for _ in 0..w.sat_passes {
            let sat = phases::sat(&plan.sut(&corpus), &corpus, sat_frames, None);
            tally.add(sat.run.tally);
            fps = fps.max(sat.fps);
        }
        if round < plan.paced_segments() {
            let paced = phases::paced(&plan.sut(&corpus), &corpus, paced_frames, w.paced_hz, None);
            tally.add(paced.run.tally);
            latency_ms.extend_from_slice(&paced.latency_ms);
            on_time += paced.on_time;
            offered += paced.offered;
            gen_late_ms_max = gen_late_ms_max.max(paced.gen_late_ms_max);
        }
    }
    set_up_again();
    inline.slice(slices.next().unwrap_or(0));
    tally.add(inline.tally);

    metrics.set("setup_s", median(&setup_s));
    metrics.set("frames_per_s", fps);
    metrics.set("latency_p1_ms", p1(&latency_ms));
    metrics.set("on_time_share", share(on_time as f64, offered as f64));
    metrics.set("inline_frame_ms", inline.frame_ms());
    eprintln!(
        "paced: {} Hz per cell, generator at most {gen_late_ms_max:.3} ms late (period {:.3} ms), {} samples",
        w.paced_hz,
        1e3 / w.paced_hz,
        latency_ms.len()
    );

    Outcome { metrics, tally, workers: plan.workers(), trace_file: None }
}

/// The per-layer run. `out_dir` receives the Chrome trace.
pub fn traced(plan: &Plan, out_dir: PathBuf) -> Outcome {
    let mut metrics = MetricSet::new(&PER_LAYER);
    let mut tally = Tally::default();
    let w = plan.workload;
    let (corpus, _) = plan.set_up();
    let workers = plan.workers();
    let cell = &corpus.cells[0].setup.cell;

    // Spans of the probe passes and of the traced saturated run share
    // one file but not one clock: the passes count from `epoch`, the
    // frames from the engine's own start, as their milestones do.
    let tracer = Tracer::with_capacity(1 << 16);
    let probe_budget = Duration::from_millis(if plan.quick { 1 } else { 12 });
    layers_pass(cell, plan.seed, probe_budget, &mut metrics);
    kernels_pass(cell, plan.seed, probe_budget, &tracer, Instant::now(), &mut metrics);

    // Shortened phases: the whole traced run keeps to the same length.
    let short = |base: u32, num: u32, den: u32| (base * num).div_ceil(den);
    let mut inline = InlinePhase::new(&corpus);
    inline.slice(plan.inline_slices(short(w.inline_frames, 3, 8), 1)[0]);
    tally.add(inline.tally);
    let inline_frame_ms = inline.frame_ms();
    drop(inline);

    // The plain and the traced pass do identical work.
    let sat_frames = plan.frames(short(w.sat_frames * w.sat_passes * w.rounds, 2, 5), &corpus);
    let plain = phases::sat(&plan.sut(&corpus), &corpus, sat_frames, None);
    let taped = phases::sat(&plan.sut(&corpus), &corpus, sat_frames, Some(&tracer));
    tally.add(plain.run.tally);
    tally.add(taped.run.tally);
    let taped_run = &taped.run;
    frame_spans(&tracer, taped_run, warmup_frames(&corpus));

    // core.engine: counts from the plain run, stage spans from the traced.
    let run = &plain.run;
    let c = &run.counters;
    let frames = run.frames() as f64;
    let busy: f64 = c.busy_ns.iter().sum::<u64>() as f64;
    // A task here is what the manager dispatches: one queue message.
    let tasks: f64 = c.messages.iter().sum::<u64>() as f64;
    let pool_ns = workers as f64 * run.wall.as_nanos() as f64;
    for (name, ns) in TASK_NAMES.iter().zip(c.busy_ns) {
        metrics.set(&format!("core.engine.busy_share.{name}"), share(ns as f64, busy));
    }
    metrics.set("core.engine.worker_util", share(busy, pool_ns));
    metrics
        .set("core.engine.parallel_eff", share(inline_frame_ms, workers as f64 * 1e3 / plain.fps));
    metrics.set("core.engine.sched_us_per_task", share(pool_ns - busy, tasks) / 1e3);
    metrics.set("core.engine.tasks_per_frame", share(tasks, frames));
    metrics.set("core.engine.steals_per_frame", share(c.steals as f64, frames));
    metrics.set("core.engine.parks_per_frame", share(c.parks as f64, frames));
    metrics.set(
        "core.engine.lane_overflow_share",
        share(c.lane_overflows as f64, (c.lane_pushes + c.lane_overflows) as f64),
    );
    metrics.set("core.engine.push_retries_per_frame", share(c.push_retries as f64, frames));
    metrics.set("core.engine.cpu_ms_per_frame", share(run.cpu.as_secs_f64() * 1e3, frames));
    metrics.set("core.deploy.migrations", c.migrations as f64);
    metrics.set("core.deploy.misrouted", c.misrouted as f64);
    let (lo, hi) =
        plain.cell_fps.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &f| (lo.min(f), hi.max(f)));
    metrics
        .set("core.deploy.cell_fps_skew", share(hi - lo, plain.fps / plain.cell_fps.len() as f64));

    let warmup = warmup_frames(&corpus);
    let stage = |cut: fn(&crate::api::FrameOut) -> (u64, u64)| -> f64 {
        let ms: Vec<f64> = taped_run
            .out
            .outs
            .iter()
            .flatten()
            .filter(|o| o.completed() && o.frame as usize >= warmup)
            .map(|o| {
                let (a, b) = cut(o);
                b.saturating_sub(a) as f64 / 1e6
            })
            .collect();
        median(&ms)
    };
    metrics.set(
        "core.engine.queue_wait_ms_p50",
        stage(|o| (o.first_packet_ns, o.processing_start_ns)),
    );
    metrics.set("core.engine.pilot_ms_p50", stage(|o| (o.processing_start_ns, o.pilot_done_ns)));
    metrics.set("core.engine.zf_ms_p50", stage(|o| (o.pilot_done_ns, o.zf_done_ns)));
    metrics.set("core.engine.data_ms_p50", stage(|o| (o.zf_done_ns, o.done_ns)));

    // transport, traced link.
    let tc = &taped_run.counters;
    metrics.set("transport.rx_batch_mean", share(tc.rx_packets as f64, tc.rx_batches as f64));
    metrics.set(
        "transport.rx_empty_poll_share",
        share(taped_run.out.empty_polls as f64, taped_run.out.polls as f64),
    );
    metrics.set("harness.trace_overhead_share", 1.0 - share(taped.fps, plain.fps));
    drop((plain, taped));

    let paced_frames = corpus
        .frames_under_cap(plan.frames(short(w.paced_frames * w.paced_segments, 1, 2), &corpus));
    let paced = phases::paced(&plan.sut(&corpus), &corpus, paced_frames, w.paced_hz, None);
    tally.add(paced.run.tally);
    metrics.set("transport.intake_lag_ms_p50", median(&paced.intake_lag_ms));
    // What the gated first percentile cannot see: where the middle
    // and the tail of the paced frames are.
    metrics.set("core.engine.latency_p50_ms", median(&paced.latency_ms));
    let (pct, value) = tail(&paced.latency_ms);
    metrics.set("core.engine.latency_tail_ms", value);
    metrics.set("core.engine.latency_tail_pct", pct);
    metrics.set("harness.gen_late_ms_max", paced.gen_late_ms_max);
    metrics.set("harness.peak_rss_mb", sys::peak_rss_mb());

    let trace_file = out_dir.join(format!("{}-seed{}.trace.json", w.name, plan.seed));
    print_self_times(&tracer);
    let trace_file = match tracer.write_chrome(&trace_file) {
        Ok(()) => Some(trace_file),
        Err(e) => {
            eprintln!("could not write {}: {e}", trace_file.display());
            None
        }
    };
    Outcome { metrics, tally, workers, trace_file }
}

/// Total self time by span name: where the traced time went.
fn print_self_times(tracer: &Tracer) {
    let spans = tracer.spans();
    let mut by_name: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(&spans)) {
        let e = by_name.entry((span.layer, span.name)).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    println!("# trace: self time by span (layer name spans total_ms)");
    for ((layer, name), (n, ns)) in by_name {
        println!("# {layer:<14} {name:<32} {n:>7} {:>12.3}", ns as f64 / 1e6);
    }
}
