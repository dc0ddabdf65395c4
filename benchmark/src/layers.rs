//! The layers and kernels passes of a traced run: each probe timed on
//! its own, on this thread, with nothing else running.

use crate::api::{self, Cell, Probe};
use crate::gen::Corpus;
use crate::metrics::MetricSet;
use crate::stats::median;
use crate::trace::{Span, Tracer, NO_FRAME, NO_PARENT};
use std::time::{Duration, Instant};

/// Calls per probe: enough for a steady median, capped by time so the
/// millisecond-scale ones (64×16 decode) do not eat the run.
const MAX_CALLS: usize = 400;
const MIN_CALLS: usize = 5;

/// Median wall time of one `run`, in nanoseconds, over up to
/// [`MAX_CALLS`] calls or `budget`, whichever ends first. `on_call`
/// sees each call's start and end.
fn time_probe(
    probe: &mut Probe,
    budget: Duration,
    mut on_call: impl FnMut(Instant, Instant),
) -> f64 {
    (probe.run)(); // first call pays page faults and cold caches
    let mut samples = Vec::with_capacity(MAX_CALLS);
    let begun = Instant::now();
    while samples.len() < MAX_CALLS && (samples.len() < MIN_CALLS || begun.elapsed() < budget) {
        let t0 = Instant::now();
        (probe.run)();
        let t1 = Instant::now();
        on_call(t0, t1);
        samples.push((t1 - t0).as_nanos() as f64);
    }
    median(&samples)
}

fn record(metrics: &mut MetricSet, probe: &Probe, ns_per_call: f64) {
    metrics.set(probe.metric, ns_per_call / probe.items / probe.unit_ns);
}

/// Leaf public functions of every layer at the cell's own sizes.
pub fn layers_pass(cell: &Cell, seed: u64, budget: Duration, metrics: &mut MetricSet) {
    for mut probe in api::layer_probes(cell, seed) {
        let ns = time_probe(&mut probe, budget, |_, _| {});
        record(metrics, &probe, ns);
    }
    metrics.set("ldpc.decode_f32_iters", api::decode_iterations(cell, seed));
    metrics.set("xqueue.handoff_us", api::handoff_us(2000));
    metrics.set("transport.udp_pps", api::udp_pps(cell, 40));
}

/// The engine's task bodies on buffers primed by one inline frame, one
/// span per task body on the tracer's clock (`epoch`).
pub fn kernels_pass(
    cell: &Cell,
    seed: u64,
    budget: Duration,
    tracer: &Tracer,
    epoch: Instant,
    metrics: &mut MetricSet,
) {
    let corpus = Corpus::generate(&[cell.probe_variant()], 1, seed);
    let packets = corpus.cell_frame(0, 0);
    for mut probe in api::kernel_probes(&corpus.cells[0].setup, &packets) {
        let name = probe.metric;
        let ns = time_probe(&mut probe, budget, |t0, t1| {
            tracer.record(Span {
                name,
                layer: "core.kernels",
                start_ns: (t0 - epoch).as_nanos() as u64,
                end_ns: (t1 - epoch).as_nanos() as u64,
                frame: NO_FRAME,
                parent: NO_PARENT,
                lane: 3,
            });
        });
        record(metrics, &probe, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn both_passes_fill_every_leaf_and_kernel_metric() {
        let cell = Cell::tiny_uplink();
        let mut metrics = MetricSet::new(&PER_LAYER);
        let tracer = Tracer::with_capacity(1024);
        let budget = Duration::from_millis(2);
        layers_pass(&cell, 3, budget, &mut metrics);
        kernels_pass(&cell, 3, budget, &tracer, Instant::now(), &mut metrics);
        let layers =
            ["transport.", "fft.", "mimo-math.", "phy.", "ldpc.", "xqueue.", "core.kernels."];
        let traced_only = [
            "transport.rx_batch_mean",
            "transport.rx_empty_poll_share",
            "transport.intake_lag_ms_p50",
        ];
        for (name, _) in PER_LAYER {
            if layers.iter().any(|l| name.starts_with(l)) && !traced_only.contains(&name) {
                let v = metrics.get(name).unwrap_or_else(|| panic!("{name} not measured"));
                assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
                if name != "transport.udp_pps" {
                    assert!(v > 0.0, "{name} = {v}");
                }
            }
        }
        assert_eq!(metrics.get("ldpc.decode_f32_iters"), Some(api::decode_iterations(&cell, 3)));
        let spans = tracer.spans();
        assert!(spans.len() >= 7 * MIN_CALLS);
        assert!(spans.iter().all(|s| s.layer == "core.kernels" && s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_probe_is_timed_per_item_in_its_unit() {
        let mut metrics = MetricSet::new(&PER_LAYER);
        let probe = Probe { metric: "fft.fwd_us", items: 4.0, unit_ns: 1e3, run: Box::new(|| {}) };
        record(&mut metrics, &probe, 8_000.0);
        assert_eq!(metrics.get("fft.fwd_us"), Some(2.0));
    }
}
