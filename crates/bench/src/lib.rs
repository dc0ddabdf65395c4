//! # agora-bench — experiment harness
//!
//! Two binaries: `repro`, every table and figure of the paper's
//! evaluation (§6) as one table of named rows, and `parity`, the
//! release-build parity checks CI runs. Each `repro` row prints the
//! paper's rows/series to stdout and writes CSV under `results/`;
//! `repro` with no argument runs every row. Kernel and queue timings are
//! not measured here: the repo benchmark (`benchmark/`, `--trace 1`) is
//! the one harness for them.
//!
//! | `repro` row | reproduces |
//! |---|---|
//! | `fig6_latency` | Fig 6: latency & min cores vs frame length, UL+DL |
//! | `fig7_ccdf` | Fig 7: uplink latency CCDF, four MIMO configs |
//! | `fig8_scalability` | Fig 8: processing time & speedup vs cores |
//! | `fig8_cells` | Fig 8, deployment flavour: aggregate throughput vs cell count at a fixed total core budget |
//! | `fig9_bler` | Fig 9: worst-user BLER vs number of users |
//! | `fig10_datamove` | Fig 10: data movement vs cores / antennas |
//! | `fig11_sync` | Fig 11: synchronisation overhead vs antennas |
//! | `fig12_ldpc` | Fig 12: LDPC BER & decode time; the f32-vs-i8 decoding-plane sweep |
//! | `fig13_breakdown` | Fig 13: block latency + milestones, DP vs PP |
//! | `table3_blocks` | Table 3: per-block cost breakdown |
//! | `table4_ablation` | Table 4: optimisation ablations |
//! | `table5_simd` | Table 5: SIMD-tier sensitivity |
//! | `ext_ablations` | Extensions: stale-precoder early start, batch-size sweep (simulator) |
//! | `ext_faults` | Extension: frame survival under injected fronthaul loss / reorder / duplication |
//! | `model_check` | The simulator against the benchmark runs it is calibrated on: predicted vs measured per workload |
//!
//! The multi-core latency figures run on the discrete-event simulator
//! (`agora_core::sim`) because this machine exposes two cores — see
//! DESIGN.md §3 substitution 4. Its kernel and queue costs are the
//! benchmark's own measurements ([`calibration`]).

pub mod csv;
pub mod runs;

use agora_core::sim::{Calibration, CostModel};

/// The benchmark runs the simulator is calibrated on, written by
/// `scripts/calibrate.sh` in the shape [`runs::parse`] reads.
const CALIBRATION: &str = include_str!("../../../results/calibration.txt");

/// The median of `metric` over the calibration runs of `workload` that
/// report it. Panics when none does: the benchmark renamed or dropped a
/// metric the simulator reads, and `scripts/calibrate.sh` must be rerun
/// (or this reader changed) before any figure is trusted.
pub fn calibration_median(workload: &str, metric: &str) -> f64 {
    let values: Vec<f64> = runs::parse(CALIBRATION)
        .iter()
        .filter(|run| run.workload == workload)
        .filter_map(|run| run.get(metric))
        .collect();
    assert!(!values.is_empty(), "results/calibration.txt: no {metric} for {workload}");
    runs::quartiles(&values)[0]
}

/// The simulator's calibration: the medians of the benchmark's 64x16
/// task costs (`core.kernels.*`) and queue costs (`xqueue.*`) over the
/// `ul_64x16 --trace 1` runs of `results/calibration.txt`.
pub fn calibration() -> Calibration {
    let ns = |metric| calibration_median("ul_64x16", metric);
    let us = |metric| 1e3 * ns(metric);
    Calibration {
        costs: CostModel {
            fft_ns: us("core.kernels.fft_task_us"),
            zf_ns: us("core.kernels.zf_task_us"),
            demod_sc_ns: ns("core.kernels.demod_sc_ns"),
            decode_ns: us("core.kernels.decode_task_us"),
            encode_ns: us("core.kernels.encode_task_us"),
            precode_sc_ns: ns("core.kernels.precode_sc_ns"),
            ifft_ns: us("core.kernels.ifft_task_us"),
        },
        queue_op_ns: ns("xqueue.mpmc_ns_per_op"),
        lane_msg_ns: ns("xqueue.lane_ns_per_msg"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the simulator and `repro model_check` read is in the
    /// committed file, so a renamed benchmark metric fails here and not
    /// in a figure.
    #[test]
    fn committed_calibration_has_every_metric() {
        let cal = calibration();
        let c = cal.costs;
        let costs = [
            c.fft_ns,
            c.zf_ns,
            c.demod_sc_ns,
            c.decode_ns,
            c.encode_ns,
            c.precode_sc_ns,
            c.ifft_ns,
            cal.queue_op_ns,
            cal.lane_msg_ns,
        ];
        assert!(costs.iter().all(|&x| x.is_finite() && x > 0.0), "{cal:?}");
        for workload in ["ul_64x16", "dl_64x16", "ul_8x2", "cells2_8x2"] {
            for metric in ["inline_frame_ms", "frames_per_s", "latency_p1_ms"] {
                assert!(calibration_median(workload, metric) > 0.0, "{workload} {metric}");
            }
        }
        assert!(calibration_median("ul_64x16", "core.engine.latency_p50_ms") > 0.0);
    }
}
