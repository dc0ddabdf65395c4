//! # agora-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§6). Each
//! prints the paper's rows/series to stdout and writes CSV under
//! `results/`. Kernel and queue timings are not measured here: the repo
//! benchmark (`benchmark/`, `--trace 1`) is the one harness for them.
//!
//! | target | reproduces |
//! |---|---|
//! | `fig6_latency` | Fig 6: latency & min cores vs frame length, UL+DL |
//! | `fig7_ccdf` | Fig 7: uplink latency CCDF, four MIMO configs |
//! | `fig8_scalability` | Fig 8: processing time & speedup vs cores |
//! | `fig9_bler` | Fig 9: worst-user BLER vs number of users |
//! | `table3_blocks` | Table 3: per-block cost breakdown |
//! | `fig10_datamove` | Fig 10: data movement vs cores / antennas |
//! | `fig11_sync` | Fig 11: synchronisation overhead vs antennas |
//! | `fig12_ldpc` | Fig 12: LDPC BER & decode time |
//! | `fig13_breakdown` | Fig 13: block latency + milestones, DP vs PP |
//! | `table4_ablation` | Table 4: optimisation ablations |
//! | `table5_simd` | Table 5: SIMD-tier sensitivity |
//! | `fig8_cells` | Fig 8, deployment flavour: aggregate throughput vs cell count at a fixed total core budget |
//! | `ext_ablations` | Extensions: stale-precoder early start, batch-size sweep (simulator) |
//! | `ext_faults` | Extension: frame survival under injected fronthaul loss / reorder / duplication |
//! | `parity` | CI smoke: every release-build parity check (SIMD tiers, batched FFT, ZF solvers, fronthaul I/O paths, deployment ledgers, lanes vs inline) as one table; `parity [name…]` runs a subset |
//!
//! The multi-core latency figures run on the calibrated discrete-event
//! simulator (`agora_core::sim`) because this machine exposes two
//! cores — see DESIGN.md §3 substitution 4. Kernel calibration
//! ([`calibrate`]) measures the real Rust kernels and feeds their costs
//! into the simulator.

pub mod calibrate;
pub mod csv;

pub use calibrate::{calibrate, Calibration};
