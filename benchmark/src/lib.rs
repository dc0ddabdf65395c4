//! The repo benchmark: four frame workloads through the real threaded
//! engine, five gated end-to-end metrics, per-layer numbers measured
//! from outside. See README.md for what each number means and
//! `../BENCHMARK.json` for the contract the pipeline runs it under.

pub mod api;
pub mod bench;
pub mod cli;
pub mod gen;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod phases;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod watchdog;
pub mod workloads;
