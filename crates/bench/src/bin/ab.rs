//! Reduces an A/B log of benchmark runs to the per-workload rows of a
//! `BENCH_<n>.json` ([`agora_bench::runs`]), with the SIMD tier this
//! machine detects; `scripts/ab.sh` calls it.
//!
//! ```text
//! ab <log> <metric>:<higher|lower>:<bound>…
//! ```

use agora_bench::runs::{compare, parse, to_json, Metric};
use agora_math::SimdTier;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: ab <log> <metric>:<higher|lower>:<bound>...";
    let (log, metrics) = args.split_first().expect(usage);
    let metrics: Vec<Metric> = metrics
        .iter()
        .map(|m| match m.split(':').collect::<Vec<_>>()[..] {
            [name, better @ ("higher" | "lower"), bound] => Metric {
                name,
                higher_is_better: better == "higher",
                bound: bound.parse().expect(usage),
            },
            _ => panic!("{usage}"),
        })
        .collect();
    let log = std::fs::read_to_string(log).expect("readable log");
    let rows = to_json(&compare(&parse(&log), &metrics));
    println!("{{\"tier\": \"{:?}\", \"workloads\": {rows}}}", SimdTier::detect());
}
