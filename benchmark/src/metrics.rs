//! The metric registry: every name the benchmark may emit, with its
//! unit. `../BENCHMARK.json` lists the same names (a self-test keeps
//! the two in step), and [`MetricSet`] refuses a name that is not
//! registered, so code and contract cannot drift apart silently.

use crate::json::Json;

/// `(name, unit)`.
pub type Def = (&'static str, &'static str);

/// The gated metrics, printed with `--trace 0`. Same five on every
/// workload; definitions in README.md.
pub const END_TO_END: [Def; 5] = [
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("latency_p1_ms", "ms"),
    ("on_time_share", "share"),
    ("inline_frame_ms", "ms"),
];

/// The per-layer metrics, printed with `--trace 1`. A layer is a crate
/// or a `core` module; the prefix names it.
pub const PER_LAYER: [Def; 60] = [
    // transport — leaf calls, then the traced link.
    ("transport.header_ns", "ns"),
    ("transport.mem_ns_per_pkt", "ns"),
    ("transport.pool_cycle_ns", "ns"),
    ("transport.demux_ns_per_pkt", "ns"),
    ("transport.udp_pps", "1/s"),
    ("transport.rx_batch_mean", "count"),
    ("transport.rx_empty_poll_share", "share"),
    ("transport.intake_lag_ms_p50", "ms"),
    // fft
    ("fft.fwd_us", "us"),
    ("fft.inv_us", "us"),
    // mimo-math
    ("mimo-math.gemm_eq_ns", "ns"),
    ("mimo-math.gemm_pre_ns", "ns"),
    ("mimo-math.pinv_us", "us"),
    // phy
    ("phy.demod_sc_ns", "ns"),
    ("phy.precode_sc_ns", "ns"),
    ("phy.zf_group_us", "us"),
    // ldpc
    ("ldpc.decode_f32_us", "us"),
    ("ldpc.decode_f32_iters", "count"),
    ("ldpc.decode_i8_us", "us"),
    ("ldpc.encode_us", "us"),
    // xqueue
    ("xqueue.mpmc_ns_per_op", "ns"),
    ("xqueue.lane_ns_per_msg", "ns"),
    ("xqueue.steal_ns_per_msg", "ns"),
    ("xqueue.handoff_us", "us"),
    // core.kernels — task bodies on buffers primed by one inline frame.
    ("core.kernels.fft_task_us", "us"),
    ("core.kernels.zf_task_us", "us"),
    ("core.kernels.demod_sc_ns", "ns"),
    ("core.kernels.decode_task_us", "us"),
    ("core.kernels.encode_task_us", "us"),
    ("core.kernels.precode_sc_ns", "ns"),
    ("core.kernels.ifft_task_us", "us"),
    // core.engine — the traced saturated and paced runs.
    ("core.engine.queue_wait_ms_p50", "ms"),
    ("core.engine.pilot_ms_p50", "ms"),
    ("core.engine.zf_ms_p50", "ms"),
    ("core.engine.data_ms_p50", "ms"),
    ("core.engine.busy_share.fft", "share"),
    ("core.engine.busy_share.zf", "share"),
    ("core.engine.busy_share.demod", "share"),
    ("core.engine.busy_share.decode", "share"),
    ("core.engine.busy_share.encode", "share"),
    ("core.engine.busy_share.precode", "share"),
    ("core.engine.busy_share.ifft", "share"),
    ("core.engine.worker_util", "share"),
    ("core.engine.parallel_eff", "share"),
    ("core.engine.sched_us_per_task", "us"),
    ("core.engine.tasks_per_frame", "count"),
    ("core.engine.steals_per_frame", "count"),
    ("core.engine.parks_per_frame", "count"),
    ("core.engine.lane_overflow_share", "share"),
    ("core.engine.push_retries_per_frame", "count"),
    ("core.engine.cpu_ms_per_frame", "ms"),
    ("core.engine.latency_p50_ms", "ms"),
    ("core.engine.latency_tail_ms", "ms"),
    ("core.engine.latency_tail_pct", "%"),
    // core.deploy — zero on the single-engine workloads.
    ("core.deploy.migrations", "count"),
    ("core.deploy.cell_fps_skew", "share"),
    ("core.deploy.misrouted", "count"),
    // harness — the benchmark's own cost and fidelity.
    ("harness.gen_late_ms_max", "ms"),
    ("harness.trace_overhead_share", "share"),
    ("harness.peak_rss_mb", "MB"),
];

/// Values collected for one of the two registries.
pub struct MetricSet {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn new(defs: &'static [Def]) -> Self {
        Self { defs, values: vec![None; defs.len()] }
    }

    /// Records `value` under a registered name.
    ///
    /// # Panics
    /// If `name` is not in this set's registry — a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.defs.iter().position(|(n, _)| *n == name).and_then(|i| self.values[i])
    }

    /// Names never set or set to a non-finite value.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(f64::is_finite))
            .map(|((n, _), _)| *n)
            .collect()
    }

    /// One `name value unit` line per metric, for people.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for ((name, unit), v) in self.defs.iter().zip(&self.values) {
            let v = v.map_or("missing".to_string(), |v| format!("{v}"));
            out.push_str(&format!("{name:<40} {v} {unit}\n"));
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::obj(self.defs.iter().zip(&self.values).map(|((name, unit), v)| {
            (
                *name,
                Json::obj([
                    ("value", Json::Num(v.unwrap_or(f64::NAN))),
                    ("unit", Json::Str((*unit).into())),
                ]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::read::parse;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        let mut c = s.chars();
        c.next().is_some_and(|f| f.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        let workloads = WORKLOADS.iter().map(|w| w.name);
        for name in END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).chain(workloads) {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(unit), "bad unit {unit}");
        }
        assert!(!name_ok(".x") && !name_ok("a b") && !unit_ok("µs"));
    }

    /// Every workload and metric in `BENCHMARK.json` is one the code
    /// emits, with the same unit, and the reverse.
    #[test]
    fn benchmark_json_and_the_registry_agree() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let pairs = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name").to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
                    )
                })
                .collect()
        };
        let own = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        let listed: Vec<String> = pairs("workloads").into_iter().map(|p| p.0).collect();
        let coded: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed, coded);
        assert_eq!(doc.get("paths").expect("paths").items(), [Json::Str("benchmark".into())]);
    }

    #[test]
    fn a_set_reports_what_is_missing_and_refuses_unknown_names() {
        let mut m = MetricSet::new(&END_TO_END);
        m.set("setup_s", 0.5);
        m.set("frames_per_s", f64::NAN);
        assert_eq!(m.missing().len(), 4);
        assert_eq!(m.get("setup_s"), Some(0.5));
        assert!(std::panic::catch_unwind(move || m.set("nope", 1.0)).is_err());
    }
}
