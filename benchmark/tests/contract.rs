//! Runs the built benchmark the way the pipeline does, in `--quick`
//! mode, and checks what it prints against the contract: exit code,
//! the keys of the last line, and that the metrics are exactly the
//! registry's — which a unit test ties to `BENCHMARK.json` — with their
//! units, every value a finite number.

use agora_benchmark::json::read::parse;
use agora_benchmark::json::Json;
use agora_benchmark::metrics::{Def, END_TO_END, PER_LAYER};
use agora_benchmark::workloads::WORKLOADS;
use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_agora-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (out.status.code().unwrap_or(-1), String::from_utf8(out.stdout).expect("utf-8 output"))
}

fn check_result(stdout: &str, defs: &[Def]) {
    let line = stdout.lines().last().expect("a last line");
    let doc = parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"));
    let Json::Obj(pairs) = &doc else { panic!("last line is not an object") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed"), Some(&Json::Num(0.0)));
    assert!(matches!(doc.get("attempted"), Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics is not an object") };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.0).collect();
    assert_eq!(names, want, "the metrics printed are the registry's, in order");
    for ((name, m), (_, unit)) in metrics.iter().zip(defs) {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()), "{name}: {m:?}");
    }
}

#[test]
fn every_workload_prints_the_gated_metrics() {
    for w in &WORKLOADS {
        let (code, stdout) = run(&[
            "--workload",
            w.name,
            "--seed",
            "5",
            "--seconds",
            "20",
            "--trace",
            "0",
            "--quick",
        ]);
        assert_eq!(code, 0, "{}: {stdout}", w.name);
        assert!(stdout.contains("QUICK RUN"), "a quick run says it is not comparable");
        check_result(&stdout, &END_TO_END);
        for (name, unit) in END_TO_END {
            assert!(stdout.lines().any(|l| l.starts_with(name) && l.ends_with(unit)), "{name}");
        }
    }
}

#[test]
fn every_workload_prints_the_layer_metrics_and_writes_a_loadable_trace() {
    for w in &WORKLOADS {
        let (code, stdout) = run(&[
            "--workload",
            w.name,
            "--seed",
            "5",
            "--seconds",
            "20",
            "--trace",
            "1",
            "--quick",
        ]);
        assert_eq!(code, 0, "{}: {stdout}", w.name);
        check_result(&stdout, &PER_LAYER);
        let path = stdout
            .lines()
            .find_map(|l| l.strip_prefix("# trace written to "))
            .expect("the run names its trace file");
        let trace = parse(&std::fs::read_to_string(path).expect("trace file")).expect("trace JSON");
        let events = trace.get("traceEvents").expect("traceEvents").items();
        let named = |n: &str| {
            events.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some(n)).count()
        };
        assert!(named("frame") > 0 && named("core.data") == named("frame"), "{}", w.name);
        assert!(named("transport.recv_batch") > 0, "{}", w.name);
        assert!(named("core.kernels.decode_task_us") > 0, "{}", w.name);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let (code, stdout) = run(&["--workload", "no_such_workload"]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
}
