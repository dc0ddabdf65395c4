//! The command line: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` (and `--quick` for `check.sh`). Prints every metric
//! by name and unit, then one JSON object as the last line of stdout.

use crate::bench::{end_to_end, traced, Outcome, Plan};
use crate::json::Json;
use crate::sys;
use crate::watchdog::Watchdog;
use crate::workloads::{find, WORKLOADS};
use std::path::PathBuf;
use std::time::Duration;

/// A run is killed after this long. The contract allows 180 s; a run
/// takes about 28 s at the seed, so this leaves a later, slower commit
/// room to be measured as slower rather than killed.
const HARD_LIMIT: Duration = Duration::from_secs(150);

const EXIT_USAGE: i32 = 2;
const EXIT_INCORRECT: i32 = 1;
const EXIT_WATCHDOG: i32 = 3;

#[derive(Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workload: String::new(), seed: 1, seconds: 25.0, trace: false, quick: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(out.seconds >= 1.0 && out.seconds <= 60.0) {
                    return Err(bad("1 to 60 seconds"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if find(&out.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(out)
}

/// The last line of stdout.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// Where traces go: `out/` beside this package's manifest, inside the
/// checkout whatever directory the command was started from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn main(args: Vec<String>) -> i32 {
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <name> --seed <n> --seconds <1..60> --trace <0|1> [--quick]"
            );
            return EXIT_USAGE;
        }
    };
    sys::pin_allocator();
    let workload = find(&args.workload).expect("parse checked the name");
    let plan = Plan { workload, seed: args.seed, seconds: args.seconds, quick: args.quick };

    let name = workload.name;
    let _watchdog = Watchdog::arm(HARD_LIMIT, move || {
        // Every frame of a run that never ended counts as failed.
        println!("# {name}: FAILED, killed by the watchdog after {HARD_LIMIT:?}");
        println!("{}", result_line(false, 1, 1, Json::obj::<&str>([])));
        std::process::exit(EXIT_WATCHDOG);
    });

    println!(
        "# workload {name} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.quick {
        println!("# QUICK RUN: a few frames per phase; numbers are not comparable");
    }
    let Outcome { metrics, tally, workers, trace_file } =
        if args.trace { traced(&plan, out_dir()) } else { end_to_end(&plan) };
    println!("# cores {} workers {workers}", sys::cores());
    if let Some(path) = trace_file {
        println!("# trace written to {}", path.display());
    }
    print!("{}", metrics.lines());

    let missing = metrics.missing();
    for name in &missing {
        eprintln!("error: metric {name} was not measured");
    }
    let correct = tally.failed == 0 && missing.is_empty();
    println!(
        "# frames attempted {} failed {} wrong blocks {}",
        tally.attempted, tally.failed, tally.wrong_blocks
    );
    println!("{}", result_line(correct, tally.attempted.max(1), tally.failed, metrics.to_json()));
    if correct {
        0
    } else {
        EXIT_INCORRECT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::read::parse as parse_json;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contracts_arguments_parse_in_any_order() {
        let a = parse(&args("--seed 7 --trace 1 --workload ul_8x2 --seconds 20")).unwrap();
        assert_eq!(
            a,
            Args { workload: "ul_8x2".into(), seed: 7, seconds: 20.0, trace: true, quick: false }
        );
        assert!(parse(&args("--workload dl_64x16 --quick")).unwrap().quick);
    }

    #[test]
    fn bad_arguments_are_refused_with_a_reason() {
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload ul_8x2 --seed x",
            "--workload ul_8x2 --trace 2",
            "--workload ul_8x2 --seconds 0",
            "--workload ul_8x2 --seconds 600",
            "--workload ul_8x2 --frobnicate 1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
        assert_eq!(main(args("--workload nope")), EXIT_USAGE);
    }

    #[test]
    fn every_why_fits_on_one_line_of_the_contract() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let line = result_line(true, 10, 0, Json::obj::<&str>([]));
        let doc = parse_json(&line).unwrap();
        let Json::Obj(pairs) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted"), Some(&Json::Num(10.0)));
    }
}
