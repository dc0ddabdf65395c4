//! Benchmark run logs and the parent-against-change reducer.
//!
//! `scripts/calibrate.sh` and `scripts/ab.sh` write one line per run of
//! the repo benchmark, in one shape:
//!
//! ```text
//! <side> <workload> seed <n>: attempted <a> failed <f> correct <c>  <metric> <value> …
//! ```
//!
//! Lines starting with `#` and blank lines are comments. [`parse`] reads
//! the runs, [`compare`] reduces the alternating pairs of an A/B log —
//! side `parent` against any other side — to one [`Row`] per workload
//! and metric, and [`to_json`] writes the rows as `scripts/ab.sh` records
//! them in `BENCH_<n>.json`.

/// One benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run<'a> {
    pub side: &'a str,
    pub workload: &'a str,
    pub seed: u64,
    /// The run's `correct` word: the benchmark's check of its outputs.
    pub correct: bool,
    /// `attempted`, `failed`, then every metric, in the line's order.
    pub values: Vec<(&'a str, f64)>,
}

impl Run<'_> {
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.values.iter().find(|(name, _)| *name == metric).map(|&(_, v)| v)
    }
}

/// Every run line of `log`. Panics on a line that is not a run or a
/// comment: a log the reducer misreads must not yield a verdict.
pub fn parse(log: &str) -> Vec<Run<'_>> {
    log.lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let bad = || -> ! { panic!("not a benchmark run line: {line}") };
            let (head, pairs) = line.split_once(": ").unwrap_or_else(|| bad());
            let head: Vec<&str> = head.split_whitespace().collect();
            let [side, workload, "seed", seed] = head[..] else { bad() };
            let words: Vec<&str> = pairs.split_whitespace().collect();
            let correct = match words.chunks_exact(2).find(|pair| pair[0] == "correct") {
                Some([_, "true"]) => true,
                Some([_, "false"]) => false,
                _ => bad(),
            };
            let values = words
                .chunks_exact(2)
                .filter(|pair| pair[0] != "correct")
                .map(|pair| (pair[0], pair[1].parse().unwrap_or_else(|_| bad())))
                .collect();
            let seed = seed.parse().unwrap_or_else(|_| bad());
            Run { side, workload, seed, correct, values }
        })
        .collect()
}

/// The `p`-quantile of sorted `values`, interpolating linearly between
/// the two nearest ranks (`(n - 1) * p`).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = (sorted.len() - 1) as f64 * p;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Median, first and third quartile of `values`. Panics when empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [quantile(&sorted, 0.5), quantile(&sorted, 0.25), quantile(&sorted, 0.75)]
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct Metric<'a> {
    pub name: &'a str,
    pub higher_is_better: bool,
    /// How far, relative to the parent's median, the change may be worse.
    pub bound: f64,
}

/// One workload and metric of an A/B log.
#[derive(Debug, Clone, PartialEq)]
pub struct Row<'a> {
    pub workload: &'a str,
    pub metric: &'a str,
    pub parent_median: f64,
    pub change_median: f64,
    /// The parent's first and third quartiles.
    pub parent_q1: f64,
    pub parent_q3: f64,
    /// Seeds run on both sides, and of those the ones the change read
    /// strictly better on.
    pub pairs: usize,
    pub won: usize,
    pub verdict: &'static str,
}

/// Per workload (in order of first appearance) and metric, the medians
/// of both sides over the seeds both ran, and a verdict:
/// - `better`: the change won at least nine tenths of the pairs and its
///   median is better by more than the parent's interquartile distance;
/// - `worse`: its median is worse by more than the metric's bound;
/// - `unresolved`: neither, and the parent's own spread (interquartile
///   distance over median) exceeds the bound;
/// - `flat`: none of these.
///
/// Each workload's rows end with [`FAILED_SHARE`]: per side Σ`failed` /
/// Σ`attempted` over the same pairs (in both median columns and the
/// parent's quartiles), `worse` when the change's share is higher or any
/// of its runs read `correct false`, `flat` otherwise.
pub fn compare<'a>(runs: &[Run<'a>], metrics: &[Metric<'a>]) -> Vec<Row<'a>> {
    // Each parent run with the change's run of the same workload and seed.
    let pairs: Vec<(&Run, &Run)> = runs
        .iter()
        .filter(|p| p.side == "parent")
        .filter_map(|p| {
            let same =
                |c: &&Run| c.side != "parent" && (c.workload, c.seed) == (p.workload, p.seed);
            Some((p, runs.iter().find(same)?))
        })
        .collect();
    let mut workloads = Vec::new();
    for (p, _) in &pairs {
        if !workloads.contains(&p.workload) {
            workloads.push(p.workload);
        }
    }
    let mut rows = Vec::new();
    for workload in workloads {
        let pairs: Vec<(&Run, &Run)> =
            pairs.iter().filter(|(p, _)| p.workload == workload).copied().collect();
        for m in metrics {
            let values: Vec<(f64, f64)> =
                pairs.iter().filter_map(|(p, c)| Some((p.get(m.name)?, c.get(m.name)?))).collect();
            if values.is_empty() {
                continue;
            }
            let sign = if m.higher_is_better { 1.0 } else { -1.0 };
            let [pm, q1, q3] = quartiles(&values.iter().map(|v| v.0).collect::<Vec<_>>());
            let cm = quartiles(&values.iter().map(|v| v.1).collect::<Vec<_>>())[0];
            let won = values.iter().filter(|(p, c)| sign * (c - p) > 0.0).count();
            let gain = sign * (cm - pm);
            let verdict = if 10 * won >= 9 * values.len() && gain > q3 - q1 {
                "better"
            } else if -gain > m.bound * pm.abs() {
                "worse"
            } else if q3 - q1 > m.bound * pm.abs() {
                "unresolved"
            } else {
                "flat"
            };
            rows.push(Row {
                workload,
                metric: m.name,
                parent_median: pm,
                change_median: cm,
                parent_q1: q1,
                parent_q3: q3,
                pairs: values.len(),
                won,
                verdict,
            });
        }
        rows.push(failed_share(workload, &pairs));
    }
    rows
}

/// The metric name of the per-workload failure row.
pub const FAILED_SHARE: &str = "failed_share";

/// Σ`failed` / Σ`attempted` over `runs`; zero when none attempted any.
fn failed_over_attempted<'r, 'a: 'r>(runs: impl IntoIterator<Item = &'r Run<'a>>) -> f64 {
    let (failed, attempted) = runs.into_iter().fold((0.0, 0.0), |(f, a), r| {
        (f + r.get("failed").unwrap_or(0.0), a + r.get("attempted").unwrap_or(0.0))
    });
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

/// The [`FAILED_SHARE`] row of one workload's pairs; `won` counts the
/// pairs whose change run failed a smaller share than its parent run.
fn failed_share<'a>(workload: &'a str, pairs: &[(&Run<'a>, &Run<'a>)]) -> Row<'a> {
    let parent = failed_over_attempted(pairs.iter().map(|&(p, _)| p));
    let change = failed_over_attempted(pairs.iter().map(|&(_, c)| c));
    let won = pairs
        .iter()
        .filter(|&&(p, c)| failed_over_attempted([c]) < failed_over_attempted([p]))
        .count();
    let incorrect = pairs.iter().any(|(_, c)| !c.correct);
    Row {
        workload,
        metric: FAILED_SHARE,
        parent_median: parent,
        change_median: change,
        parent_q1: parent,
        parent_q3: parent,
        pairs: pairs.len(),
        won,
        verdict: if change > parent || incorrect { "worse" } else { "flat" },
    }
}

/// The rows as a JSON array, one object per line.
pub fn to_json(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"parent_median\": {}, \
                 \"change_median\": {}, \"parent_q1\": {}, \"parent_q3\": {}, \"pairs\": {}, \
                 \"won\": {}, \"verdict\": \"{}\"}}",
                r.workload,
                r.metric,
                r.parent_median,
                r.change_median,
                r.parent_q1,
                r.parent_q3,
                r.pairs,
                r.won,
                r.verdict
            )
        })
        .collect();
    format!("[\n{}\n]", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A committed A/B log of ten alternating pairs per workload, whose
    /// summary was computed by hand, reduced again: every summary line at
    /// its foot — parent median and quartiles, change median (four
    /// significant digits, from which CHANGES.md quotes them), pairs the
    /// change won, and the verdict, where that log's "within bound" is
    /// `flat`.
    #[test]
    fn committed_log_reproduces_its_summary() {
        let log = include_str!("../../../results/logs/pr34_benchmark_runs.txt");
        let runs = parse(log);
        assert_eq!(runs.len(), 80);
        let e2e = [
            ("setup_s", false, 0.25),
            ("frames_per_s", true, 0.25),
            ("latency_p1_ms", false, 0.25),
            ("on_time_share", true, 0.05),
            ("inline_frame_ms", false, 0.25),
        ]
        .map(|(name, higher_is_better, bound)| Metric { name, higher_is_better, bound });
        let (shares, rows): (Vec<Row>, Vec<Row>) =
            compare(&runs, &e2e).into_iter().partition(|r| r.metric == FAILED_SHARE);
        // No run of that log failed a frame or read `correct false`.
        assert_eq!(shares.len(), 4);
        assert!(shares
            .iter()
            .all(|r| (r.parent_median, r.change_median, r.verdict) == (0.0, 0.0, "flat")));
        // Within half a unit of the fourth significant digit printed.
        let prints = |x: f64, printed: &str| {
            let p: f64 = printed.trim_matches(|c| "[],".contains(c)).parse().unwrap();
            p == x || (x - p).abs() <= 0.5001 * 10f64.powi(p.abs().log10().floor() as i32 - 3)
        };
        let summary: Vec<Vec<&str>> = log
            .lines()
            .skip_while(|line| !line.contains("===== summary"))
            .filter(|line| line.contains(" -> "))
            .map(|line| line[1..].split_whitespace().collect())
            .collect();
        assert_eq!((summary.len(), rows.len()), (20, 20));
        for (words, r) in summary.iter().zip(&rows) {
            // workload metric median [q1, q3] -> change pct new better won/10 spread s verdict…
            let what = format!("{} {}", r.workload, r.metric);
            assert_eq!((words[0], words[1]), (r.workload, r.metric));
            assert!(prints(r.parent_median, words[2]), "{what}: median {}", r.parent_median);
            assert!(prints(r.parent_q1, words[3]) && prints(r.parent_q3, words[4]), "{what}");
            assert!(prints(r.change_median, words[6]), "{what}: change {}", r.change_median);
            assert_eq!(words[10], format!("{}/{}", r.won, r.pairs), "{what}");
            let verdict = if words[13] == "within" { "flat" } else { words[13] };
            assert_eq!(r.verdict, verdict, "{what}");
        }
        assert!(to_json(&rows).contains(r#"{"workload": "ul_8x2", "metric": "setup_s""#));
    }

    /// Two pairs of one workload: the failure row follows the metric
    /// rows, and a change that fails a larger share of frames, or reads
    /// `correct false` on any run, is `worse` whatever its metrics say.
    #[test]
    fn failures_make_the_change_worse() {
        let log = |change: [&str; 2]| {
            format!(
                "# two pairs\n\
                 parent w seed 1: attempted 10 failed 1 correct true  frames_per_s 10\n\
                 change w seed 1: {}  frames_per_s 20\n\
                 change w seed 2: {}  frames_per_s 20\n\
                 parent w seed 2: attempted 10 failed 0 correct true  frames_per_s 10\n",
                change[0], change[1]
            )
        };
        let fps = [Metric { name: "frames_per_s", higher_is_better: true, bound: 0.25 }];
        let verdicts = |change| {
            let log = log(change);
            let rows = compare(&parse(&log), &fps);
            assert_eq!(
                rows.iter().map(|r| r.metric).collect::<Vec<_>>(),
                ["frames_per_s", FAILED_SHARE]
            );
            let r = &rows[1];
            ((r.parent_median, r.change_median, r.pairs, r.won), rows[0].verdict, r.verdict)
        };
        let ok = "attempted 10 failed 0 correct true";
        assert_eq!(verdicts([ok, ok]), ((0.05, 0.0, 2, 1), "better", "flat"));
        let failing = "attempted 10 failed 2 correct true";
        assert_eq!(verdicts([failing, ok]), ((0.05, 0.1, 2, 0), "better", "worse"));
        let wrong = "attempted 10 failed 0 correct false";
        assert_eq!(verdicts([ok, wrong]), ((0.05, 0.0, 2, 1), "better", "worse"));
    }
}
