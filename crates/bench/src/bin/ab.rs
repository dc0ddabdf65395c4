//! Reduces an A/B log of benchmark runs to the per-workload rows of a
//! `BENCH_<n>.json` ([`agora_bench::runs`]), with the SIMD tier this
//! machine detects; or, with `--sweeps`, a log of alternating pairs of
//! `examples/*_sweeps.rs` runs to one line per sweep row. `scripts/ab.sh`
//! calls both.
//!
//! ```text
//! ab <log> <metric>:<higher|lower>:<bound>…
//! ab --sweeps <log>
//! ```
//!
//! A sweeps log is each run's output under a `== <example>, pair <n>,
//! <side>` line. A row is a line with a decimal number, read as its first;
//! it is named by the last line without one above it (its section), the
//! words before the number and the words after it, every digit in the
//! section and after the number read as `#` so that both sides name it
//! alike. Per row, both sides' medians, the pairs the change was faster
//! in and a verdict ([`sweep_verdict`]), lower being better and 0.25 the
//! bound.

use agora_bench::runs::{compare, parse, to_json, Metric, Row, Run, FAILED_SHARE};
use agora_math::SimdTier;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, log] = &args[..] {
        if flag == "--sweeps" {
            sweeps(&std::fs::read_to_string(log).expect("readable log"));
            return;
        }
    }
    let usage = "usage: ab <log> <metric>:<higher|lower>:<bound>... | ab --sweeps <log>";
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

/// `text` with every number — a run of digits and decimal points that
/// does not end a word, as `Avx512` does — read as `#`.
fn hashed(text: &str) -> String {
    let (mut out, mut word) = (String::new(), false);
    for c in text.chars() {
        match c {
            '0'..='9' if word => out.push(c),
            '0'..='9' | '.' if out.ends_with('#') => {}
            '0'..='9' => out.push('#'),
            _ => {
                word = c.is_alphabetic();
                out.push(c);
            }
        }
    }
    out
}

/// The named rows of one sweep run's output, in order.
fn sweep_rows(output: &str) -> Vec<(String, f64)> {
    let (mut section, mut rows) = (String::new(), Vec::<(String, f64)>::new());
    for line in output.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let number = |w: &&str| w.contains('.') && w.parse::<f64>().is_ok();
        let Some(at) = words.iter().position(number) else {
            section = hashed(line.trim());
            continue;
        };
        let tail = hashed(&words[at + 1..].join(" "));
        let mut key = format!("{section} / {} | {tail}", words[..at].join(" "));
        while rows.iter().any(|(k, _)| *k == key) {
            key.push('\'');
        }
        rows.push((key, words[at].parse().expect("a number")));
    }
    rows
}

/// Prints the reduction of a sweeps log.
fn sweeps(log: &str) {
    // (example, pair, side) and the rows of every run.
    let mut runs = Vec::new();
    assert!(log.is_empty() || log.starts_with("== "), "a sweeps log starts with a run head");
    let heads: Vec<(usize, &str)> =
        log.match_indices("== ").filter(|(i, _)| *i == 0 || log[..*i].ends_with('\n')).collect();
    for (k, &(start, _)) in heads.iter().enumerate() {
        let end = heads.get(k + 1).map_or(log.len(), |h| h.0);
        let (head, body) =
            log[start + 3..end].split_once('\n').unwrap_or((&log[start + 3..end], ""));
        let bad = || -> ! { panic!("not a sweep run head: {head}") };
        let [example, pair, side] = head.split(", ").collect::<Vec<_>>()[..] else { bad() };
        let pair = pair.strip_prefix("pair ").and_then(|n| n.parse().ok()).unwrap_or_else(|| bad());
        runs.push(((example, pair, side), sweep_rows(body)));
    }
    let mut names: Vec<&str> = Vec::new();
    for (_, rows) in &runs {
        for (name, _) in rows {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    let as_runs: Vec<Run> = runs
        .iter()
        .map(|&((workload, seed, side), ref rows)| Run {
            side,
            workload,
            seed,
            correct: true,
            values: rows.iter().map(|(k, v)| (k.as_str(), *v)).collect(),
        })
        .collect();
    let metrics: Vec<Metric> =
        names.iter().map(|&name| Metric { name, higher_is_better: false, bound: 0.25 }).collect();
    let mut rows = compare(&as_runs, &metrics);
    // Read with higher as better, a row's `won` counts the pairs the
    // parent was faster in.
    let slower: Vec<Metric> =
        metrics.iter().map(|&m| Metric { higher_is_better: true, ..m }).collect();
    for (r, mirror) in rows.iter_mut().zip(compare(&as_runs, &slower)) {
        r.verdict = sweep_verdict(r, mirror.won);
    }
    let width = rows.iter().map(|r| r.metric.chars().count()).max().unwrap_or(0);
    let mut example = "";
    for r in rows.iter().filter(|r| r.metric != FAILED_SHARE) {
        if r.workload != example {
            example = r.workload;
            println!("{example}: medians, parent then change, over {} pairs", r.pairs);
        }
        let pad = width - r.metric.chars().count();
        println!(
            "  {}{} {:10.2} {:10.2} {:6.3}x  won {:2}/{:<2} {}",
            r.metric,
            " ".repeat(pad),
            r.parent_median,
            r.change_median,
            r.change_median / r.parent_median,
            r.won,
            r.pairs,
            r.verdict
        );
    }
}

/// [`compare`]'s verdict on a sweep row, with `worse` held to the rule
/// that `better` has: the parent faster in `parent_won` ≥ nine tenths of
/// the pairs, and the medians apart by more than the parent's
/// interquartile distance. A sweep run lasts seconds and sits inside one
/// state of the box, so medians alone cannot tell a change from a spell.
fn sweep_verdict(r: &Row, parent_won: usize) -> &'static str {
    let spread = r.parent_q3 - r.parent_q1;
    if r.verdict == "better" {
        "better"
    } else if 10 * parent_won >= 9 * r.pairs && r.change_median - r.parent_median > spread {
        "worse"
    } else if spread > 0.25 * r.parent_median.abs() {
        "unresolved"
    } else {
        "flat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows are named alike on both sides whatever their numbers, and a
    /// name that repeats within a run is kept apart.
    #[test]
    fn sweep_rows_name_rows_by_their_words() {
        let a = "64x16, 4 IFFT tasks\n  ifft_task  14.04  warm\n  150 GEMMs  1.5  x 16, Avx2\n  ifft_task  3.0  warm";
        let b = "64x16, 32 IFFT tasks\n  ifft_task  9.5  warm\n  150 GEMMs  2.25  x 8, Avx2\n  ifft_task  1.0  warm";
        let (a, b) = (sweep_rows(a), sweep_rows(b));
        assert_eq!(a.len(), 3);
        assert_eq!(
            a.iter().map(|r| &r.0).collect::<Vec<_>>(),
            b.iter().map(|r| &r.0).collect::<Vec<_>>()
        );
        assert_eq!(a[0], ("#x16, # IFFT tasks / ifft_task | warm".to_string(), 14.04));
        assert_eq!(a[1].0, "#x16, # IFFT tasks / 150 GEMMs | x #, Avx2");
        assert_eq!(a[2].0, "#x16, # IFFT tasks / ifft_task | warm'");
    }

    /// A sweep row is `worse` only when the parent won nine tenths of the
    /// pairs, as `better` needs of the change: slower medians in a noisy
    /// spell are not enough.
    #[test]
    fn sweep_rows_are_worse_only_on_pairs() {
        let row = |verdict, change_median| Row {
            workload: "dl_sweeps",
            metric: "ifft_task",
            parent_median: 10.0,
            change_median,
            parent_q1: 9.5,
            parent_q3: 10.5,
            pairs: 10,
            won: 0,
            verdict,
        };
        assert_eq!(sweep_verdict(&row("worse", 14.0), 8), "flat", "medians, eight pairs of ten");
        assert_eq!(sweep_verdict(&row("worse", 14.0), 9), "worse");
        assert_eq!(sweep_verdict(&row("flat", 11.2), 10), "worse", "within the bound, every pair");
        assert_eq!(sweep_verdict(&row("flat", 10.8), 10), "flat", "inside the parent's spread");
        let noisy = Row { parent_q1: 7.0, parent_q3: 13.0, ..row("worse", 14.0) };
        assert_eq!(sweep_verdict(&noisy, 5), "unresolved");
    }
}
