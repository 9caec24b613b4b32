//! Alternating parent/change pairs of one benchmark workload.
//!
//! ```sh
//! cargo run --release --offline -p hive-bench --bin pairs -- \
//!     <parent benchmark binary> <change benchmark binary> \
//!     --workload join_shuffle --pairs 10 [--seed 42] [--seconds 12] [--manifest BENCHMARK.json]
//! ```
//!
//! Each pair runs both binaries once, `--workload W --seed S --seconds T
//! --trace 0`, the parent first in even pairs and the change first in odd
//! ones, so drift of the host over the session falls on both sides alike.
//! Per end-to-end metric of the manifest it prints each side's median
//! [q1, q3], the change in the medians, the pairs the change won, and a
//! verdict: `unresolved` when the parent's spread (IQR / median) is wider
//! than the metric's bound, `clear` when the medians differ by more than the
//! parent's IQR, `within IQR` otherwise. Failed operations are counted from
//! each run's result line.

use hive_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// One end-to-end metric of the manifest.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One run's metric values and failed operations.
#[derive(Default)]
struct Run {
    values: BTreeMap<String, f64>,
    failed: u64,
}

fn main() {
    if let Err(e) = run(std::env::args().skip(1).collect()) {
        eprintln!("pairs: {e}");
        std::process::exit(2);
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut bins = Vec::new();
    let mut opt = BTreeMap::from([
        ("--pairs", "10".to_string()),
        ("--seed", "42".to_string()),
        ("--seconds", "12".to_string()),
        ("--manifest", "BENCHMARK.json".to_string()),
    ]);
    let mut workload = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = args.next(),
            key if key.starts_with("--") => {
                let slot = opt.get_mut(key).ok_or(format!("unknown option {key}"))?;
                *slot = args.next().ok_or(format!("{key} needs a value"))?;
            }
            _ => bins.push(a),
        }
    }
    let (Some(workload), [parent, change]) = (workload, &bins[..]) else {
        return Err(
            "usage: pairs <parent-bin> <change-bin> --workload W [--pairs N] \
                    [--seed S] [--seconds T] [--manifest BENCHMARK.json]"
                .into(),
        );
    };
    let pairs: usize = opt["--pairs"]
        .parse()
        .map_err(|_| "--pairs takes a count")?;
    let manifest = std::fs::read_to_string(&opt["--manifest"]).map_err(|e| e.to_string())?;
    let metrics = metrics_of(&json::parse(&manifest).map_err(|e| e.to_string())?)?;

    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let bin = [parent, change][side];
            let args = [
                "--workload",
                &workload,
                "--seed",
                &opt["--seed"],
                "--seconds",
                &opt["--seconds"],
                "--trace",
                "0",
            ];
            let out = Command::new(bin)
                .args(args)
                .output()
                .map_err(|e| format!("{bin}: {e}"))?;
            let mut run = parse_run(&String::from_utf8_lossy(&out.stdout), &workload);
            run.failed += u64::from(!out.status.success());
            runs[side].push(run);
        }
        eprintln!("pair {}/{pairs} done", pair + 1);
    }

    let seconds = &opt["--seconds"];
    println!(
        "{workload}, {pairs} pairs (seed {}, --seconds {seconds})",
        opt["--seed"]
    );
    println!(
        "{:<18} {:>30} {:>30} {:>9} {:>6}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "won"
    );
    for m in &metrics {
        let side = |s: usize| -> Vec<f64> {
            runs[s]
                .iter()
                .filter_map(|r| r.values.get(&m.name).copied())
                .collect()
        };
        let (p, c) = (side(0), side(1));
        let (Some(ps), Some(cs)) = (Summary::of(&p), Summary::of(&c)) else {
            continue;
        };
        let won = pairs_won(&p, &c, m.lower_is_better);
        let delta = (cs.median - ps.median) / ps.median * 100.0;
        println!(
            "{:<18} {:>30} {:>30} {:>8.1}% {:>3}/{:<2}  {}",
            m.name,
            ps.to_string(),
            cs.to_string(),
            delta,
            won,
            p.len().min(c.len()),
            verdict(&ps, &cs, m.bound)
        );
    }
    let failed = |s: usize| runs[s].iter().map(|r| r.failed).sum::<u64>();
    println!(
        "failed operations: parent {}, change {}",
        failed(0),
        failed(1)
    );
    Ok(())
}

/// The manifest's end-to-end metrics.
fn metrics_of(manifest: &Json) -> Result<Vec<Metric>, String> {
    let list = manifest.get("end_to_end").and_then(Json::as_array);
    let metric = |m: &Json| {
        Some(Metric {
            name: m.get("name")?.as_str()?.to_string(),
            lower_is_better: m.get("better")?.as_str()? == "lower",
            bound: m.get("bound")?.as_f64()?,
        })
    };
    let metrics = list.map(|l| l.iter().map(metric).collect::<Option<Vec<_>>>());
    metrics
        .flatten()
        .ok_or_else(|| "the manifest lists no end_to_end metrics".into())
}

/// A run's `<workload> <metric> <value> <unit>` lines, and the failed
/// operations its result line reports.
fn parse_run(stdout: &str, workload: &str) -> Run {
    let mut run = Run::default();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [w, metric, value, _unit] = words[..] {
            if let (true, Ok(v)) = (w == workload, value.parse()) {
                run.values.insert(metric.to_string(), v);
            }
        }
        if let Ok(result) = json::parse(line) {
            run.failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    run
}

/// Median and quartiles of a sample.
#[derive(Debug, PartialEq)]
struct Summary {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Summary {
    fn of(sample: &[f64]) -> Option<Summary> {
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            q1: quantile(&sorted, 0.25)?,
            median: quantile(&sorted, 0.5)?,
            q3: quantile(&sorted, 0.75)?,
        })
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} [{:.1}, {:.1}]", self.median, self.q1, self.q3)
    }
}

/// The `q` quantile of an ascending sample, interpolating linearly between
/// the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let at = q * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64))
}

/// Pairs in which the change did better than the parent.
fn pairs_won(parent: &[f64], change: &[f64], lower_is_better: bool) -> usize {
    let better = |p: &f64, c: &f64| if lower_is_better { c < p } else { c > p };
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(p, c))
        .count()
}

fn verdict(parent: &Summary, change: &Summary, bound: f64) -> &'static str {
    if parent.iqr() / parent.median.abs() > bound {
        "unresolved"
    } else if (change.median - parent.median).abs() > parent.iqr() {
        "clear"
    } else {
        "within IQR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0], 0.25), Some(3.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(
            s,
            Summary {
                q1: 1.75,
                median: 2.5,
                q3: 3.25
            }
        );
        assert_eq!(s.iqr(), 1.5);
        assert_eq!(s.to_string(), "2.5 [1.8, 3.2]");
    }

    #[test]
    fn a_pair_is_won_in_the_metric_direction() {
        let (p, c) = ([10.0, 10.0, 10.0], [9.0, 10.0, 11.0]);
        assert_eq!(pairs_won(&p, &c, true), 1);
        assert_eq!(pairs_won(&p, &c, false), 1);
        assert_eq!(
            pairs_won(&p, &c[..2], true),
            1,
            "an unmatched run is no pair"
        );
    }

    #[test]
    fn verdicts_weigh_the_parents_spread() {
        let s = |q1, median, q3| Summary { q1, median, q3 };
        // IQR 30 % of the median, bound 25 %: nothing can be told.
        assert_eq!(
            verdict(&s(85.0, 100.0, 115.0), &s(40.0, 50.0, 60.0), 0.25),
            "unresolved"
        );
        assert_eq!(
            verdict(&s(95.0, 100.0, 105.0), &s(40.0, 50.0, 60.0), 0.25),
            "clear"
        );
        assert_eq!(
            verdict(&s(95.0, 100.0, 105.0), &s(96.0, 99.0, 101.0), 0.25),
            "within IQR"
        );
    }

    #[test]
    fn runs_parse_metric_lines_and_failed_operations() {
        let out = "join_shuffle: loaded 10 rows\n\
                   join_shuffle round_p50_ms 504.6 ms\n\
                   join_shuffle cpu_ms_per_round 900 ms\n\
                   scan_warm round_p50_ms 1.0 ms\n\
                   {\"correct\":true,\"attempted\":110,\"failed\":2,\"metrics\":{}}\n";
        let run = parse_run(out, "join_shuffle");
        assert_eq!(run.values["round_p50_ms"], 504.6);
        assert_eq!(run.values["cpu_ms_per_round"], 900.0);
        assert_eq!(run.values.len(), 2);
        assert_eq!(run.failed, 2);
    }

    #[test]
    fn the_manifest_names_direction_and_bound() {
        let manifest = json::parse(
            r#"{"end_to_end":[{"name":"round_p50_ms","unit":"ms","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        let m = metrics_of(&manifest).unwrap();
        assert_eq!(
            (m[0].name.as_str(), m[0].lower_is_better, m[0].bound),
            ("round_p50_ms", true, 0.25)
        );
        assert!(metrics_of(&json::parse("{}").unwrap()).is_err());
    }
}
