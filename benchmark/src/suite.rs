//! Every workload from one command: each run is a fresh child process of
//! this binary (so caches, allocator state and RSS never leak from one
//! workload into the next), its result line is parsed back, and the suite
//! prints, compares and records.

use crate::metrics::{self, MetricDef};
use crate::run::results_dir;
use crate::stats::{median, quartile_spread};
use crate::{procfs, Cli};
use hive_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// metric name → value, as one child reported them.
type Values = BTreeMap<String, f64>;

struct ChildResult {
    values: Values,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Run one workload once in a child process and parse its result line.
fn run_child(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--all-metrics"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(n) = cli.rounds {
        cmd.args(["--rounds", &n.to_string()]);
    }
    if cli.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end; its diagnostics pass through.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing ({})", out.status))?;
    let parsed = json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let field = |k: &str| parsed.get(k).ok_or_else(|| format!("{workload}: no `{k}`"));
    let Json::Object(metrics) = field("metrics")? else {
        return Err(format!("{workload}: `metrics` is not an object"));
    };
    let values = metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64);
            v.map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: metric {name} has no value"))
        })
        .collect::<Result<Values, String>>()?;
    Ok(ChildResult {
        values,
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        correct: matches!(field("correct")?, Json::Bool(true)) && out.status.success(),
    })
}

/// End-to-end values of one set: workload → metric → one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn run(cli: &Cli) -> ExitCode {
    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => metrics::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let e2e = metrics::end_to_end();
    let mut ok = true;
    let mut attempted: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut fail = |what: String| {
        eprintln!("FAILED {what}");
        ok = false;
    };

    let mut sets: Vec<Set> = Vec::new();
    for _ in 0..cli.repeat {
        let mut set = Set::new();
        // Runs outermost, so a noisy minute on the host lands on every
        // workload rather than on all runs of one.
        for run in 0..cli.runs as u64 {
            for &w in &workloads {
                match run_child(cli, w, cli.seed + run, false) {
                    Ok(child) => {
                        if !child.correct {
                            fail(format!(
                                "{w}: {} of {} statements",
                                child.failed, child.attempted
                            ));
                        }
                        let a = attempted.entry(w).or_default();
                        *a = (a.0 + child.attempted, a.1 + child.failed);
                        let by_metric = set.entry(w.to_string()).or_default();
                        for (name, v) in child.values {
                            by_metric.entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => fail(e),
                }
            }
        }
        sets.push(set);
    }

    let mut layers: BTreeMap<&str, Values> = BTreeMap::new();
    for &w in &workloads {
        match run_child(cli, w, cli.seed, true) {
            Ok(child) => {
                if !child.correct {
                    fail(format!(
                        "{w} (traced): {} of {} statements",
                        child.failed, child.attempted
                    ));
                }
                layers.insert(w, child.values);
            }
            Err(e) => fail(e),
        }
    }

    // Every metric by name, with its unit, once per workload.
    let per_layer = metrics::per_layer();
    for &w in &workloads {
        for d in &e2e {
            if let Some(vs) = sets[0].get(w).and_then(|m| m.get(&d.name)) {
                println!("{w} {} {} {}", d.name, median(vs), d.unit);
            }
        }
        let (a, f) = attempted.get(w).copied().unwrap_or_default();
        println!("{w} ops {a} count");
        println!("{w} ops_failed {f} count");
        for d in &per_layer {
            if let Some(v) = layers.get(w).and_then(|m| m.get(&d.name)) {
                println!("{w} {} {v} {}", d.name, d.unit);
            }
        }
    }

    if cli.repeat > 1 || cli.runs > 1 {
        let (report, steady) = steadiness_report(cli, &workloads, &e2e, &sets);
        println!("\n{report}");
        if cli.repeat > 1 {
            write_result("repeatability.md", &report, false);
        }
        if !steady {
            eprintln!("FAILED a metric left its bound between sets or runs");
            ok = false;
        }
    }
    if cli.record {
        let line = history_line(cli, &workloads, &e2e, &sets[0], &layers, &attempted);
        write_result("history.jsonl", &format!("{}\n", line.render()), true);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_result(file: &str, text: &str, append: bool) {
    let path = results_dir().join(file);
    let written = std::fs::create_dir_all(results_dir()).and_then(|_| {
        std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(&path)?
            .write_all(text.as_bytes())
    });
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// The table the acceptance procedure reads: per workload and end-to-end
/// metric, each set's median and quartile spread, and the worsening of
/// the last set's median against the first. Steady means every spread
/// (but set-up's) and every worsening stays within the metric's bound.
fn steadiness_report(
    cli: &Cli,
    workloads: &[&str],
    e2e: &[MetricDef],
    sets: &[Set],
) -> (String, bool) {
    let mut out = String::new();
    let mut steady = true;
    writeln!(
        out,
        "# Repeatability\n\n{} set(s) of {} run(s) per workload on one build, seeds {}..{}, \
         {} s measured per run, {} core(s), {}.\n\n\
         `median` is over a set's runs; `spread` is (Q3 - Q1) / median with Python's \
         `statistics.quantiles(n=4)`; `worse` is the last set's median against the first's. \
         A row is `ok` when every spread (set-up's excepted) and `worse` are within `bound`.\n",
        cli.repeat,
        cli.runs,
        cli.seed,
        cli.seed + cli.runs as u64,
        cli.seconds,
        nproc(),
        procfs::cpu_model(),
    )
    .expect("write to string");
    let mut header = "| workload | metric | unit |".to_string();
    let mut rule = "|---|---|---|".to_string();
    for i in 1..=sets.len() {
        write!(header, " median {i} | spread {i} |").expect("write to string");
        rule.push_str("---|---|");
    }
    writeln!(out, "{header} worse | bound | ok |\n{rule}---|---|---|").expect("write to string");
    for &w in workloads {
        for d in e2e {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let mut row = format!("| {w} | {} | {} |", d.name, d.unit);
            let mut medians = Vec::new();
            let mut row_ok = true;
            for set in sets {
                let Some(vs) = set.get(w).and_then(|m| m.get(&d.name)) else {
                    continue;
                };
                medians.push(median(vs));
                if vs.len() >= 2 {
                    let spread = quartile_spread(vs);
                    row_ok &= d.name == "setup_s" || spread <= bound;
                    write!(row, " {:.4} | {:.4} |", median(vs), spread).expect("write to string");
                } else {
                    write!(row, " {:.4} | - |", median(vs)).expect("write to string");
                }
            }
            // Every end-to-end metric is lower-is-better.
            let worse = match (medians.first(), medians.last()) {
                (Some(first), Some(last)) if medians.len() > 1 => (last - first) / first,
                _ => 0.0,
            };
            row_ok &= worse <= bound;
            steady &= row_ok;
            writeln!(
                out,
                "{row} {worse:+.4} | {bound} | {} |",
                if row_ok { "ok" } else { "NO" }
            )
            .expect("write to string");
        }
    }
    (out, steady)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// HEAD of the repository this package sits in, read from `.git` without
/// starting a process; "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string(); // detached
    };
    read(git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line of the trajectory: who measured what, and every number.
fn history_line(
    cli: &Cli,
    workloads: &[&str],
    e2e: &[MetricDef],
    set: &Set,
    layers: &BTreeMap<&str, Values>,
    attempted: &BTreeMap<&str, (u64, u64)>,
) -> Json {
    let mut by_workload = Json::obj();
    for &w in workloads {
        let mut end_to_end = Json::obj();
        for d in e2e {
            if let Some(vs) = set.get(w).and_then(|m| m.get(&d.name)) {
                end_to_end.push(&d.name, Json::F64(median(vs)));
            }
        }
        let mut per_layer = Json::obj();
        for (name, v) in layers.get(w).into_iter().flatten() {
            per_layer.push(name, Json::F64(*v));
        }
        let (ops, ops_failed) = attempted.get(w).copied().unwrap_or_default();
        let mut o = Json::obj();
        o.push("ops", Json::U64(ops))
            .push("ops_failed", Json::U64(ops_failed))
            .push("end_to_end", end_to_end)
            .push("per_layer", per_layer);
        by_workload.push(w, o);
    }
    let mut line = Json::obj();
    line.push("commit", Json::Str(git_commit()))
        .push("seed", Json::U64(cli.seed))
        .push("runs", Json::U64(cli.runs as u64))
        .push("seconds", Json::F64(cli.seconds))
        .push("quick", Json::Bool(cli.quick))
        .push("nproc", Json::U64(nproc() as u64))
        .push("cpu_model", Json::Str(procfs::cpu_model()))
        .push("workloads", by_workload);
    line
}
