//! The repo's benchmark. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seed 42
//! ```
//! runs every workload, each in a fresh child process, and prints every
//! metric. With `--workload <name>` it runs that one workload in this
//! process and ends its standard output with the result line the
//! benchmark contract asks for.

mod acid;
mod join;
mod layers;
mod metrics;
mod pipeline;
mod procfs;
mod replay;
mod run;
mod scan;
mod stats;
mod suite;
mod trace;
mod workload;

use hive_obs::json::Json;
use metrics::MetricDef;
use run::{Outcome, RunArgs};
use std::process::ExitCode;
use workload::Scale;

const USAGE: &str = "\
usage: hive-benchmark [--seed N] [--workload NAME] [--seconds S] [--trace 0|1]
                      [--rounds N] [--quick] [--repeat SETS] [--runs N] [--record]
  --workload NAME  run one workload in this process (default: all, one child each)
  --seconds S      measure for S seconds (default: run_seconds of BENCHMARK.json)
  --rounds N       measure exactly N rounds instead (local iteration)
  --trace 1        traced run: per-layer metrics and results/trace-<workload>.json
  --quick          a tenth of the data; smoke test only, never reported
  --repeat SETS    run SETS sets and compare their end-to-end medians
  --runs N         runs per workload and set, seeds seed..seed+N (default 1)
  --record         append this run to results/history.jsonl
  --all-metrics    result line carries every per-layer metric, not only the manifest's
  --print-manifest print the contents of /BENCHMARK.json and exit";

pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rounds: Option<usize>,
    pub quick: bool,
    pub repeat: usize,
    pub runs: usize,
    pub record: bool,
    pub all_metrics: bool,
}

fn parse_cli(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        rounds: None,
        quick: false,
        repeat: 1,
        runs: 1,
        record: false,
        all_metrics: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !metrics::WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                cli.workload = Some(name.to_string());
            }
            "--seed" => cli.seed = num(flag, value("a number")?)?,
            "--seconds" => {
                cli.seconds = num(flag, value("a number")?)?;
                if !cli.seconds.is_finite() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: bad value `{other}`")),
                }
            }
            "--rounds" => cli.rounds = Some(num::<usize>(flag, value("a count")?)?.max(1)),
            "--repeat" => cli.repeat = num::<usize>(flag, value("a count")?)?.max(1),
            "--runs" => cli.runs = num::<usize>(flag, value("a count")?)?.max(1),
            "--quick" => cli.quick = true,
            "--record" => cli.record = true,
            "--all-metrics" => cli.all_metrics = true,
            "--print-manifest" => {
                print!("{}", metrics::manifest().render_pretty());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(cli))
}

/// The contract's result line.
fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut metrics = Json::obj();
    for d in defs {
        let value = *outcome
            .metrics
            .get(&d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        let mut m = Json::obj();
        m.push("value", Json::F64(value))
            .push("unit", Json::Str(d.unit.to_string()));
        metrics.push(&d.name, m);
    }
    let mut line = Json::obj();
    line.push("correct", Json::Bool(outcome.correct()))
        .push("attempted", Json::U64(outcome.attempted))
        .push("failed", Json::U64(outcome.failed))
        .push("metrics", metrics);
    line.render()
}

/// One workload in this process: every metric by name and unit, then the
/// result line.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        rounds: cli.rounds,
        scale: Scale { quick: cli.quick },
    };
    let (outcome, defs) = if cli.trace {
        let mut defs = metrics::per_layer();
        defs.retain(|d| d.in_manifest || cli.all_metrics);
        (layers::traced(&args), defs)
    } else {
        (run::measure(&args), metrics::end_to_end())
    };
    for v in &outcome.violations {
        eprintln!("{workload}: VIOLATION {v}");
    }
    for d in &defs {
        println!(
            "{workload} {} {} {}",
            d.name, outcome.metrics[&d.name], d.unit
        );
    }
    println!("{}", result_line(&outcome, &defs));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(workload) if cli.repeat == 1 && cli.runs == 1 && !cli.record => {
            run_one(&cli, workload)
        }
        _ => suite::run(&cli),
    }
}
