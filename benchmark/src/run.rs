//! One workload, one process: set-up, rounds and their checking, shared by
//! the traced run (`layers.rs`), and the measured run (`--trace 0`):
//! end-to-end metrics from plain `execute`, no harness tracing.

use crate::layers::Counters;
use crate::metrics::WORKLOADS;
use crate::stats::{median, percentile, ratio};
use crate::workload::{answer_ok, plain_execute, run_round, Bench, RoundRun, Scale, Script};
use crate::{acid, join, procfs, scan};
use hive_dfs::IoSnapshot;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Measure exactly this many rounds, whatever `seconds` says.
    pub rounds: Option<usize>,
    pub scale: Scale,
}

/// What a run reports: the contract's result line, as a value.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants that are not a single statement's failure.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Set-up passes per measured run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;

fn setup(args: &RunArgs) -> Bench {
    match args.workload.as_str() {
        "scan_warm" => scan::setup(args.seed, args.scale, false),
        "scan_cold" => scan::setup(args.seed, args.scale, true),
        "join_shuffle" => join::setup(args.seed, args.scale),
        "acid_mixed" => acid::setup(args.seed, args.scale),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Statement and failure counts over any number of rounds.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, round: &RoundRun) {
        self.attempted += round.executed.len() as u64;
        let failures = round.failures();
        self.failed += failures.len() as u64;
        // Enough to diagnose, not a screenful per round.
        self.messages.extend(failures.into_iter().take(3));
    }

    /// Close the run: say what failed, hand back the result.
    pub fn into_outcome(
        self,
        workload: &str,
        violations: Vec<String>,
        metrics: BTreeMap<String, f64>,
    ) -> Outcome {
        for m in &self.messages {
            eprintln!("{workload}: FAILED {m}");
        }
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            violations,
            metrics,
        }
    }
}

/// Generate, load and verify: one full pass of what `setup_s` times. The
/// verification is one checked round, which also fills the caches.
pub fn setup_pass(args: &RunArgs, tally: &mut Tally) -> (Bench, f64) {
    let start = Instant::now();
    let mut bench = setup(args);
    tally.add(&run_round(&mut bench, &mut plain_execute));
    (bench, start.elapsed().as_secs_f64())
}

/// What is kept of a phase's rounds. The results themselves are dropped as
/// soon as they are checked: a retained `QueryResult` carries a registry
/// snapshot, and a run's worth of them would be the process's peak RSS.
#[derive(Default)]
pub struct Phase {
    pub walls_ms: Vec<f64>,
    /// Process CPU inside each round.
    pub cpu_ms: Vec<f64>,
    pub rss_max_mib: f64,
    /// Statement class → latencies, ms.
    pub latencies: BTreeMap<&'static str, Vec<f64>>,
    pub counters: Counters,
}

impl Phase {
    fn add(&mut self, round: &RoundRun) {
        self.walls_ms.push(round.wall_ms());
        self.cpu_ms.push(round.cpu_ms);
        self.rss_max_mib = self.rss_max_mib.max(round.rss_after_mib);
        for e in &round.executed {
            self.latencies
                .entry(e.stmt.kind)
                .or_default()
                .push(e.latency_ms);
        }
        self.counters.add(round);
    }

    pub fn rounds(&self) -> f64 {
        self.walls_ms.len() as f64
    }

    /// CPU per round, as the median over (up to) eight consecutive blocks
    /// of rounds. `/proc` counts CPU in 10 ms ticks, too coarse for one
    /// 100 ms round; a block is long enough to measure, and the median of
    /// blocks forgets a noisy stretch of the host that the mean keeps.
    fn cpu_ms_per_round(&self) -> f64 {
        let block = self.cpu_ms.len().div_ceil(8);
        let per_round: Vec<f64> = self
            .cpu_ms
            .chunks(block)
            .map(|b| b.iter().sum::<f64>() / b.len() as f64)
            .collect();
        median(&per_round)
    }
}

/// How many rounds a phase runs: `--rounds` if given, else the workload's
/// nominal count for `seconds`, cut short on a host so slow that the
/// phase would take half as long again.
pub struct Budget {
    rounds: usize,
    deadline_s: Option<f64>,
}

impl Budget {
    pub fn new(args: &RunArgs, seconds: f64, min_rounds: usize) -> Budget {
        match args.rounds {
            Some(rounds) => Budget {
                rounds,
                deadline_s: None,
            },
            None => {
                let def = WORKLOADS
                    .iter()
                    .find(|w| w.name == args.workload)
                    .expect("workload names are checked at the command line");
                let nominal = (seconds * def.rounds_per_second).ceil() as usize;
                Budget {
                    rounds: nominal.max(min_rounds),
                    deadline_s: Some(seconds * 1.5),
                }
            }
        }
    }
}

/// Run and check the rounds `budget` allows.
pub fn run_rounds(
    bench: &mut Bench,
    budget: Budget,
    tally: &mut Tally,
    mut each: impl FnMut(&mut Bench) -> RoundRun,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    loop {
        let n = phase.walls_ms.len();
        let late = budget
            .deadline_s
            .is_some_and(|d| n > 0 && start.elapsed().as_secs_f64() >= d);
        if n >= budget.rounds || late {
            return phase;
        }
        let round = each(bench);
        tally.add(&round);
        phase.add(&round);
    }
}

/// Invariants of the engine state that no single statement's answer shows.
pub fn check_invariants(
    args: &RunArgs,
    bench: &mut Bench,
    io: &IoSnapshot,
    tally: &mut Tally,
) -> Vec<String> {
    let mut violations = Vec::new();
    // A footer-answered query would bypass every layer being measured.
    let stats_answered = bench
        .server
        .metrics()
        .snapshot()
        .counter("query.stats_answered", &[])
        .unwrap_or(0);
    if stats_answered != 0 {
        violations.push(format!(
            "{stats_answered} statements answered from statistics"
        ));
    }
    let wire_bytes = io.bytes_read();
    if bench
        .expect_wire_reads
        .is_some_and(|expected| expected != (wire_bytes > 0))
    {
        violations.push(format!(
            "{} read {wire_bytes} bytes from the DFS after warm-up",
            args.workload
        ));
    }
    // The table the writes left must be the table the model predicts.
    if let Script::Acid(script) = &bench.script {
        let stmt = acid::full_scan(script);
        let result = bench.sessions[0].execute(&stmt.sql);
        tally.attempted += 1;
        if !answer_ok(&stmt.expect, &result) {
            tally.failed += 1;
            tally
                .messages
                .push("final table state differs from the model".to_string());
        }
    }
    violations
}

/// The measured run: end-to-end metrics only, no harness tracing.
pub fn measure(args: &RunArgs) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_seconds = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_PASSES {
        // One cluster at a time: the previous pass is freed first.
        drop(bench.take());
        let (b, seconds) = setup_pass(args, &mut tally);
        setup_seconds.push(seconds);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up pass");
    tally.add(&run_round(&mut bench, &mut plain_execute)); // warm-up

    let hwm_reset = procfs::reset_rss_peak();
    let io_before = bench.io();
    let mut space_amp = None;
    let measured = run_rounds(
        &mut bench,
        Budget::new(args, args.seconds, 1),
        &mut tally,
        |bench| {
            let round = run_round(bench, &mut plain_execute);
            // Sampled at a fixed point of the statement stream, so the
            // figure does not depend on how many rounds fit into the run.
            space_amp.get_or_insert_with(|| {
                ratio(
                    bench.warehouse_bytes() as f64,
                    bench.live_text_bytes() as f64,
                )
            });
            round
        },
    );
    let peak_rss = if hwm_reset {
        procfs::rss_peak_mib()
    } else {
        measured.rss_max_mib
    };
    let io = bench.io().since(&io_before);
    let violations = check_invariants(args, &mut bench, &io, &mut tally);

    let walls = &measured.walls_ms;
    let mut metrics = BTreeMap::new();
    metrics.insert("round_p50_ms".to_string(), median(walls));
    metrics.insert("cpu_ms_per_round".to_string(), measured.cpu_ms_per_round());
    metrics.insert("peak_rss_mb".to_string(), peak_rss);
    metrics.insert(
        "space_amp".to_string(),
        space_amp.expect("at least one measured round"),
    );
    metrics.insert("setup_s".to_string(), median(&setup_seconds));
    eprintln!(
        "{}: loaded {} rows ({} text bytes, {} warehouse bytes at the end); {} measured rounds \
         ({} statements), round first {:.1} p95 {:.1} last {:.1} ms; set-up passes {:.3?} s",
        args.workload,
        bench.rows_loaded,
        bench.loaded_text_bytes,
        bench.warehouse_bytes(),
        walls.len(),
        tally.attempted,
        walls[0],
        percentile(walls, 95.0),
        walls[walls.len() - 1],
        setup_seconds
    );
    tally.into_outcome(&args.workload, violations, metrics)
}

pub fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}
