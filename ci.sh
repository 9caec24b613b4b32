#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), full test suite.
# Run from the repo root. Pass --release to also build release binaries.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test"
cargo test -q --workspace --offline

# The vector/row differentials (expressions, and GROUP BY over every key
# lane and aggregate kind) once more in the profile the benchmark measures:
# integer overflow (debug panics, release wraps) and float folding are
# exactly where a debug-only test run and a release binary can part ways.
# The kernels' own overflow/zero-divide unit tests ride along.
echo "==> vector vs row differentials under --release"
cargo test -q --release --offline --test properties vectorized_
cargo test -q --release --offline -p hive-vector expressions::

# The property vectorized GROUP BY's speed rests on, in the optimized
# build: once a batch's groups exist, process() allocates nothing (its own
# test binary: it installs a counting global allocator).
echo "==> vectorized GROUP BY steady state allocates nothing"
cargo test -q --release --offline -p hive-vector --test groupby_steady_state_allocs

# The benchmark is a package of its own (outside the workspace) that
# compiles against the engine's public API; build it so a signature change
# that breaks its pinned list (benchmark/README.md) fails here, not in the
# driver. Output goes to benchmark/target (git-ignored).
echo "==> benchmark package builds against the engine"
cargo build -q --release --offline --manifest-path benchmark/Cargo.toml
# The benchmark sets knobs *by string*, so a removed key compiles and only
# fails at run time: its own tests (unit tests + a --quick smoke run of
# every workload) catch that here, not in the driver.
echo "==> benchmark package tests (knobs it sets by name still exist)"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Chaos gate: end-to-end queries under randomized-but-replayable DFS fault
# plans (the proptest shim seeds from the test name, so this is a fixed
# schedule). Part of the workspace run above; repeated here so a chaos
# regression is called out by name.
echo "==> chaos gate (deterministic fault injection)"
cargo test -q -p hive-core --test chaos --offline

# ACID chaos gate: kill the writer and the compactor at every registered
# crash point, lose rename acks, tear writes, randomize write-fault plans —
# readers must see the old or the new snapshot (never a hybrid) and a
# restarted writer must recover to a clean, writable table.
echo "==> ACID chaos gate (kill-anywhere crash points)"
cargo test -q -p hive-core --test acid --test acid_chaos --offline

# Observability gate: metrics-registry determinism across worker-thread
# counts, EXPLAIN ANALYZE goldens, knob-registry errors, README knob table.
echo "==> metrics determinism gate"
cargo test -q --test metrics --offline

# End-to-end --metrics-json stability: the same statement stream through the
# real CLI binary must produce byte-identical snapshots at 1 and 8 worker
# threads under the deterministic clock, and the snapshot must match the
# checked-in schema-conformant example under results/.
echo "==> hive-cli --metrics-json gate (1 vs 8 worker threads)"
run_cli() {
    cargo run -q --bin hive-cli --offline -- --demo --metrics-json "$2" >/dev/null <<SQL
SET hive.exec.sim.deterministic.cpu=true;
SET hive.exec.worker.threads=$1;
SELECT cities.name, COUNT(*) AS n, AVG(trips.fare) AS avg_fare
FROM trips JOIN cities ON (trips.city_id = cities.city_id)
GROUP BY cities.name ORDER BY cities.name;
SQL
}
run_cli 1 target/metrics-1.json
run_cli 8 target/metrics-8.json
diff target/metrics-1.json target/metrics-8.json
diff target/metrics-1.json results/metrics-snapshot.json

# Key-rule gate (hive_common::key), through the real binary: GROUP BY a
# DOUBLE holding NaN and 0.0 (52 groups, NaN one of them), ORDER BY it in
# both directions (NaN last / first) and an INT = DOUBLE join, each under
# vectorization on/off x map-join/reduce-join, must print the checked-in
# transcript (the script sets the deterministic clock, so the timing lines
# are stable too).
echo "==> hive-cli key-rule gate (NaN GROUP BY / ORDER BY, INT = DOUBLE join)"
cargo run -q --bin hive-cli --offline <tests/golden/key_rule_cli.sql 2>/dev/null |
    diff - tests/golden/key_rule_cli.txt

# Binder gate (hive_planner::scope), through the real binary on the demo
# tables: a reference the scope cannot bind is `[semantic] unknown column`
# in SELECT, DML and the stats-answered path (stderr is part of the
# transcript), the DML it rejected changed nothing, and a WHERE conjunct on
# the null-supplying side of an outer join filters the joined rows — under
# vectorization on/off x map-join/reduce-join.
echo "==> hive-cli binder gate (unbound references, outer-join WHERE placement)"
cargo run -q --bin hive-cli --offline -- --demo <tests/golden/binder_cli.sql 2>&1 |
    diff - tests/golden/binder_cli.txt

# Join-bench gate: a tiny-scale run of the map-join benchmark must plan the
# vectorized operator, emit schema-valid BENCH_joins.json, and show the
# vectorized join's measured CPU below the row engine's
# (hive.vectorized.execution.enabled=false; --check exits non-zero
# otherwise).
echo "==> vectorized map-join bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_joins --offline -- --check

# Vectorized-execution gate: the scan-heavy filter + group-by aggregation
# must plan batch-native, emit schema-valid BENCH_vector.json, and beat the
# row-mode pipeline's measured CPU by at least 1.3x (--check exits
# non-zero otherwise; the paper's target is 2x and typical runs are well
# above it).
echo "==> batch-native execution bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_vector --offline -- --check

# Cache-bench gate: the same scan against one long-lived server must emit
# schema-valid BENCH_cache.json and show the warm-cache run's measured CPU
# below the cold run's (--check exits non-zero otherwise).
echo "==> server cache bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_cache --offline -- --check

# Workload-management gate: under a low-priority etl flood, the
# high-priority interactive pool's p99 latency (queue wait + deterministic
# sim time) must stay within 1.5x of its unloaded p99, and at least one
# preemption with its re-run must be observed (--check exits non-zero
# otherwise). Emits schema-valid BENCH_wm.json.
echo "==> workload management bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_wm --offline -- --check

# ACID gate: merge-on-read must actually read deltas and mask deletes with
# identical accounting in batch-native and row mode
# (hive.vectorized.execution.enabled=false), SARG index skipping
# must stay active under the overlay, the vectorized merge must beat the
# row-mode merge by at least 1.3x, the merged and post-compaction answers
# must be identical, and a major compaction must bring scan time back
# within 10% of the pre-churn baseline (--check exits non-zero otherwise).
# Emits schema-valid BENCH_acid.json.
echo "==> ACID merge-on-read bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_acid --offline -- --check

# Data-skipping gate: on a selective point-plus-range lookup, bloom
# filters plus a replica sorted on the range column must cut bytes read by
# at least 1.5x versus stats-only min/max pruning, with at least one
# bloom-pruned row group and identical answers across all three skipping
# regimes (--check exits non-zero otherwise). Emits schema-valid
# BENCH_skip.json.
echo "==> data skipping bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_skip --offline -- --check

# Size: non-test, non-comment, non-blank lines per crate (a file counts up
# to its first `#[cfg(test)]`). The figure CHANGES.md quotes for "did this
# PR subtract"; printed, not gated.
echo "==> engine size (non-test, non-comment lines under crates/*/src + src/)"
for d in crates/*/src src; do
    find "$d" -name '*.rs' -print0 | sort -z | xargs -0 awk -v d="$d" '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { printf "%-22s %6d\n", d, n }'
done | awk '{ total += $2; print "    " $0 } END { printf "    %-22s %6d\n", "total", total }'

if [[ "${1:-}" == "--release" ]]; then
    echo "==> cargo build --release"
    cargo build --release --workspace --offline
fi

echo "==> CI green"
