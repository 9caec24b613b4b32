#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), the full test
# suite, and what `cargo test` cannot do on its own: the release-profile
# differentials, the benchmark package, the hive-cli transcript gates and the
# size report. Speed is judged by benchmark/ (see benchmark/README.md), not
# here: no step compares two host timers.
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
cargo test -q --release --offline -p hive --test properties vectorized_
cargo test -q --release --offline -p hive-vector expressions::
# ... and the batch reader with deferred columns against the row reader,
# the row reader over nested types and NULLs, and over those types with a
# byte flipped anywhere, the SequenceFile row and batch readers over a file
# flipped and cut at every byte and over records narrower than their
# schema, and the exhaustive decoder flips: every ORC footer and postscript
# byte, every RCFile byte, and metadata counts past the bytes left (slice
# and index arithmetic over stripe, footer and record buffers: debug
# builds overflow-check it, release builds wrap).
cargo test -q --release --offline -p hive-formats --test orc_roundtrip -- deferred \
    vectorized_reader_matches_row_reader figure_3_complex_types_round_trip \
    nulls_round_trip_everywhere
cargo test -q --release --offline -p hive-formats --test corruption -- \
    orc_nested_types_survive_bit_flips_everywhere sequencefile_survives_corruption \
    sequencefile_record_narrower_than_its_schema_is_an_error \
    orc_footer_and_postscript_survive_every_flip
cargo test -q --release --offline -p hive-formats --lib -- \
    counts_beyond_the_bytes_left_are_errors rcfile::tests::flipped_bytes_never_panic

# The shuffle's byte encoding (sign flips, the DOUBLE bit twiddle, string
# escapes) against the key rule, its lane twins (keys, value rows, partition
# hashes and SequenceFile parts encoded from batch columns) against the
# `Value` encoders, and the scratch lifecycle, once more in the optimized
# build: byte order and escape arithmetic are where debug and release builds
# part ways. Beside them, the side load: every map task of a job probes the
# one table its side load built, in both engines and after a retried load.
echo "==> shuffle key encoding, lane encoders, query scratch and side tables under --release"
cargo test -q --release --offline -p hive --test properties shuffle_key_encoding
cargo test -q --release --offline -p hive --test properties lane_encoders
cargo test -q --release --offline -p hive-core --test scratch
cargo test -q --release --offline -p hive --test properties map_join_tables_are_built_once_per_job

# Plans from the order the data has (DESIGN.md §21): q18c, q12j, q3j and a
# GROUP BY on the order key over ordered, shuffled and order-breaking loads,
# under vectorization x correlation x map-join conversion, once more in the
# optimized build: the key-range boundary arithmetic (stripe bounds, the
# leading rows a task skips, the stripes it reads on into) is where debug
# and release builds part ways.
echo "==> order-aware plans against the shuffled load under --release"
cargo test -q --release --offline -p hive --test order

# The cold read path's two kernels against their definitions, in the
# optimized build the benchmark measures: the slicing-by-16 CRC32 against a
# bitwise CRC (every length and alignment, split updates), the chunk rule
# against its model (a read fails exactly when it returns a byte of a
# corrupt 512-byte chunk, over random block sizes, file lengths and reads;
# a wire flip is caught where it happens) and a rename that keeps a corrupt
# chunk corrupt, the overcopy Snappy decoder against a bytewise reference
# (every single-byte mutation of a unit agrees), and a hostile length
# header as an error, not an abort, in both codecs and through an ORC
# compression unit.
echo "==> CRC32 and Snappy kernels against their references under --release"
cargo test -q --release --offline -p hive-dfs --lib -- crc:: \
    reads_fail_exactly_when_they_overlap_the_flipped_chunk \
    rename_keeps_checksums_so_a_corrupt_chunk_stays_corrupt
cargo test -q --release --offline -p hive-codec --lib -- block::lz:: hostile_length_header
cargo test -q --release --offline -p hive-formats --lib hostile_length_header

# The properties the scan's, vectorized GROUP BY's and the vector shuffle's
# speed rest on, in the optimized build: next_batch + the root filter over
# one stripe, process() once a batch's groups exist, and a sink's batch into
# sized shuffle runs allocate nothing (each its own test binary: they
# install a counting global allocator).
echo "==> scan loop, vectorized GROUP BY and vector shuffle steady state allocate nothing"
cargo test -q --release --offline -p hive-vector --test groupby_steady_state_allocs
cargo test -q --release --offline -p hive-mapreduce --test shuffle_steady_state_allocs

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

# Compaction cleans what it made obsolete, so acid_mixed's space_amp (DFS
# bytes under /warehouse/ over live text bytes, after a compaction) is a
# count, not a timer: ~0.7 at --quick, 5.07 when compaction kept every
# file it obsoleted.
echo "==> acid_mixed space_amp with compaction cleaning (<= 1.5)"
space_amp=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    --quick --workload acid_mixed --rounds 3 |
    awk '$1 == "acid_mixed" && $2 == "space_amp" { print $3 }')
echo "    space_amp $space_amp"
awk -v v="$space_amp" 'BEGIN { exit !(v != "" && v <= 1.5) }'

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

# Value-rule gate (values compare by the key rule), through the real binary:
# over NaN and -0.0 rows with a bloom on the column, `d = 5.0`, `d > 40`,
# `d <> 1.0`, `d = NaN`, `d = 0`, MIN/MAX, a mixed BETWEEN, GROUP BY d and an
# INT = DOUBLE join meeting -0.0 print the same rows under vectorization
# on/off x map-join/reduce-join, with stats-answered aggregates and storage
# pushdown each switched on and off across the blocks.
echo "==> hive-cli value-rule gate (NaN and -0.0 in predicates, MIN/MAX, joins)"
cargo run -q --bin hive-cli --offline <tests/golden/value_rule_cli.sql 2>/dev/null |
    diff - tests/golden/value_rule_cli.txt

# Binder gate (hive_planner::scope), through the real binary on the demo
# tables: a reference the scope cannot bind is `[semantic] unknown column`
# in SELECT, DML and the stats-answered path (stderr is part of the
# transcript), the DML it rejected changed nothing, a WHERE conjunct on the
# null-supplying side of an outer join filters the joined rows, and the same
# conjunct in the ON clause is tested per pair inside the join (a preserved
# row no pair passes is padded, not lost), as are ON conjuncts over the
# preserved side or both sides, same-key LEFT and FULL join chains, and a
# GROUP BY on the null-supplied side of a FULL join (one NULL group) —
# under vectorization on/off x map-join/reduce-join.
echo "==> hive-cli binder gate (unbound references, outer-join WHERE and ON placement)"
cargo run -q --bin hive-cli --offline -- --demo <tests/golden/binder_cli.sql 2>&1 |
    diff - tests/golden/binder_cli.txt

# Size: non-test, non-comment, non-blank lines per crate (a file counts up
# to its first `#[cfg(test)]`), in two subtotals: the engine (engine crates
# + src/) and what only measures or stands in for crates.io (bench, and the
# criterion / proptest / rand / parking_lot shims). CHANGES.md quotes both
# for "did this PR subtract"; printed, not gated.
echo "==> size (non-test, non-comment lines under crates/*/src + src/)"
# Lines of directory $2 under root $1, labelled $2.
size_of() {
    find "$1/$2" -name '*.rs' -print0 | sort -z | xargs -0 awk -v d="$2" '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { printf "%-22s %6d\n", d, n }'
}
for d in crates/*/src src; do
    size_of . "$d"
done | awk '
    { print "    " $0 }
    $1 ~ /^crates\/(bench|criterion|proptest|rand|parking_lot)\/src$/ { harness += $2; next }
    { engine += $2 }
    END {
        printf "    %-22s %6d\n", "engine", engine
        printf "    %-22s %6d\n", "harness + shims", harness
    }'
# Per crate, the parent commit -> this tree, for the crates that differ: what
# a change's "before -> after" in CHANGES.md quotes. The parent is HEAD while the
# change is still uncommitted, HEAD~1 once it is committed.
base=HEAD~1
git diff --quiet HEAD -- crates src || base=HEAD
if before=$(mktemp -d) && git archive "$base" crates src 2>/dev/null | tar -x -C "$before"; then
    for d in crates/*/src src; do
        [[ -d "$before/$d" ]] || continue
        was=$(size_of "$before" "$d")
        now=$(size_of . "$d")
        [[ "$was" == "$now" ]] || echo "    $was -> ${now##* }"
    done
fi
rm -rf "${before:-}"

if [[ "${1:-}" == "--release" ]]; then
    echo "==> cargo build --release"
    cargo build --release --workspace --offline
fi

echo "==> CI green"
