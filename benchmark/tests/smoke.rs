//! Runs the whole suite at a tenth of the data and checks what it prints
//! against `/BENCHMARK.json`: every workload, every metric, each exactly
//! once per workload, every name well-formed, nothing failed.

use hive_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

fn names(manifest: &Json, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn quick_suite_prints_every_manifest_metric_once_per_workload() {
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = json::parse(&std::fs::read_to_string(manifest_path).expect("read manifest"))
        .expect("BENCHMARK.json parses");
    let workloads = names(&manifest, "workloads");
    let mut metrics = names(&manifest, "end_to_end");
    metrics.extend(names(&manifest, "per_layer"));

    let out = Command::new(env!("CARGO_BIN_EXE_hive-benchmark"))
        .args(["--quick", "--rounds", "2", "--seed", "7"])
        .output()
        .expect("run the suite");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "suite failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    // Lines are `<workload> <metric> <value> <unit>`.
    let mut seen: BTreeMap<(String, String), usize> = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let [workload, metric, value, unit] = fields[..] else {
            panic!("unexpected line `{line}`");
        };
        for name in [workload, metric] {
            assert!(
                !name.is_empty()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad name `{name}` in `{line}`"
            );
        }
        assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{line}");
        assert!(!unit.is_empty(), "{line}");
        if metric == "ops_failed" {
            assert_eq!(value, "0", "{line}");
        }
        *seen
            .entry((workload.to_string(), metric.to_string()))
            .or_default() += 1;
    }
    for w in &workloads {
        for m in &metrics {
            let n = seen.get(&(w.clone(), m.clone())).copied().unwrap_or(0);
            assert_eq!(n, 1, "{w} {m} printed {n} times");
        }
    }
    assert!(seen.keys().all(|(w, _)| workloads.contains(w)));
}
