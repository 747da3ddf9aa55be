//! Runs every workload at smoke size in both modes and checks the result
//! line against the metric lists declared in `BENCHMARK.json`.
//!
//! ```text
//! cargo test --release --offline --manifest-path alsbench/Cargo.toml
//! ```

use std::process::{Command, Output};

use alsrac_rt::json::Json;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_alsrac-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
    // Workloads have no unit; they read as "".
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_workload_reports_its_declared_metrics_at_smoke_size() {
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 3);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut expected = declared(key);
        expected.sort();
        for (workload, _) in &workloads {
            let output = bench(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace {trace}:\n{stdout}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let mut reported: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{workload}: {name} is not a finite number"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            reported.sort();
            assert_eq!(reported, expected, "{workload} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "er_suite",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &["--workload", "er_suite", "--seed", "1", "--seconds", "1"],
    ] {
        let output = bench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
