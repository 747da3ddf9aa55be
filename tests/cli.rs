//! End-to-end tests of the `alsrac-cli` binary: flag values are rejected
//! before any circuit is loaded, Verilog output is written, deadlines
//! too long for the clock never expire, and costs are compared against
//! the cleaned input every flow starts from.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use alsrac_suite::circuits::{arith, blif};

/// A fresh directory under Cargo's test temporary directory holding
/// `rca4.blif`, a 4-bit ripple-carry adder.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    std::fs::write(
        dir.join("rca4.blif"),
        blif::write(&arith::ripple_carry_adder(4)),
    )
    .expect("write input circuit");
    dir
}

/// Runs the CLI in `dir` on `rca4.blif` with a small flow and `extra`
/// flags.
fn cli(dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_alsrac-cli"))
        .current_dir(dir)
        .args("--input rca4.blif --threshold 0.05 --rounds 2000".split(' '))
        .args(extra)
        .output()
        .expect("run alsrac-cli")
}

#[test]
fn bad_flag_values_exit_2_before_loading() {
    let dir = workdir("bad_flags");
    for extra in [
        &["--map", "lut"][..],
        &["--method", "exact"],
        &["--output", "x.vhd"],
        &["--input", "x.v"],
    ] {
        let out = cli(&dir, extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{extra:?}: {stderr}");
        assert!(!stderr.contains("loaded:"), "{extra:?} loaded: {stderr}");
    }
    assert!(!dir.join("x.vhd").exists());
}

#[test]
fn verilog_output_is_written() {
    let dir = workdir("verilog");
    let out = cli(&dir, &["--output", "out.v"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("out.v")).expect("out.v written");
    assert!(text.starts_with("module"), "not Verilog: {text}");
}

#[test]
fn unrepresentable_deadlines_never_expire() {
    let dir = workdir("deadline");
    let plain = cli(&dir, &[]);
    assert!(plain.status.success());
    for secs in ["1e300", "1e19"] {
        let out = cli(&dir, &["--deadline", secs]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--deadline {secs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, plain.stdout, "--deadline {secs}");
    }
}

/// The two sides of the `B -> A` pair that starts `line`.
fn before_after(line: &str) -> (&str, &str) {
    let (before, rest) = line.split_once(" -> ").expect("a `B -> A` pair");
    (before, rest.split(' ').next().expect("an after value"))
}

#[test]
fn a_run_that_changes_nothing_reports_equal_costs() {
    // `router`'s cleaned graph is the same graph renumbered, and the LUT
    // mapper's result depends on numbering: the raw input maps to 40
    // 6-LUTs, the cleaned one every flow starts from to 48.
    let out = Command::new(env!("CARGO_BIN_EXE_alsrac-cli"))
        .args("--bench router --threshold 0.01 --seed 1 --map lut6".split(' '))
        .output()
        .expect("run alsrac-cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ands = stdout
        .lines()
        .find(|line| line.contains(" AND nodes"))
        .expect("an AND line");
    assert!(ands.ends_with(", 0 changes applied"), "{stdout}");
    let (before, after) = before_after(ands);
    assert_eq!(before, after, "AND nodes: {stdout}");
    let luts = stdout
        .lines()
        .find_map(|line| line.strip_prefix("6-LUT: "))
        .expect("a 6-LUT line");
    let (before, after) = before_after(luts);
    assert_eq!(before, after, "6-LUTs: {stdout}");
}
