#!/usr/bin/env bash
# Tier-1 verification gate, fully offline (the build environment cannot
# fetch crates; the workspace is hermetic by policy — see DESIGN.md).
#
# Usage: scripts/ci.sh [step]
#
# Every step runs under a timing harness: the script prints a per-step
# wall-time summary on exit and, on failure, names the step that failed.
# All smoke gates share ONE `cargo build --release --offline --workspace`
# (run lazily by the first gate that needs it), so invoking `all` builds
# the release binaries exactly once.
#
# Steps (default `all` runs every one in order):
#   fmt     cargo fmt --check
#   clippy  cargo clippy with warnings denied
#   build   release build of the whole workspace (shared by every gate)
#   test    the whole workspace's tests (every crate's unit, integration
#           and doc tests, the fault-injection suite included) at the
#           default thread pool, then pinned to ALSRAC_THREADS=1 (serial)
#           and ALSRAC_THREADS=3 (odd worker count, so non-divisible work
#           splits are exercised)
#   smoke   telemetry gate: one seeded ALSRAC, Su and Liu run under
#           ALSRAC_TRACE must produce schema-valid JSONL that matches each
#           run's returned stats bit for bit, and the disabled-trace
#           overhead on a hot loop must stay within 2% (see
#           `report --smoke|--overhead`)
#   alsbench
#           the repository benchmark (`alsbench/`, its own cargo
#           workspace) must build against the current library API and pass
#           its smoke tests: every workload at smoke size reports exactly
#           the metrics BENCHMARK.json declares. Then each workload runs
#           once traced at smoke size (`--seed 3 --seconds 1 --trace 1
#           --smoke`) and must report `correct`, no failed job, and
#           `lac_gen.probe_agree` equal to `attempted`: the production
#           `lac_gen` agrees with Algorithm 1 plus the care harvest
#           re-run stage by stage on every job
#   window-smoke
#           windowed-resubstitution gate: `bench_window --smoke` runs the
#           flow on every bundled Test-scale circuit with windowing on and
#           off and asserts the results bit-identical with live window
#           counters (the scale-circuit generator self-checks run in the
#           `test` step)
#   cert-smoke
#           certification gate: `bench_cert --smoke` certifies the exact
#           error rate of every bundled circuit's optimized output (the
#           binary asserts agreement with an independent Monte-Carlo
#           sample within the Wilson bound) and the WCE-constrained flow's
#           certified bound; the artifact is validated by `report --cert`
#           and must be bit-identical between ALSRAC_THREADS=1 and 3 apart
#           from the recorded "threads" field; the miter sweeps must have
#           merged at least one node (`cert_sweep_merges`, printed by
#           bench_cert); `report --cert` also validates the committed
#           BENCH_cert.json
set -euo pipefail
cd "$(dirname "$0")/.."

step="${1:-all}"

# --------------------------------------------------------------------
# Harness: per-step timing, fail-fast step naming, shared temp files,
# and the one shared release build.

STEP_NAMES=()
STEP_SECS=()
CURRENT_STEP=""
TMP_FILES=()
RELEASE_BUILT=0

on_exit() {
    status=$?
    rm -f ${TMP_FILES[@]+"${TMP_FILES[@]}"}
    if [[ ${#STEP_NAMES[@]} -gt 0 ]]; then
        echo
        echo "step timing:"
        for i in "${!STEP_NAMES[@]}"; do
            printf '  %-14s %4ss\n' "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}"
        done
    fi
    if [[ $status -ne 0 ]]; then
        echo "CI FAILED in step '${CURRENT_STEP:-<setup>}' (exit $status)." >&2
    fi
    exit "$status"
}
trap on_exit EXIT

run_step() {
    local name="$1"
    shift
    CURRENT_STEP="$name"
    local start=$SECONDS
    "$@"
    STEP_NAMES+=("$name")
    STEP_SECS+=($((SECONDS - start)))
    CURRENT_STEP=""
}

tmpfile() {
    local f
    f="$(mktemp -t "$1")"
    TMP_FILES+=("$f")
    echo "$f"
}

# Every gate binary comes out of this one workspace build; the first
# caller pays for it, the rest reuse it.
ensure_release_build() {
    if [[ $RELEASE_BUILT -eq 0 ]]; then
        echo "==> cargo build --release --offline --workspace (shared)"
        cargo build --release --offline --workspace
        RELEASE_BUILT=1
    fi
}

# --------------------------------------------------------------------
# Steps

run_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

run_clippy() {
    echo "==> cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

run_build() {
    ensure_release_build
}

run_test() {
    echo "==> cargo test -q --offline --workspace (default thread pool)"
    cargo test -q --offline --workspace

    # The pool promises thread count is invisible to results: the whole
    # suite must also pass with the pool pinned serial and pinned to an
    # odd worker count via the env knob.
    echo "==> cargo test -q --offline --workspace (ALSRAC_THREADS=1)"
    ALSRAC_THREADS=1 cargo test -q --offline --workspace

    echo "==> cargo test -q --offline --workspace (ALSRAC_THREADS=3)"
    ALSRAC_THREADS=3 cargo test -q --offline --workspace
}

run_smoke() {
    ensure_release_build

    echo "==> trace smoke gate (schema + bit-exactness)"
    smoke_trace="$(tmpfile alsrac_smoke_XXXXXX.jsonl)"
    ALSRAC_TRACE="$smoke_trace" target/release/report --smoke

    echo "==> disabled-trace overhead gate (<= 2%)"
    target/release/report --overhead
}

run_alsbench() {
    echo "==> repository benchmark builds and passes its smoke tests"
    # A library API change that breaks the benchmark fails here rather
    # than in the benchmark run.
    cargo test --release --offline --manifest-path alsbench/Cargo.toml

    echo "==> every workload is correct and its lac_gen probe agrees"
    local workload result attempted agree
    for workload in er_suite distance scale_engine; do
        result="$(cargo run --release --offline --quiet --manifest-path alsbench/Cargo.toml -- \
            --workload "$workload" --seed 3 --seconds 1 --trace 1 --smoke | tail -n 1)"
        attempted="$(grep -o '"attempted":[0-9]*' <<<"$result" | cut -d: -f2)"
        agree="$(grep -o '"lac_gen.probe_agree":{"value":[0-9.]*' <<<"$result" | cut -d: -f3)"
        if ! grep -q '"correct":true' <<<"$result" || ! grep -q '"failed":0,' <<<"$result" ||
            [[ -z "$attempted" || "$agree" != "$attempted" ]]; then
            echo "alsbench: $workload must be correct with no failed job and" \
                "lac_gen.probe_agree ($agree) equal to attempted ($attempted)" >&2
            exit 1
        fi
        echo "  $workload: correct, $attempted attempted, lac_gen.probe_agree $agree"
    done
}

run_window_smoke() {
    ensure_release_build

    echo "==> windowed resubstitution gate (bit-exact + live counters)"
    window_json="$(tmpfile alsrac_bench_window_XXXXXX.json)"
    # bench_window --smoke asserts: flow output bit-identical between the
    # windowed and whole-circuit paths on every bundled circuit, and
    # window_extracted > 0 on each windowed run.
    target/release/bench_window --smoke "$window_json"
    grep -q '"window_extracted": \?0[,}]' "$window_json" && {
        echo "window-smoke: window_extracted is zero" >&2
        exit 1
    }
    echo "window-smoke gate passed."
}

run_cert_smoke() {
    ensure_release_build

    echo "==> certification gate (Wilson agreement + thread determinism)"
    cert_t1="$(tmpfile alsrac_bench_cert1_XXXXXX.json)"
    cert_t3="$(tmpfile alsrac_bench_cert3_XXXXXX.json)"
    # bench_cert --smoke asserts: every certified error rate agrees with an
    # independent sampled estimate within the Wilson interval, and every
    # WCE-constrained flow result is certified at or below its bound.
    local summary merges
    summary="$(ALSRAC_THREADS=1 target/release/bench_cert --smoke "$cert_t1")"
    echo "$summary"
    ALSRAC_THREADS=3 target/release/bench_cert --smoke "$cert_t3"
    target/release/report --cert "$cert_t1"
    # Every miter is swept before it is queried; a sweep that merges
    # nothing has silently stopped working.
    merges="$(grep -o '[0-9]* sweep merges' <<<"$summary" | cut -d' ' -f1)"
    if [[ -z "$merges" || "$merges" -eq 0 ]]; then
        echo "cert-smoke: the miter sweeps merged no node (cert_sweep_merges is ${merges:-missing})" >&2
        exit 1
    fi
    # Certification is SAT-backed and sampling is block-seeded, so the
    # artifact must not depend on the worker count — only the recorded
    # "threads" field itself may differ.
    if ! diff <(sed 's/"threads":[0-9]*/"threads":0/' "$cert_t1") \
        <(sed 's/"threads":[0-9]*/"threads":0/' "$cert_t3"); then
        echo "cert-smoke: artifact differs between 1 and 3 threads" >&2
        exit 1
    fi

    echo "==> committed certification artifact still validates"
    target/release/report --cert BENCH_cert.json
    echo "cert-smoke gate passed."
}

case "$step" in
fmt) run_step fmt run_fmt ;;
clippy) run_step clippy run_clippy ;;
build) run_step build run_build ;;
test) run_step test run_test ;;
smoke) run_step smoke run_smoke ;;
alsbench) run_step alsbench run_alsbench ;;
window-smoke) run_step window-smoke run_window_smoke ;;
cert-smoke) run_step cert-smoke run_cert_smoke ;;
all)
    run_step fmt run_fmt
    run_step clippy run_clippy
    run_step build run_build
    run_step test run_test
    run_step smoke run_smoke
    run_step alsbench run_alsbench
    run_step window-smoke run_window_smoke
    run_step cert-smoke run_cert_smoke
    ;;
*)
    echo "unknown step '$step' (expected fmt|clippy|build|test|smoke|alsbench|window-smoke|cert-smoke|all)" >&2
    exit 2
    ;;
esac

echo "CI green ($step)."
