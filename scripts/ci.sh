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
#   test    test suite at the default thread pool, then pinned to
#           ALSRAC_THREADS=1 (serial) and ALSRAC_THREADS=3 (odd worker
#           count, so non-divisible work splits are exercised)
#   smoke   telemetry gate: a seeded flow run under ALSRAC_TRACE must
#           produce schema-valid JSONL that matches the flow's returned
#           stats bit for bit, and the disabled-trace overhead on a hot
#           loop must stay within 2% (see `report --smoke|--overhead`)
#   alsbench
#           the repository benchmark (`alsbench/`, its own cargo
#           workspace) must build against the current library API and pass
#           its smoke tests: every workload at smoke size reports exactly
#           the metrics BENCHMARK.json declares
#   window-smoke
#           windowed-resubstitution gate: `bench_window --smoke` runs the
#           flow on every bundled Test-scale circuit with windowing on and
#           off and asserts the results bit-identical with live window
#           counters; also runs the scale-circuit generator self-checks
#   cert-smoke
#           certification gate: `bench_cert --smoke` certifies the exact
#           error rate of every bundled circuit's optimized output (the
#           binary asserts agreement with an independent Monte-Carlo
#           sample within the Wilson bound) and the WCE-constrained flow's
#           certified bound; the artifact is validated by `report --cert`
#           and must be bit-identical between ALSRAC_THREADS=1 and 3 apart
#           from the recorded "threads" field
#   fault-smoke
#           robustness gate: the fault-injection property suite sweeps
#           seeded cancel faults over two bundled circuits and asserts
#           every interrupted run checkpoints and resumes bit-identically
#           to the uninterrupted run, SAT starvation degrades certificates
#           instead of hanging, and a failing trace sink changes nothing;
#           run at ALSRAC_THREADS=1 and 3 (the suite additionally pins
#           1/3/7 workers in-process)
#   serve-smoke
#           daemon gate: `bench_serve --smoke` runs three concurrent jobs
#           through an in-process daemon at ALSRAC_THREADS=1 and 3 and
#           asserts every streamed run_end bit-identical to a direct
#           `flow::run` at the same seed, a malformed request line yields
#           a structured error naming its line number without killing the
#           daemon, and cancelling an in-flight job yields an interrupted
#           record whose checkpoint `flow::resume` completes from; then a
#           scripted transcript is piped through the real `alsrac-cli
#           --serve` binary — including a repeated identical submit that
#           must come back `cache_hit` from the result cache — and the
#           captured session (responses plus job-tagged flow records)
#           must be a schema-valid trace.
#           `report --serve` validates both fresh artifacts and the
#           committed BENCH_serve.json
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
    echo "==> cargo test -q --offline (default thread pool)"
    cargo test -q --offline

    # The pool promises thread count is invisible to results: the whole
    # suite must also pass with the pool pinned serial and pinned to an
    # odd worker count via the env knob.
    echo "==> cargo test -q --offline (ALSRAC_THREADS=1)"
    ALSRAC_THREADS=1 cargo test -q --offline

    echo "==> cargo test -q --offline (ALSRAC_THREADS=3)"
    ALSRAC_THREADS=3 cargo test -q --offline
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
}

run_window_smoke() {
    ensure_release_build

    echo "==> scale-circuit generator self-checks"
    cargo test -q --offline -p alsrac-circuits -- multiply_accumulate scale_suite

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
    ALSRAC_THREADS=1 target/release/bench_cert --smoke "$cert_t1"
    ALSRAC_THREADS=3 target/release/bench_cert --smoke "$cert_t3"
    target/release/report --cert "$cert_t1"
    # Certification is SAT-backed and sampling is block-seeded, so the
    # artifact must not depend on the worker count — only the recorded
    # "threads" field itself may differ.
    if ! diff <(sed 's/"threads":[0-9]*/"threads":0/' "$cert_t1") \
        <(sed 's/"threads":[0-9]*/"threads":0/' "$cert_t3"); then
        echo "cert-smoke: artifact differs between 1 and 3 threads" >&2
        exit 1
    fi
    echo "cert-smoke gate passed."
}

run_fault_smoke() {
    echo "==> fault-injection gate (checkpoint/resume bit-identity)"
    # The suite arms process-global fault plans, so it runs in its own
    # test binary; both pinned pool sizes must reproduce the same bits
    # (the suite also pins 1/3/7 workers in-process via with_threads).
    ALSRAC_THREADS=1 cargo test -q --offline -p alsrac --test fault_injection
    ALSRAC_THREADS=3 cargo test -q --offline -p alsrac --test fault_injection
    echo "fault-smoke gate passed."
}

run_serve_smoke() {
    ensure_release_build

    echo "==> daemon gate (bit-identity + cancel/resume, 1 and 3 workers)"
    serve_t1="$(tmpfile alsrac_bench_serve1_XXXXXX.json)"
    serve_t3="$(tmpfile alsrac_bench_serve3_XXXXXX.json)"
    # bench_serve --smoke asserts in-process: every streamed run_end
    # bit-identical to a direct flow::run at the same seed, a malformed
    # line rejected by line number without killing the daemon, and an
    # in-flight cancel interrupted with a checkpoint flow::resume
    # completes from.
    ALSRAC_THREADS=1 target/release/bench_serve --smoke "$serve_t1"
    ALSRAC_THREADS=3 target/release/bench_serve --smoke "$serve_t3"
    target/release/report --serve "$serve_t1"
    target/release/report --serve "$serve_t3"

    echo "==> committed throughput artifact still validates"
    target/release/report --serve BENCH_serve.json

    echo "==> end-to-end transcript through the real daemon binary"
    session="$(tmpfile alsrac_serve_session_XXXXXX.jsonl)"
    printf '%s\n' \
        '{"op":"submit","circuit":"cla32","metric":"er","threshold":0.05,"seed":1,"max_iterations":5,"measure_rounds":2000}' \
        'this is not a request' \
        '{"op":"status"}' \
        '{"op":"submit","circuit":"cla32","metric":"er","threshold":0.05,"seed":1,"max_iterations":5,"measure_rounds":2000}' \
        '{"op":"shutdown","mode":"drain"}' \
        | target/release/alsrac-cli --serve --workers 1 2>/dev/null >"$session"
    check() {
        grep -q "$1" "$session" || {
            echo "serve-smoke: captured session lacks $2" >&2
            exit 1
        }
    }
    check '"type":"response","op":"submit","ok":true,"job_id":1' "the submit ack"
    check '"type":"run_end".*"job_id":1' "the job-tagged run_end"
    check '"type":"error","line":2,' "the line-numbered parse error"
    check '"type":"job_done","job_id":1,"outcome":"completed"' "the terminal job record"
    # The second, identical submit must be served from the result cache:
    # its terminal record carries cache_hit and the session totals count it.
    check '"type":"job_done","job_id":2,.*"cache_hit":true' "the cache-served job record"
    check '"type":"shutdown","reason":"shutdown_request"' "the final shutdown record"
    # The captured session — responses interleaved with job-tagged flow
    # records — must itself be a schema-valid trace file.
    session_summary="$(tmpfile alsrac_serve_summary_XXXXXX.json)"
    target/release/report "$session" --summary "$session_summary" >/dev/null
    echo "serve-smoke gate passed."
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
fault-smoke) run_step fault-smoke run_fault_smoke ;;
serve-smoke) run_step serve-smoke run_serve_smoke ;;
all)
    run_step fmt run_fmt
    run_step clippy run_clippy
    run_step build run_build
    run_step test run_test
    run_step smoke run_smoke
    run_step alsbench run_alsbench
    run_step window-smoke run_window_smoke
    run_step cert-smoke run_cert_smoke
    run_step fault-smoke run_fault_smoke
    run_step serve-smoke run_serve_smoke
    ;;
*)
    echo "unknown step '$step' (expected fmt|clippy|build|test|smoke|alsbench|window-smoke|cert-smoke|fault-smoke|serve-smoke|all)" >&2
    exit 2
    ;;
esac

echo "CI green ($step)."
