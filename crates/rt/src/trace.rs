//! Flow telemetry: scoped spans, named counters, and a JSONL run-report
//! sink — the observability substrate of every iterative flow in this
//! workspace (hermetic policy: no `tracing` crate).
//!
//! ALSRAC's greedy loop (simulate → estimate → apply → re-optimize) hides
//! regressions N iterations deep; this module makes each iteration
//! machine-readable. Three facilities:
//!
//! * **Spans** — [`span`] returns a guard that measures monotonic wall
//!   time. Spans nest per thread (a thread-local stack turns `span("a")`
//!   inside `span("b")` into the path `b/a`) and are thread-aware: a span
//!   opened inside a [`crate::pool`] worker attributes its time to that
//!   worker without touching any other thread's nesting. Completed spans
//!   accumulate into a process-wide table (total ns, call count, distinct
//!   threads) readable via [`snapshot`] and dumpable via [`emit_totals`].
//!   [`Span::finish`] additionally hands the caller its own elapsed
//!   nanoseconds, so flows can attach exact per-phase times to their own
//!   iteration records even when several flows run concurrently.
//! * **Counters** — [`add`] bumps a named `u64` (LACs scored, candidates
//!   NaN-filtered, influence cache hits, patterns simulated…). Counters
//!   are plain commutative sums, so worker merge order can never change a
//!   total.
//! * **JSONL sink** — [`emit`] writes one [`crate::json::Obj`] record per
//!   line to the sink installed by [`enable_file`] / [`enable_writer`] /
//!   the `ALSRAC_TRACE` environment knob ([`init_from_env`]). Each line is
//!   written under one lock, so concurrent flows interleave whole records,
//!   never bytes. The record schema is documented in DESIGN.md
//!   ("Telemetry").
//!
//! **Disabled cost.** When no sink is installed every entry point reduces
//! to one relaxed atomic load: [`span`] returns an inert guard without
//! reading the clock, [`add`] returns immediately, and nothing allocates
//! (pinned by `crates/rt/tests/trace_disabled.rs` with a counting
//! allocator). Flows guard record *construction* behind [`is_enabled`], so
//! a disabled run does no formatting work at all.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Obj;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
static TOTALS: Mutex<Totals> = Mutex::new(Totals::new());
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Names of the spans currently open on this thread (innermost last).
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Small dense id for the current thread (for distinct-thread counts).
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

struct Totals {
    spans: BTreeMap<String, SpanTotal>,
    counters: BTreeMap<&'static str, u64>,
}

struct SpanTotal {
    ns: u64,
    count: u64,
    threads: BTreeSet<u64>,
}

impl Totals {
    const fn new() -> Totals {
        Totals {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }
}

/// One row of a [`snapshot`]: aggregate statistics for a span path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Span path (`outer/inner` for nested spans).
    pub name: String,
    /// Total nanoseconds across all completed spans with this path.
    pub ns: u64,
    /// Number of completed spans with this path.
    pub count: u64,
    /// Number of distinct threads that completed such a span.
    pub threads: usize,
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        let current = id.get();
        if current != 0 {
            current
        } else {
            let fresh = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            id.set(fresh);
            fresh
        }
    })
}

/// Whether a trace sink is installed. One relaxed atomic load; callers use
/// it to skip record construction entirely on the disabled path.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a file sink at `path` (truncating) and enables tracing.
///
/// # Errors
///
/// Propagates the file-creation error; tracing stays disabled on failure.
pub fn enable_file(path: &str) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    enable_writer(Box::new(io::BufWriter::new(file)));
    Ok(())
}

/// Installs an arbitrary sink (used by tests and in-memory consumers) and
/// enables tracing. Replaces any previous sink.
pub fn enable_writer(writer: Box<dyn Write + Send>) {
    let mut sink = SINK.lock().expect("trace sink poisoned");
    *sink = Some(writer);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Enables tracing when the `ALSRAC_TRACE` environment variable names a
/// writable path. Returns `Ok(Some(path))` on success, `Ok(None)` when the
/// variable is unset or blank, and the creation error when the path cannot
/// be opened — an explicitly requested trace must never be silently
/// dropped, so binaries report that error and exit nonzero rather than
/// running untraced. Tracing stays disabled on failure.
///
/// # Errors
///
/// Returns the [`io::Error`] from creating the file at `$ALSRAC_TRACE`,
/// annotated with the offending path.
pub fn init_from_env() -> io::Result<Option<String>> {
    let Ok(path) = std::env::var("ALSRAC_TRACE") else {
        return Ok(None);
    };
    if path.trim().is_empty() {
        return Ok(None);
    }
    enable_file(&path).map_err(|e| {
        io::Error::new(e.kind(), format!("ALSRAC_TRACE={path}: cannot create: {e}"))
    })?;
    Ok(Some(path))
}

/// Flushes and removes the sink, disabling tracing. Accumulated totals are
/// kept (use [`reset`] to clear them).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut sink = SINK.lock().expect("trace sink poisoned");
    if let Some(writer) = sink.as_mut() {
        let _ = writer.flush();
    }
    *sink = None;
}

/// Clears all accumulated span and counter totals (tests and multi-phase
/// binaries that want per-phase totals records).
pub fn reset() {
    let mut totals = TOTALS.lock().expect("trace totals poisoned");
    totals.spans.clear();
    totals.counters.clear();
}

/// Flushes the sink, if any.
pub fn flush() {
    let mut sink = SINK.lock().expect("trace sink poisoned");
    if let Some(writer) = sink.as_mut() {
        let _ = writer.flush();
    }
}

/// Draws a fresh process-unique run id (flows stamp every record of one
/// run with it, so interleaved concurrent runs stay separable).
pub fn next_run_id() -> u64 {
    NEXT_RUN.fetch_add(1, Ordering::Relaxed)
}

/// A scoped wall-clock timer. Created by [`span`]; records its elapsed
/// time into the process-wide totals on drop (or [`Span::finish`]).
///
/// Spans follow strict LIFO discipline per thread (guard style); dropping
/// spans out of order mis-nests the recorded *paths* but never corrupts
/// other threads or loses time.
#[must_use = "a span measures the time until it is dropped or finished"]
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    path: String,
    start: Instant,
}

/// Opens a span named `name`. Inert (no clock read, no allocation) when
/// tracing is disabled.
pub fn span(name: &'static str) -> Span {
    // Fault-injection hook: span opens are the deterministic coordinate
    // system the robustness harness injects at. One relaxed load when no
    // plan is armed, so the disabled-path cost guarantee holds.
    crate::faults::on_span();
    if !is_enabled() {
        return Span { active: None };
    }
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = if stack.is_empty() {
            name.to_string()
        } else {
            let mut path = stack.join("/");
            path.push('/');
            path.push_str(name);
            path
        };
        stack.push(name);
        path
    });
    Span {
        active: Some(ActiveSpan {
            path,
            start: Instant::now(),
        }),
    }
}

impl Span {
    /// Closes the span and returns its elapsed nanoseconds (0 when the
    /// span was inert). The time is also added to the global totals.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let Some(active) = self.active.take() else {
            return 0;
        };
        let ns = active.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let tid = thread_id();
        let mut totals = TOTALS.lock().expect("trace totals poisoned");
        let entry = totals.spans.entry(active.path).or_insert(SpanTotal {
            ns: 0,
            count: 0,
            threads: BTreeSet::new(),
        });
        entry.ns += ns;
        entry.count += 1;
        entry.threads.insert(tid);
        ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Adds `value` to the named counter. One relaxed atomic load when
/// tracing is disabled.
#[inline]
pub fn add(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let mut totals = TOTALS.lock().expect("trace totals poisoned");
    *totals.counters.entry(name).or_insert(0) += value;
}

/// A consistent copy of the span and counter totals, sorted by name.
pub fn snapshot() -> (Vec<PhaseSnapshot>, Vec<(String, u64)>) {
    let totals = TOTALS.lock().expect("trace totals poisoned");
    let spans = totals
        .spans
        .iter()
        .map(|(name, t)| PhaseSnapshot {
            name: name.clone(),
            ns: t.ns,
            count: t.count,
            threads: t.threads.len(),
        })
        .collect();
    let counters = totals
        .counters
        .iter()
        .map(|(&name, &v)| (name.to_string(), v))
        .collect();
    (spans, counters)
}

/// Writes one JSONL record (a closed-over [`Obj`]) to the sink. No-op when
/// tracing is disabled; the whole line is written under one lock.
pub fn emit(record: Obj) {
    if !is_enabled() {
        return;
    }
    let line = record.finish();
    let mut sink = SINK.lock().expect("trace sink poisoned");
    if let Some(writer) = sink.as_mut() {
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.write_all(b"\n");
        let _ = writer.flush();
    }
}

/// Emits a `totals` record: every span path (ns/count/threads) and every
/// counter accumulated so far. Binaries call this once before exit.
pub fn emit_totals() {
    if !is_enabled() {
        return;
    }
    let (spans, counters) = snapshot();
    let mut span_obj = Obj::new();
    for s in &spans {
        span_obj = span_obj.obj(
            &s.name,
            Obj::new()
                .u64("ns", s.ns)
                .u64("count", s.count)
                .u64("threads", s.threads as u64),
        );
    }
    let mut counter_obj = Obj::new();
    for (name, value) in &counters {
        counter_obj = counter_obj.u64(name, *value);
    }
    emit(
        Obj::new()
            .str("type", "totals")
            .obj("spans", span_obj)
            .obj("counters", counter_obj),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use std::sync::{Arc, Mutex as StdMutex, OnceLock};

    /// The trace sink and totals are process-global; tests that touch them
    /// serialize on this lock.
    fn test_lock() -> &'static StdMutex<()> {
        static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
    }

    /// An in-memory sink the test keeps a handle to after installing.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("buf").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().expect("buf").clone()).expect("utf8")
        }
    }

    fn with_trace<R>(f: impl FnOnce(&SharedBuf) -> R) -> R {
        let _guard = test_lock().lock().expect("test lock");
        let buf = SharedBuf::default();
        enable_writer(Box::new(buf.clone()));
        reset();
        let result = f(&buf);
        disable();
        reset();
        result
    }

    #[test]
    fn init_from_env_reports_uncreatable_paths_instead_of_panicking() {
        let _guard = test_lock().lock().expect("test lock");
        let saved = std::env::var("ALSRAC_TRACE").ok();

        std::env::remove_var("ALSRAC_TRACE");
        assert_eq!(init_from_env().expect("unset is fine"), None);
        std::env::set_var("ALSRAC_TRACE", "  ");
        assert_eq!(init_from_env().expect("blank is fine"), None);

        std::env::set_var("ALSRAC_TRACE", "/nonexistent-dir/trace.jsonl");
        let err = init_from_env().expect_err("uncreatable path must error");
        let message = err.to_string();
        assert!(
            message.contains("ALSRAC_TRACE=/nonexistent-dir/trace.jsonl"),
            "error must name the offending path: {message}"
        );
        assert!(!is_enabled(), "tracing must stay disabled on failure");

        match saved {
            Some(value) => std::env::set_var("ALSRAC_TRACE", value),
            None => std::env::remove_var("ALSRAC_TRACE"),
        }
    }

    #[test]
    fn spans_nest_on_one_thread_and_not_into_pool_workers() {
        with_trace(|_| {
            let outer = span("outer");
            {
                let inner = span("inner");
                drop(inner);
            }
            // Spans opened inside pool workers start a fresh stack: they
            // must NOT inherit the caller's "outer" prefix, and the
            // caller's nesting must survive the parallel section intact.
            let results = pool::with_threads(4, || {
                pool::par_indices(16, |i| {
                    let work = span("work");
                    let nested = span("work_inner");
                    drop(nested);
                    work.finish();
                    i
                })
            });
            assert_eq!(results.len(), 16);
            let post = span("post");
            drop(post);
            drop(outer);

            let (spans, _) = snapshot();
            let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            assert!(names.contains(&"outer"));
            assert!(names.contains(&"outer/inner"));
            assert!(names.contains(&"outer/post"));
            assert!(
                names.contains(&"work"),
                "worker span got a prefix: {names:?}"
            );
            assert!(names.contains(&"work/work_inner"));
            assert!(!names.iter().any(|n| n.starts_with("outer/work")));
            let work = spans.iter().find(|s| s.name == "work").expect("work");
            assert_eq!(work.count, 16);
            assert!(work.threads >= 1);
        });
    }

    #[test]
    fn counter_totals_are_independent_of_merge_order() {
        // Counters are commutative sums: any worker interleaving (and the
        // serial order) must produce identical totals.
        let items: Vec<u64> = (1..=100).collect();
        let totals_at = |threads: usize| {
            with_trace(|_| {
                pool::with_threads(threads, || {
                    pool::par_map(&items, |&i| {
                        add("merge_order", i);
                        add("ones", 1);
                    })
                });
                let (_, counters) = snapshot();
                counters
            })
        };
        let serial = totals_at(1);
        assert_eq!(
            serial,
            vec![("merge_order".to_string(), 5050), ("ones".to_string(), 100)]
        );
        for threads in [2, 3, 8] {
            assert_eq!(totals_at(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn emitted_records_round_trip_through_the_parser() {
        let text = with_trace(|buf| {
            emit(
                Obj::new()
                    .str("type", "iteration")
                    .u64("iter", 7)
                    .bool("accepted", true)
                    .f64("est_error", 0.1),
            );
            add("lacs_scored", 42);
            let sp = span("phase");
            sp.finish();
            emit_totals();
            buf.text()
        });
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let rec = crate::json::Json::parse(lines[0]).expect("valid JSONL");
        assert_eq!(rec.get("type").and_then(|v| v.as_str()), Some("iteration"));
        assert_eq!(
            rec.get("est_error")
                .and_then(|v| v.as_f64())
                .map(f64::to_bits),
            Some(0.1f64.to_bits())
        );
        let totals = crate::json::Json::parse(lines[1]).expect("valid JSONL");
        assert_eq!(totals.get("type").and_then(|v| v.as_str()), Some("totals"));
        assert_eq!(
            totals
                .get("counters")
                .and_then(|c| c.get("lacs_scored"))
                .and_then(|v| v.as_u64()),
            Some(42)
        );
        let phase = totals
            .get("spans")
            .and_then(|s| s.get("phase"))
            .expect("span");
        assert_eq!(phase.get("count").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn finish_returns_elapsed_and_disabled_spans_return_zero() {
        with_trace(|_| {
            let sp = span("timed");
            std::hint::black_box(0u64);
            let ns = sp.finish();
            // Monotonic clocks can report 0 ns for very short intervals,
            // but the totals entry must exist regardless.
            let (spans, _) = snapshot();
            let t = spans.iter().find(|s| s.name == "timed").expect("timed");
            assert!(t.ns >= ns);
        });
        let _guard = test_lock().lock().expect("test lock");
        assert!(!is_enabled());
        let sp = span("inert");
        assert_eq!(sp.finish(), 0);
        let (spans, _) = snapshot();
        assert!(spans.iter().all(|s| s.name != "inert"));
    }

    #[test]
    fn run_ids_are_unique() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, b);
    }
}
