//! Integration suite for the daemon (`alsrac::serve`).
//!
//! The contract under test (DESIGN.md "Service mode"):
//!
//! 1. **Worker-count determinism.** The same job mix, submitted with the
//!    same interleaving, produces per-job `run_end` records identical at
//!    1, 3, and 7 workers, and to a direct `flow::run` of each job, once
//!    the legitimately volatile fields (run ids, wall-clock timings) are
//!    stripped: every job runs its flow single-threaded from its own
//!    seed, so scheduling cannot leak into results.
//! 2. **Fault-cancelled jobs checkpoint and resume bit-identically.** A
//!    seeded cancel fault fired inside a daemon job interrupts it; the
//!    checkpoint from its terminal record resumes — via the public
//!    `flow::resume` — to the exact result of an uninterrupted direct
//!    run.
//! 3. **Poisoned jobs degrade to error responses without wedging the
//!    queue.** An unresolvable circuit and a panicking resolver both
//!    yield `failed` terminal records, and jobs submitted after them
//!    still complete; a SAT-starved certification job completes with a
//!    degraded certificate instead of hanging its worker.
//!
//! The daemon owns the process-global trace sink and the fault plan is
//! process-global too, so every test holds [`lock`] for its duration.

use std::io::{BufReader, PipeWriter, Write};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use alsrac::checkpoint::Checkpoint;
use alsrac::flow;
use alsrac::serve::{
    self, wait_for_record, Catalog, CircuitSource, LineCollector, Request, ServeSummary,
    SubmitRequest,
};
use alsrac_aig::Aig;
use alsrac_circuits::{aiger, arith};
use alsrac_metrics::ErrorMetric;
use alsrac_rt::faults::{self, FaultAction, FaultPlan};
use alsrac_rt::json::Json;
use alsrac_rt::trace;

/// Serializes tests: the trace sink and the fault plan are process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Test resolver over the arithmetic generators, plus two poisoned names
/// and inline ASCII-AIGER support.
fn resolver() -> Box<serve::Resolver> {
    Box::new(|source: &CircuitSource| match source {
        CircuitSource::Named { name, .. } => match name.as_str() {
            "rca4" => Ok(arith::ripple_carry_adder(4)),
            "ksa4" => Ok(arith::kogge_stone_adder(4)),
            "mtp4" => Ok(arith::array_multiplier(4)),
            "panicky" => panic!("resolver blew up on purpose"),
            other => Err(format!("unknown benchmark {other:?}")),
        },
        CircuitSource::Aag(text) => aiger::parse_ascii(text).map_err(|e| e.to_string()),
        CircuitSource::Blif(_) => Err("no BLIF in this test resolver".to_string()),
    })
}

fn resolve(source: &CircuitSource) -> Aig {
    resolver()(source).expect("test circuit resolves")
}

struct Session {
    requests: PipeWriter,
    out: LineCollector,
    handle: JoinHandle<ServeSummary>,
}

fn start(workers: usize) -> Session {
    let catalog = Arc::new(Catalog::new(resolver()));
    let (reader, requests) = std::io::pipe().expect("request pipe");
    let out = LineCollector::new();
    let sink = out.clone();
    let handle = std::thread::spawn(move || {
        serve::serve(BufReader::new(reader), sink, catalog, workers, None)
    });
    Session {
        requests,
        out,
        handle,
    }
}

impl Session {
    fn request(&self, request: &Request) {
        writeln!(&self.requests, "{}", request.to_json()).expect("send request");
    }

    fn submit(&self, spec: &SubmitRequest) {
        self.request(&Request::Submit(spec.clone()));
    }

    /// Sends a drain `shutdown`, closes the request stream (EOF) and
    /// returns the summary with every record the session wrote.
    fn shut_down(self) -> (ServeSummary, Vec<Json>) {
        self.request(&Request::Shutdown { cancel: false });
        drop(self.requests);
        let summary = self.handle.join().expect("serve thread");
        let records = self
            .out
            .lines()
            .iter()
            .map(|l| Json::parse(l).expect("daemon emits valid JSON"))
            .collect();
        (summary, records)
    }
}

fn job(name: &str, seed: u64, metric: ErrorMetric, threshold: f64) -> SubmitRequest {
    let mut spec = SubmitRequest::named(name, "test");
    spec.metric = metric;
    spec.threshold = threshold;
    spec.seed = seed;
    spec.max_iterations = Some(20);
    spec.measure_rounds = Some(5_000);
    spec
}

fn record_type(record: &Json) -> &str {
    record.get("type").and_then(Json::as_str).unwrap_or("")
}

fn job_id(record: &Json) -> Option<u64> {
    record.get("job_id").and_then(Json::as_u64)
}

fn wait(rx: &mpsc::Receiver<String>, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    wait_for_record(rx, Duration::from_secs(120), pred)
        .unwrap_or_else(|| panic!("timed out waiting for {what}"))
}

/// The volatile fields of a flow record: everything else must be
/// identical between daemon runs at different worker counts.
fn stripped(record: &Json) -> Json {
    match record {
        Json::Obj(map) => {
            let mut map = map.clone();
            for key in ["run", "wall_ns", "phase_ns", "job_id"] {
                map.remove(key);
            }
            Json::Obj(map)
        }
        other => panic!("flow record is not an object: {other:?}"),
    }
}

// -----------------------------------------------------------------------
// 1. Worker-count determinism

fn job_mix() -> Vec<SubmitRequest> {
    let inline = aiger::write_ascii(&arith::ripple_carry_adder(4));
    let mut inline_job = job("rca4", 3, ErrorMetric::Nmed, 0.02);
    inline_job.source = CircuitSource::Aag(inline);
    vec![
        job("rca4", 11, ErrorMetric::ErrorRate, 0.15),
        job("ksa4", 7, ErrorMetric::ErrorRate, 0.15),
        inline_job,
        job("mtp4", 5, ErrorMetric::ErrorRate, 0.10),
    ]
}

/// Runs the mix with the same interleaving (two jobs up front, two more
/// once the first is already running) and returns each job's stripped
/// `run_end`, in job-id order.
fn run_mix(workers: usize) -> Vec<Json> {
    let jobs = job_mix();
    let session = start(workers);
    let watch = session.out.watch();
    session.submit(&jobs[0]);
    session.submit(&jobs[1]);
    wait(&watch, "run_start of job 1", |r| {
        record_type(r) == "run_start" && job_id(r) == Some(1)
    });
    session.submit(&jobs[2]);
    session.submit(&jobs[3]);
    let (summary, records) = session.shut_down();
    assert_eq!(summary.totals.submitted, jobs.len() as u64);
    assert_eq!(summary.totals.completed, jobs.len() as u64);

    (1..=jobs.len() as u64)
        .map(|id| {
            let matching: Vec<&Json> = records
                .iter()
                .filter(|r| record_type(r) == "run_end" && job_id(r) == Some(id))
                .collect();
            assert_eq!(matching.len(), 1, "job {id}: exactly one run_end");
            stripped(matching[0])
        })
        .collect()
}

/// The stripped `run_end` of a direct `flow::run` of `spec`, traced into
/// a collector while no session owns the trace sink.
fn direct_run_end(spec: &SubmitRequest) -> Json {
    let out = LineCollector::new();
    trace::reset();
    trace::enable_writer(Box::new(out.clone()));
    flow::run(&resolve(&spec.source), &spec.flow_config()).expect("direct run");
    trace::flush();
    trace::disable();
    let records: Vec<Json> = out
        .lines()
        .iter()
        .map(|l| Json::parse(l).expect("valid JSON"))
        .filter(|r| record_type(r) == "run_end")
        .collect();
    assert_eq!(records.len(), 1, "a direct run emits one run_end");
    stripped(&records[0])
}

#[test]
fn same_job_mix_is_bit_identical_at_1_3_and_7_workers() {
    let _guard = lock();
    let reference = run_mix(1);
    for (i, spec) in job_mix().iter().enumerate() {
        assert_eq!(
            reference[i],
            direct_run_end(spec),
            "job {}: daemon run_end differs from a direct flow::run",
            i + 1
        );
    }
    for workers in [3, 7] {
        assert_eq!(
            run_mix(workers),
            reference,
            "run_end records differ between 1 and {workers} workers"
        );
    }
}

// -----------------------------------------------------------------------
// 2. Fault-cancelled job → checkpoint → resume equals the direct run

#[test]
fn fault_cancelled_job_resumes_bit_identically_to_a_direct_run() {
    let _guard = lock();
    let spec = job("rca4", 11, ErrorMetric::ErrorRate, 0.15);
    let aig = resolve(&spec.source);
    let config = spec.flow_config();
    let reference = flow::run(&aig, &config).expect("direct reference run");
    assert!(
        reference.applied > 0,
        "reference applied nothing — the equality check would be vacuous"
    );

    // Fire a cancel fault a few spans into the job: the daemon wires each
    // job's cancel token into the fault layer, so the armed plan trips
    // THIS job, which must interrupt at its next budget poll.
    faults::arm(FaultPlan {
        fire_at_span: 3,
        action: FaultAction::Cancel,
    });
    let session = start(1);
    let watch = session.out.watch();
    session.submit(&spec);
    let done = wait(&watch, "terminal record of the faulted job", |r| {
        record_type(r) == "job_done" && job_id(r) == Some(1)
    });
    faults::disarm();
    let (summary, _) = session.shut_down();

    assert_eq!(
        done.get("outcome").and_then(Json::as_str),
        Some("interrupted"),
        "the fault must interrupt the job"
    );
    assert_eq!(summary.totals.interrupted, 1);
    let text = done
        .get("checkpoint")
        .and_then(Json::as_str)
        .expect("interrupted job carries its checkpoint");
    let checkpoint = Checkpoint::parse(text).expect("checkpoint parses");

    let resumed = flow::resume(&aig, &config, checkpoint).expect("resume");
    assert_eq!(resumed.iterations, reference.iterations);
    assert_eq!(resumed.applied, reference.applied);
    assert_eq!(resumed.outcome, reference.outcome);
    assert_eq!(
        resumed.measured.error_rate.to_bits(),
        reference.measured.error_rate.to_bits()
    );
    assert_eq!(
        aiger::write_ascii(&resumed.approx),
        aiger::write_ascii(&reference.approx),
        "resumed circuit differs structurally from the direct run"
    );
}

// -----------------------------------------------------------------------
// 3. Poisoned jobs fail cleanly; the queue keeps draining

#[test]
fn poisoned_jobs_fail_without_wedging_the_queue() {
    let _guard = lock();
    let session = start(1);
    let watch = session.out.watch();

    // Job 1: unresolvable circuit. Job 2: resolver panic (caught at the
    // job boundary). Job 3: healthy, must still complete.
    session.submit(&job("no_such_circuit", 1, ErrorMetric::ErrorRate, 0.1));
    session.submit(&job("panicky", 1, ErrorMetric::ErrorRate, 0.1));
    session.submit(&job("rca4", 11, ErrorMetric::ErrorRate, 0.15));

    let failed = wait(&watch, "job 1 terminal record", |r| {
        record_type(r) == "job_done" && job_id(r) == Some(1)
    });
    assert_eq!(failed.get("outcome").and_then(Json::as_str), Some("failed"));
    let error = failed.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        error.contains("unknown benchmark"),
        "failed record must carry the resolver error, got {error:?}"
    );

    let panicked = wait(&watch, "job 2 terminal record", |r| {
        record_type(r) == "job_done" && job_id(r) == Some(2)
    });
    assert_eq!(
        panicked.get("outcome").and_then(Json::as_str),
        Some("failed")
    );
    let error = panicked.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        error.contains("panicked") && error.contains("on purpose"),
        "panic must be caught and reported, got {error:?}"
    );

    let healthy = wait(&watch, "job 3 terminal record", |r| {
        record_type(r) == "job_done" && job_id(r) == Some(3)
    });
    assert_eq!(
        healthy.get("outcome").and_then(Json::as_str),
        Some("completed"),
        "a healthy job after two poisoned ones must still complete"
    );

    let (summary, _) = session.shut_down();
    assert_eq!(summary.totals.failed, 2);
    assert_eq!(summary.totals.completed, 1);
}

#[test]
fn sat_starved_certification_job_degrades_instead_of_hanging() {
    let _guard = lock();
    let mut spec = job("rca4", 11, ErrorMetric::ErrorRate, 0.15);
    spec.certify = true;

    // Exhaust the SAT budget immediately: every certification query is
    // starved, so the job must complete with a degraded certificate.
    faults::arm(FaultPlan {
        fire_at_span: 1,
        action: FaultAction::ExhaustSatBudget,
    });
    let session = start(1);
    let watch = session.out.watch();
    session.submit(&spec);
    // The flow's run_end streams out before the daemon's terminal record,
    // and `watch` is a single consuming receiver — take them in order.
    let end = wait(&watch, "run_end of the starved job", |r| {
        record_type(r) == "run_end" && job_id(r) == Some(1)
    });
    let done = wait(&watch, "terminal record of the starved job", |r| {
        record_type(r) == "job_done" && job_id(r) == Some(1)
    });
    faults::disarm();
    let (summary, _) = session.shut_down();

    assert_eq!(
        done.get("outcome").and_then(Json::as_str),
        Some("completed"),
        "SAT starvation must degrade the certificate, not fail the job"
    );
    assert_eq!(summary.totals.completed, 1);
    let status = end
        .get("certified")
        .and_then(|c| c.get("status"))
        .and_then(Json::as_str);
    assert_eq!(
        status,
        Some("degraded"),
        "the streamed run_end must carry the degraded certificate"
    );
}

// -----------------------------------------------------------------------
// 4. Result cache: a repeat submit replays the stored terminal record

#[test]
fn repeat_submit_replays_the_cached_terminal_record() {
    let _guard = lock();
    let spec = job("rca4", 11, ErrorMetric::ErrorRate, 0.15);
    let session = start(1);
    let watch = session.out.watch();

    session.submit(&spec);
    let first = wait(&watch, "job 1 terminal record", |r| {
        record_type(r) == "job_done" && job_id(r) == Some(1)
    });
    // Identical spec again: must replay from the cache without re-running.
    session.submit(&spec);
    let second = wait(&watch, "job 2 terminal record", |r| {
        record_type(r) == "job_done" && job_id(r) == Some(2)
    });
    // Same circuit, different seed: a distinct config must re-run.
    let mut reseeded = spec.clone();
    reseeded.seed = 12;
    session.submit(&reseeded);
    let third = wait(&watch, "job 3 terminal record", |r| {
        record_type(r) == "job_done" && job_id(r) == Some(3)
    });
    let (summary, records) = session.shut_down();

    assert_eq!(
        first.get("cache_hit"),
        None,
        "the first run is a miss; cache_hit is omitted from the wire when false"
    );
    assert_eq!(
        second.get("cache_hit").and_then(Json::as_bool),
        Some(true),
        "the repeat submit must be served from the cache"
    );
    assert_eq!(
        second.get("run_ns").and_then(Json::as_u64),
        Some(0),
        "a replayed job reports zero run time"
    );
    for key in ["outcome", "iterations", "applied", "ands"] {
        assert_eq!(second.get(key), first.get(key), "replayed field {key:?}");
    }
    assert_eq!(
        third.get("cache_hit"),
        None,
        "a reseeded config must re-run"
    );

    // The replayed job never entered the flow: three completed jobs but
    // only two run_end records.
    let run_ends = records
        .iter()
        .filter(|r| record_type(r) == "run_end")
        .count();
    assert_eq!(run_ends, 2, "cache hits must not re-run the flow");
    assert_eq!(summary.totals.completed, 3);

    let totals = records
        .iter()
        .find(|r| record_type(r) == "totals")
        .expect("daemon emits a totals record at shutdown");
    assert_eq!(
        totals
            .get("counters")
            .and_then(|c| c.get("serve_cache_hits"))
            .and_then(Json::as_u64),
        Some(1),
        "exactly one cache hit must be counted"
    );
}

#[test]
fn failed_jobs_are_not_cached() {
    let _guard = lock();
    let spec = job("no_such_circuit", 1, ErrorMetric::ErrorRate, 0.1);
    let session = start(1);
    let watch = session.out.watch();
    session.submit(&spec);
    session.submit(&spec);
    let mut outcomes = Vec::new();
    for id in [1, 2] {
        let done = wait(&watch, "terminal record", |r| {
            record_type(r) == "job_done" && job_id(r) == Some(id)
        });
        assert_eq!(
            done.get("cache_hit"),
            None,
            "job {id}: only completed jobs populate the cache"
        );
        outcomes.push(
            done.get("outcome")
                .and_then(Json::as_str)
                .map(str::to_owned),
        );
    }
    let (summary, _) = session.shut_down();
    assert_eq!(outcomes, vec![Some("failed".into()), Some("failed".into())]);
    assert_eq!(summary.totals.failed, 2);
}
