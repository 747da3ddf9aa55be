//! The repository benchmark: ALSRAC workloads run as closed loops, with
//! end-to-end quality and time metrics and a traced per-layer profile.
//!
//! ```text
//! alsrac-perfbench --workload <er_suite|distance|scale_engine> --seed <n>
//!                  --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` sets up the workload at least twice and for at least
//! three seconds (circuit generation plus mapping of the originals; the
//! fastest is `setup_s`), then runs its jobs
//! back to back, cycling through the list, until `--seconds` have passed
//! and every job ran at least twice; `synth_s` sums each job's fastest
//! run. `--trace 1` runs each job once on one pool thread, once untraced
//! and once traced, then probes the optimizer passes and the `lac_gen`
//! stages from outside, and reports the per-layer metrics. Every job's
//! output is checked (see `checks`). The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--smoke` swaps in
//! Test-scale circuits and small iteration caps for a seconds-long run.

mod checks;
mod heap;
mod probes;
mod profile;
mod workload;

use std::time::Instant;

use alsrac::flow::FlowResult;
use alsrac_rt::json::Obj;
use alsrac_rt::{pool, trace};

use checks::{fingerprint, independent_check, run_job, Run};
use probes::{lac_gen_stages, PassProbe, Spans};
use profile::{Capture, FlowCounts, Profile, Totals};
use workload::{Cost, Job, Workload};

const USAGE: &str = "usage: alsrac-perfbench --workload <er_suite|distance|scale_engine> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// Set-ups per `--trace 0` run at least; `setup_s` is the fastest. The
/// shared VMs the bounds were set on slow down in bursts of a few
/// seconds: over 90 s of back-to-back `er_suite` set-ups, the median of a
/// 2 s window varied by 22% (interquartile range over median) between
/// windows, its minimum by 7%, and the minimum of a 5 s window by 3%. So
/// the set-ups are spread over the run and the fastest is reported.
const SETUP_REPS: usize = 2;
/// Wall seconds the set-ups fill at least: the 25 ms set-up of `er_suite`
/// repeats about 120 times, the 7 s one of `scale_engine` twice.
const SETUP_SECONDS: f64 = 3.0;
/// Runs per job the closed loop makes at least. On the shared VMs the
/// bounds were set on, one job's wall time varies by 13% (coefficient of
/// variation) between back-to-back runs, and a process's first run is the
/// slowest; the fastest of two or more runs is the steadier estimate.
const MIN_RUNS: usize = 2;
/// Pool threads of every flow run (capped by the machine's parallelism).
const POOL_THREADS: usize = 2;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// What a run reports on its last line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() {
    let args = parse_args().unwrap_or_else(|problem| {
        eprintln!("error: {problem}\n{USAGE}");
        std::process::exit(2)
    });
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(POOL_THREADS);
    println!(
        "workload {} seed {} threads {threads}{}",
        args.workload.name(),
        args.seed,
        if args.smoke { " (smoke)" } else { "" }
    );
    let report = if args.trace {
        traced(&args, threads)
    } else {
        measured(&args, threads)
    };
    let mut metrics = Obj::new();
    let mut finite = true;
    for m in &report.metrics {
        println!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
        finite &= m.value.is_finite();
        metrics = metrics.obj(
            &m.name,
            Obj::new().f64("value", m.value).str("unit", m.unit),
        );
    }
    if !finite {
        eprintln!("error: a metric is not a finite number");
    }
    let line = Obj::new()
        .bool("correct", finite && report.failed == 0)
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .obj("metrics", metrics)
        .finish();
    println!("{line}");
}

/// Per-job state of the closed loop.
#[derive(Default)]
struct Tally {
    secs: Vec<f64>,
    result: Option<(FlowResult, u64)>,
    failed_runs: u64,
    problem: Option<String>,
}

/// One set-up: generates the workload's jobs and maps their original
/// circuits. Returns the jobs, their costs and the wall seconds taken.
fn set_up(args: &Args) -> (Vec<Job>, Vec<Cost>, f64) {
    let start = Instant::now();
    let jobs = workload::jobs(args.workload, args.seed, args.smoke);
    let costs = jobs.iter().map(|j| Cost::of(&j.original)).collect();
    (jobs, costs, start.elapsed().as_secs_f64())
}

/// The untraced run: set-up, the closed loop, output checks, and the
/// end-to-end metrics.
fn measured(args: &Args, threads: usize) -> Report {
    let (jobs, costs, first_setup) = set_up(args);
    // The first set-up makes the jobs. The others are spread evenly over
    // the closed loop's first `MIN_RUNS` passes, between job runs, so
    // that `setup_s` (the fastest) does not hang on one burst.
    let mut setup_secs = vec![first_setup];
    let setups = SETUP_REPS.max((SETUP_SECONDS / first_setup).ceil() as usize);
    let slots = MIN_RUNS * jobs.len();

    let mut tallies: Vec<Tally> = jobs.iter().map(|_| Tally::default()).collect();
    let mut peak_heap: f64 = 0.0;
    let start = Instant::now();
    for i in 0.. {
        while i > 0 && i <= slots && setup_secs.len() < 1 + (setups - 1) * i / slots {
            setup_secs.push(set_up(args).2);
        }
        if i >= MIN_RUNS * jobs.len() && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let (job, tally) = (&jobs[i % jobs.len()], &mut tallies[i % jobs.len()]);
        heap::reset_peak();
        let Run { secs, outcome } = run_job(job, threads);
        peak_heap = peak_heap.max(heap::peak_mb());
        tally.secs.push(secs);
        match (outcome, &tally.result) {
            (Err(problem), _) => {
                tally.failed_runs += 1;
                tally.problem = Some(problem);
            }
            (Ok(result), None) => {
                let print = fingerprint(&result);
                tally.result = Some((result, print));
            }
            (Ok(result), Some((_, print))) => {
                if fingerprint(&result) != *print {
                    tally.failed_runs += 1;
                    tally.problem = Some("a rerun produced a different result".into());
                }
            }
        }
    }

    let mut synth_s = 0.0;
    let (mut ratios, mut iterations) = (Vec::new(), Vec::new());
    for ((job, tally), before) in jobs.iter().zip(&mut tallies).zip(&costs) {
        let fastest = fastest(&tally.secs);
        synth_s += fastest;
        if let Some((result, _)) = &tally.result {
            let check = match independent_check(job, result) {
                Ok(check) => check,
                Err(problem) => {
                    tally.failed_runs = tally.secs.len() as u64;
                    tally.problem = Some(problem);
                    "failed".into()
                }
            };
            let after = Cost::of(&result.approx);
            ratios.push([
                after.ands.max(1.0) / before.ands.max(1.0),
                after.area / before.area,
                after.delay / before.delay,
                after.luts.max(1.0) / before.luts.max(1.0),
            ]);
            iterations.push(result.iterations as f64);
            println!(
                "  job {:<16} runs {} fastest {fastest:.3} s median {:.3} s  ands {} -> {}  iterations {} accepts {}  error {}  check {check}",
                job.name,
                tally.secs.len(),
                median(&tally.secs),
                before.ands,
                after.ands,
                result.iterations,
                result.applied,
                result.measured.value(job.config.metric).unwrap_or(f64::NAN),
            );
        }
        if let Some(problem) = &tally.problem {
            println!("  job {:<16} FAILED: {problem}", job.name);
        }
    }
    let attempted: u64 = tallies.iter().map(|t| t.secs.len() as u64).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed_runs).sum();
    let geomean = |k: usize| {
        let logs: Vec<f64> = ratios.iter().map(|r| r[k].ln()).collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    Report {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", fastest(&setup_secs), "s"),
            Metric::new("synth_s", synth_s, "s"),
            Metric::new("and_ratio", geomean(0), "ratio"),
            Metric::new("area_ratio", geomean(1), "ratio"),
            Metric::new("delay_ratio", geomean(2), "ratio"),
            Metric::new("lut_ratio", geomean(3), "ratio"),
            Metric::new("ok_share", 1.0 - failed as f64 / attempted as f64, "share"),
            Metric::new(
                "iterations_per_job",
                iterations.iter().sum::<f64>() / iterations.len() as f64,
                "count",
            ),
            Metric::new("peak_heap_mb", peak_heap, "MB"),
        ],
    }
}

/// The traced run: each job on one thread, untraced and traced (all
/// three must agree), the output check, the sub-phase probes, and the
/// per-layer metrics.
fn traced(args: &Args, threads: usize) -> Report {
    let jobs = workload::jobs(args.workload, args.seed, args.smoke);
    let capture = Capture::default();
    let (mut totals, mut counts) = (Totals::default(), FlowCounts::default());
    let (mut untraced_secs, mut traced_secs) = (0.0, 0.0);
    let mut failed = 0;
    let mut optimize_calls = 0;
    let mut passes = PassProbe::default();
    let mut stages = Spans::default();
    let mut stages_agree = 0;
    for (k, job) in jobs.iter().enumerate() {
        // The one-thread run goes first and takes the job's first-run
        // penalty. The untraced and traced runs then swap order from job
        // to job, so neither side of `trace.overhead` always runs first.
        let serial = run_job(job, 1);
        let (untraced, (traced, own)) = if k % 2 == 0 {
            let untraced = run_job(job, threads);
            let traced = traced_run(job, threads, &capture, &mut counts, &mut totals);
            (untraced, traced)
        } else {
            let traced = traced_run(job, threads, &capture, &mut counts, &mut totals);
            (run_job(job, threads), traced)
        };
        untraced_secs += untraced.secs;
        traced_secs += traced.secs;
        let flow = own.secs("flow");
        let share = |phase: &str| own.secs(&format!("flow/{phase}")) / flow;
        println!(
            "  job {:<16} flow {flow:.3} s  optimize {:.3}  lac_gen {:.3}  estimate {:.3}  apply {:.3}",
            job.name,
            share("optimize"),
            share("lac_gen"),
            share("estimate"),
            share("apply"),
        );

        let problem = pool::with_threads(threads, || {
            check_traced(job, [&untraced, &traced, &serial], &mut passes)
        });
        if let Ok(result) = &traced.outcome {
            // The flow opens the `optimize` span on every accept, and
            // optimizes inside it only when the configuration optimizes
            // after every accept (every job here except `scale_engine`'s).
            if job.config.optimize_after_apply && job.config.optimize_period == 1 {
                optimize_calls += result.applied as u64;
            }
        }
        let agrees = lac_gen_stages(&job.original, &job.config, &mut stages);
        stages_agree += u64::from(agrees);
        if !agrees {
            println!(
                "  job {:<16} lac_gen stage probe disagrees with generate_lacs_with",
                job.name
            );
        }
        if let Err(problem) = problem {
            failed += 1;
            println!("  job {:<16} FAILED: {problem}", job.name);
        }
    }
    let profile = Profile {
        totals: &totals,
        counts: &counts,
        optimize_calls,
        passes: &passes,
        stages: &stages,
        stages_agree,
        trace_overhead: traced_secs / untraced_secs,
    };
    Report {
        attempted: jobs.len() as u64,
        failed,
        metrics: profile.metrics(),
    }
}

/// Runs `job` with tracing on into `capture`, adds its termination
/// accounting to `counts` and its spans and counters to `totals`, and
/// returns the run with its own spans and counters.
fn traced_run(
    job: &Job,
    threads: usize,
    capture: &Capture,
    counts: &mut FlowCounts,
    totals: &mut Totals,
) -> (Run, Totals) {
    trace::reset();
    trace::enable_writer(Box::new(capture.clone()));
    let run = run_job(job, threads);
    trace::disable();
    let snapshot = trace::snapshot();
    trace::reset();
    counts.add_run(&capture.take_records(), job.config.max_iterations);
    totals.add(&snapshot);
    let mut own = Totals::default();
    own.add(&snapshot);
    (run, own)
}

/// Checks one job of the traced run: the untraced, traced and one-thread
/// results must exist and agree, pass the independent error check, and
/// every probed optimizer pass on the input and final circuit must keep
/// its function.
fn check_traced(job: &Job, runs: [&Run; 3], passes: &mut PassProbe) -> Result<(), String> {
    let mut results = Vec::with_capacity(runs.len());
    for run in runs {
        results.push(run.outcome.as_ref().map_err(Clone::clone)?);
    }
    let print = fingerprint(results[0]);
    if results[1..].iter().any(|r| fingerprint(r) != print) {
        return Err("traced or one-thread result differs from the untraced one".into());
    }
    independent_check(job, results[0])?;
    let before = passes.inequivalent;
    passes.run(&job.original, job.config.seed);
    passes.run(&results[0].approx, job.config.seed);
    if passes.inequivalent > before {
        return Err("an optimizer pass changed the function of its input".into());
    }
    Ok(())
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}
