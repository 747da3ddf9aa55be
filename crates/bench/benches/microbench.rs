//! Micro-benchmarks for the performance-critical kernels: bit-parallel
//! simulation, ISOP computation, cut enumeration, care-set harvesting,
//! flip influence on all lanes and on a candidate's change lanes, LAC
//! generation, batch error estimation, the traditional optimizer, and both
//! technology mappers.
//!
//! Runs on the `alsrac-rt` timer: `cargo bench -p alsrac-bench` takes full
//! timed samples; any other invocation (e.g. `cargo test`, which executes
//! `harness = false` bench targets) does a one-iteration smoke run.

use std::hint::black_box;

use alsrac::care::ApproximateCareSet;
use alsrac::estimate::Estimator;
use alsrac::lac::{generate_lacs, generate_lacs_with, LacConfig};
use alsrac::window::WindowConfig;
use alsrac_circuits::arith;
use alsrac_map::cell::{map_cells, Library};
use alsrac_map::lut::map_luts;
use alsrac_metrics::ErrorMetric;
use alsrac_rt::bench::Runner;
use alsrac_sim::{FlipInfluence, InfluenceScratch, OutputIndex, PatternBuffer, Simulation};
use alsrac_truthtable::{isop, Tt};

fn bench_sweep(runner: &mut Runner) {
    let aig = arith::array_multiplier(8);
    let patterns = PatternBuffer::random(16, 4096, 7);
    runner.bench("simulate mtp8 x 4096 patterns", || {
        black_box(Simulation::new(black_box(&aig), black_box(&patterns)));
    });
}

fn bench_isop(runner: &mut Runner) {
    let f = Tt::from_fn(8, |p| (p * 2654435761) % 7 < 3);
    runner.bench("isop 8-var pseudorandom", || {
        black_box(isop(black_box(&f), black_box(&f)));
    });
}

fn bench_cuts(runner: &mut Runner) {
    let aig = arith::wallace_multiplier(8);
    runner.bench("4-cut enumeration wal8", || {
        black_box(black_box(&aig).enumerate_cuts(4, 8));
    });
}

fn bench_care_harvest(runner: &mut Runner) {
    let aig = arith::kogge_stone_adder(16);
    let patterns = PatternBuffer::random(32, 32, 3);
    let sim = Simulation::new(&aig, &patterns);
    let node = aig.iter_ands().last().expect("ands");
    let [f0, f1] = aig.and_fanins(node);
    let divisors = [f0.node().lit(), f1.node().lit()];
    runner.bench("care harvest ksa16 (2 divisors, N=32)", || {
        black_box(ApproximateCareSet::harvest(
            black_box(&sim),
            black_box(&patterns),
            node.lit(),
            &divisors,
        ));
    });
}

fn bench_influence(runner: &mut Runner) {
    let aig = arith::array_multiplier(6);
    let patterns = PatternBuffer::random(12, 2048, 9);
    let sim = Simulation::new(&aig, &patterns);
    let fanouts = aig.fanout_map();
    let outputs = OutputIndex::new(&aig);
    let mut scratch = InfluenceScratch::new();
    // A real candidate's change lanes: where its cover, appended to a copy
    // of the graph, disagrees with the node it replaces.
    let care_patterns = PatternBuffer::random(12, 16, 8);
    let care_sim = Simulation::new(&aig, &care_patterns);
    let lacs = generate_lacs(
        &aig,
        &care_sim,
        &care_patterns,
        &fanouts,
        &LacConfig::default(),
    );
    let lac = &lacs[lacs.len() / 2];
    let mut with_cover = aig.clone();
    let cover = lac.materialize(&mut with_cover);
    let cover_sim = Simulation::new(&with_cover, &patterns);
    let change: Vec<u64> = (0..sim.num_words())
        .map(|w| cover_sim.lit_word(cover, w) ^ cover_sim.lit_word(lac.node, w))
        .collect();
    let all = vec![u64::MAX; sim.num_words()];
    let node = lac.node.node();
    for (name, lanes) in [
        ("flip influence mtp6 x 2048, all lanes", &all),
        ("flip influence mtp6 x 2048, LAC lanes", &change),
    ] {
        runner.bench(name, || {
            black_box(FlipInfluence::compute(
                black_box(&aig),
                &sim,
                &fanouts,
                &outputs,
                node,
                lanes,
                &mut scratch,
            ));
        });
    }
}

fn bench_lac_generation(runner: &mut Runner) {
    // 3,720 ANDs: four pivot blocks.
    let aig = arith::array_multiplier(20);
    let patterns = PatternBuffer::random(aig.num_inputs(), 64, 4);
    let sim = Simulation::new(&aig, &patterns);
    let fanouts = aig.fanout_map();
    runner.bench("windowed LAC generation mtp20 x 64", || {
        black_box(generate_lacs_with(
            black_box(&aig),
            &sim,
            &patterns,
            &fanouts,
            &LacConfig::default(),
            &WindowConfig::default(),
        ));
    });
}

fn bench_batch_estimation(runner: &mut Runner) {
    let aig = arith::kogge_stone_adder(8);
    let care_patterns = PatternBuffer::random(16, 16, 5);
    let care_sim = Simulation::new(&aig, &care_patterns);
    let fanouts = aig.fanout_map();
    let lacs = generate_lacs(
        &aig,
        &care_sim,
        &care_patterns,
        &fanouts,
        &LacConfig::default(),
    );
    let est_patterns = PatternBuffer::random(16, 2048, 6);
    let outputs = Simulation::new(&aig, &est_patterns).output_words(&aig);
    runner.bench("batch estimate all LACs ksa8", || {
        let sim = Simulation::new(&aig, &est_patterns);
        let estimator = Estimator::new(
            &outputs,
            &sim,
            &aig,
            &est_patterns,
            &fanouts,
            ErrorMetric::ErrorRate,
        );
        black_box(estimator.estimate_all(black_box(&lacs)));
    });
}

fn bench_optimizer(runner: &mut Runner) {
    let aig = arith::carry_lookahead_adder(8);
    runner.bench("resyn2-lite cla8", || {
        black_box(alsrac_synth::optimize(black_box(&aig)));
    });
}

fn bench_mappers(runner: &mut Runner) {
    let aig = arith::wallace_multiplier(6);
    runner.bench("6-LUT map wal6", || {
        black_box(map_luts(black_box(&aig), 6));
    });
    let library = Library::mcnc();
    runner.bench("cell map wal6", || {
        black_box(map_cells(black_box(&aig), &library));
    });
}

fn main() {
    let mut runner = Runner::from_args();
    bench_sweep(&mut runner);
    bench_isop(&mut runner);
    bench_cuts(&mut runner);
    bench_care_harvest(&mut runner);
    bench_influence(&mut runner);
    bench_lac_generation(&mut runner);
    bench_batch_estimation(&mut runner);
    bench_optimizer(&mut runner);
    bench_mappers(&mut runner);
    runner.finish();
}
