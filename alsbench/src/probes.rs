//! Sub-phase probes from outside the program: the two phases the flow
//! times only as a whole (`optimize` and `lac_gen`) are re-run here stage
//! by stage through their public entry points, with benchmark-side spans
//! around each stage.

use std::collections::BTreeMap;
use std::time::Instant;

use alsrac::care::ApproximateCareSet;
use alsrac::divisors::select_divisor_sets_with;
use alsrac::flow::FlowConfig;
use alsrac::lac::generate_lacs_with;
use alsrac::window::provably_infeasible;
use alsrac_aig::{Aig, Lit, MffcScratch, WindowExtractor};
use alsrac_rt::{derive_indexed, Stream};
use alsrac_sim::{PatternBuffer, Signatures, Simulation};
use alsrac_synth::{balance, refactor, rewrite, sweep, RefactorConfig, RewriteConfig};
use alsrac_truthtable::{factored_aig_cost, isop, minimize};

use crate::checks::equivalent;

/// Benchmark-side spans: total nanoseconds per span name.
#[derive(Clone, Debug, Default)]
pub struct Spans(pub BTreeMap<&'static str, u64>);

impl Spans {
    /// Runs `f` inside the span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        *self.0.entry(name).or_insert(0) += start.elapsed().as_nanos() as u64;
        result
    }
}

/// One `resyn2_lite` pass kind.
#[derive(Clone, Copy, Debug)]
enum Pass {
    Balance,
    Rewrite,
    RewriteZ,
    Refactor,
    RefactorZ,
}

/// The pass sequence of `alsrac_synth::resyn2_lite`
/// (`b; rw; rf; b; rw; rwz; b; rfz; rwz; b`), which `optimize` runs after
/// `sweep`.
const RESYN2_LITE: [Pass; 10] = [
    Pass::Balance,
    Pass::Rewrite,
    Pass::Refactor,
    Pass::Balance,
    Pass::Rewrite,
    Pass::RewriteZ,
    Pass::Balance,
    Pass::RefactorZ,
    Pass::RewriteZ,
    Pass::Balance,
];

impl Pass {
    /// Every pass kind, for reporting.
    const KINDS: [Pass; 5] = [
        Pass::Balance,
        Pass::Rewrite,
        Pass::RewriteZ,
        Pass::Refactor,
        Pass::RefactorZ,
    ];

    /// The metric stem of the pass.
    fn name(self) -> &'static str {
        match self {
            Pass::Balance => "synth.balance",
            Pass::Rewrite => "synth.rewrite",
            Pass::RewriteZ => "synth.rewrite_z",
            Pass::Refactor => "synth.refactor",
            Pass::RefactorZ => "synth.refactor_z",
        }
    }

    fn apply(self, aig: &Aig) -> Aig {
        let rw = |zero_gain| RewriteConfig {
            zero_gain,
            ..RewriteConfig::default()
        };
        let rf = |zero_gain| RefactorConfig {
            zero_gain,
            ..RefactorConfig::default()
        };
        match self {
            Pass::Balance => balance(aig),
            Pass::Rewrite => rewrite(aig, &rw(false)),
            Pass::RewriteZ => rewrite(aig, &rw(true)),
            Pass::Refactor => refactor(aig, &rf(false)),
            Pass::RefactorZ => refactor(aig, &rf(true)),
        }
    }
}

/// What the optimizer probe saw over all circuits it ran on.
#[derive(Clone, Debug, Default)]
pub struct PassProbe {
    /// Seconds per pass kind (span names from [`Pass::name`]).
    pub spans: Spans,
    /// ANDs removed per pass kind (negative when a pass adds nodes).
    pub ands_removed: BTreeMap<&'static str, i64>,
    /// Pass calls whose output was not equivalent to their input.
    pub inequivalent: usize,
}

impl PassProbe {
    /// The pass-kind metric stems in report order.
    pub fn stems() -> impl Iterator<Item = &'static str> {
        Pass::KINDS.into_iter().map(Pass::name)
    }

    /// Runs `sweep` and then each `resyn2_lite` pass on `circuit` inside
    /// its own span, checking every pass output against its input.
    pub fn run(&mut self, circuit: &Aig, seed: u64) {
        let mut current = sweep(circuit);
        for (i, pass) in RESYN2_LITE.into_iter().enumerate() {
            let next = self.spans.time(pass.name(), || pass.apply(&current));
            *self.ands_removed.entry(pass.name()).or_insert(0) +=
                current.num_ands() as i64 - next.num_ands() as i64;
            if !equivalent(&current, &next, seed.wrapping_add(i as u64)) {
                self.inequivalent += 1;
            }
            current = next;
        }
    }
}

/// The `lac_gen` stage names, in pipeline order.
pub const LAC_STAGES: [&str; 5] = [
    "lac_gen.signatures",
    "lac_gen.window",
    "lac_gen.divisors",
    "lac_gen.harvest",
    "lac_gen.isop",
];

/// Re-runs `generate_lacs_with` stage by stage on the care simulation of
/// the flow's first iteration (the cleaned input circuit, the flow's
/// first care-pattern draw), adding each stage's time to `spans`. Returns
/// whether the staged candidate list equals `generate_lacs_with`'s.
///
/// Stages: `signatures` is the signature table and its infeasibility
/// screen, `window` the window extraction plus the pivot's MFFC size,
/// `divisors` Algorithm 1, `harvest` the care-set harvest, and `isop`
/// ISOP, minimization and cost. Each stage time includes one clock read.
pub fn lac_gen_stages(original: &Aig, config: &FlowConfig, spans: &mut Spans) -> bool {
    let aig = original.cleaned();
    let patterns = PatternBuffer::random(
        aig.num_inputs(),
        config.initial_rounds,
        derive_indexed(config.seed, Stream::Care, 1),
    );
    let sim = Simulation::new(&aig, &patterns);
    let fanouts = aig.fanout_map();
    let (lac, window) = (&config.lac, &config.window);

    let levels = fanouts.levels();
    let signatures = spans.time(LAC_STAGES[0], || {
        window
            .enabled
            .then(|| Signatures::build(&aig, &sim, &patterns))
    });
    let params = window.params();
    let mut extractor = WindowExtractor::new();
    let mut mffc_scratch = MffcScratch::new();
    // (node, divisors, cover, cost, saved) per candidate, for the
    // agreement check against the production entry point.
    let mut staged = Vec::new();
    for node in aig.iter_ands() {
        let (mffc_size, extracted) = spans.time(LAC_STAGES[1], || {
            let mffc_size = aig.mffc_with(node, &fanouts, &mut mffc_scratch).len();
            let extracted = signatures
                .is_some()
                .then(|| extractor.extract(&aig, &fanouts, node, &params));
            (mffc_size, extracted)
        });
        let sets = spans.time(LAC_STAGES[2], || {
            select_divisor_sets_with(&aig, node, levels, extracted.as_ref(), &lac.divisors)
        });
        let mut count = 0;
        for divisors in sets {
            if count >= lac.lac_limit {
                break;
            }
            if let Some(sigs) = &signatures {
                if spans.time(LAC_STAGES[0], || provably_infeasible(sigs, node, &divisors)) {
                    continue;
                }
            }
            let divisors: Vec<Lit> = divisors.iter().map(|d| d.lit()).collect();
            let Some(care) = spans.time(LAC_STAGES[3], || {
                ApproximateCareSet::harvest(&sim, &patterns, node.lit(), &divisors)
            }) else {
                continue;
            };
            let (cover, cost) = spans.time(LAC_STAGES[4], || {
                let on = care.on_set();
                let dc = care.dont_care_set();
                let cover = minimize(&isop(on, &on.or(&dc)), on, &dc);
                let cost = factored_aig_cost(&cover, divisors.len());
                (cover, cost)
            });
            staged.push(format!(
                "{:?} {:?} {:?} {cost} {mffc_size}",
                node.lit(),
                divisors,
                cover
            ));
            count += 1;
        }
    }

    let production: Vec<String> = generate_lacs_with(&aig, &sim, &patterns, &fanouts, lac, window)
        .iter()
        .map(|l| {
            format!(
                "{:?} {:?} {:?} {} {}",
                l.node, l.divisors, l.cover, l.est_cost, l.est_saved
            )
        })
        .collect();
    staged == production
}
